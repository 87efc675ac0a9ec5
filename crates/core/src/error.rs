//! Error type for the engine crate.

use std::fmt;

/// Errors produced by the asynchronous iteration engines.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Engine configuration and problem dimensions disagree.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Actual dimension.
        actual: usize,
        /// Context string.
        context: &'static str,
    },
    /// A configuration parameter is invalid.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint description.
        message: String,
    },
    /// Propagated model error.
    Model(asynciter_models::ModelError),
    /// An iterate became non-finite (divergence or operator bug).
    NonFiniteIterate {
        /// Iteration at which the non-finite value appeared.
        at_step: u64,
        /// Offending component.
        component: usize,
    },
    /// A worker thread of a racing backend panicked; its peers were
    /// stopped and the run returns this instead of a report.
    WorkerPanicked {
        /// Index of the worker that panicked.
        worker: usize,
    },
    /// A session backend was asked for a control it cannot honour (an
    /// explicit schedule, error or residual sampling, a stopping rule it
    /// cannot map). Built only by
    /// [`unsupported`](crate::session::unsupported); bad configuration
    /// is [`CoreError::InvalidParameter`] or
    /// [`CoreError::DimensionMismatch`].
    Backend {
        /// Backend name.
        backend: &'static str,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DimensionMismatch {
                expected,
                actual,
                context,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
            CoreError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::NonFiniteIterate { at_step, component } => write!(
                f,
                "iterate became non-finite at step {at_step}, component {component}"
            ),
            CoreError::WorkerPanicked { worker } => write!(f, "worker {worker} panicked"),
            CoreError::Backend { backend, message } => {
                write!(f, "backend `{backend}`: {message}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<asynciter_models::ModelError> for CoreError {
    fn from(e: asynciter_models::ModelError) -> Self {
        CoreError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = CoreError::NonFiniteIterate {
            at_step: 4,
            component: 2,
        };
        assert!(e.to_string().contains("step 4"));
        assert!(e.source().is_none());
        let e = CoreError::WorkerPanicked { worker: 3 };
        assert!(e.to_string().contains("worker 3"));
        let m: CoreError = asynciter_models::ModelError::EmptyTrace.into();
        assert!(m.source().is_some());
    }
}
