//! Error type for the runtime crate.

use std::fmt;

/// Errors produced by the multi-threaded runtimes.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Configuration and problem dimensions disagree.
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
    /// A worker thread panicked.
    WorkerPanicked {
        /// Worker index.
        worker: usize,
    },
    /// An iterate became non-finite (operator divergence).
    NonFiniteIterate {
        /// Global step at which the divergence was observed.
        at_step: u64,
        /// Component that diverged.
        component: usize,
    },
    /// A session control the backend cannot honour, as the
    /// `asynciter_core::session::RunControl` checks report it.
    Control(asynciter_core::CoreError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::DimensionMismatch {
                expected,
                actual,
                context,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
            RuntimeError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            RuntimeError::WorkerPanicked { worker } => {
                write!(f, "worker {worker} panicked")
            }
            RuntimeError::NonFiniteIterate { at_step, component } => {
                write!(
                    f,
                    "non-finite iterate at step {at_step}, component {component}"
                )
            }
            RuntimeError::Control(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<asynciter_core::CoreError> for RuntimeError {
    fn from(e: asynciter_core::CoreError) -> Self {
        RuntimeError::Control(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = RuntimeError::WorkerPanicked { worker: 3 };
        assert!(e.to_string().contains("worker 3"));
    }
}
