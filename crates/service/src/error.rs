//! Service-layer errors with pinned, testable messages.
//!
//! Every rejection path a caller can hit — backpressure, malformed
//! specs, cancellation — renders an exact message that the error-path
//! tests (and the CLI's exit-code tests) assert verbatim, in the same
//! style as the model checker's CLI errors.

use std::fmt;

/// Everything the service can refuse to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded admission queue is at capacity (backpressure: the
    /// caller must retry later or shed load).
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The job spec failed validation; the message names the field.
    InvalidJob {
        /// What was wrong.
        message: String,
    },
    /// A cancel was issued for a tenant with nothing queued.
    NothingQueued {
        /// The tenant named by the cancel.
        tenant: u64,
    },
    /// The backend reported an error while running an admitted job.
    Backend {
        /// The backend's own message.
        message: String,
    },
    /// An admitted job panicked (an operator or engine bug); the drain
    /// and every other tenant carry on.
    JobPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull { capacity } => write!(
                f,
                "queue full: capacity {capacity} reached, job rejected (backpressure)"
            ),
            ServiceError::InvalidJob { message } => write!(f, "invalid job spec: {message}"),
            ServiceError::NothingQueued { tenant } => {
                write!(f, "nothing queued for tenant {tenant}")
            }
            ServiceError::Backend { message } => write!(f, "backend error: {message}"),
            ServiceError::JobPanicked { message } => write!(f, "job panicked: {message}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ServiceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_pinned() {
        assert_eq!(
            ServiceError::QueueFull { capacity: 4 }.to_string(),
            "queue full: capacity 4 reached, job rejected (backpressure)"
        );
        assert_eq!(
            ServiceError::InvalidJob {
                message: "workers must be >= 1 (got 0)".into()
            }
            .to_string(),
            "invalid job spec: workers must be >= 1 (got 0)"
        );
        assert_eq!(
            ServiceError::NothingQueued { tenant: 7 }.to_string(),
            "nothing queued for tenant 7"
        );
    }
}
