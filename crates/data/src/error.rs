//! Error type for data synthesis.

use insitu_tensor::TensorError;
use std::fmt;

/// Error produced by dataset construction or jigsaw preparation.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A configuration value is out of range.
    BadConfig {
        /// Human-readable description.
        reason: String,
    },
    /// An image does not have the expected `(C, H, W)` shape.
    BadImage {
        /// Expected shape.
        expected: Vec<usize>,
        /// Actual shape.
        actual: Vec<usize>,
    },
    /// The ingestion producer thread panicked.
    ProducerPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Tensor(e) => write!(f, "tensor error: {e}"),
            DataError::BadConfig { reason } => write!(f, "bad configuration: {reason}"),
            DataError::BadImage { expected, actual } => {
                write!(f, "bad image shape: expected {expected:?}, got {actual:?}")
            }
            DataError::ProducerPanicked { message } => {
                write!(f, "ingest producer panicked: {message}")
            }
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for DataError {
    fn from(e: TensorError) -> Self {
        DataError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = DataError::BadConfig { reason: "zero classes".into() };
        assert!(e.to_string().contains("zero classes"));
        let t: DataError = TensorError::InvalidGeometry { reason: "x".into() }.into();
        assert!(std::error::Error::source(&t).is_some());
    }
}
