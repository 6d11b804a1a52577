//! Error type for the In-situ AI framework.

use insitu_data::DataError;
use insitu_nn::NnError;
use std::fmt;

/// Error produced by node construction, diagnosis, planning or the
/// update protocol.
#[derive(Debug)]
pub enum CoreError {
    /// A neural-network operation failed.
    Nn(NnError),
    /// A data operation failed.
    Data(DataError),
    /// A configuration is inconsistent (e.g. no feasible batch size).
    BadConfig {
        /// Human-readable description.
        reason: String,
    },
    /// The planner found no configuration meeting the constraints.
    Infeasible {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A model update's version is not newer than the installed one.
    StaleUpdate {
        /// The update's version.
        offered: u32,
        /// The version the node runs.
        installed: u32,
    },
    /// A model update carries a NaN or infinite parameter.
    NonFiniteUpdate {
        /// The update's version.
        version: u32,
        /// Which state dict: "inference" or "jigsaw".
        net: &'static str,
        /// Index of the first offending tensor in that dict.
        tensor: usize,
    },
    /// A runtime actor thread panicked instead of returning an error.
    ActorPanicked {
        /// Which actor died ("node", "cloud" or "producer").
        actor: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Nn(e) => write!(f, "network error: {e}"),
            CoreError::Data(e) => write!(f, "data error: {e}"),
            CoreError::BadConfig { reason } => write!(f, "bad configuration: {reason}"),
            CoreError::Infeasible { reason } => write!(f, "infeasible: {reason}"),
            CoreError::StaleUpdate { offered, installed } => {
                write!(f, "stale update: v{offered} is not newer than installed v{installed}")
            }
            CoreError::NonFiniteUpdate { version, net, tensor } => {
                write!(f, "non-finite value in {net} tensor {tensor} of update v{version}")
            }
            CoreError::ActorPanicked { actor, message } => {
                write!(f, "{actor} actor panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Nn(e) => Some(e),
            CoreError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for CoreError {
    fn from(e: NnError) -> Self {
        CoreError::Nn(e)
    }
}

impl From<DataError> for CoreError {
    /// A panicked ingest producer is a dead runtime actor, reported
    /// like a panicked node or Cloud; every other data error wraps.
    fn from(e: DataError) -> Self {
        match e {
            DataError::ProducerPanicked { message } => {
                CoreError::ActorPanicked { actor: "producer", message }
            }
            e => CoreError::Data(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = CoreError::Infeasible { reason: "no batch meets 1 ms".into() };
        assert!(e.to_string().contains("1 ms"));
        let n: CoreError = NnError::NoSuchLayer { layer: "x".into() }.into();
        assert!(std::error::Error::source(&n).is_some());
    }
}
