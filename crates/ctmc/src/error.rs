use std::error::Error;
use std::fmt;

/// Errors from CTMC construction and solving.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CtmcError {
    /// State-space exploration exceeded the configured limit.
    StateExplosion {
        /// The limit that was hit.
        limit: usize,
    },
    /// A model emitted a negative or non-finite transition rate.
    InvalidRate {
        /// The offending rate.
        rate: f64,
    },
    /// The requested time is negative or non-finite.
    InvalidTime {
        /// The offending time.
        time: f64,
    },
    /// A solver input vector has the wrong length.
    DimensionMismatch {
        /// Length supplied.
        got: usize,
        /// Length expected.
        expected: usize,
    },
    /// A requested state index is not in the state space.
    StateOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of states in the space.
        states: usize,
    },
    /// The iteration did not converge within its budget.
    NotConverged {
        /// Iterations or terms consumed.
        iterations: usize,
    },
    /// A linear system was singular (e.g. reducible chain in steady-state).
    SingularSystem,
    /// The path-bound solver requires an acyclic chain, but a cycle was
    /// found (e.g. a scrubbing transition).
    NotAcyclic,
    /// The chain has no absorbing state where one is required.
    NoAbsorbingState,
}

impl fmt::Display for CtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtmcError::StateExplosion { limit } => {
                write!(f, "state space exceeds limit of {limit} states")
            }
            CtmcError::InvalidRate { rate } => write!(f, "invalid transition rate {rate}"),
            CtmcError::InvalidTime { time } => write!(f, "invalid time {time}"),
            CtmcError::DimensionMismatch { got, expected } => {
                write!(
                    f,
                    "vector length {got} does not match state count {expected}"
                )
            }
            CtmcError::StateOutOfRange { index, states } => {
                write!(f, "state index {index} is out of range for {states} states")
            }
            CtmcError::NotConverged { iterations } => {
                write!(f, "solver did not converge after {iterations} iterations")
            }
            CtmcError::SingularSystem => write!(f, "singular linear system"),
            CtmcError::NotAcyclic => write!(f, "chain contains a cycle"),
            CtmcError::NoAbsorbingState => write!(f, "chain has no absorbing state"),
        }
    }
}

impl Error for CtmcError {}
