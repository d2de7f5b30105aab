//! Errors of the scheduler and of the MPI simulator.

use crate::DeadlockInfo;
use home_trace::MpiCallKind;

/// Errors surfaced to virtual threads by scheduler primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// Every live virtual thread was blocked; the run cannot make progress.
    Deadlock(DeadlockInfo),
    /// The run hit its step bound ([`crate::SchedConfig::max_steps`]) and was
    /// aborted.
    Shutdown,
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Deadlock(info) => write!(f, "deadlock detected: {info}"),
            SchedError::Shutdown => write!(f, "runtime shut down"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Result alias for scheduler primitives that can observe a deadlock.
pub(crate) type SchedResult<T> = Result<T, SchedError>;

/// Errors surfaced by simulated MPI calls.
///
/// Real MPI leaves most misuse as undefined behaviour; the simulator instead
/// reports it precisely, which both keeps the harness robust and gives the
/// checkers a ground truth to compare against.
#[derive(Debug, Clone, PartialEq)]
pub enum MpiError {
    /// An MPI call before `MPI_Init`/`MPI_Init_thread`.
    NotInitialized,
    /// `MPI_Init` called twice by the same process.
    AlreadyInitialized,
    /// An MPI call after `MPI_Finalize` on this process.
    AlreadyFinalized,
    /// A rank outside the communicator.
    InvalidRank { rank: i32, comm_size: usize },
    /// Unknown communicator handle.
    InvalidComm,
    /// Two processes (or two threads of one process) reached the same
    /// collective slot with different operations — the observable corruption
    /// caused by concurrent collective calls on one communicator.
    CollectiveMismatch {
        expected: MpiCallKind,
        got: MpiCallKind,
    },
    /// Mismatched payload lengths in a reduction.
    PayloadMismatch { expected: usize, got: usize },
    /// Unknown request handle.
    RequestUnknown,
    /// A request was completed twice (e.g. two threads concurrently waiting
    /// on the same shared request — the paper's request violation).
    RequestConsumed,
    /// The scheduler detected a deadlock or was shut down while this call
    /// was blocked.
    Sched(SchedError),
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::NotInitialized => write!(f, "MPI call before MPI_Init"),
            MpiError::AlreadyInitialized => write!(f, "MPI_Init called twice"),
            MpiError::AlreadyFinalized => write!(f, "MPI call after MPI_Finalize"),
            MpiError::InvalidRank { rank, comm_size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {comm_size}"
                )
            }
            MpiError::InvalidComm => write!(f, "invalid communicator"),
            MpiError::CollectiveMismatch { expected, got } => {
                write!(f, "collective mismatch: slot expects {expected}, got {got}")
            }
            MpiError::PayloadMismatch { expected, got } => {
                write!(f, "payload length mismatch: expected {expected}, got {got}")
            }
            MpiError::RequestUnknown => write!(f, "unknown MPI request"),
            MpiError::RequestConsumed => write!(f, "MPI request already completed/consumed"),
            MpiError::Sched(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MpiError {}

impl From<SchedError> for MpiError {
    fn from(e: SchedError) -> Self {
        MpiError::Sched(e)
    }
}

/// Result alias for simulated MPI calls.
pub(crate) type MpiResult<T> = Result<T, MpiError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings() {
        assert!(MpiError::NotInitialized.to_string().contains("MPI_Init"));
        assert!(MpiError::InvalidRank {
            rank: 9,
            comm_size: 4
        }
        .to_string()
        .contains("9"));
        let m = MpiError::CollectiveMismatch {
            expected: MpiCallKind::Barrier,
            got: MpiCallKind::Bcast,
        };
        assert!(m.to_string().contains("MPI_Barrier"));
        assert!(m.to_string().contains("MPI_Bcast"));
    }

    #[test]
    fn sched_error_converts() {
        let e: MpiError = SchedError::Shutdown.into();
        assert_eq!(e, MpiError::Sched(SchedError::Shutdown));
    }
}
