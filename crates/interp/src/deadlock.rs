//! Deadlock reports.

use crate::state::BlockReason;
use crate::vtid::Vtid;
use std::fmt;

/// One blocked thread in a deadlock report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedThread {
    /// The blocked virtual thread.
    pub vtid: Vtid,
    /// Its human-readable name (as given at spawn).
    pub name: String,
    /// Why it was blocked.
    pub reason: BlockReason,
}

impl fmt::Display for BlockedThread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}) blocked on {}",
            self.name, self.vtid, self.reason
        )
    }
}

/// A whole-system deadlock: every live virtual thread was blocked.
///
/// Produced by the deterministic scheduler and surfaced through
/// [`crate::SchedError::Deadlock`] to every blocked thread. The HOME
/// pipeline converts this into a diagnosis (e.g. the Figure 2 case study
/// deadlocks when both threads of rank 1 block in `MPI_Recv` on the same
/// tag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockInfo {
    /// All threads that were blocked when the deadlock was declared.
    pub blocked: Vec<BlockedThread>,
    /// Scheduling step at which the deadlock was declared.
    pub step: u64,
}

impl DeadlockInfo {
    /// True if some blocked thread's reason description contains `needle`.
    pub fn involves(&self, needle: &str) -> bool {
        self.blocked
            .iter()
            .any(|b| b.reason.to_string().contains(needle) || b.name.contains(needle))
    }
}

impl fmt::Display for DeadlockInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} thread(s) blocked at step {}: ",
            self.blocked.len(),
            self.step
        )?;
        for (i, b) in self.blocked.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeadlockInfo {
        DeadlockInfo {
            blocked: vec![
                BlockedThread {
                    vtid: Vtid::from_index(0),
                    name: "rank0.t1".into(),
                    reason: BlockReason::Message("MPI_Recv(src=1, tag=0)".into()),
                },
                BlockedThread {
                    vtid: Vtid::from_index(1),
                    name: "rank1.t0".into(),
                    reason: BlockReason::Message("MPI_Recv(src=0, tag=0)".into()),
                },
            ],
            step: 42,
        }
    }

    #[test]
    fn display_mentions_all() {
        let s = sample().to_string();
        assert!(s.contains("rank0.t1"));
        assert!(s.contains("rank1.t0"));
        assert!(s.contains("step 42"));
    }

    #[test]
    fn involves_matches_reason_and_name() {
        let d = sample();
        assert!(d.involves("MPI_Recv"));
        assert!(d.involves("rank1"));
        assert!(!d.involves("MPI_Send"));
    }
}
