//! Race report types.

use home_trace::{AccessKind, MemLoc, MpiCallRecord, Rank, RegionId, SrcLoc, Tid};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One side of a detected race.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RaceAccess {
    /// Trace sequence number of the access event.
    pub seq: u64,
    /// OpenMP thread.
    pub tid: Tid,
    /// Parallel region instance (`None` = sequential part).
    pub region: Option<RegionId>,
    /// Read or write.
    pub kind: AccessKind,
    /// Source location, when the event carried one.
    pub loc: Option<SrcLoc>,
    /// The MPI call behind a monitored-variable write, when applicable.
    pub mpi: Option<MpiCallRecord>,
}

impl fmt::Display for RaceAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} by {}{}",
            self.kind,
            self.tid,
            match &self.loc {
                Some(l) => format!(" at {l}"),
                None => String::new(),
            }
        )?;
        if let Some(call) = &self.mpi {
            write!(f, " in {call}")?;
        }
        Ok(())
    }
}

/// A detected concurrency conflict on one memory location within one MPI
/// process: two accesses by different threads, at least one a write, with
/// no happens-before order and no common lock (depending on the detector
/// mode).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Race {
    /// The MPI process.
    pub rank: Rank,
    /// The racing location.
    pub loc: MemLoc,
    /// Earlier access (by trace sequence).
    pub first: RaceAccess,
    /// Later access.
    pub second: RaceAccess,
}

impl Race {
    /// True if both sides carry MPI call records (i.e. the race is on a
    /// monitored variable, connecting two MPI calls).
    pub fn is_monitored(&self) -> bool {
        self.first.mpi.is_some() && self.second.mpi.is_some()
    }

    /// The two MPI call records behind a monitored race, or `None` when
    /// either side lacks one (such a race cannot be matched against the
    /// MPI-metadata rules).
    pub fn mpi_pair(&self) -> Option<(&MpiCallRecord, &MpiCallRecord)> {
        match (&self.first.mpi, &self.second.mpi) {
            (Some(a), Some(b)) => Some((a, b)),
            _ => None,
        }
    }
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "race on {} in {}: [{}] vs [{}]",
            self.loc, self.rank, self.first, self.second
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use home_trace::{MonitoredVar, MpiCallKind};

    fn access(seq: u64, tid: u32, mpi: bool) -> RaceAccess {
        RaceAccess {
            seq,
            tid: Tid(tid),
            region: Some(RegionId(0)),
            kind: AccessKind::Write,
            loc: Some(SrcLoc::new("x.hmp", 3)),
            mpi: mpi.then(|| MpiCallRecord::of_kind(MpiCallKind::Recv)),
        }
    }

    #[test]
    fn monitored_race_requires_both_sides() {
        let r = Race {
            rank: Rank(0),
            loc: MemLoc::Monitored(MonitoredVar::Tag),
            first: access(1, 0, true),
            second: access(2, 1, true),
        };
        assert!(r.is_monitored());
        let r2 = Race {
            first: access(1, 0, false),
            ..r.clone()
        };
        assert!(!r2.is_monitored());
    }

    #[test]
    fn display_mentions_location_and_threads() {
        let r = Race {
            rank: Rank(1),
            loc: MemLoc::Monitored(MonitoredVar::Tag),
            first: access(1, 0, true),
            second: access(2, 1, true),
        };
        let s = r.to_string();
        assert!(s.contains("tagtmp"));
        assert!(s.contains("rank1"));
        assert!(s.contains("tid0"));
        assert!(s.contains("tid1"));
        assert!(s.contains("MPI_Recv"));
        assert!(s.contains("x.hmp:3"));
    }
}
