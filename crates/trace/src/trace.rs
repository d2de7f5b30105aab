//! A finished trace and query helpers.

use crate::event::{Event, EventKind, MonitoredVar};
use crate::ids::Rank;
use std::sync::OnceLock;

/// An immutable, sequence-ordered recording of one run.
///
/// The rank list is computed lazily on first use and cached: traces are
/// immutable after construction, and both the detector's shard planner and
/// the baselines call [`Trace::ranks`] repeatedly, so the sort+dedup pass
/// should happen once per trace, not once per call.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<Event>,
    ranks: OnceLock<Vec<Rank>>,
}

impl Trace {
    /// Build from events (will be sorted by sequence number).
    pub fn from_events(mut events: Vec<Event>) -> Self {
        // A recording is already in order; the stable sort would still
        // allocate its scratch buffer.
        if !events.is_sorted_by_key(|e| e.seq) {
            events.sort_by_key(|e| e.seq);
        }
        Trace {
            events,
            ranks: OnceLock::new(),
        }
    }

    /// All events, in observation order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The events, in observation order, as the buffer that holds them.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ranks that appear in the trace, ascending and deduplicated.
    /// Computed once and cached (the trace is immutable).
    pub fn ranks(&self) -> &[Rank] {
        self.ranks.get_or_init(|| {
            let mut rs: Vec<Rank> = self.events.iter().map(|e| e.rank).collect();
            rs.sort_unstable();
            rs.dedup();
            rs
        })
    }

    /// Events of one rank, in observation order.
    pub fn by_rank(&self, rank: Rank) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.rank == rank)
    }

    /// All monitored-variable writes (the HOME wrappers' output).
    pub fn monitored_writes(&self) -> impl Iterator<Item = &Event> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MonitoredWrite { .. }))
    }

    /// Monitored writes touching one specific variable.
    pub fn monitored_writes_of(&self, var: MonitoredVar) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(
            move |e| matches!(&e.kind, EventKind::MonitoredWrite { var: v, .. } if *v == var),
        )
    }

    /// All MPI call-entry events.
    pub fn mpi_calls(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| {
            matches!(
                e.kind,
                EventKind::MpiCall { .. } | EventKind::MpiInit { .. }
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, MemLoc, MpiCallKind, MpiCallRecord};
    use crate::ids::{Tid, VarId};

    fn ev(seq: u64, rank: u32, kind: EventKind) -> Event {
        Event {
            seq,
            rank: Rank(rank),
            tid: Tid(0),
            region: None,
            time_ns: 0,
            loc: None,
            kind,
        }
    }

    fn sample() -> Trace {
        Trace::from_events(vec![
            ev(
                2,
                1,
                EventKind::MonitoredWrite {
                    var: MonitoredVar::Tag,
                    call: MpiCallRecord::of_kind(MpiCallKind::Recv),
                },
            ),
            ev(
                0,
                0,
                EventKind::Access {
                    loc: MemLoc::Var(VarId(0)),
                    kind: AccessKind::Read,
                },
            ),
            ev(
                1,
                0,
                EventKind::MpiCall {
                    call: MpiCallRecord::of_kind(MpiCallKind::Send),
                },
            ),
        ])
    }

    #[test]
    fn events_sorted_by_seq() {
        let t = sample();
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn rank_queries() {
        let t = sample();
        assert_eq!(t.ranks(), vec![Rank(0), Rank(1)]);
        assert_eq!(t.by_rank(Rank(0)).count(), 2);
        assert_eq!(t.by_rank(Rank(1)).count(), 1);
    }

    #[test]
    fn kind_queries() {
        let t = sample();
        assert_eq!(t.monitored_writes().count(), 1);
        assert_eq!(t.monitored_writes_of(MonitoredVar::Tag).count(), 1);
        assert_eq!(t.monitored_writes_of(MonitoredVar::Src).count(), 0);
        assert_eq!(t.mpi_calls().count(), 1);
    }
}
