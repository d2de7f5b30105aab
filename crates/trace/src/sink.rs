//! Trace sinks and the collector handle used by the simulators.

use crate::event::{Event, EventKind};
use crate::ids::{LockId, Rank, RegionId, SrcLoc, Tid, VarId};
use crate::intern::Interner;
use crate::trace::Trace;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Where one run's recorded events go, in recording order. A run happens
/// on one thread, and a sink has one owner: `record` takes `&mut self`.
pub trait TraceSink {
    /// Record one event. Must be cheap: it runs inside the simulation.
    fn record(&mut self, event: Event);
}

/// Discards everything (baseline runs without any tool attached).
#[derive(Debug, Default)]
pub(crate) struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: Event) {}
}

/// Keeps every event; drained into a [`Trace`] at the end of the run.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Vec<Event>,
}

impl MemorySink {
    /// Create an empty in-memory sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Move all recorded events into a [`Trace`], leaving the sink empty.
    pub fn drain(&mut self) -> Trace {
        Trace::from_events(std::mem::take(&mut self.events))
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: Event) {
        self.events.push(event);
    }
}

/// Which event classes a tool wants recorded.
///
/// This is the knob that distinguishes the tools in the paper:
/// * **base** records nothing,
/// * **HOME** records monitored writes + sync + MPI calls, but only from
///   call sites the static analysis selected (site filtering happens in the
///   interpreter; class filtering here),
/// * **ITC** records *every* shared access as well,
/// * **Marmot** records MPI calls and monitored writes only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventFilter {
    /// Record plain shared-variable accesses.
    pub accesses: bool,
    /// Record monitored-variable writes.
    pub monitored: bool,
    /// Record synchronization events (locks, fork/join, barriers).
    pub sync: bool,
    /// Record MPI call entries.
    pub mpi_calls: bool,
}

impl EventFilter {
    /// Record everything.
    pub const ALL: EventFilter = EventFilter {
        accesses: true,
        monitored: true,
        sync: true,
        mpi_calls: true,
    };

    /// Record nothing.
    pub const NONE: EventFilter = EventFilter {
        accesses: false,
        monitored: false,
        sync: false,
        mpi_calls: false,
    };

    /// HOME's selection: monitored variables, synchronization, MPI calls —
    /// but not plain data accesses.
    pub const MONITORED_AND_SYNC: EventFilter = EventFilter {
        accesses: false,
        monitored: true,
        sync: true,
        mpi_calls: true,
    };

    /// Does this filter admit `kind`?
    pub fn admits(&self, kind: &EventKind) -> bool {
        match kind {
            EventKind::Access { .. } => self.accesses,
            EventKind::MonitoredWrite { .. } => self.monitored,
            EventKind::Acquire { .. }
            | EventKind::Release { .. }
            | EventKind::Fork { .. }
            | EventKind::JoinRegion { .. }
            | EventKind::Barrier { .. } => self.sync,
            EventKind::MpiCall { .. } | EventKind::MpiInit { .. } => self.mpi_calls,
        }
    }
}

/// The handle the simulators use to emit events.
///
/// Cheap to clone; all clones share the sink, the sequence counter and the
/// interners, on the run's one thread (the way `home-interp`'s MPI and
/// OpenMP runtimes share their own state). The counter doubles as the number of events
/// recorded, which the overhead model charges per-event cost for.
#[derive(Clone)]
pub struct Collector {
    shared: Rc<Shared>,
    filter: EventFilter,
}

struct Shared {
    sink: Rc<RefCell<dyn TraceSink>>,
    /// The next sequence number: the count of events recorded so far.
    seq: Cell<u64>,
    locks: Interner,
    vars: Interner,
}

impl Collector {
    /// Create a collector feeding `sink`, admitting events per `filter`.
    /// The caller keeps a clone of `sink` to read it back after the run.
    pub fn new(sink: Rc<RefCell<dyn TraceSink>>, filter: EventFilter) -> Self {
        Collector {
            shared: Rc::new(Shared {
                sink,
                seq: Cell::new(0),
                locks: Interner::new(),
                vars: Interner::new(),
            }),
            filter,
        }
    }

    /// A collector that records everything into a fresh [`MemorySink`];
    /// returns both.
    pub fn in_memory() -> (Collector, Rc<RefCell<MemorySink>>) {
        let sink = Rc::new(RefCell::new(MemorySink::new()));
        (Collector::new(sink.clone(), EventFilter::ALL), sink)
    }

    /// A collector that drops everything.
    pub fn null() -> Collector {
        Collector::new(Rc::new(RefCell::new(NullSink)), EventFilter::NONE)
    }

    /// The active event-class filter.
    pub fn filter(&self) -> EventFilter {
        self.filter
    }

    /// Emit one event (if the filter admits it). Returns true if recorded.
    pub fn emit(
        &self,
        rank: Rank,
        tid: Tid,
        region: Option<RegionId>,
        time_ns: u64,
        loc: Option<SrcLoc>,
        kind: EventKind,
    ) -> bool {
        if !self.filter.admits(&kind) {
            return false;
        }
        let seq = self.shared.seq.get();
        self.shared.seq.set(seq + 1);
        self.shared.sink.borrow_mut().record(Event {
            seq,
            rank,
            tid,
            region,
            time_ns,
            loc,
            kind,
        });
        true
    }

    /// Number of events actually recorded (post-filter).
    pub fn events_recorded(&self) -> u64 {
        self.shared.seq.get()
    }

    /// Intern a lock name.
    pub fn intern_lock(&self, name: &str) -> LockId {
        LockId(self.shared.locks.intern(name))
    }

    /// Intern a shared-variable name.
    pub fn intern_var(&self, name: &str) -> VarId {
        VarId(self.shared.vars.intern(name))
    }
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("filter", &self.filter)
            .field("recorded", &self.events_recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, MemLoc};

    fn access_event_kind(c: &Collector) -> EventKind {
        EventKind::Access {
            loc: MemLoc::Var(c.intern_var("x")),
            kind: AccessKind::Write,
        }
    }

    #[test]
    fn memory_sink_roundtrip() {
        let (c, sink) = Collector::in_memory();
        let k = access_event_kind(&c);
        assert!(c.emit(Rank(0), Tid(0), None, 10, None, k.clone()));
        assert!(c.emit(Rank(0), Tid(1), None, 20, None, k));
        let trace = sink.borrow_mut().drain();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events()[0].seq, 0);
        assert_eq!(trace.events()[1].tid, Tid(1));
        assert_eq!(c.events_recorded(), 2);
    }

    #[test]
    fn filter_suppresses_classes() {
        let sink = Rc::new(RefCell::new(MemorySink::new()));
        let c = Collector::new(sink.clone(), EventFilter::MONITORED_AND_SYNC);
        let k = access_event_kind(&c);
        assert!(
            !c.emit(Rank(0), Tid(0), None, 0, None, k),
            "accesses filtered"
        );
        assert!(c.emit(
            Rank(0),
            Tid(0),
            None,
            0,
            None,
            EventKind::Acquire {
                lock: c.intern_lock("cs")
            }
        ));
        assert_eq!(sink.borrow().len(), 1);
        assert_eq!(c.events_recorded(), 1);
    }

    #[test]
    fn null_collector_records_nothing() {
        let c = Collector::null();
        assert!(!c.emit(Rank(0), Tid(0), None, 0, None, access_event_kind(&c)));
        assert_eq!(c.events_recorded(), 0);
    }
}
