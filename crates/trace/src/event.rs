//! The runtime event model.
//!
//! Every observable action of a simulated hybrid program — memory accesses,
//! lock operations, OpenMP region fork/join, barriers, and MPI calls — is an
//! [`Event`]. The race detector (`home-stream`) and the baseline tools
//! consume streams of these.

use crate::ids::{BarrierId, CommId, LockId, Rank, RegionId, ReqId, SrcLoc, Tid, VarId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The MPI thread-support level requested at initialization
/// (`MPI_Init_thread`). Mirrors the four levels of the MPI standard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ThreadLevel {
    /// Only one thread exists in the process.
    Single,
    /// Multiple threads, but only the main thread makes MPI calls.
    Funneled,
    /// Multiple threads may call MPI, but never concurrently.
    Serialized,
    /// Unrestricted multithreaded MPI.
    Multiple,
}

impl fmt::Display for ThreadLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ThreadLevel::Single => "MPI_THREAD_SINGLE",
            ThreadLevel::Funneled => "MPI_THREAD_FUNNELED",
            ThreadLevel::Serialized => "MPI_THREAD_SERIALIZED",
            ThreadLevel::Multiple => "MPI_THREAD_MULTIPLE",
        };
        f.write_str(s)
    }
}

/// The per-process monitored variables the HOME wrappers write into.
///
/// Each corresponds to one argument class of the wrapped MPI calls; a race
/// on a monitored variable means two MPI calls touching that argument class
/// executed concurrently on different threads (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MonitoredVar {
    /// `srctmp` — source/destination rank argument.
    Src,
    /// `tagtmp` — tag argument.
    Tag,
    /// `commtmp` — communicator argument.
    Comm,
    /// `requesttmp` — request handle of nonblocking completion calls.
    Request,
    /// `collectivetmp` — collective-call marker per communicator.
    Collective,
    /// `finalizetmp` — `MPI_Finalize` marker.
    Finalize,
}

impl MonitoredVar {
    /// All six monitored variables.
    pub const ALL: [MonitoredVar; 6] = [
        MonitoredVar::Src,
        MonitoredVar::Tag,
        MonitoredVar::Comm,
        MonitoredVar::Request,
        MonitoredVar::Collective,
        MonitoredVar::Finalize,
    ];

    /// The paper's variable name.
    pub fn name(self) -> &'static str {
        match self {
            MonitoredVar::Src => "srctmp",
            MonitoredVar::Tag => "tagtmp",
            MonitoredVar::Comm => "commtmp",
            MonitoredVar::Request => "requesttmp",
            MonitoredVar::Collective => "collectivetmp",
            MonitoredVar::Finalize => "finalizetmp",
        }
    }
}

impl fmt::Display for MonitoredVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Kinds of MPI calls the wrappers understand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MpiCallKind {
    Init,
    InitThread,
    Finalize,
    Send,
    Ssend,
    Recv,
    Isend,
    Irecv,
    Sendrecv,
    Wait,
    Test,
    Waitall,
    Probe,
    Iprobe,
    Barrier,
    Bcast,
    Reduce,
    Allreduce,
    Gather,
    Scatter,
    Allgather,
    Alltoall,
    CommDup,
    CommSplit,
}

impl MpiCallKind {
    /// True for collective operations (must be called by all ranks of the
    /// communicator, and not concurrently by threads of one process).
    pub fn is_collective(self) -> bool {
        matches!(
            self,
            MpiCallKind::Barrier
                | MpiCallKind::Bcast
                | MpiCallKind::Reduce
                | MpiCallKind::Allreduce
                | MpiCallKind::Gather
                | MpiCallKind::Scatter
                | MpiCallKind::Allgather
                | MpiCallKind::Alltoall
                | MpiCallKind::CommDup
                | MpiCallKind::CommSplit
        )
    }

    /// True for receive-side point-to-point calls.
    pub fn is_recv(self) -> bool {
        matches!(
            self,
            MpiCallKind::Recv | MpiCallKind::Irecv | MpiCallKind::Sendrecv
        )
    }

    /// True for request-completion calls (`MPI_Wait`/`MPI_Test`/`Waitall`).
    pub fn is_completion(self) -> bool {
        matches!(
            self,
            MpiCallKind::Wait | MpiCallKind::Test | MpiCallKind::Waitall
        )
    }

    /// True for probing calls.
    pub fn is_probe(self) -> bool {
        matches!(self, MpiCallKind::Probe | MpiCallKind::Iprobe)
    }

    /// The MPI function name, for reports.
    pub fn mpi_name(self) -> &'static str {
        match self {
            MpiCallKind::Init => "MPI_Init",
            MpiCallKind::InitThread => "MPI_Init_thread",
            MpiCallKind::Finalize => "MPI_Finalize",
            MpiCallKind::Send => "MPI_Send",
            MpiCallKind::Ssend => "MPI_Ssend",
            MpiCallKind::Recv => "MPI_Recv",
            MpiCallKind::Isend => "MPI_Isend",
            MpiCallKind::Irecv => "MPI_Irecv",
            MpiCallKind::Sendrecv => "MPI_Sendrecv",
            MpiCallKind::Wait => "MPI_Wait",
            MpiCallKind::Test => "MPI_Test",
            MpiCallKind::Waitall => "MPI_Waitall",
            MpiCallKind::Probe => "MPI_Probe",
            MpiCallKind::Iprobe => "MPI_Iprobe",
            MpiCallKind::Barrier => "MPI_Barrier",
            MpiCallKind::Bcast => "MPI_Bcast",
            MpiCallKind::Reduce => "MPI_Reduce",
            MpiCallKind::Allreduce => "MPI_Allreduce",
            MpiCallKind::Gather => "MPI_Gather",
            MpiCallKind::Scatter => "MPI_Scatter",
            MpiCallKind::Allgather => "MPI_Allgather",
            MpiCallKind::Alltoall => "MPI_Alltoall",
            MpiCallKind::CommDup => "MPI_Comm_dup",
            MpiCallKind::CommSplit => "MPI_Comm_split",
        }
    }
}

impl fmt::Display for MpiCallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mpi_name())
    }
}

/// Everything the HOME wrapper records about one MPI call.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MpiCallRecord {
    /// Which MPI function.
    pub kind: MpiCallKind,
    /// Peer rank (destination for sends, source for receives/probes);
    /// `Some(-1)` encodes `MPI_ANY_SOURCE`.
    pub peer: Option<i32>,
    /// Message tag; `Some(-1)` encodes `MPI_ANY_TAG`.
    pub tag: Option<i32>,
    /// Communicator.
    pub comm: CommId,
    /// Request handle for nonblocking ops and their completions.
    pub request: Option<ReqId>,
    /// True if issued by the process's main (master) thread.
    pub is_main_thread: bool,
    /// Thread level the process was initialized with (as known at call time;
    /// `None` before initialization).
    pub thread_level: Option<ThreadLevel>,
}

impl MpiCallRecord {
    /// A minimal record for calls without p2p arguments.
    pub fn of_kind(kind: MpiCallKind) -> Self {
        MpiCallRecord {
            kind,
            peer: None,
            tag: None,
            comm: crate::ids::COMM_WORLD,
            request: None,
            is_main_thread: true,
            thread_level: None,
        }
    }
}

impl fmt::Display for MpiCallRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.kind)?;
        let mut first = true;
        let mut field = |f: &mut fmt::Formatter<'_>, s: String| -> fmt::Result {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{s}")
        };
        if let Some(p) = self.peer {
            field(
                f,
                if p < 0 {
                    "peer=ANY".into()
                } else {
                    format!("peer={p}")
                },
            )?;
        }
        if let Some(t) = self.tag {
            field(
                f,
                if t < 0 {
                    "tag=ANY".into()
                } else {
                    format!("tag={t}")
                },
            )?;
        }
        field(f, format!("{}", self.comm))?;
        if let Some(r) = self.request {
            field(f, format!("{r}"))?;
        }
        write!(f, ")")
    }
}

/// A memory location, as seen by the race detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MemLoc {
    /// One of the six per-process monitored variables the HOME wrappers
    /// write into.
    Monitored(MonitoredVar),
    /// A named shared program variable (scalar).
    Var(VarId),
    /// One element (or block) of a named shared array.
    Elem(VarId, u64),
}

impl fmt::Display for MemLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemLoc::Monitored(v) => write!(f, "{v}"),
            MemLoc::Var(v) => write!(f, "{v}"),
            MemLoc::Elem(v, i) => write!(f, "{v}[{i}]"),
        }
    }
}

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    Read,
    Write,
}

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A read or write of a shared location.
    Access { loc: MemLoc, kind: AccessKind },
    /// The HOME wrapper's write into a monitored variable, carrying the MPI
    /// call that produced it. Race detection treats it as a `Write` on
    /// `MemLoc::Monitored(var)`; violation matching reads the call record.
    MonitoredWrite {
        var: MonitoredVar,
        call: MpiCallRecord,
    },
    /// Lock acquired (OpenMP `critical` or runtime lock).
    Acquire { lock: LockId },
    /// Lock released.
    Release { lock: LockId },
    /// The master thread forked an OpenMP parallel region.
    Fork { region: RegionId, nthreads: u32 },
    /// The master thread joined an OpenMP parallel region.
    JoinRegion { region: RegionId },
    /// This thread passed a barrier (epoch counts completions at that
    /// barrier object within the region instance).
    Barrier { barrier: BarrierId, epoch: u64 },
    /// An MPI call was issued (wrapper entry). Emitted in addition to the
    /// `MonitoredWrite`s for that call.
    MpiCall { call: MpiCallRecord },
    /// The process initialized MPI with the given thread level.
    MpiInit {
        level: ThreadLevel,
        requested_by_init_thread: bool,
    },
}

impl EventKind {
    /// The location this event reads or writes, if it is an access.
    pub fn access(&self) -> Option<(MemLoc, AccessKind)> {
        match self {
            EventKind::Access { loc, kind } => Some((*loc, *kind)),
            EventKind::MonitoredWrite { var, .. } => {
                Some((MemLoc::Monitored(*var), AccessKind::Write))
            }
            _ => None,
        }
    }

    /// The MPI call record attached to this event, if any.
    pub fn mpi_call(&self) -> Option<&MpiCallRecord> {
        match self {
            EventKind::MonitoredWrite { call, .. } | EventKind::MpiCall { call } => Some(call),
            _ => None,
        }
    }
}

/// One observed runtime event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Global observation sequence number (total order of recording).
    pub seq: u64,
    /// MPI process rank.
    pub rank: Rank,
    /// OpenMP thread id within the rank (master = 0).
    pub tid: Tid,
    /// Parallel-region instance the thread was in (`None` = sequential part).
    pub region: Option<RegionId>,
    /// Virtual time at which the event occurred.
    pub time_ns: u64,
    /// Source location, when known.
    pub loc: Option<SrcLoc>,
    /// Payload.
    pub kind: EventKind,
}

impl Event {
    /// True if this event is inside an OpenMP parallel region.
    pub fn in_parallel_region(&self) -> bool {
        self.region.is_some()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}.{}] ", self.seq, self.rank, self.tid)?;
        match &self.kind {
            EventKind::Access { loc, kind } => {
                write!(
                    f,
                    "{} {loc}",
                    if *kind == AccessKind::Read {
                        "read"
                    } else {
                        "write"
                    }
                )
            }
            EventKind::MonitoredWrite { var, call } => write!(f, "monitored {var} ← {call}"),
            EventKind::Acquire { lock } => write!(f, "acquire {lock}"),
            EventKind::Release { lock } => write!(f, "release {lock}"),
            EventKind::Fork { region, nthreads } => write!(f, "fork {region} ({nthreads} threads)"),
            EventKind::JoinRegion { region } => write!(f, "join {region}"),
            EventKind::Barrier { barrier, epoch } => write!(f, "barrier {barrier}@{epoch}"),
            EventKind::MpiCall { call } => write!(f, "mpi {call}"),
            EventKind::MpiInit { level, .. } => write!(f, "mpi-init {level}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::COMM_WORLD;

    #[test]
    fn call_kind_predicates() {
        assert!(MpiCallKind::Barrier.is_collective());
        assert!(MpiCallKind::Allreduce.is_collective());
        assert!(!MpiCallKind::Send.is_collective());
        assert!(MpiCallKind::Recv.is_recv());
        assert!(MpiCallKind::Irecv.is_recv());
        assert!(MpiCallKind::Wait.is_completion());
        assert!(MpiCallKind::Test.is_completion());
        assert!(MpiCallKind::Probe.is_probe());
        assert!(MpiCallKind::Iprobe.is_probe());
        assert!(!MpiCallKind::Recv.is_probe());
    }

    #[test]
    fn monitored_var_names_match_paper() {
        let names: Vec<_> = MonitoredVar::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(
            names,
            vec![
                "srctmp",
                "tagtmp",
                "commtmp",
                "requesttmp",
                "collectivetmp",
                "finalizetmp"
            ]
        );
    }

    #[test]
    fn monitored_write_is_a_write_access() {
        let k = EventKind::MonitoredWrite {
            var: MonitoredVar::Tag,
            call: MpiCallRecord::of_kind(MpiCallKind::Recv),
        };
        assert_eq!(
            k.access(),
            Some((MemLoc::Monitored(MonitoredVar::Tag), AccessKind::Write))
        );
        assert!(k.mpi_call().is_some());
    }

    #[test]
    fn record_display() {
        let r = MpiCallRecord {
            kind: MpiCallKind::Recv,
            peer: Some(-1),
            tag: Some(7),
            comm: COMM_WORLD,
            request: None,
            is_main_thread: false,
            thread_level: Some(ThreadLevel::Multiple),
        };
        let s = r.to_string();
        assert!(s.contains("MPI_Recv"));
        assert!(s.contains("peer=ANY"));
        assert!(s.contains("tag=7"));
    }

    #[test]
    fn thread_level_ordering() {
        assert!(ThreadLevel::Single < ThreadLevel::Funneled);
        assert!(ThreadLevel::Serialized < ThreadLevel::Multiple);
    }

    #[test]
    fn event_serde_roundtrip() {
        let e = Event {
            seq: 3,
            rank: Rank(1),
            tid: Tid(1),
            region: Some(RegionId(2)),
            time_ns: 500,
            loc: Some(SrcLoc::new("x.hmp", 9)),
            kind: EventKind::Barrier {
                barrier: BarrierId(0),
                epoch: 1,
            },
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
