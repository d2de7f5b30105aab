//! # home-trace — runtime event model for the HOME checker
//!
//! Defines what the simulated MPI/OpenMP substrates *record* and what the
//! dynamic analyses *consume*:
//!
//! * [`Event`]/[`EventKind`] — memory accesses, lock operations, OpenMP
//!   region fork/join, barriers, MPI calls, and the HOME wrappers'
//!   [`MonitoredVar`] writes;
//! * [`VectorClock`] — the happens-before machinery;
//! * [`LockSet`] — the Eraser machinery;
//! * [`Collector`]/[`TraceSink`] — how events get out of the runtime, with
//!   an [`EventFilter`] implementing each tool's instrumentation scope
//!   (the paper's selective-monitoring idea);
//! * [`Trace`] — a finished recording with query helpers and JSON dumps;
//! * [`HomeError`] — the workspace-wide typed error taxonomy (this is the
//!   lowest crate of the dependency DAG, so every layer can return it).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod error;
mod event;
mod fxhash;
mod ids;
mod intern;
mod lockset;
mod sink;
mod trace;
mod vc;

pub use error::{HomeError, HomeResult};
pub use event::{
    AccessKind, Event, EventKind, MemLoc, MonitoredVar, MpiCallKind, MpiCallRecord, ThreadLevel,
};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{BarrierId, CommId, LockId, Rank, RegionId, ReqId, SrcLoc, Tid, VarId, COMM_WORLD};
pub use intern::Interner;
pub use lockset::{LockSet, LocksetId, LocksetTable};
pub use sink::{Collector, EventFilter, MemorySink, NullSink, TraceSink};
pub use trace::Trace;
pub use vc::VectorClock;
