//! # home-static — the compile-time phase of HOME
//!
//! Implements the paper's static analysis (Section IV-C, Algorithm 1):
//!
//! 1. build the control-flow graph ([`Cfg`]) of a hybrid program, with
//!    explicit `ompParallelBegin`/`ompParallelEnd` markers;
//! 2. walk the linearized CFG and mark every reachable MPI call inside a
//!    parallel region for replacement with an instrumented wrapper —
//!    everything else is *skipped*, which is the paper's key overhead
//!    reduction;
//! 3. classify parallel regions as error-free (no MPI inside) or
//!    potentially erroneous;
//! 4. derive which monitored variables (`srctmp`, `tagtmp`, …) the dynamic
//!    phase must set up — globally *and* per call site — and annotate call
//!    sites whose tag/peer arguments are provably thread-distinct (via a
//!    small abstract interpretation);
//! 5. build the interprocedural layer: a call graph with per-edge context
//!    ([`CallGraph`]), bottom-up function summaries ([`Summaries`]: locks
//!    held, MPI calls reachable, thread-context sensitivity), and static
//!    deadlock/violation candidates ([`StaticCandidate`]) that `home-core`
//!    cross-checks against the dynamic findings.
//!
//! Entry point: [`analyze`], producing a [`StaticReport`] whose
//! [`Checklist`] drives the interpreter's selective instrumentation.

#![forbid(unsafe_code)]

mod abstract_eval;
mod analysis;
mod callgraph;
mod cfg;
mod checklist;
mod deadlock;
mod summary;

pub use abstract_eval::{AbsEnv, AbsVal};
pub use analysis::{analyze, RegionClass, RegionInfo, StaticNote, StaticReport, StaticStats};
pub use callgraph::{CallEdge, CallGraph};
pub use cfg::{Cfg, CfgNode, OmpRegionKind};
pub use checklist::{Checklist, StaticCallSite, ALL_MONITORED};
pub use deadlock::{CandidateKind, StaticCandidate};
pub use summary::{FnSummary, Summaries};
