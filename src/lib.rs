//! # home — detecting thread-safety violations in hybrid OpenMP/MPI programs
//!
//! A Rust reproduction of *"Detecting Thread-Safety Violations in Hybrid
//! OpenMP/MPI Programs"* (Ma, Wang, Krishnamoorthy — IEEE CLUSTER 2015),
//! including every substrate the paper depends on, built from scratch:
//!
//! | layer | crate | what it provides |
//! |---|---|---|
//! | scheduler | [`sched`] | deterministic virtual threads, virtual time, deadlock detection |
//! | events | [`trace`] | the event model, vector clocks, locksets, trace sinks |
//! | MPI | [`mpi`] | a simulated MPI library (p2p matching, collectives, requests, thread levels) |
//! | OpenMP | [`omp`] | parallel regions, worksharing, critical/locks/barriers |
//! | language | [`ir`] | a C-like hybrid mini-language (DSL + builder) |
//! | static | [`static_analysis`] | CFG + Algorithm 1 (selective instrumentation checklist) |
//! | dynamic | [`stream`] | lockset + happens-before race detection, online with bounded memory, and the HBT binary trace format |
//! | interpreter | [`interp`] | runs IR programs over the substrates with tool instrumentation |
//! | tool | [`core`] | the HOME pipeline and the six violation rules |
//! | exploration | [`explore`] | guided schedule search: PCT priorities, race-directed flips, DPOR-lite dedup |
//! | collector | [`serve`] | multi-tenant HBT trace-ingest daemon and client |
//! | baselines | [`baselines`] | Marmot and Intel-Thread-Checker models |
//! | workloads | [`npb`] | NPB-MZ-style LU/BT/SP with violation injection |
//!
//! ## Quickstart
//!
//! ```
//! use home::prelude::*;
//!
//! let program = parse(r#"
//!     program demo {
//!         mpi_init_thread(multiple);
//!         omp parallel num_threads(2) {
//!             mpi_barrier();    // concurrent collective: a violation
//!         }
//!         mpi_finalize();
//!     }
//! "#).unwrap();
//!
//! let report = check(&program, &CheckOptions::default());
//! assert!(report.has(ViolationKind::CollectiveCall));
//! println!("{}", report.render());
//! ```

#![forbid(unsafe_code)]

pub use home_trace::{HomeError, HomeResult};

pub use home_baselines as baselines;
pub use home_core as core;
pub use home_explore as explore;
pub use home_interp as interp;
pub use home_ir as ir;
pub use home_mpi as mpi;
pub use home_npb as npb;
pub use home_omp as omp;
pub use home_sched as sched;
pub use home_serve as serve;
pub use home_static as static_analysis;
pub use home_stream as stream;
pub use home_trace as trace;

/// The most common surface: parse a program, check it, inspect violations.
pub mod prelude {
    pub use home_baselines::{run_tool, Tool};
    pub use home_core::{
        check, check_with_sink, CheckOptions, EmittedViolation, HomeReport, RuleEngine, Violation,
        ViolationKind, ViolationSink,
    };
    pub use home_explore::{ExploreOptions, ExploreReport, ScheduleToken, Strategy};
    pub use home_interp::{run, run_with_sink, Instrumentation, RunConfig};
    pub use home_ir::{parse, print_program, Program};
    pub use home_npb::{accuracy_row, build_injected, generate, Benchmark, Class};
    pub use home_sched::{Runtime, SchedConfig, SchedPolicy, SimTime};
    pub use home_static::analyze;
    pub use home_stream::{
        detect_stream, DetectorConfig, DetectorMode, Race, StreamDetector, StreamStats,
    };
    pub use home_trace::{HomeError, HomeResult, MonitoredVar, ThreadLevel, Trace};
}
