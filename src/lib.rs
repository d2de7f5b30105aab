//! # home — detecting thread-safety violations in hybrid OpenMP/MPI programs
//!
//! A Rust reproduction of *"Detecting Thread-Safety Violations in Hybrid
//! OpenMP/MPI Programs"* (Ma, Wang, Krishnamoorthy — IEEE CLUSTER 2015),
//! including every substrate the paper depends on, built from scratch:
//!
//! | layer | crate | what it provides |
//! |---|---|---|
//! | events | [`trace`] | the event model, vector clocks, locksets, trace sinks |
//! | language | [`ir`] | a C-like hybrid mini-language (DSL + builder) |
//! | static | [`static_analysis`] | CFG + Algorithm 1 (selective instrumentation checklist) |
//! | interpret + schedule | [`interp`] | runs IR programs with tool instrumentation over its own deterministic virtual-thread scheduler, simulated MPI library (p2p matching, collectives, requests, thread levels) and OpenMP runtime |
//! | dynamic | [`stream`] | lockset + happens-before race detection, online with bounded memory, and the HBT binary trace format |
//! | tool | [`core`] | the HOME pipeline, the six violation rules, and guided schedule search ([`explore`]: PCT priorities, race-directed flips, DPOR-lite dedup) |
//! | collector | [`serve`] | multi-tenant HBT trace-ingest daemon and client |
//! | workloads | [`npb`] | NPB-MZ-style LU/BT/SP with violation injection, and the Marmot and Intel-Thread-Checker models they are scored against |
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
#![warn(unreachable_pub)]

pub use home_trace::{HomeError, HomeResult};

pub use home_core as core;
pub use home_interp as interp;
pub use home_ir as ir;
pub use home_npb as npb;
pub use home_serve as serve;
pub use home_static as static_analysis;
pub use home_stream as stream;
pub use home_trace as trace;

/// The schedule-space explorer, a module of [`core`], under a path of its
/// own.
pub mod explore {
    pub use home_core::{explore, ExploreOptions};
}

/// The most common surface: parse a program, check it, inspect violations.
pub mod prelude {
    pub use home_core::{
        check, check_with_sink, CheckOptions, EmittedViolation, ExploreOptions, ExploreReport,
        HomeReport, RuleEngine, ScheduleToken, Strategy, Violation, ViolationKind, ViolationSink,
    };
    pub use home_interp::{
        run, run_with_sink, Instrumentation, RunConfig, Runtime, SchedConfig, SchedPolicy, SimTime,
    };
    pub use home_ir::{parse, print_program, Program};
    pub use home_npb::{accuracy_row, build_injected, generate, run_tool, Benchmark, Class, Tool};
    pub use home_static::analyze;
    pub use home_stream::{
        detect_stream, DetectorConfig, DetectorMode, Race, StreamDetector, StreamStats,
    };
    pub use home_trace::{HomeError, HomeResult, MonitoredVar, ThreadLevel, Trace};
}
