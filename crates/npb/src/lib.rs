//! # home-npb — NPB-MZ-style hybrid workloads with violation injection
//!
//! The paper evaluates on the hybrid MPI/OpenMP multi-zone NAS Parallel
//! Benchmarks (LU, BT, SP, class C) with six artificially inserted
//! thread-safety violations per benchmark. This crate provides:
//!
//! * [`generate`] — the *correct* benchmark programs: per time step, halo
//!   exchanges funneled through the master thread, worksharing per-row
//!   solves with real floating-point work, critical-section residual
//!   accumulation (LU), and out-of-region residual allreduces;
//! * [`build_injected`] — the same programs with the paper's injection
//!   plan spliced in (six violations per benchmark, including the latent
//!   races Marmot misses and the probe episode ITC cannot wrap, plus BT's
//!   benign-critical episode that triggers ITC's false positive);
//! * [`accuracy_row`] — the detection-table experiment for one benchmark;
//! * [`run_tool`] — the comparison tools of the evaluation ([`Tool`]: no tool,
//!   HOME, and models of Marmot and Intel Thread Checker);
//! * [`figure_sweep`] — the virtual-time sweeps behind Figures 4–6 (execution
//!   time vs process count for each tool) and, through
//!   [`overhead_from_points`], Figure 7 (average overhead).
//!
//! The `report` binary renders the accuracy table, the figures and the
//! ablations: `cargo run --release -p home-npb --bin report -- all`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod accuracy;
mod gen;
mod inject;
mod marmot;
mod params;
mod perf;
mod tools;

pub use accuracy::{accuracy_options, accuracy_row, score};
pub use gen::generate;
pub use inject::{build_injected, InjectedProgram};
pub use params::{Benchmark, Class};
pub use perf::{figure_sweep, measure, overhead_from_points, PerfPoint, PROC_COUNTS};
pub use tools::{run_tool, Tool};
