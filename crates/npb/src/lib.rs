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
//! * [`accuracy_row`] — the detection-table experiment for one benchmark.

#![forbid(unsafe_code)]

mod accuracy;
mod gen;
mod inject;
mod params;

pub use accuracy::{accuracy_options, accuracy_row, score, AccuracyRow, ToolScore};
pub use gen::{benchmark_body, generate};
pub use inject::{build_injected, InjectedProgram, InjectionInfo};
pub use params::{Benchmark, Class, SizeParams};
