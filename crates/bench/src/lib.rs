//! # home-bench — regenerating the paper's tables and figures
//!
//! * [`figure_sweep`] — the virtual-time sweeps behind Figures 4–6 (execution time
//!   vs process count for Base/HOME/MARMOT/ITC on LU/BT/SP-MZ) and
//!   Figure 7 (average overhead);
//! * the accuracy table comes from [`home_npb::accuracy_row`];
//! * the `report` binary renders everything (`cargo run -p home-bench
//!   --bin report -- all`);
//! * Criterion micro-benchmarks cover the analysis engines themselves
//!   (`cargo bench`).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod perf;

pub use perf::{figure_sweep, measure, overhead_from_points, PerfPoint, PROC_COUNTS};
