//! # home-baselines — the comparison tools of the paper's evaluation
//!
//! Models of the two tools HOME is compared against in Section V, built
//! from the mechanisms the paper attributes to them rather than their
//! binaries:
//!
//! * **Marmot** ([`Tool::Marmot`]) — purely dynamic, manifest-only
//!   detection (no lockset/HB prediction → schedule-dependent false
//!   negatives) plus a central debug-process round trip charged on every
//!   MPI call (its overhead curve).
//! * **Intel Thread Checker** ([`Tool::Itc`]) — records *every* shared
//!   memory access at binary-instrumentation cost (its ~200% overhead),
//!   runs happens-before without `omp critical` awareness (its BT false
//!   positive), and does not wrap `MPI_Probe` (its LU false negatives).
//!
//! Both share HOME's interpreter, trace model, and rule matcher, so
//! accuracy differences come purely from instrumentation scope and
//! detection engine — the paper's claim under test.

#![forbid(unsafe_code)]

mod marmot;
mod tools;

pub use marmot::manifest_races;
pub use tools::{run_tool, Tool};
