//! Violation delivery: where classified violations go as they fire.
//!
//! [`ViolationSink`] mirrors `home_trace::TraceSink` one layer up the
//! pipeline: `TraceSink` carries *events* out of the simulator,
//! `ViolationSink` carries *classified violations* out of the rule engine.
//! A [`Session`](crate::Session) holds no sink: each feed lends back what
//! it completed, and [`check_with_sink`](crate::check_with_sink) is the one
//! caller that hands those emissions on. `home check` passes
//! [`NullViolationSink`] (the report is assembled from the sessions'
//! outcomes); `home watch` plugs in a live renderer.
//!
//! A sink is shared across the per-seed worker threads of the check
//! pipeline, hence `Send + Sync` and `&self` methods. Calls for one seed
//! are ordered (the per-seed chain is single-threaded up to rule
//! evaluation), but calls for *different* seeds interleave arbitrarily
//! when `--jobs > 1`; every emission carries its seed so a sink can
//! demultiplex.

use crate::report::{EmittedViolation, SeedStatus, Violation};

/// Receives classified violations as the rule engine emits them.
pub trait ViolationSink: Send + Sync {
    /// One violation whose evidence just completed. `v.live` is true when
    /// it fired mid-run, false when it surfaced during end-of-seed
    /// evaluation.
    fn violation(&self, v: &EmittedViolation);

    /// One seed's chain finished (successfully or not). `violations` is
    /// the seed's canonical deduplicated list — the same list the batch
    /// report shows — and is empty for failed seeds.
    fn seed_finished(&self, seed: u64, status: &SeedStatus, violations: &[Violation]) {
        let _ = (seed, status, violations);
    }
}

/// Discards everything (`home check`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullViolationSink;

impl ViolationSink for NullViolationSink {
    fn violation(&self, _v: &EmittedViolation) {}
}
