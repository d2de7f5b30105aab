//! Violation delivery: where classified violations go as they fire.
//!
//! [`ViolationSink`] mirrors `home_trace::TraceSink` one layer up the
//! pipeline: `TraceSink` carries *events* out of the simulator,
//! `ViolationSink` carries *classified violations* out of the rule engine.
//! `home check` uses [`NullViolationSink`] (the report is assembled from
//! [`crate::RuleEngine::finish`] outcomes); `home watch` plugs in a live
//! renderer; tests use [`ViolationCollector`].
//!
//! Sinks are shared across the per-seed worker threads of the check
//! pipeline, hence `Send + Sync` and `&self` methods. Calls for one seed
//! are ordered (the per-seed chain is single-threaded up to rule
//! evaluation), but calls for *different* seeds interleave arbitrarily
//! when `--jobs > 1`; every emission carries its seed so a sink can
//! demultiplex.

use crate::report::{EmittedViolation, SeedStatus, Violation};
use std::sync::Mutex;

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

/// Discards everything (`home check`, and every post-hoc analysis).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullViolationSink;

impl ViolationSink for NullViolationSink {
    fn violation(&self, _v: &EmittedViolation) {}
}

/// Buffers every emission, for tests and post-hoc inspection.
#[derive(Debug, Default)]
pub struct ViolationCollector {
    emissions: Mutex<Vec<EmittedViolation>>,
}

impl ViolationCollector {
    /// An empty collector.
    pub fn new() -> ViolationCollector {
        ViolationCollector::default()
    }

    /// Everything received since the collector was made or last drained,
    /// in arrival order, leaving it empty: a collector serves one run after
    /// another.
    pub fn drain(&self) -> Vec<EmittedViolation> {
        match self.emissions.lock() {
            Ok(mut g) => std::mem::take(&mut *g),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        }
    }
}

impl ViolationSink for ViolationCollector {
    fn violation(&self, v: &EmittedViolation) {
        match self.emissions.lock() {
            Ok(mut g) => g.push(v.clone()),
            Err(poisoned) => poisoned.into_inner().push(v.clone()),
        }
    }
}
