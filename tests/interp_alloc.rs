//! Allocation guard for the interpreter over the simulated substrate
//! (`home-interp`'s walk over its scheduler, MPI and OpenMP modules: what every
//! `check`, `record` and `explore` run pays before any detector sees an
//! event).
//!
//! Its own test binary because it installs a counting `#[global_allocator]`
//! (the one `tests/replay_alloc.rs` uses), so what a run costs the heap per
//! scheduling decision is asserted rather than described. A run under
//! `Instrumentation::base()` records nothing, so every allocation it makes
//! is the substrate's own: a loop iteration rebinds its index in a reused
//! name buffer, receive matching walks a per-rank queue, a nested block is
//! a frame pushed on a reused stack, and a yield leaves the run queue as it
//! is. A `check` under HOME adds static analysis, the session it feeds a
//! chunk of events at a time, and the report.
//!
//! Run in release mode by `scripts/verify.sh` (debug builds allocate
//! differently); the bound holds in both.

use home::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// plain atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per scheduling decision of one class-C run of each injected
/// NPB-MZ program at 8 ranks x 2 threads under seed 1, and then of a whole
/// `check` of it under HOME at `--jobs 1` (static analysis, the run, the
/// session that detects and classifies as the run feeds it, the report),
/// divided by the decisions of that run. One test, so nothing else in this
/// binary allocates while it counts.
///
/// Bounds: the measured value plus 10%, rounded up. The bare run measured
/// 0.99 (LU), 0.94 (BT) and 0.93 (SP) once a virtual thread became one
/// future over a stack of frames, the run queue stopped changing on every
/// yield and a request handle kept its key (1.18, 1.06 and 1.06 before;
/// 2.67-2.79 before the substrate stopped allocating a scope map and a name
/// per loop iteration). The check path measured 1.22, 1.10 and 1.09 (1.51,
/// 1.32 and 1.31 before, when the session was fed one event at a time).
#[test]
fn class_c_runs_and_checks_allocate_about_once_per_decision() {
    let mut config = RunConfig::test(8, 1).with_instrumentation(Instrumentation::base());
    config.threads_per_proc = 2;
    let options = CheckOptions::new(8, 2).with_seeds(vec![1]).with_jobs(1);
    for (benchmark, run_bound, check_bound) in [
        (Benchmark::LuMz, 1.09, 1.35),
        (Benchmark::BtMz, 1.04, 1.21),
        (Benchmark::SpMz, 1.03, 1.20),
    ] {
        let program = build_injected(benchmark, Class::C).program;
        let before = ALLOCS.load(Ordering::Relaxed);
        let result = run(&program, &config);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(result.clean(), "{benchmark:?}: {:?}", result.deadlock);
        let per_decision = allocs as f64 / result.steps as f64;
        println!(
            "{benchmark:?} run: {allocs} allocations over {} decisions = {per_decision:.2}",
            result.steps
        );
        assert!(
            per_decision <= run_bound,
            "{benchmark:?} run: {per_decision:.2} allocations per decision ({allocs} over {})",
            result.steps
        );

        let before = ALLOCS.load(Ordering::Relaxed);
        let report = check(&program, &options);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(!report.partial, "{benchmark:?}");
        let mut home = RunConfig::test(8, 1)
            .with_instrumentation(Instrumentation::home())
            .with_checklist(std::sync::Arc::new(analyze(&program).checklist));
        home.threads_per_proc = 2;
        let steps = run(&program, &home).steps;
        let per_decision = allocs as f64 / steps as f64;
        println!(
            "{benchmark:?} check: {allocs} allocations over {steps} decisions = {per_decision:.2}"
        );
        assert!(
            per_decision <= check_bound,
            "{benchmark:?} check: {per_decision:.2} allocations per decision ({allocs} over {steps})"
        );
    }
}
