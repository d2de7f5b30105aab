//! Allocation guard for the interpreter over the simulated substrate
//! (`home-interp` over `home-sched`, `home-mpi` and `home-omp`: what every
//! `check`, `record` and `explore` run pays before any detector sees an
//! event).
//!
//! Its own test binary because it installs a counting `#[global_allocator]`
//! (the one `tests/replay_alloc.rs` uses), so what a run costs the heap per
//! scheduling decision is asserted rather than described. A run under
//! `Instrumentation::base()` records nothing, so every allocation it makes
//! is the substrate's own: a loop iteration rebinds its index in a reused
//! name buffer, receive matching walks a per-rank queue, and leaving the run
//! queue removes one element.
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

/// One class-C run of each injected NPB-MZ program at 8 ranks x 2 threads
/// under seed 1 with no tool attached allocates at most 1.5 times per
/// scheduling decision (2.67-2.79 before the substrate stopped allocating a
/// scope map and a name per loop iteration). A single test, so nothing else
/// in this binary allocates while it counts.
#[test]
fn a_class_c_run_allocates_at_most_one_and_a_half_times_per_decision() {
    let mut config = RunConfig::test(8, 1).with_instrumentation(Instrumentation::base());
    config.threads_per_proc = 2;
    for benchmark in [Benchmark::LuMz, Benchmark::BtMz, Benchmark::SpMz] {
        let program = build_injected(benchmark, Class::C).program;
        let before = ALLOCS.load(Ordering::Relaxed);
        let result = run(&program, &config);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(result.clean(), "{benchmark:?}: {:?}", result.deadlock);
        let per_decision = allocs as f64 / result.steps as f64;
        println!(
            "{benchmark:?}: {allocs} allocations over {} decisions = {per_decision:.2}",
            result.steps
        );
        assert!(
            per_decision <= 1.5,
            "{benchmark:?}: {per_decision:.2} allocations per decision ({allocs} over {})",
            result.steps
        );
    }
}
