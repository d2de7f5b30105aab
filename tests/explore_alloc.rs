//! Allocation guard for `home explore` (`home::explore::explore`): what a
//! schedule costs the heap beyond its own decisions and events.
//!
//! Its own test binary because it installs a counting `#[global_allocator]`
//! (the one `tests/replay_alloc.rs` uses), so the two properties the
//! explorer's loop is built around are asserted rather than described:
//!
//! * what does not depend on the schedule is built once per call and
//!   reused, so an attempted schedule costs a small, fixed number of
//!   allocations: its run and recording, and, when its fingerprint is
//!   new, one analysis session over recycled detector and rule state;
//! * the recycled state is bounded by the widest schedule, not by how many
//!   ran: allocations per schedule and the peak live heap do not grow
//!   with the budget.
//!
//! Run in release mode by `scripts/verify.sh` (debug builds allocate
//! differently); the bounds hold in both.

use home::core::schedule_fingerprint;
use home::explore::{explore, ExploreOptions};
use home::prelude::*;
use home::trace::MemorySink;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The `explore_lu_s` benchmark shape: LU-MZ class S at 2 ranks x 2
/// threads, base seed 1, one job, PCT schedules.
fn options(budget: usize) -> ExploreOptions {
    let mut detector = DetectorConfig::hybrid();
    detector.jobs = 1;
    ExploreOptions {
        nprocs: 2,
        threads_per_proc: 2,
        budget,
        jobs: 1,
        base_seed: 1,
        detector,
        ..ExploreOptions::default()
    }
}

/// Allocations and peak live bytes above the starting heap of one
/// `explore` call, with its report.
fn measure(program: &Program, budget: usize) -> (u64, usize, ExploreReport) {
    let options = options(budget);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = explore(program, &options);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (allocs, PEAK.load(Ordering::Relaxed) - base, report)
}

/// Allocations of the run and recording half of `budget` base schedules,
/// driven the way the explorer drives them: one static phase and program
/// copy, each schedule's configuration from the explorer's own
/// [`ExploreOptions::check_options`], a recording buffer handed from each
/// schedule to the next, a fingerprint per schedule. The rest of an
/// `explore` call's allocations are its analysis. Also returns the events
/// the schedules recorded.
fn run_and_record(program: &Program, budget: usize) -> (u64, u64) {
    let check = options(budget).check_options();
    let checklist = Arc::new(analyze(program).checklist);
    let program = Arc::new(program.clone());
    let mut buffer = Vec::new();
    let mut events = 0;
    let before = ALLOCS.load(Ordering::Relaxed);
    for seed in 1..=budget as u64 {
        let cfg = check.run_config(seed, &checklist);
        let sink = Rc::new(RefCell::new(MemorySink::reusing(buffer)));
        let mut result = run_with_sink(&program, &cfg, sink.clone());
        result.trace = sink.borrow_mut().drain();
        std::hint::black_box(schedule_fingerprint(&result));
        events += result.events_recorded;
        buffer = result.trace.into_events();
    }
    (ALLOCS.load(Ordering::Relaxed) - before, events)
}

/// Events the first 512 schedules of [`options`] record, summed.
const EVENTS_AT_512: u64 = 80_896;

/// One test, so nothing else in this binary allocates while it counts.
///
/// The schedules record exactly [`EVENTS_AT_512`] events: 158 each, under
/// `check`'s instrumentation against the static checklist (378 each when
/// every schedule ran fully instrumented). Bounds: the measured value plus
/// 10%, rounded up. At budget 512 an attempted schedule measured 337.2
/// allocations, 303.6 of them in its run and recording and 38.7 per
/// analysed session, and the peak live heap 329 KB (339.5, 305.6, 38.6 and
/// 643 KB fully instrumented; 341.4 and 40.8 while the rule engine kept a
/// copy of each incident; 903 before the explorer recycled its session
/// state and run scaffolding: 602 and 343). The one structure that must
/// grow with the budget is the set of fingerprints seen, a few bytes per
/// distinct schedule; the peak live heap may grow by that and no more
/// (+2.6% from budget 256 to 1,024 when measured).
#[test]
fn an_explored_schedule_allocates_a_bounded_amount_that_does_not_grow_with_the_budget() {
    let program = build_injected(Benchmark::LuMz, Class::S).program;
    // Warm-up: lazy statics and the first thread-local arena.
    measure(&program, 8);

    let (allocs, peak, report) = measure(&program, 512);
    let c = &report.coverage;
    assert_eq!(
        (c.attempted, c.failed),
        (512, 0),
        "{}",
        report.render("lu.hmp")
    );
    assert!(c.analyzed > 0, "{c:?}");
    let per_schedule = allocs as f64 / c.attempted as f64;
    let (run, events) = run_and_record(&program, 512);
    let run_per_schedule = run as f64 / c.attempted as f64;
    let per_session = allocs.saturating_sub(run) as f64 / c.analyzed as f64;
    assert_eq!(events, EVENTS_AT_512, "events recorded by 512 schedules");
    println!(
        "budget 512: {allocs} allocations = {per_schedule:.1} per attempted schedule \
         (run + record {run_per_schedule:.1}, analysis {per_session:.1} per each of {} \
         sessions); peak live {peak} bytes",
        c.analyzed
    );
    assert!(
        per_schedule <= 371.0,
        "{per_schedule:.1} allocations per attempted schedule"
    );
    assert!(
        run_per_schedule <= 334.0,
        "{run_per_schedule:.1} run + record allocations per schedule"
    );
    assert!(
        per_session <= 43.0,
        "{per_session:.1} analysis allocations per session"
    );

    let (small, small_peak, small_report) = measure(&program, 256);
    let (large, large_peak, large_report) = measure(&program, 1024);
    let small_per = small as f64 / small_report.coverage.attempted as f64;
    let large_per = large as f64 / large_report.coverage.attempted as f64;
    println!(
        "budget 256: {small_per:.1} per schedule, peak {small_peak} bytes; \
         budget 1024: {large_per:.1} per schedule, peak {large_peak} bytes"
    );
    assert!(
        large_per <= small_per,
        "allocations per schedule grew with the budget: {small_per:.1} -> {large_per:.1}"
    );
    assert!(
        large_peak <= small_peak + small_peak / 20,
        "the peak live heap grew with the budget: {small_peak} -> {large_peak} bytes"
    );
}
