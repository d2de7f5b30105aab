//! A run happens on the OS thread that drives it: no thread is created for
//! a virtual thread, none for a `--jobs 1` fan-out, and nothing in a run
//! waits in the kernel. The counts below are process-wide, so this file
//! holds exactly one test: a second one would run beside it and move them.
#![cfg(target_os = "linux")]

use home::core::{check_with_sink, EmittedViolation, SeedStatus, Violation, ViolationSink};
use home::prelude::{build_injected, Benchmark, CheckOptions, Class, ExploreOptions};
use std::sync::{Arc, Mutex};

/// OS threads of this process.
fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// How often the calling OS thread has given up the CPU to wait.
fn voluntary_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("voluntary_ctxt_switches in /proc/thread-self/status")
}

/// Samples the worker thread each time it finishes a seed.
#[derive(Default)]
struct SeedBoundaries(Mutex<Vec<(std::thread::ThreadId, usize, u64)>>);

impl ViolationSink for SeedBoundaries {
    fn violation(&self, _: &EmittedViolation) {}

    fn seed_finished(&self, _: u64, _: &SeedStatus, _: &[Violation]) {
        let sample = (std::thread::current().id(), tasks(), voluntary_switches());
        self.0.lock().expect("no panic under the lock").push(sample);
    }
}

/// `check --jobs 1` of LU-MZ class S at 8 ranks x 2 threads: 16 virtual
/// threads live at once, 35 over a run. Seed 0 only brings the worker to
/// its first boundary; the four seeds after it are the measured ones.
/// Then `explore --jobs 1` of the same program: 64 schedules, eight rounds,
/// sixteen fan-outs.
#[test]
fn a_check_creates_no_os_thread_and_never_waits_in_the_kernel() {
    let program = build_injected(Benchmark::LuMz, Class::S).program;
    let options = CheckOptions::new(8, 2)
        .with_seeds(vec![0, 1, 2, 3, 4])
        .with_jobs(1);
    let boundaries = Arc::new(SeedBoundaries::default());

    let before = tasks();
    let report = check_with_sink(&program, &options, boundaries.clone());
    assert_eq!(report.runs, 5);

    let samples = boundaries.0.lock().expect("no panic under the lock");
    let (worker, _, first) = samples[0];
    let (_, _, last) = samples[4];
    for (thread, tasks, _) in samples.iter() {
        assert_eq!(*thread, worker, "--jobs 1 is one worker");
        // The caller is that worker: a single chunk is not worth a thread.
        assert_eq!(*tasks, before, "a run created OS threads");
    }
    assert!(
        last - first < 50,
        "four runs gave up the CPU {} times",
        last - first
    );

    let options = ExploreOptions {
        budget: 64,
        jobs: 1,
        ..ExploreOptions::default()
    };
    let switches = voluntary_switches();
    let report = home::core::explore(&program, &options);
    let switches = voluntary_switches() - switches;
    assert_eq!(report.coverage.attempted, 64);
    // A thread that came and went leaves no task behind, so count the
    // waits too: joining a round's worker is one (sixteen over this budget).
    assert_eq!(tasks(), before, "explore left OS threads behind");
    assert!(
        switches < 10,
        "64 schedules gave up the CPU {switches} times"
    );
}
