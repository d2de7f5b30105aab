//! The carrier pool is process-wide, so this file holds exactly one test:
//! a second one would run beside it and move the counts.
#![cfg(target_os = "linux")]

use home_sched::{Runtime, SchedConfig};
use std::collections::BTreeSet;

/// Thread ids of this process's live carrier threads.
fn live_carriers() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| {
            let task = task.ok()?;
            let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
            (comm.trim_end() == "home-carrier")
                .then(|| task.file_name().to_string_lossy().into_owned())
        })
        .collect()
}

#[test]
fn carriers_are_reused_across_runtimes_and_survive_panicking_bodies() {
    for seed in 0..200 {
        let rt = Runtime::new(SchedConfig::deterministic(seed));
        for i in 0..8 {
            let rt2 = rt.clone();
            rt.spawn(format!("t{i}"), move || rt2.yield_now().unwrap());
        }
        rt.run().unwrap();
    }
    // 1,600 virtual threads, never more than 8 live. `run` can return a
    // moment before the last carrier is back in the pool, in which case the
    // next spawn adds one; the extras are reused too, so the pool settles
    // at a few more than 8 instead of growing with the number of runs.
    let before = live_carriers();
    assert!(
        (8..=16).contains(&before.len()),
        "{} live carriers after 200 runs of 8 threads",
        before.len()
    );

    for seed in 0..20 {
        let rt = Runtime::new(SchedConfig::deterministic(seed));
        let bad = rt.spawn("bad", || panic!("boom (expected by this test)"));
        rt.run().unwrap();
        assert!(bad.join().is_err());
    }
    // A body's panic is caught on the carrier: every carrier that was there
    // still is, and sequential one-thread runs needed no new ones.
    let after = live_carriers();
    assert!(
        after.is_superset(&before),
        "a carrier died: {before:?} -> {after:?}"
    );
    assert!(after.len() <= before.len() + 1, "{before:?} -> {after:?}");
}
