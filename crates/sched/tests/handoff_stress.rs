//! Block/unblock stress on four driver threads at once (what `--jobs 4`
//! does). A runtime lives on the OS thread that drives it and shares
//! nothing with the runtimes beside it, so every run must come out as it
//! does alone: an unblock, delivered before or after its target blocks,
//! never strands a thread (that would read as a deadlock error here), and
//! the number of rounds is the one the seed names.

use home_sched::{BlockReason, Runtime, SchedConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The blocker blocks until the waker's flag; the waker yields first so the
/// blocker usually (but, by seed, not always) blocks before the unblock.
fn block_unblock_ping_pong(seed: u64) {
    let rt = Runtime::new(SchedConfig::deterministic(seed));
    let flag = Arc::new(AtomicBool::new(false));
    let blocker = rt.spawn("blocker", {
        let (rt, flag) = (rt.clone(), Arc::clone(&flag));
        async move {
            let mut rounds = 0u32;
            while !flag.load(Ordering::SeqCst) {
                rt.block_current(BlockReason::Other("flag".into()))
                    .await
                    .unwrap();
                rounds += 1;
            }
            rounds
        }
    });
    let target = blocker.vtid();
    rt.spawn("waker", {
        let rt = rt.clone();
        async move {
            rt.yield_now().await.unwrap();
            flag.store(true, Ordering::SeqCst);
            rt.unblock(target);
        }
    });
    rt.run().unwrap();
    assert!(blocker.join().unwrap() <= 1);
}

/// The unblock is delivered before the target blocks: the wake token must
/// turn the later `block_current` into a plain reschedule.
fn wake_token_before_block(seed: u64) {
    let rt = Runtime::new(SchedConfig::deterministic(seed));
    let late = rt.spawn("late-blocker", {
        let rt = rt.clone();
        async move {
            for _ in 0..4 {
                rt.yield_now().await.unwrap();
            }
            rt.block_current(BlockReason::Other("token".into()))
                .await
                .unwrap();
            7
        }
    });
    rt.unblock(late.vtid());
    rt.run().unwrap();
    assert_eq!(late.join().unwrap(), 7);
}

#[test]
fn two_thousand_runs_on_four_drivers_never_lose_a_wake_up() {
    std::thread::scope(|scope| {
        for driver in 0..4u64 {
            scope.spawn(move || {
                for run in 0..250 {
                    let seed = driver * 1_000 + run;
                    block_unblock_ping_pong(seed);
                    wake_token_before_block(seed);
                }
            });
        }
    });
}
