//! Lost-wake-up stress for the park/unpark hand-off. Every wait in the
//! scheduler is "check the flag under the mutex, then park", so an unpark
//! that lands between the check and the park — or on a carrier still
//! finishing its previous job — must never strand a thread. A stranded
//! thread shows up here as a hung test, not a failed assertion. Four
//! driver threads run their runtimes at once (what `--jobs 4` does), so
//! the runs also race for the shared carrier pool.

use home_sched::{BlockReason, Runtime, SchedConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The blocker parks until the waker's flag; the waker yields first so the
/// blocker usually (but, by seed, not always) blocks before the unblock.
fn block_unblock_ping_pong(seed: u64) {
    let rt = Runtime::new(SchedConfig::deterministic(seed));
    let flag = Arc::new(AtomicBool::new(false));
    let blocker = rt.spawn("blocker", {
        let (rt, flag) = (rt.clone(), Arc::clone(&flag));
        move || {
            let mut rounds = 0u32;
            while !flag.load(Ordering::SeqCst) {
                rt.block_current(BlockReason::Other("flag".into())).unwrap();
                rounds += 1;
            }
            rounds
        }
    });
    let target = blocker.vtid();
    rt.spawn("waker", {
        let rt = rt.clone();
        move || {
            rt.yield_now().unwrap();
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
        move || {
            for _ in 0..4 {
                rt.yield_now().unwrap();
            }
            rt.block_current(BlockReason::Other("token".into()))
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
