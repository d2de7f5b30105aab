//! The decision sequence is part of the contract: a `(seed, policy, depth,
//! pins)` tuple names one interleaving, and stored reproduction tokens
//! rely on it naming the same one after any change to how the step token
//! is passed or the run queue is kept. The sequences below were captured
//! with the condvar hand-off and the scan-every-slot run queue this
//! scheduler started with.

use home_sched::{Runtime, SchedConfig, SchedPolicy, PRIORITY_BASE_MAX};
use std::sync::{Arc, Mutex};

/// Four threads, five yields each; thread `i` charges `COSTS[i]` ns per
/// step so `EarliestClockFirst` has something to order by. Returns the
/// thread index at each of the 20 steps, in execution order.
fn granted_sequence(config: SchedConfig) -> Vec<usize> {
    const COSTS: [u64; 4] = [30, 10, 20, 10];
    let rt = Runtime::new(config);
    let log = Arc::new(Mutex::new(Vec::new()));
    for (i, cost) in COSTS.into_iter().enumerate() {
        let rt2 = rt.clone();
        let log2 = Arc::clone(&log);
        rt.spawn(format!("t{i}"), async move {
            for _ in 0..5 {
                log2.lock().unwrap().push(i);
                rt2.advance_ns(cost);
                rt2.yield_now().await.unwrap();
            }
        });
    }
    rt.run().unwrap();
    let sequence = log.lock().unwrap().clone();
    sequence
}

#[test]
fn random_policy_sequence_is_pinned() {
    assert_eq!(
        granted_sequence(SchedConfig::deterministic(42)),
        [0, 0, 3, 2, 0, 1, 2, 2, 3, 0, 1, 2, 3, 3, 2, 1, 0, 1, 3, 1]
    );
}

#[test]
fn round_robin_sequence_is_pinned() {
    assert_eq!(
        granted_sequence(SchedConfig::deterministic(42).with_policy(SchedPolicy::RoundRobin)),
        [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]
    );
}

#[test]
fn earliest_clock_first_sequence_is_pinned() {
    assert_eq!(
        granted_sequence(
            SchedConfig::deterministic(42).with_policy(SchedPolicy::EarliestClockFirst)
        ),
        [0, 1, 2, 3, 1, 3, 1, 2, 3, 0, 1, 3, 1, 2, 3, 0, 2, 2, 0, 0]
    );
}

#[test]
fn priority_sequences_are_pinned_with_and_without_pins() {
    let pct = SchedConfig::deterministic(42)
        .with_policy(SchedPolicy::Priority { depth: 3 })
        .with_pct_horizon(16);
    assert_eq!(
        granted_sequence(pct.clone()),
        [2, 2, 3, 3, 3, 3, 3, 0, 0, 0, 0, 0, 2, 2, 2, 1, 1, 1, 1, 1]
    );
    let pins = vec![
        ("t3".to_string(), PRIORITY_BASE_MAX + 7),
        ("t1".to_string(), -7),
    ];
    assert_eq!(
        granted_sequence(pct.with_priority_pins(pins)),
        [3, 3, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 3, 3, 3, 1, 1, 1, 1, 1]
    );
}
