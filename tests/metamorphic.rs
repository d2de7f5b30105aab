//! Metamorphic properties of the race detector: adding synchronization can
//! only remove races, never create them, and the hybrid detector is the
//! conjunction of its two parts. Cases are generated from a seeded in-repo
//! ChaCha generator (the crates registry is unreachable, so proptest is
//! unavailable); every case is deterministic.

#[path = "support/tracegen.rs"]
mod tracegen;

use home::stream::{detect_stream, DetectorConfig};
use home::trace::Trace;
use rand::Rng;
use tracegen::{build_trace, gen_ops, rng_for, Op};

fn race_count(trace: &Trace, cfg: &DetectorConfig) -> usize {
    detect_stream(trace, cfg)
        .expect("well-formed synthetic trace")
        .0
        .len()
}

fn pair_set(trace: &Trace, cfg: &DetectorConfig) -> std::collections::BTreeSet<(String, u64, u64)> {
    detect_stream(trace, cfg)
        .expect("well-formed synthetic trace")
        .0
        .into_iter()
        .map(|r| (r.loc.to_string(), r.first.seq, r.second.seq))
        .collect()
}

/// The hybrid detector reports a subset of each single-analysis mode
/// (it is their conjunction).
#[test]
fn hybrid_is_conjunction_of_modes() {
    for case in 0..96 {
        let mut rng = rng_for(case);
        let ops = gen_ops(&mut rng);
        let trace = build_trace(&ops, None);
        let hybrid = pair_set(&trace, &DetectorConfig::hybrid());
        let lockset = pair_set(&trace, &DetectorConfig::lockset_only());
        let hb = pair_set(&trace, &DetectorConfig::hb_only());
        assert!(hybrid.is_subset(&lockset), "case {case}: hybrid ⊄ lockset");
        assert!(hybrid.is_subset(&hb), "case {case}: hybrid ⊄ hb");
    }
}

/// Inserting a barrier anywhere never increases the hybrid race count.
#[test]
fn adding_a_barrier_never_adds_races() {
    for case in 0..96 {
        let mut rng = rng_for(1_000 + case);
        let ops = gen_ops(&mut rng);
        let trace = build_trace(&ops, None);
        let pos = rng.gen_range(0usize..ops.len());
        let trace_b = build_trace(&ops, Some(pos));
        assert!(
            race_count(&trace_b, &DetectorConfig::hybrid())
                <= race_count(&trace, &DetectorConfig::hybrid()),
            "case {case}: barrier at {pos} added races"
        );
    }
}

/// Wrapping every access in one common lock removes all hybrid races.
#[test]
fn common_lock_eliminates_all_races() {
    for case in 0..96 {
        let mut rng = rng_for(2_000 + case);
        let ops = gen_ops(&mut rng);
        let locked: Vec<(u8, Op)> = ops
            .iter()
            .map(|&(t, op)| {
                let v = match op {
                    Op::Write(v) | Op::Read(v) | Op::Locked(_, v) => v,
                };
                (t, Op::Locked(9, v))
            })
            .collect();
        let trace = build_trace(&locked, None);
        assert_eq!(
            race_count(&trace, &DetectorConfig::hybrid()),
            0,
            "case {case}"
        );
    }
}

/// Reads never race with reads, whatever the interleaving.
#[test]
fn read_only_histories_are_race_free() {
    for case in 0..96 {
        let mut rng = rng_for(3_000 + case);
        let len = rng.gen_range(1usize..12);
        let ops: Vec<(u8, Op)> = (0..len)
            .map(|_| (rng.gen_range(0u8..2), Op::Read(rng.gen_range(0u32..4))))
            .collect();
        let trace = build_trace(&ops, None);
        assert_eq!(
            race_count(&trace, &DetectorConfig::hybrid()),
            0,
            "case {case}"
        );
        assert_eq!(
            race_count(&trace, &DetectorConfig::lockset_only()),
            0,
            "case {case}"
        );
    }
}

/// Determinism: detection is a pure function of the trace.
#[test]
fn detection_is_deterministic() {
    for case in 0..96 {
        let mut rng = rng_for(4_000 + case);
        let ops = gen_ops(&mut rng);
        let trace = build_trace(&ops, None);
        assert_eq!(
            pair_set(&trace, &DetectorConfig::hybrid()),
            pair_set(&trace, &DetectorConfig::hybrid()),
            "case {case}"
        );
    }
}
