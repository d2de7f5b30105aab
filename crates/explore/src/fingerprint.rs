//! DPOR-lite schedule fingerprints.
//!
//! Detection in this pipeline is *per rank*: the dynamic phase shards the
//! trace by rank and the rule engine classifies per-rank evidence. Two
//! schedules whose per-rank event projections are identical therefore get
//! identical verdicts — the cross-rank interleaving of independent events
//! commutes. The fingerprint hashes exactly that: for each rank, the
//! sequence of happens-before-relevant event fields (thread, region,
//! source location, event payload), **excluding** the global sequence
//! number and virtual timestamps, which differ between equivalent
//! interleavings. Per-rank digests are folded together in rank order,
//! along with the run's incidents and deadlock shape (they feed the rules
//! too).
//!
//! This is a sound *dedup* key, not a full DPOR persistent-set scheme:
//! equal fingerprints ⇒ equal verdicts, so the explorer counts the
//! schedule as covered and skips re-detection.
//!
//! The hash is structural: the fields go to the hasher through their
//! `Hash` impls, fixed-width, nothing is formatted. Its value lives and
//! dies inside one `explore` call — never printed, stored or compared
//! across builds — so the contract is the *partition* of schedules it
//! induces, not the number (`tests/fingerprint_partition.rs` holds it to
//! the partition of the formatter-based hash it replaced).

use home_interp::RunResult;
use home_trace::FxHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Fingerprint of one executed schedule (see module docs).
pub fn schedule_fingerprint(result: &RunResult) -> u64 {
    let mut per_rank: BTreeMap<u32, FxHasher> = BTreeMap::new();
    for e in result.trace.events() {
        let h = per_rank.entry(e.rank.0).or_default();
        // The payload (access kind + location, MPI call metadata, barrier
        // epochs…) is what the detector and rules consume.
        (e.tid, e.region, &e.loc, &e.kind).hash(h);
    }
    let mut combined = FxHasher::default();
    for (rank, h) in per_rank {
        combined.write_u32(rank);
        combined.write_u64(h.finish());
    }
    for i in &result.mpi_errors {
        combined.write_u32(i.rank);
        combined.write_u32(i.line);
        combined.write(i.call.as_bytes());
        combined.write(i.error.as_bytes());
    }
    match &result.deadlock {
        Some(d) => {
            combined.write_u8(1);
            // Step counts differ between equivalent interleavings; the
            // *shape* (who was stuck on what) is what the report shows.
            let mut blocked: Vec<String> = d
                .blocked
                .iter()
                .map(|b| format!("{}:{}", b.name, b.reason))
                .collect();
            blocked.sort_unstable();
            for b in blocked {
                combined.write(b.as_bytes());
            }
        }
        None => combined.write_u8(0),
    }
    combined.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use home_interp::{run, RunConfig};
    use home_sched::SchedPolicy;

    const PROGRAM: &str = r#"
        program fp {
            mpi_init_thread(multiple);
            omp parallel num_threads(2) {
                if (rank == 0) { mpi_send(to: 1, tag: tid, count: 1); }
                if (rank == 1) { mpi_recv(from: 0, tag: tid); }
            }
            mpi_finalize();
        }
    "#;

    #[test]
    fn fingerprint_is_stable_across_replays() {
        let program = home_ir::parse(PROGRAM).unwrap();
        for seed in [1u64, 2, 3] {
            let fp = |_| {
                let cfg = RunConfig::test(2, seed);
                schedule_fingerprint(&run(&program, &cfg))
            };
            assert_eq!(fp(()), fp(()), "seed {seed}");
        }
    }

    #[test]
    fn fingerprint_ignores_policy_if_projections_match() {
        // A single-threaded-per-rank program has only one per-rank
        // projection, so every schedule policy must fingerprint equal.
        let program = home_ir::parse(
            r#"
            program serial {
                mpi_init_thread(multiple);
                if (rank == 0) { mpi_send(to: 1, tag: 0, count: 1); }
                if (rank == 1) { mpi_recv(from: 0, tag: 0); }
                mpi_finalize();
            }
            "#,
        )
        .unwrap();
        let fp_for = |policy: SchedPolicy, seed: u64| {
            let mut cfg = RunConfig::test(2, seed);
            cfg.sched.policy = policy;
            schedule_fingerprint(&run(&program, &cfg))
        };
        let base = fp_for(SchedPolicy::Random, 1);
        assert_eq!(base, fp_for(SchedPolicy::Random, 99));
        assert_eq!(base, fp_for(SchedPolicy::Priority { depth: 3 }, 5));
    }
}
