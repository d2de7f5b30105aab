//! End-to-end exploration guarantees:
//!
//! * determinism — the same `(program, strategy, seed, budget)` produces a
//!   byte-identical report (violations, tokens, coverage stats) for every
//!   `--jobs` value;
//! * fingerprint soundness — the DPOR-lite fingerprint is stable across
//!   independent replays of the same schedule and actually deduplicates
//!   HB-equivalent schedules instead of re-analyzing them;
//! * reproduction — every token the explorer prints replays through the
//!   `check` pipeline to the same violation, deterministically.

use home::core::{explore, schedule_fingerprint};
use home::prelude::*;
use std::sync::Arc;

fn load(path: &str) -> Program {
    let source = std::fs::read_to_string(path).expect("test program exists");
    parse(&source).expect("test program parses")
}

/// Everything the report exposes, in one comparable string: the rendered
/// text (coverage lines, tokens, reproduction commands) plus the raw
/// violation list.
fn report_key(report: &ExploreReport) -> String {
    format!(
        "{}\n{:?}\n{:?}",
        report.render("p.hmp"),
        report.violations,
        report.partial
    )
}

#[test]
fn explore_report_is_byte_identical_across_jobs() {
    let program = load("programs/figure2.hmp");
    for strategy in [
        Strategy::Pct,
        Strategy::Random,
        Strategy::Directed,
        Strategy::All,
    ] {
        let base = ExploreOptions {
            budget: 24,
            strategy,
            jobs: 1,
            ..ExploreOptions::default()
        };
        let serial = explore(&program, &base);
        for jobs in [2usize, 4] {
            let options = ExploreOptions {
                jobs,
                ..base.clone()
            };
            let parallel = explore(&program, &options);
            assert_eq!(
                report_key(&serial),
                report_key(&parallel),
                "strategy {strategy}: report diverges between jobs=1 and jobs={jobs}"
            );
        }
    }
}

#[test]
fn fingerprint_is_stable_across_independent_replays() {
    let program = load("programs/figure2.hmp");
    let checklist = Arc::new(analyze(&program).checklist.clone());
    for seed in 1u64..6 {
        let fingerprint = || {
            let mut cfg = RunConfig::test(2, seed).with_checklist(Arc::clone(&checklist));
            cfg.threads_per_proc = 2;
            schedule_fingerprint(&run(&program, &cfg))
        };
        assert_eq!(
            fingerprint(),
            fingerprint(),
            "seed {seed}: unstable fingerprint"
        );
    }
}

#[test]
fn fingerprint_dedupes_equivalent_schedules() {
    // One thread per rank: every schedule has identical per-rank
    // projections, so of N attempted schedules exactly one is analyzed and
    // the rest are deduplicated — never re-detected, never re-counted.
    let program = parse(
        r#"
        program serial {
            mpi_init_thread(multiple);
            if (rank == 0) { mpi_send(to: 1, tag: 0, count: 1); }
            if (rank == 1) { mpi_recv(from: 0, tag: 0); }
            mpi_finalize();
        }
        "#,
    )
    .expect("serial program parses");
    let options = ExploreOptions {
        budget: 10,
        strategy: Strategy::Random,
        ..ExploreOptions::default()
    };
    let report = explore(&program, &options);
    assert_eq!(report.coverage.attempted, 10);
    assert_eq!(report.coverage.analyzed, 1, "{}", report.render("serial"));
    assert_eq!(report.coverage.deduped, 9, "{}", report.render("serial"));
    assert!(!report.partial);
}

#[test]
fn explore_tokens_reproduce_through_check() {
    let program = load("programs/figure1.hmp");
    let options = ExploreOptions {
        budget: 8,
        ..ExploreOptions::default()
    };
    let report = explore(&program, &options);
    assert!(
        !report.violations.is_empty(),
        "figure1 exploration finds its violation: {}",
        report.render("figure1.hmp")
    );
    for found in &report.violations {
        let mut check_options = CheckOptions::new(2, 2);
        check_options.seeds = vec![found.token.seed];
        check_options.sched_policy = found.token.policy();
        check_options.priority_pins = found.token.pins.clone();
        let first = check(&program, &check_options);
        let second = check(&program, &check_options);
        assert_eq!(
            format!("{:?}", first.violations),
            format!("{:?}", second.violations),
            "token {} does not replay deterministically",
            found.token
        );
        assert!(
            first.violations.iter().any(|v| {
                home::core::violation_identity(v)
                    == home::core::violation_identity(&found.violation)
            }),
            "token {} does not reproduce `{}`:\n{}",
            found.token,
            found.violation,
            first.render()
        );
    }
}
