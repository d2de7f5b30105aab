//! End-to-end exploration guarantees:
//!
//! * determinism — the same `(program, strategy, seed, budget)` produces a
//!   byte-identical report (violations, tokens, coverage stats) for every
//!   `--jobs` value;
//! * fingerprint soundness — the DPOR-lite fingerprint is stable across
//!   independent replays of the same schedule and actually deduplicates
//!   HB-equivalent schedules instead of re-analyzing them;
//! * reproduction — every token the explorer prints replays through the
//!   `check` pipeline to the same violation, deterministically;
//! * instrumentation soundness — a schedule run the way `explore` runs it,
//!   under `check`'s instrumentation against the static checklist, finds
//!   what a fully instrumented run of the same schedule finds.

use home::core::{explore, schedule_fingerprint, violation_identity, Session, ViolationIdentity};
use home::prelude::*;
use std::collections::BTreeSet;
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
    for strategy in [Strategy::Pct, Strategy::Random] {
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

/// `hidden.hmp` hides its second `MPI_Recv` (line 36) behind a branch only
/// schedules that keep the master thread far ahead take, so uniform random
/// misses it (EXPERIMENTS.md "Guided schedule exploration"). Default
/// `explore` must find it within 8 schedules, and the `reproduce:` line it
/// prints must re-run through `check` to the same violation.
#[test]
fn default_explore_finds_the_hidden_receive_and_its_line_reproduces_it() {
    let home = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_home"))
            .args(args)
            .output()
            .expect("failed to launch home binary");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
        (out.status.code(), stdout)
    };
    let (code, report) = home(&["explore", "programs/hidden.hmp", "--budget", "8"]);
    assert_eq!(code, Some(1), "{report}");
    let finding = report
        .lines()
        .find(|l| l.starts_with("  - isConcurrentRecvViolation on rank1"))
        .and_then(|l| l.split(" [found by ").next())
        .unwrap_or_else(|| panic!("no concurrent-receive finding:\n{report}"));
    assert!(
        finding.ends_with("[hidden.hmp:31, hidden.hmp:36]"),
        "{finding}"
    );
    let command = report
        .lines()
        .find_map(|l| l.trim().strip_prefix("reproduce: home "))
        .unwrap_or_else(|| panic!("no reproduce: line:\n{report}"));
    let args: Vec<&str> = command.split_whitespace().collect();
    let (code, check) = home(&args);
    assert_eq!(code, Some(1), "{command}:\n{check}");
    assert!(
        check.lines().any(|l| l == finding),
        "`{command}` does not reproduce `{finding}`:\n{check}"
    );
}

/// The violation identities and deadlock flag of one run of `program`
/// under `cfg`, analysed by a fresh session.
fn verdict(
    program: &Program,
    cfg: &RunConfig,
    detector: &DetectorConfig,
) -> (BTreeSet<ViolationIdentity>, bool) {
    let result = run(program, cfg);
    let mut session = Session::new(detector.clone());
    session.feed_batch(result.trace.events());
    for incident in &result.mpi_errors {
        session.feed_incident(incident);
    }
    let outcome = session.finish().expect("the session finishes");
    let identities = outcome
        .violations
        .iter()
        .map(|k| violation_identity(&k.violation))
        .collect();
    (identities, result.deadlock.is_some())
}

/// The pruning `explore` relies on, schedule by schedule: the static phase
/// leaves out of a run only what cannot change its verdict. Over the first
/// 16 `pct` and 16 `random` tokens of the bundled programs at 2 and 3
/// ranks and of the injected LU/BT/SP-MZ class-S programs at 2 x 2, the
/// run [`ExploreOptions::check_options`] configures (HOME's instrumentation
/// against the checklist) and a fully instrumented run of the same
/// schedule report the same violation identities and the same deadlock
/// flag.
#[test]
fn every_schedule_finds_under_the_checklist_what_full_instrumentation_finds() {
    let mut programs: Vec<(String, Program, usize)> = Vec::new();
    for name in [
        "figure1",
        "figure2",
        "figure2_fixed",
        "hidden",
        "interproc",
        "interproc2",
        "pipeline",
    ] {
        for nprocs in [2, 3] {
            let program = load(&format!("programs/{name}.hmp"));
            programs.push((name.to_string(), program, nprocs));
        }
    }
    for benchmark in [Benchmark::LuMz, Benchmark::BtMz, Benchmark::SpMz] {
        let program = build_injected(benchmark, Class::S).program;
        programs.push((format!("{benchmark:?} class S"), program, 2));
    }
    let mut pairs = 0;
    for (name, program, nprocs) in &programs {
        let checklist = Arc::new(analyze(program).checklist);
        for strategy in [Strategy::Pct, Strategy::Random] {
            let options = ExploreOptions {
                nprocs: *nprocs,
                threads_per_proc: 2,
                strategy,
                ..ExploreOptions::default()
            };
            let check = options.check_options();
            for seed in options.base_seed..options.base_seed + 16 {
                let home = check.run_config(seed, &checklist);
                let mut full = RunConfig::test(*nprocs, seed);
                full.threads_per_proc = 2;
                full.sched.policy = home.sched.policy;
                assert_eq!(
                    verdict(program, &home, &options.detector),
                    verdict(program, &full, &options.detector),
                    "{name} at {nprocs} ranks, {strategy} seed {seed}: the checklist run \
                     and the fully instrumented run disagree"
                );
                pairs += 1;
            }
        }
    }
    assert_eq!(pairs, 17 * 32);
}
