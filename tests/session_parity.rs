//! Session-object parity: detection driven through [`Session`] — the
//! engine behind `home check`, `serve` and `replay` — must be
//! byte-identical to the batch reference (`detect_stream` over the whole
//! recorded trace, then `match_rules`), and so must `check`, for every
//! sample program × seed.

use home::core::Session;
use home::prelude::*;
use std::sync::Arc;

fn sample_programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir("programs")
        .expect("programs dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "hmp"))
        .collect();
    entries.sort();
    for path in entries {
        let source = std::fs::read_to_string(&path).expect("read program");
        let program = parse(&source).expect("sample program parses");
        out.push((path.display().to_string(), program));
    }
    assert!(out.len() >= 4, "expected the sample program corpus");
    out
}

/// The batch reference for one seed, configured exactly like the pipeline:
/// HOME instrumentation, static checklist, test topology, random policy.
fn reference(program: &Program, seed: u64) -> (home::interp::RunResult, Vec<Race>) {
    let checklist = Arc::new(analyze(program).checklist.clone());
    let mut cfg = RunConfig::test(2, seed)
        .with_instrumentation(Instrumentation::home())
        .with_checklist(checklist);
    cfg.threads_per_proc = 2;
    cfg.sched.policy = SchedPolicy::Random;
    let result = run(program, &cfg);
    let (races, _) =
        detect_stream(&result.trace, &DetectorConfig::hybrid()).expect("whole-trace detect");
    (result, races)
}

#[test]
fn streaming_session_matches_the_batch_reference() {
    for (name, program) in sample_programs() {
        for seed in [1u64, 2, 3] {
            let (result, races) = reference(&program, seed);
            let batch = home::core::match_rules(&result.trace, &races, &result.mpi_errors);

            let mut session = Session::new(DetectorConfig::hybrid());
            for e in result.trace.events() {
                session.feed_batch(std::slice::from_ref(e));
            }
            for i in &result.mpi_errors {
                session.feed_incident(i);
            }
            let outcome = session.finish().expect("session finish");

            assert_eq!(
                outcome.events,
                result.trace.events().len() as u64,
                "{name} seed {seed}: event count"
            );
            assert_eq!(
                format!("{:?}", outcome.races),
                format!("{races:?}"),
                "{name} seed {seed}: races diverge"
            );
            assert_eq!(
                format!("{:?}", outcome.violations),
                format!("{:?}", batch.violations),
                "{name} seed {seed}: violations diverge"
            );
            assert_eq!(
                format!("{:?}", outcome.unclassified),
                format!("{:?}", batch.unclassified),
                "{name} seed {seed}: unclassified races diverge"
            );
        }
    }
}

/// A one-seed `check` reports what the batch reference classifies for that
/// seed, in the same order.
#[test]
fn check_matches_the_reference() {
    for (name, program) in sample_programs() {
        for seed in [1u64, 2, 3] {
            let options = CheckOptions::default().with_seeds(vec![seed]);
            let report = check(&program, &options);
            assert_eq!(report.runs, 1, "{name} seed {seed}");

            let (result, races) = reference(&program, seed);
            let batch = home::core::match_rules(&result.trace, &races, &result.mpi_errors);
            let batch: Vec<&Violation> = batch.violations.iter().map(|k| &k.violation).collect();
            assert_eq!(
                format!("{:?}", report.violations),
                format!("{batch:?}"),
                "{name} seed {seed}: violations diverge"
            );
        }
    }
}

/// What the seed fan-out, the section fan-out and the daemon's connection
/// threads move between OS threads. A compile-time check, here rather than
/// in whichever crate first spawns with one of them: the run's own state
/// is `Rc`-shared on its one thread and must not leak into these.
#[test]
fn what_crosses_threads_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Session>();
    assert_send::<home::core::SessionOutcome>();
    assert_send::<home::serve::TraceOutcome>();
    assert_send::<home::interp::RunResult>();
    assert_send::<HomeReport>();
}
