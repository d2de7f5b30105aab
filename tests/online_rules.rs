//! Rule-engine tests: each of the six rules classifies its evidence, and
//! how a session is fed cannot move what it reports.
//!
//! A session's rule engine decides every rule the moment its evidence is
//! complete — a race as the detector reports it, an off-main-thread
//! `MPI_Finalize` on the monitored write itself, an incident as it is fed.
//! The one deliberate exception is the `MPI_THREAD_SINGLE` initialization
//! arm, whose description reports the whole-run region call count and is
//! therefore decided at the end of the run. The first half checks each
//! rule's classification through `match_rules`, the engine's batch form;
//! the second checks that a session fed one event at a time, `FEED_BATCH`
//! events at a time and the whole trace at once reports the same keyed
//! violations on every bundled program.

use home::core::{match_rules, Session, Violation, ViolationKind, FEED_BATCH};
use home::prelude::parse;
use home::stream::{Race, RaceAccess};
use home::trace::{
    AccessKind, Event, EventKind, MemLoc, MonitoredVar, MpiCallKind, MpiCallRecord, Rank, RegionId,
    ReqId, SrcLoc, ThreadLevel, Tid, Trace, TraceIncident, COMM_WORLD,
};
use std::path::Path;
use std::sync::Arc;

/// A worker-thread MPI call record with a fully specified envelope.
fn rec(kind: MpiCallKind) -> MpiCallRecord {
    MpiCallRecord {
        kind,
        peer: Some(0),
        tag: Some(7),
        comm: COMM_WORLD,
        request: None,
        is_main_thread: false,
        thread_level: Some(ThreadLevel::Multiple),
    }
}

fn access(seq: u64, tid: u32, mpi: MpiCallRecord) -> RaceAccess {
    RaceAccess {
        seq,
        tid: Tid(tid),
        region: Some(RegionId(0)),
        kind: AccessKind::Write,
        loc: Some(SrcLoc::new("t.hmp", seq as u32)),
        mpi: Some(mpi),
    }
}

fn race_on(var: MonitoredVar, a: MpiCallRecord, b: MpiCallRecord) -> Race {
    Race {
        rank: Rank(0),
        loc: MemLoc::Monitored(var),
        first: access(1, 0, a),
        second: access(2, 1, b),
    }
}

fn event(seq: u64, kind: EventKind) -> Event {
    Event {
        seq,
        rank: Rank(0),
        tid: Tid(1),
        region: Some(RegionId(0)),
        time_ns: 0,
        loc: Some(SrcLoc::new("t.hmp", 3)),
        kind,
    }
}

/// The violations `match_rules` classifies from these events, races and
/// incidents, in canonical order.
fn classify(events: Vec<Event>, races: &[Race], incidents: &[TraceIncident]) -> Vec<Violation> {
    let outcome = match_rules(&Trace::from_events(events), races, incidents);
    assert!(
        outcome.unclassified.is_empty(),
        "{:?}",
        outcome.unclassified
    );
    outcome
        .violations
        .into_iter()
        .map(|k| k.violation)
        .collect()
}

/// The kinds of `violations`, in order.
fn kinds(violations: &[Violation]) -> Vec<ViolationKind> {
    violations.iter().map(|v| v.kind).collect()
}

#[test]
fn concurrent_recv_fires_on_race_arrival() {
    let race = race_on(
        MonitoredVar::Tag,
        rec(MpiCallKind::Recv),
        rec(MpiCallKind::Irecv),
    );
    let found = classify(Vec::new(), &[race], &[]);
    assert_eq!(kinds(&found), [ViolationKind::ConcurrentRecv]);
    assert_eq!(
        found[0].locations,
        [SrcLoc::new("t.hmp", 1), SrcLoc::new("t.hmp", 2)]
    );
}

#[test]
fn probe_race_fires_on_race_arrival() {
    let race = race_on(
        MonitoredVar::Tag,
        rec(MpiCallKind::Probe),
        rec(MpiCallKind::Recv),
    );
    let found = classify(Vec::new(), &[race], &[]);
    assert_eq!(kinds(&found), [ViolationKind::Probe]);
}

#[test]
fn request_completion_race_fires_on_race_arrival() {
    let wait = |k| MpiCallRecord {
        request: Some(ReqId(3)),
        ..rec(k)
    };
    let race = race_on(
        MonitoredVar::Request,
        wait(MpiCallKind::Wait),
        wait(MpiCallKind::Test),
    );
    let found = classify(Vec::new(), &[race], &[]);
    assert_eq!(kinds(&found), [ViolationKind::ConcurrentRequest]);
}

#[test]
fn collective_race_fires_on_race_arrival() {
    let race = race_on(
        MonitoredVar::Collective,
        rec(MpiCallKind::Barrier),
        rec(MpiCallKind::Bcast),
    );
    let found = classify(Vec::new(), &[race], &[]);
    assert_eq!(kinds(&found), [ViolationKind::CollectiveCall]);
}

#[test]
fn concurrent_finalize_race_fires_on_race_arrival() {
    let race = race_on(
        MonitoredVar::Finalize,
        rec(MpiCallKind::Finalize),
        rec(MpiCallKind::Finalize),
    );
    let found = classify(Vec::new(), &[race], &[]);
    assert_eq!(kinds(&found), [ViolationKind::Finalization]);
    assert!(found[0].description.contains("concurrent MPI_Finalize"));
}

#[test]
fn off_main_finalize_fires_on_the_monitored_write_itself() {
    let write = event(
        0,
        EventKind::MonitoredWrite {
            var: MonitoredVar::Finalize,
            call: rec(MpiCallKind::Finalize),
        },
    );
    let found = classify(vec![write], &[], &[]);
    assert_eq!(kinds(&found), [ViolationKind::Finalization]);
    assert!(found[0]
        .description
        .contains("must be called by the main thread"));
}

#[test]
fn call_after_finalize_incident_fires_on_arrival() {
    let incident = TraceIncident {
        rank: 0,
        line: 12,
        call: "MPI_Send".into(),
        error: "MPI_Send after MPI_Finalize".into(),
    };
    let found = classify(Vec::new(), &[], &[incident]);
    assert_eq!(kinds(&found), [ViolationKind::Finalization]);
    assert_eq!(found[0].locations, vec![SrcLoc::new("", 12)]);
}

#[test]
fn collective_mismatch_incident_fires_on_arrival() {
    let incident = TraceIncident {
        rank: 1,
        line: 9,
        call: "MPI_Bcast".into(),
        error: "collective mismatch on comm 0".into(),
    };
    let found = classify(Vec::new(), &[], &[incident]);
    assert_eq!(kinds(&found), [ViolationKind::CollectiveCall]);
    assert_eq!(found[0].rank, Rank(1));
}

#[test]
fn serialized_init_fires_on_first_monitored_race() {
    let init = event(
        0,
        EventKind::MpiInit {
            level: ThreadLevel::Serialized,
            requested_by_init_thread: true,
        },
    );
    assert!(
        classify(vec![init.clone()], &[], &[]).is_empty(),
        "init alone is no violation"
    );
    // The first monitored race both is a recv violation and completes the
    // Serialized arm's evidence.
    let race = race_on(
        MonitoredVar::Tag,
        rec(MpiCallKind::Recv),
        rec(MpiCallKind::Recv),
    );
    let found = classify(vec![init], &[race], &[]);
    assert_eq!(
        kinds(&found),
        [ViolationKind::Initialization, ViolationKind::ConcurrentRecv]
    );
    assert!(found[0].description.contains("concurrent MPI calls"));
}

#[test]
fn funneled_init_fires_on_worker_region_call() {
    let init = event(
        0,
        EventKind::MpiInit {
            level: ThreadLevel::Funneled,
            requested_by_init_thread: true,
        },
    );
    let call = event(
        1,
        EventKind::MpiCall {
            call: rec(MpiCallKind::Send),
        },
    );
    let found = classify(vec![init, call], &[], &[]);
    assert_eq!(kinds(&found), [ViolationKind::Initialization]);
    assert!(found[0].description.contains("worker thread"));
}

#[test]
fn single_init_reports_only_at_finish() {
    // The Single arm's description carries the *total* region call count:
    // both calls, not the first.
    let mut events = vec![
        event(
            0,
            EventKind::MpiInit {
                level: ThreadLevel::Single,
                requested_by_init_thread: true,
            },
        ),
        event(
            1,
            EventKind::Fork {
                region: RegionId(0),
                nthreads: 2,
            },
        ),
    ];
    for seq in 2..4 {
        events.push(event(
            seq,
            EventKind::MpiCall {
                call: rec(MpiCallKind::Send),
            },
        ));
    }
    let found = classify(events, &[], &[]);
    assert_eq!(kinds(&found), [ViolationKind::Initialization]);
    assert!(
        found[0].description.contains("2 MPI call(s)"),
        "must report the final call count: {}",
        found[0].description
    );
}

fn bundled_programs() -> Vec<(String, home::ir::Program)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .expect("programs/ dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "hmp"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|p| {
            let name = p
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("?")
                .to_string();
            let src = std::fs::read_to_string(&p).expect("read program");
            (name, parse(&src).expect("parse program"))
        })
        .collect()
}

/// One run of `program` under `seed` as `check` runs it: HOME
/// instrumentation, the static checklist, two ranks of two threads.
fn recorded(program: &home::ir::Program, seed: u64) -> home::interp::RunResult {
    let checklist = Arc::new(home::prelude::analyze(program).checklist.clone());
    let mut cfg = home::prelude::RunConfig::test(2, seed)
        .with_instrumentation(home::prelude::Instrumentation::home())
        .with_checklist(checklist);
    cfg.threads_per_proc = 2;
    home::prelude::run(program, &cfg)
}

/// A session fed one event at a time, [`FEED_BATCH`] events at a time and
/// the whole trace as one batch reports the same violations under the same
/// keys.
#[test]
fn a_session_reports_the_same_keys_however_it_is_fed() {
    let mut found = 0;
    for (name, program) in bundled_programs() {
        for seed in 1..=4u64 {
            let result = recorded(&program, seed);
            let events = result.trace.events();
            let outcomes: Vec<_> = [1, FEED_BATCH, events.len().max(1)]
                .into_iter()
                .map(|chunk| {
                    let mut session = Session::new(home::prelude::DetectorConfig::hybrid());
                    for batch in events.chunks(chunk) {
                        session.feed_batch(batch);
                    }
                    for i in &result.mpi_errors {
                        session.feed_incident(i);
                    }
                    session.finish().expect("session finish").violations
                })
                .collect();
            assert_eq!(
                outcomes[0], outcomes[1],
                "{name} seed {seed}: 1 vs FEED_BATCH"
            );
            assert_eq!(outcomes[0], outcomes[2], "{name} seed {seed}: 1 vs whole");
            found += outcomes[0].len();
        }
    }
    assert!(found > 0, "the bundled programs hold violations");
}
