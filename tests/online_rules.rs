//! Online rule-engine tests (PR 5): every rule whose evidence completes
//! mid-run must emit its violation *live* — from the `observe_*` call
//! itself, before `RuleEngine::finish` — and `finish` must neither drop
//! nor duplicate it. The one deliberate exception is the
//! `MPI_THREAD_SINGLE` initialization arm, whose description reports the
//! whole-run region call count and therefore only fires at finish.
//!
//! The second half checks the pipeline-level contract: running
//! `check_with_sink` with a collecting sink on the bundled programs, the
//! per-seed emission stream reconstructs the report exactly (per-seed
//! canonical order, cross-seed dedup), each [`EmitOrder`] key appears
//! exactly once per seed, and the whole emission sequence is deterministic
//! across repeated runs and feeds. A session's own keys are checked against
//! the emissions it lent: the smallest key lent for each identity is the
//! one its outcome reports.

use home::core::{check_with_sink, CheckOptions, RuleEngine, Session, ViolationSink, FEED_BATCH};
use home::core::{EmittedViolation, Violation, ViolationKind};
use home::prelude::parse;
use home::stream::{Race, RaceAccess};
use home::trace::{
    AccessKind, Event, EventKind, MemLoc, MonitoredVar, MpiCallKind, MpiCallRecord, Rank, RegionId,
    ReqId, SrcLoc, ThreadLevel, Tid, TraceIncident, COMM_WORLD,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Every emission a check hands its sink, in arrival order.
#[derive(Default)]
struct Collect(Mutex<Vec<EmittedViolation>>);

impl Collect {
    fn take(&self) -> Vec<EmittedViolation> {
        std::mem::take(&mut *self.0.lock().expect("collect lock"))
    }
}

impl ViolationSink for Collect {
    fn violation(&self, v: &EmittedViolation) {
        self.0.lock().expect("collect lock").push(v.clone());
    }
}

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

fn event(kind: EventKind) -> Event {
    Event {
        seq: 0,
        rank: Rank(0),
        tid: Tid(1),
        region: Some(RegionId(0)),
        time_ns: 0,
        loc: Some(SrcLoc::new("t.hmp", 3)),
        kind,
    }
}

/// Assert that `live` holds exactly the expected kinds (order-insensitive),
/// all flagged live, and that `finish` re-derives the same violations
/// without re-emitting any of them.
fn assert_live_then_quiet_finish(
    engine: &mut RuleEngine,
    live: &[EmittedViolation],
    kinds: &[ViolationKind],
) {
    assert_eq!(live.len(), kinds.len(), "live emissions: {live:?}");
    for kind in kinds {
        assert!(
            live.iter().any(|e| e.violation.kind == *kind),
            "missing live {kind:?} in {live:?}"
        );
    }
    for e in live {
        assert!(e.live, "emission not flagged live: {e:?}");
    }
    let fin = engine.finish();
    assert!(
        fin.remaining.is_empty(),
        "finish re-emitted: {:?}",
        fin.remaining
    );
    for e in live {
        assert!(
            fin.outcome
                .violations
                .iter()
                .any(|k| k.violation == e.violation && k.order == e.order),
            "canonical outcome lost {:?}",
            e.violation
        );
    }
}

#[test]
fn concurrent_recv_fires_on_race_arrival() {
    let mut engine = RuleEngine::new();
    let live = engine.observe_race(&race_on(
        MonitoredVar::Tag,
        rec(MpiCallKind::Recv),
        rec(MpiCallKind::Irecv),
    ));
    assert_live_then_quiet_finish(&mut engine, &live, &[ViolationKind::ConcurrentRecv]);
    assert_eq!(live[0].threads, vec![Tid(0), Tid(1)]);
}

#[test]
fn probe_race_fires_on_race_arrival() {
    let mut engine = RuleEngine::new();
    let live = engine.observe_race(&race_on(
        MonitoredVar::Tag,
        rec(MpiCallKind::Probe),
        rec(MpiCallKind::Recv),
    ));
    assert_live_then_quiet_finish(&mut engine, &live, &[ViolationKind::Probe]);
}

#[test]
fn request_completion_race_fires_on_race_arrival() {
    let mut engine = RuleEngine::new();
    let wait = |k| MpiCallRecord {
        request: Some(ReqId(3)),
        ..rec(k)
    };
    let live = engine.observe_race(&race_on(
        MonitoredVar::Request,
        wait(MpiCallKind::Wait),
        wait(MpiCallKind::Test),
    ));
    assert_live_then_quiet_finish(&mut engine, &live, &[ViolationKind::ConcurrentRequest]);
}

#[test]
fn collective_race_fires_on_race_arrival() {
    let mut engine = RuleEngine::new();
    let live = engine.observe_race(&race_on(
        MonitoredVar::Collective,
        rec(MpiCallKind::Barrier),
        rec(MpiCallKind::Bcast),
    ));
    assert_live_then_quiet_finish(&mut engine, &live, &[ViolationKind::CollectiveCall]);
}

#[test]
fn concurrent_finalize_race_fires_on_race_arrival() {
    let mut engine = RuleEngine::new();
    let live = engine.observe_race(&race_on(
        MonitoredVar::Finalize,
        rec(MpiCallKind::Finalize),
        rec(MpiCallKind::Finalize),
    ));
    assert_live_then_quiet_finish(&mut engine, &live, &[ViolationKind::Finalization]);
}

#[test]
fn off_main_finalize_fires_on_the_monitored_write_itself() {
    let mut engine = RuleEngine::new();
    let live = engine.observe_event(&event(EventKind::MonitoredWrite {
        var: MonitoredVar::Finalize,
        call: rec(MpiCallKind::Finalize),
    }));
    assert_live_then_quiet_finish(&mut engine, &live, &[ViolationKind::Finalization]);
    assert!(live[0]
        .violation
        .description
        .contains("must be called by the main thread"));
}

#[test]
fn call_after_finalize_incident_fires_on_arrival() {
    let mut engine = RuleEngine::new();
    let live = engine.observe_incident(&TraceIncident {
        rank: 0,
        line: 12,
        call: "MPI_Send".into(),
        error: "MPI_Send after MPI_Finalize".into(),
    });
    assert_live_then_quiet_finish(&mut engine, &live, &[ViolationKind::Finalization]);
    assert_eq!(live[0].violation.locations, vec![SrcLoc::new("", 12)]);
}

#[test]
fn collective_mismatch_incident_fires_on_arrival() {
    let mut engine = RuleEngine::new();
    let live = engine.observe_incident(&TraceIncident {
        rank: 1,
        line: 9,
        call: "MPI_Bcast".into(),
        error: "collective mismatch on comm 0".into(),
    });
    assert_live_then_quiet_finish(&mut engine, &live, &[ViolationKind::CollectiveCall]);
    assert_eq!(live[0].violation.rank, Rank(1));
}

#[test]
fn serialized_init_fires_on_first_monitored_race() {
    let mut engine = RuleEngine::new();
    let quiet = engine.observe_event(&event(EventKind::MpiInit {
        level: ThreadLevel::Serialized,
        requested_by_init_thread: true,
    }));
    assert!(quiet.is_empty(), "init alone is no violation: {quiet:?}");
    // The first monitored race both is a recv violation and completes the
    // Serialized arm's evidence — two live emissions from one observe call.
    let live = engine.observe_race(&race_on(
        MonitoredVar::Tag,
        rec(MpiCallKind::Recv),
        rec(MpiCallKind::Recv),
    ));
    assert_live_then_quiet_finish(
        &mut engine,
        &live,
        &[ViolationKind::ConcurrentRecv, ViolationKind::Initialization],
    );
}

#[test]
fn funneled_init_fires_on_worker_region_call() {
    let mut engine = RuleEngine::new();
    assert!(engine
        .observe_event(&event(EventKind::MpiInit {
            level: ThreadLevel::Funneled,
            requested_by_init_thread: true,
        }))
        .is_empty());
    let live = engine.observe_event(&event(EventKind::MpiCall {
        call: rec(MpiCallKind::Send),
    }));
    assert_live_then_quiet_finish(&mut engine, &live, &[ViolationKind::Initialization]);
    assert!(live[0].violation.description.contains("worker thread"));
}

#[test]
fn single_init_reports_only_at_finish() {
    // The Single arm's description carries the *total* region call count,
    // so it must stay silent until finish — and then emit with live=false.
    let mut engine = RuleEngine::new();
    assert!(engine
        .observe_event(&event(EventKind::MpiInit {
            level: ThreadLevel::Single,
            requested_by_init_thread: true,
        }))
        .is_empty());
    assert!(engine
        .observe_event(&event(EventKind::Fork {
            region: RegionId(0),
            nthreads: 2,
        }))
        .is_empty());
    for seq in 0..2 {
        let mut e = event(EventKind::MpiCall {
            call: rec(MpiCallKind::Send),
        });
        e.seq = seq;
        assert!(
            engine.observe_event(&e).is_empty(),
            "Single must not fire before the call count is final"
        );
    }
    let fin = engine.finish();
    assert_eq!(fin.remaining.len(), 1, "{:?}", fin.remaining);
    let e = &fin.remaining[0];
    assert!(!e.live, "finish emissions are not live");
    assert_eq!(e.violation.kind, ViolationKind::Initialization);
    assert!(
        e.violation.description.contains("2 MPI call(s)"),
        "must report the final call count: {}",
        e.violation.description
    );
    assert_eq!(fin.outcome.violations.len(), 1);
    assert_eq!(fin.outcome.violations[0].violation, e.violation);
    assert_eq!(fin.outcome.violations[0].order, e.order);
}

#[test]
fn seed_is_stamped_onto_every_emission() {
    let mut engine = RuleEngine::for_seed(41);
    let live = engine.observe_race(&race_on(
        MonitoredVar::Tag,
        rec(MpiCallKind::Recv),
        rec(MpiCallKind::Recv),
    ));
    assert_eq!(live.len(), 1);
    assert_eq!(live[0].seed, 41);
    let rendered = live[0].to_string();
    assert!(rendered.starts_with("[seed 41] "), "{rendered}");
    assert!(rendered.ends_with("(tid0 vs tid1)"), "{rendered}");
}

// ---------------------------------------------------------------------------
// Pipeline parity: emissions through `check_with_sink` reconstruct the
// report on every bundled program.
// ---------------------------------------------------------------------------

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

/// The key a session reports for each violation is the one the emissions
/// it lent give: fed one event at a time and in `FEED_BATCH` chunks, every
/// key is lent exactly once over all the slices (live and at finish), and
/// the smallest key lent for an identity — with the violation lent under
/// it — is what the outcome reports for that identity, no more and no
/// fewer identities.
#[test]
fn the_smallest_key_lent_per_identity_is_the_reported_key() {
    for (name, program) in bundled_programs() {
        for seed in 1..=4u64 {
            let result = recorded(&program, seed);
            let events = result.trace.events();
            for chunk in [1, FEED_BATCH] {
                let mut session = Session::new(seed, home::prelude::DetectorConfig::hybrid());
                let mut lent = Vec::new();
                for batch in events.chunks(chunk) {
                    lent.extend_from_slice(session.feed_batch(batch));
                }
                for i in &result.mpi_errors {
                    lent.extend_from_slice(session.feed_incident(i));
                }
                let outcome = session.finish().expect("session finish");
                lent.extend_from_slice(&outcome.remaining);

                let mut keys = BTreeSet::new();
                let mut smallest = BTreeMap::new();
                for e in &lent {
                    assert!(
                        keys.insert(e.order),
                        "{name} seed {seed} chunk {chunk}: key {:?} lent twice",
                        e.order
                    );
                    let v = &e.violation;
                    let at = smallest
                        .entry((v.kind, v.rank, v.locations.clone()))
                        .or_insert(e);
                    if e.order < at.order {
                        *at = e;
                    }
                }
                let derived: Vec<_> = smallest
                    .values()
                    .map(|e| (e.order, e.violation.clone()))
                    .collect();
                let mut reported: Vec<_> = outcome
                    .violations
                    .iter()
                    .map(|k| (k.order, k.violation.clone()))
                    .collect();
                reported.sort_by(|a, b| {
                    let id = |v: &Violation| (v.kind, v.rank, v.locations.clone());
                    id(&a.1).cmp(&id(&b.1))
                });
                assert_eq!(
                    reported, derived,
                    "{name} seed {seed} chunk {chunk}: keys diverge"
                );
            }
        }
    }
}

/// Rebuild the report's merged violation list from the raw emission
/// stream: group by seed, sort by canonical key, dedupe per seed by
/// `(kind, rank, locations)` first-wins, then merge across seeds in
/// seed order with the same key.
fn reconstruct(emissions: &[EmittedViolation], seeds: &[u64]) -> Vec<Violation> {
    let mut merged = Vec::new();
    let mut seen = BTreeSet::new();
    for &seed in seeds {
        let mut per_seed: Vec<&EmittedViolation> =
            emissions.iter().filter(|e| e.seed == seed).collect();
        per_seed.sort_by_key(|e| e.order);
        for e in per_seed {
            let v = &e.violation;
            if seen.insert((v.kind, v.rank, v.locations.clone())) {
                merged.push(v.clone());
            }
        }
    }
    merged
}

#[test]
fn emissions_reconstruct_the_report() {
    let seeds: Vec<u64> = vec![1, 2, 3];
    for (name, program) in bundled_programs() {
        let collector = Arc::new(Collect::default());
        let options = CheckOptions::default()
            .with_seeds(seeds.clone())
            .with_jobs(1);
        let report = check_with_sink(&program, &options, collector.clone());
        let emissions = collector.take();

        // Each canonical key appears exactly once per seed.
        let mut keys = BTreeSet::new();
        for e in &emissions {
            assert!(
                keys.insert((e.seed, e.order)),
                "{name}: duplicate emission key {:?} for seed {}",
                e.order,
                e.seed
            );
        }

        assert_eq!(
            reconstruct(&emissions, &seeds),
            report.violations,
            "{name}: emissions do not reconstruct the report"
        );
    }
}

#[test]
fn emission_sequence_is_deterministic_and_feed_independent() {
    let seeds = [1u64, 2];
    let live = |program: &home::ir::Program| {
        let collector = Arc::new(Collect::default());
        let options = CheckOptions::default()
            .with_seeds(seeds.to_vec())
            .with_jobs(1);
        check_with_sink(program, &options, collector.clone());
        collector.take()
    };
    // The same seeds recorded first, then fed to a session as one batch.
    let post_hoc = |program: &home::ir::Program| {
        let mut lent = Vec::new();
        for seed in seeds {
            let result = recorded(program, seed);
            let mut session = Session::new(seed, home::prelude::DetectorConfig::hybrid());
            lent.extend_from_slice(session.feed_batch(result.trace.events()));
            for i in &result.mpi_errors {
                lent.extend_from_slice(session.feed_incident(i));
            }
            lent.extend(session.finish().expect("session finish").remaining);
        }
        lent
    };
    for (name, program) in bundled_programs() {
        let first = live(&program);
        assert_eq!(first, live(&program), "{name}: live emissions not stable");
        // Arrival *order* within a seed may differ between the feeds (live
        // emissions fire mid-run, a whole-trace batch observes every event
        // before the first race), but the emitted set — keys and
        // violations — must be identical.
        let key = |e: &EmittedViolation| (e.seed, e.order, e.violation.clone());
        let mut l: Vec<_> = first.iter().map(key).collect();
        let mut p: Vec<_> = post_hoc(&program).iter().map(key).collect();
        l.sort_by_key(|x| (x.0, x.1));
        p.sort_by_key(|x| (x.0, x.1));
        assert_eq!(
            l, p,
            "{name}: the two feeds emitted different violation sets"
        );
    }
}

#[test]
fn stream_engine_emits_live_when_evidence_completes_mid_run() {
    // figure2 is the paper's concurrent-recv case study: the recv race is
    // decidable the moment the detector reports it, so those emissions
    // must be flagged live.
    let src =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("programs/figure2.hmp"))
            .expect("read figure2");
    let program = parse(&src).expect("parse figure2");
    let collector = Arc::new(Collect::default());
    let options = CheckOptions::default()
        .with_seeds(vec![1, 2, 3, 4])
        .with_jobs(1);
    let report = check_with_sink(&program, &options, collector.clone());
    assert!(report.has(ViolationKind::ConcurrentRecv));
    let emissions = collector.take();
    assert!(
        emissions
            .iter()
            .any(|e| e.live && e.violation.kind == ViolationKind::ConcurrentRecv),
        "no live concurrent-recv emission in {emissions:?}"
    );
}
