//! The schedule fingerprint's contract is the partition it induces, not
//! its value: `explore` only ever asks "have I seen this one?".
//!
//! * partition — over a few thousand recorded schedules the structural
//!   hash calls two runs equal exactly when the formatter-based hash it
//!   replaced (`tests/support/fingerprint_oracle.rs`) does, so every
//!   `deduplicated` count stays what it was;
//! * sensitivity — every field the detector or the rules read moves it,
//!   and the two fields that differ between equivalent interleavings
//!   (`seq`, `time_ns`) do not.

#[path = "support/fingerprint_oracle.rs"]
mod fingerprint_oracle;

use fingerprint_oracle::formatted_fingerprint;
use home::explore::{schedule_fingerprint, DIRECTED_HIGH, DIRECTED_LOW};
use home::interp::RunResult;
use home::prelude::*;
use home::trace::{
    AccessKind, BarrierId, CommId, Event, EventKind, LockId, MemLoc, MpiCallKind, MpiCallRecord,
    Rank, RegionId, ReqId, SrcLoc, Tid, VarId,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The ring of `tests/schedule_identity.rs`: every thread receives before
/// it sends, so every schedule deadlocks.
const DEADLOCKING: &str = "program dl { mpi_init_thread(multiple); omp parallel num_threads(2) { \
     mpi_recv(from: (rank + 1) % size, tag: tid); \
     mpi_send(to: (rank + 1) % size, tag: tid, count: 1); } mpi_finalize(); }";

/// PCT, random and directed tokens, the shapes `explore` generates.
fn tokens() -> Vec<ScheduleToken> {
    let mut tokens = Vec::new();
    for seed in 1..=80 {
        tokens.push(ScheduleToken::pct(seed, 3));
        tokens.push(ScheduleToken::random(seed));
    }
    for seed in 1..=40u64 {
        let worker = format!("rank{}.r{}.t1", seed % 2, seed % 4);
        let master = format!("rank{}", seed % 2);
        let pins = if seed % 8 < 4 {
            vec![(worker, DIRECTED_HIGH), (master, DIRECTED_LOW)]
        } else {
            vec![(master, DIRECTED_HIGH), (worker, DIRECTED_LOW)]
        };
        tokens.push(ScheduleToken::directed(seed, pins));
    }
    tokens
}

/// One schedule, run the way `explore` runs it.
fn run_token(program: &Program, base: &RunConfig, token: &ScheduleToken) -> RunResult {
    let mut cfg = base.clone().with_seed(token.seed);
    cfg.sched.policy = token.policy();
    cfg.sched.priority_pins = token.pins.clone();
    run(program, &cfg)
}

#[test]
fn structural_and_formatted_fingerprints_induce_the_same_partition() {
    let mut programs: Vec<(String, Program)> = Vec::new();
    for name in [
        "figure1",
        "figure2",
        "figure2_fixed",
        "hidden",
        "interproc",
        "interproc2",
        "pipeline",
    ] {
        let source = std::fs::read_to_string(format!("programs/{name}.hmp")).expect("bundled");
        programs.push((name.to_string(), parse(&source).expect("parses")));
    }
    for benchmark in [Benchmark::LuMz, Benchmark::BtMz, Benchmark::SpMz] {
        let program = build_injected(benchmark, Class::S).program;
        programs.push((benchmark.name().to_string(), program));
    }
    programs.push(("dl".to_string(), parse(DEADLOCKING).expect("parses")));

    let tokens = tokens();
    let mut new_of_old: BTreeMap<u64, u64> = BTreeMap::new();
    let mut old_of_new: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut schedules, mut deadlocked) = (0, 0);
    let mut check = |what: &str, result: &RunResult| {
        let (old, new) = (formatted_fingerprint(result), schedule_fingerprint(result));
        let same_new = *new_of_old.entry(old).or_insert(new);
        let same_old = *old_of_new.entry(new).or_insert(old);
        assert_eq!(same_new, new, "{what}: the structural hash splits a class");
        assert_eq!(
            same_old, old,
            "{what}: the structural hash merges two classes"
        );
        schedules += 1;
        deadlocked += usize::from(result.deadlock.is_some());
    };
    for (name, program) in &programs {
        // HOME's selective profile, as `explore` runs it.
        let checklist = Arc::new(analyze(program).checklist);
        let selective = RunConfig::test(2, 0).with_checklist(checklist);
        for token in &tokens {
            check(
                &format!("{name} {token}"),
                &run_token(program, &selective, token),
            );
        }
        // Full instrumentation puts `Access` events (no other profile
        // records them) through both hashes.
        let full = RunConfig::test(2, 0).with_instrumentation(Instrumentation::full());
        for token in tokens.iter().step_by(10) {
            check(
                &format!("{name} full {token}"),
                &run_token(program, &full, token),
            );
        }
    }
    assert!(schedules >= 2000, "{schedules} schedules");
    assert!(deadlocked >= 200, "{deadlocked} deadlocked schedules");
    // Neither everything equal nor everything distinct: both directions of
    // the equivalence were exercised.
    let classes = new_of_old.len();
    assert!(
        classes > 100 && classes < schedules / 2,
        "{classes} classes"
    );
}

fn call(kind: MpiCallKind) -> MpiCallRecord {
    MpiCallRecord {
        kind,
        peer: Some(1),
        tag: Some(7),
        comm: CommId(0),
        request: Some(ReqId(4)),
        is_main_thread: true,
        thread_level: Some(ThreadLevel::Multiple),
    }
}

/// One event of every [`EventKind`] variant (`Access` once per [`MemLoc`]
/// shape), all on one rank so that they share a per-rank hasher.
fn one_of_each() -> Vec<EventKind> {
    vec![
        EventKind::MpiInit {
            level: ThreadLevel::Multiple,
            requested_by_init_thread: true,
        },
        EventKind::Fork {
            region: RegionId(3),
            nthreads: 2,
        },
        EventKind::Access {
            loc: MemLoc::Var(VarId(1)),
            kind: AccessKind::Read,
        },
        EventKind::Access {
            loc: MemLoc::Elem(VarId(1), 5),
            kind: AccessKind::Write,
        },
        EventKind::Access {
            loc: MemLoc::Monitored(MonitoredVar::Src),
            kind: AccessKind::Write,
        },
        EventKind::Acquire { lock: LockId(2) },
        EventKind::MonitoredWrite {
            var: MonitoredVar::Tag,
            call: call(MpiCallKind::Irecv),
        },
        EventKind::MpiCall {
            call: call(MpiCallKind::Irecv),
        },
        EventKind::Release { lock: LockId(2) },
        EventKind::Barrier {
            barrier: BarrierId(1),
            epoch: 6,
        },
        EventKind::JoinRegion {
            region: RegionId(3),
        },
    ]
}

/// Every single-field change of an MPI call record.
fn call_variants(c: &MpiCallRecord) -> Vec<(&'static str, MpiCallRecord)> {
    let with = |f: &dyn Fn(&mut MpiCallRecord)| {
        let mut changed = c.clone();
        f(&mut changed);
        changed
    };
    vec![
        ("call.kind", with(&|c| c.kind = MpiCallKind::Recv)),
        ("call.peer", with(&|c| c.peer = Some(2))),
        ("call.peer any", with(&|c| c.peer = Some(-1))),
        ("call.peer none", with(&|c| c.peer = None)),
        ("call.tag", with(&|c| c.tag = Some(8))),
        ("call.tag none", with(&|c| c.tag = None)),
        ("call.comm", with(&|c| c.comm = CommId(1))),
        ("call.request", with(&|c| c.request = Some(ReqId(5)))),
        ("call.request none", with(&|c| c.request = None)),
        ("call.is_main_thread", with(&|c| c.is_main_thread = false)),
        (
            "call.thread_level",
            with(&|c| c.thread_level = Some(ThreadLevel::Serialized)),
        ),
        ("call.thread_level none", with(&|c| c.thread_level = None)),
    ]
}

/// Every single-field change of a payload (and, for a lock, the change of
/// variant that keeps the field).
fn kind_variants(kind: &EventKind) -> Vec<(&'static str, EventKind)> {
    use EventKind::*;
    match kind.clone() {
        Access { loc, kind } => {
            let other = match kind {
                AccessKind::Read => AccessKind::Write,
                AccessKind::Write => AccessKind::Read,
            };
            let mut out = vec![("access kind", Access { loc, kind: other })];
            let locs = match loc {
                MemLoc::Var(v) => vec![
                    ("var", MemLoc::Var(VarId(v.0 + 1))),
                    ("var to elem", MemLoc::Elem(v, 0)),
                ],
                MemLoc::Elem(v, i) => vec![
                    ("elem var", MemLoc::Elem(VarId(v.0 + 1), i)),
                    ("elem index", MemLoc::Elem(v, i + 1)),
                    ("elem to var", MemLoc::Var(v)),
                ],
                MemLoc::Monitored(_) => {
                    vec![("monitored loc", MemLoc::Monitored(MonitoredVar::Comm))]
                }
            };
            out.extend(
                locs.into_iter()
                    .map(|(what, loc)| (what, Access { loc, kind })),
            );
            out
        }
        MonitoredWrite { var, call } => {
            let mut out = vec![(
                "monitored var",
                MonitoredWrite {
                    var: MonitoredVar::Request,
                    call: call.clone(),
                },
            )];
            out.extend(
                call_variants(&call)
                    .into_iter()
                    .map(|(what, call)| (what, MonitoredWrite { var, call })),
            );
            out
        }
        MpiCall { call } => call_variants(&call)
            .into_iter()
            .map(|(what, call)| (what, MpiCall { call }))
            .collect(),
        Acquire { lock } => vec![
            (
                "lock",
                Acquire {
                    lock: LockId(lock.0 + 1),
                },
            ),
            ("acquire to release", Release { lock }),
        ],
        Release { lock } => vec![
            (
                "lock",
                Release {
                    lock: LockId(lock.0 + 1),
                },
            ),
            ("release to acquire", Acquire { lock }),
        ],
        Fork { region, nthreads } => vec![
            (
                "fork region",
                Fork {
                    region: RegionId(region.0 + 1),
                    nthreads,
                },
            ),
            (
                "nthreads",
                Fork {
                    region,
                    nthreads: nthreads + 1,
                },
            ),
        ],
        JoinRegion { region } => vec![(
            "join region",
            JoinRegion {
                region: RegionId(region.0 + 1),
            },
        )],
        Barrier { barrier, epoch } => vec![
            (
                "barrier",
                Barrier {
                    barrier: BarrierId(barrier.0 + 1),
                    epoch,
                },
            ),
            (
                "epoch",
                Barrier {
                    barrier,
                    epoch: epoch + 1,
                },
            ),
        ],
        MpiInit {
            level,
            requested_by_init_thread,
        } => vec![
            (
                "init level",
                MpiInit {
                    level: ThreadLevel::Funneled,
                    requested_by_init_thread,
                },
            ),
            (
                "requested_by_init_thread",
                MpiInit {
                    level,
                    requested_by_init_thread: !requested_by_init_thread,
                },
            ),
        ],
    }
}

#[test]
fn every_field_the_detector_reads_moves_the_fingerprint_and_seq_and_time_do_not() {
    let events: Vec<Event> = one_of_each()
        .into_iter()
        .enumerate()
        .map(|(i, kind)| Event {
            seq: 10 * i as u64,
            rank: Rank(0),
            tid: Tid(1),
            region: Some(RegionId(3)),
            time_ns: 100 * i as u64,
            loc: Some(SrcLoc::new("s.hmp", 20 + i as u32)),
            kind,
        })
        .collect();
    // Any finished run will do as the carrier of a hand-made trace.
    let mut carrier = run(
        &parse("program empty { mpi_init(); mpi_finalize(); }").expect("parses"),
        &RunConfig::test(1, 1),
    );
    let mut fingerprint = |events: &[Event]| {
        carrier.trace = Trace::from_events(events.to_vec());
        schedule_fingerprint(&carrier)
    };
    let base = fingerprint(&events);
    assert_eq!(base, fingerprint(&events), "deterministic");

    let mut checked = 0;
    for (i, event) in events.iter().enumerate() {
        let with = |f: &dyn Fn(&mut Event)| {
            let mut changed = events.clone();
            f(&mut changed[i]);
            changed
        };
        let line = 20 + i as u32;
        let mut moved = vec![
            ("rank", with(&|e| e.rank = Rank(1))),
            ("tid", with(&|e| e.tid = Tid(2))),
            ("region", with(&|e| e.region = Some(RegionId(4)))),
            ("region none", with(&|e| e.region = None)),
            (
                "loc.line",
                with(&|e| e.loc = Some(SrcLoc::new("s.hmp", 99))),
            ),
            (
                "loc.file",
                with(&|e| e.loc = Some(SrcLoc::new("t.hmp", line))),
            ),
            ("loc none", with(&|e| e.loc = None)),
        ];
        for (what, kind) in kind_variants(&event.kind) {
            moved.push((what, with(&|e| e.kind = kind.clone())));
        }
        for (what, changed) in moved {
            assert_ne!(
                fingerprint(&changed),
                base,
                "event {i} ({:?}): {what}",
                event.kind
            );
            checked += 1;
        }
        // Order-preserving changes of the two fields that are left out.
        assert_eq!(fingerprint(&with(&|e| e.seq += 5)), base, "event {i}: seq");
        assert_eq!(
            fingerprint(&with(&|e| e.time_ns += 12_345)),
            base,
            "event {i}: time_ns"
        );
    }
    assert!(checked > 120, "{checked} single-field changes");
}
