//! Property tests of the HBT binary trace format: lossless round-trips
//! through a decoded `Trace` and back, and typed (never panicking) errors when the byte
//! stream is truncated at any position. Uses the seeded in-repo ChaCha
//! generator; every case is deterministic and the failing seed is part of
//! the assertion message.

use home::stream::{decode_sections, encode_trace, is_hbt, HbtWriter, TraceIncident};
use home::trace::{
    AccessKind, BarrierId, CommId, Event, EventKind, LockId, MemLoc, MonitoredVar, MpiCallKind,
    MpiCallRecord, Rank, RegionId, ReqId, SrcLoc, ThreadLevel, Tid, Trace, VarId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn rng_for(case: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0x4B71_0000 + case)
}

const ALL_CALL_KINDS: [MpiCallKind; 24] = [
    MpiCallKind::Init,
    MpiCallKind::InitThread,
    MpiCallKind::Finalize,
    MpiCallKind::Send,
    MpiCallKind::Ssend,
    MpiCallKind::Recv,
    MpiCallKind::Isend,
    MpiCallKind::Irecv,
    MpiCallKind::Sendrecv,
    MpiCallKind::Wait,
    MpiCallKind::Test,
    MpiCallKind::Waitall,
    MpiCallKind::Probe,
    MpiCallKind::Iprobe,
    MpiCallKind::Barrier,
    MpiCallKind::Bcast,
    MpiCallKind::Reduce,
    MpiCallKind::Allreduce,
    MpiCallKind::Gather,
    MpiCallKind::Scatter,
    MpiCallKind::Allgather,
    MpiCallKind::Alltoall,
    MpiCallKind::CommDup,
    MpiCallKind::CommSplit,
];

const ALL_LEVELS: [ThreadLevel; 4] = [
    ThreadLevel::Single,
    ThreadLevel::Funneled,
    ThreadLevel::Serialized,
    ThreadLevel::Multiple,
];

const ALL_VARS: [MonitoredVar; 6] = [
    MonitoredVar::Src,
    MonitoredVar::Tag,
    MonitoredVar::Comm,
    MonitoredVar::Request,
    MonitoredVar::Collective,
    MonitoredVar::Finalize,
];

fn gen_call(rng: &mut ChaCha8Rng) -> MpiCallRecord {
    MpiCallRecord {
        kind: ALL_CALL_KINDS[rng.gen_range(0..ALL_CALL_KINDS.len())],
        peer: rng
            .gen_bool(0.5)
            .then(|| rng.gen_range(0i64..40) as i32 - 1),
        tag: rng
            .gen_bool(0.5)
            .then(|| rng.gen_range(0i64..2000) as i32 - 1),
        comm: CommId(rng.gen_range(0u64..4) as u32),
        request: rng.gen_bool(0.3).then(|| ReqId(rng.gen_range(0u64..1000))),
        is_main_thread: rng.gen_bool(0.5),
        thread_level: rng.gen_bool(0.7).then(|| ALL_LEVELS[rng.gen_range(0..4)]),
    }
}

fn gen_memloc(rng: &mut ChaCha8Rng) -> MemLoc {
    match rng.gen_range(0u64..3) {
        0 => MemLoc::Monitored(ALL_VARS[rng.gen_range(0..6)]),
        1 => MemLoc::Var(VarId(rng.gen_range(0u64..64) as u32)),
        _ => MemLoc::Elem(
            VarId(rng.gen_range(0u64..64) as u32),
            rng.gen_range(0u64..1 << 40),
        ),
    }
}

fn gen_kind(rng: &mut ChaCha8Rng) -> EventKind {
    match rng.gen_range(0u64..9) {
        0 => EventKind::Access {
            loc: gen_memloc(rng),
            kind: if rng.gen_bool(0.5) {
                AccessKind::Read
            } else {
                AccessKind::Write
            },
        },
        1 => EventKind::MonitoredWrite {
            var: ALL_VARS[rng.gen_range(0..6)],
            call: gen_call(rng),
        },
        2 => EventKind::Acquire {
            lock: LockId(rng.gen_range(0u64..32) as u32),
        },
        3 => EventKind::Release {
            lock: LockId(rng.gen_range(0u64..32) as u32),
        },
        4 => EventKind::Fork {
            region: RegionId(rng.gen_range(0u64..1 << 50)),
            nthreads: rng.gen_range(0u64..64) as u32,
        },
        5 => EventKind::JoinRegion {
            region: RegionId(rng.gen_range(0u64..1 << 50)),
        },
        6 => EventKind::Barrier {
            barrier: BarrierId(rng.gen_range(0u64..16) as u32),
            epoch: rng.gen_range(0u64..1 << 40),
        },
        7 => EventKind::MpiCall {
            call: gen_call(rng),
        },
        _ => EventKind::MpiInit {
            level: ALL_LEVELS[rng.gen_range(0..4)],
            requested_by_init_thread: rng.gen_bool(0.5),
        },
    }
}

fn gen_event(rng: &mut ChaCha8Rng, seq: u64) -> Event {
    Event {
        seq,
        rank: Rank(rng.gen_range(0u64..8) as u32),
        tid: Tid(rng.gen_range(0u64..8) as u32),
        region: rng
            .gen_bool(0.6)
            .then(|| RegionId(rng.gen_range(0u64..1 << 50))),
        time_ns: rng.gen_range(0u64..u64::MAX / 2),
        loc: rng.gen_bool(0.5).then(|| SrcLoc {
            file: format!("prog_{}.hmp", rng.gen_range(0u64..4)).into(),
            line: rng.gen_range(0u64..5000) as u32,
        }),
        kind: gen_kind(rng),
    }
}

fn gen_trace(rng: &mut ChaCha8Rng) -> Trace {
    let n = rng.gen_range(0u64..60) as usize;
    Trace::from_events((0..n as u64).map(|seq| gen_event(rng, seq)).collect())
}

/// HBT → `Trace` → HBT is lossless: both binary images are identical, and
/// both decode to the same events.
#[test]
fn hbt_trace_hbt_roundtrip_is_lossless() {
    for case in 0..64 {
        let mut rng = rng_for(case);
        let trace = gen_trace(&mut rng);
        let hbt = encode_trace(&trace);
        assert!(is_hbt(&hbt), "case {case}");

        // HBT → trace → HBT.
        let sections = decode_sections(&hbt).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(sections.len(), 1, "case {case}");
        let back = &sections[0].trace;
        assert_eq!(
            back.events(),
            trace.events(),
            "case {case}: decoding must preserve every event"
        );
        let hbt2 = encode_trace(back);
        assert_eq!(hbt, hbt2, "case {case}: binary image must be stable");
    }
}

/// Incidents and per-run seeds survive the round-trip too.
#[test]
fn sections_with_seeds_and_incidents_roundtrip() {
    for case in 0..16 {
        let mut rng = rng_for(0x1000 + case);
        let mut buf = Vec::new();
        let mut writer = HbtWriter::new(&mut buf).unwrap();
        let mut expect = Vec::new();
        for run in 0..rng.gen_range(1u64..4) {
            let seed = rng.gen_range(0u64..1 << 60);
            writer.begin_run(seed).unwrap();
            let trace = gen_trace(&mut rng);
            for e in trace.events() {
                writer.write_event(e).unwrap();
            }
            let incidents: Vec<TraceIncident> = (0..rng.gen_range(0u64..3))
                .map(|i| TraceIncident {
                    rank: rng.gen_range(0u64..8) as u32,
                    line: rng.gen_range(0u64..500) as u32,
                    call: format!("MPI_Call_{run}_{i}"),
                    error: "send to out-of-range rank".to_string(),
                })
                .collect();
            for inc in &incidents {
                writer.write_incident(inc).unwrap();
            }
            expect.push((seed, trace, incidents));
        }
        writer.finish().unwrap();

        let sections = decode_sections(&buf).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(sections.len(), expect.len(), "case {case}");
        for (section, (seed, trace, incidents)) in sections.iter().zip(&expect) {
            assert_eq!(section.seed, Some(*seed), "case {case}");
            assert_eq!(section.trace.events(), trace.events(), "case {case}");
            assert_eq!(&section.incidents, incidents, "case {case}");
        }
    }
}

/// Truncating the byte stream at ANY offset yields a typed parse/corruption
/// error (or, before the header completes, a typed header error) — never a
/// panic, and never a silent success.
#[test]
fn truncation_at_every_byte_is_a_typed_error() {
    let mut rng = rng_for(0x2000);
    let mut trace = gen_trace(&mut rng);
    while trace.is_empty() {
        trace = gen_trace(&mut rng);
    }
    let hbt = encode_trace(&trace);
    for cut in 0..hbt.len() {
        match decode_sections(&hbt[..cut]) {
            Err(e) => {
                let cat = e.category();
                assert!(
                    cat == "trace-parse" || cat == "corrupt-trace",
                    "cut {cut}: unexpected category {cat}: {e}"
                );
            }
            Ok(_) => panic!("cut {cut}: truncated stream decoded successfully"),
        }
    }
    // The full image still decodes.
    assert!(decode_sections(&hbt).is_ok());
}

/// Flipping the version byte or magic is a typed error with a clear message.
#[test]
fn corrupt_header_is_a_typed_error() {
    let trace = gen_trace(&mut rng_for(0x3000));
    let mut bad_version = encode_trace(&trace);
    bad_version[4] = 0x7f;
    let err = decode_sections(&bad_version).unwrap_err();
    assert!(err.to_string().contains("version"), "{err}");

    let mut bad_magic = encode_trace(&trace);
    bad_magic[0] = b'X';
    assert!(!is_hbt(&bad_magic));
    assert!(decode_sections(&bad_magic).is_err());
}
