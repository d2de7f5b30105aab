//! Allocation and memory regression for the fused replay driver
//! (`home::serve::analyze_trace`, what `home replay <file>` runs) and for
//! the pipe (`home::serve::analyze_stream`, what `home replay -` runs —
//! staying bounded is why the reader has an `io::Read` source at all).
//!
//! Its own test binary because it installs a counting
//! `#[global_allocator]`: every heap allocation of the process is counted
//! and the live heap tracked, so the three properties the driver is built
//! around are asserted rather than described:
//!
//! * decoding interns the source-file name, so replay costs a small,
//!   length-independent number of allocations per event;
//! * nothing is materialized, so the live heap during a replay does not
//!   grow with the trace;
//! * the file-name cache is one entry: a trace naming a new file per
//!   event still decodes correctly and leaves no table behind.
//!
//! And for the write side (`HbtWriter::new_compressed`, what `record
//! --compress` and every v2 corpus go through): the writer keeps one
//! compressor and one block buffer, so what a stream costs to write does
//! not grow with its number of frames.
//!
//! Run in release mode by `scripts/verify.sh` (debug builds allocate
//! differently); the bounds hold in both.

use home::prelude::*;
use home::serve::{analyze_stream, analyze_trace, TraceOutcome};
use home::stream::{
    decode_frame_into, scan_layout, FrameBatch, FrameScratch, HbtReader, HbtRecord, HbtWriter,
    TraceIncident,
};
use home::trace::{Event, EventKind, MemLoc, Rank, SrcLoc, Tid, VarId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    BYTES.fetch_add(by as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counters are process-wide, so the tests of this binary take turns.
static TURN: Mutex<()> = Mutex::new(());

/// What `f` cost: allocations made, the bytes they asked for (a `realloc`
/// counts for what it adds), and how far the live heap rose above where it
/// stood when `f` started.
struct Cost {
    allocs: u64,
    alloc_bytes: u64,
    peak_bytes: usize,
    retained_bytes: usize,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let alloc_bytes = BYTES.load(Ordering::Relaxed);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    let cost = Cost {
        allocs: ALLOCS.load(Ordering::Relaxed) - allocs,
        alloc_bytes: BYTES.load(Ordering::Relaxed) - alloc_bytes,
        peak_bytes: PEAK.load(Ordering::Relaxed).saturating_sub(base),
        retained_bytes: LIVE.load(Ordering::Relaxed).saturating_sub(base),
    };
    (out, cost)
}

/// One full-instrumentation run of LU-MZ class C (8 ranks x 2 threads) with its six injected
/// violations: the events and incidents of one HBT section.
fn recording() -> (Trace, Vec<TraceIncident>) {
    recording_of(Benchmark::LuMz)
}

/// The same of another of the three benchmarks (BT-MZ and SP-MZ record
/// about a third more events than LU-MZ).
fn recording_of(benchmark: Benchmark) -> (Trace, Vec<TraceIncident>) {
    let program = build_injected(benchmark, Class::C).program;
    let mut cfg = RunConfig::test(8, 1).with_instrumentation(Instrumentation::full());
    cfg.threads_per_proc = 2;
    let result = run(&program, &cfg);
    let incidents = result
        .mpi_errors
        .iter()
        .map(|i| TraceIncident {
            rank: i.rank,
            line: i.line,
            call: i.call.clone(),
            error: i.error.clone(),
        })
        .collect();
    (result.trace, incidents)
}

/// The recording tiled into `tiles` seeded sections of one v2 stream (how
/// the benchmark builds `wide_replay`); returns the bytes and the event
/// count.
fn tiled(trace: &Trace, incidents: &[TraceIncident], tiles: u64) -> (Vec<u8>, u64) {
    let mut w = HbtWriter::new_compressed(Vec::new()).expect("header write");
    for seed in 1..=tiles {
        w.begin_run(seed).expect("run record");
        for e in trace.events() {
            w.write_event(e).expect("event record");
        }
        for i in incidents {
            w.write_incident(i).expect("incident record");
        }
    }
    let bytes = w.finish().expect("trailer write");
    (bytes, tiles * trace.events().len() as u64)
}

/// `events` as the one section of a v2 stream; returns the bytes and the
/// event count.
fn single_section(events: &[Event]) -> (Vec<u8>, u64) {
    let mut w = HbtWriter::new_compressed(Vec::new()).expect("header write");
    w.begin_run(1).expect("run record");
    for e in events {
        w.write_event(e).expect("event record");
    }
    (w.finish().expect("trailer write"), events.len() as u64)
}

/// Live-heap ceiling of a fused replay, whatever the trace length: one
/// 256 KiB frame of decoded events per worker, the open session's detector
/// state, and the per-section verdicts.
const LIVE_HEAP_BOUND: usize = 8 << 20;

/// One way of replaying a recording, by the door it comes in through.
type Replay = (&'static str, fn(&[u8]) -> Result<TraceOutcome, HomeError>);

/// `home replay <file>` at one job.
const FILE: Replay = ("file", |bytes| analyze_trace(bytes, 1));
/// `home replay -`: the same bytes behind `io::Read` (`&[u8]` is one).
const PIPE: Replay = ("pipe", |bytes| analyze_stream(bytes));

#[test]
fn allocations_per_event_are_small_and_independent_of_length() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (trace, incidents) = recording();
    let (short, short_events) = tiled(&trace, &incidents, 8);
    let (long, long_events) = tiled(&trace, &incidents, 32);
    assert!(short_events > 50_000, "corpus too small: {short_events}");

    for (door, replay) in [FILE, PIPE] {
        let mut per_event = Vec::new();
        for (bytes, events) in [(&short, short_events), (&long, long_events)] {
            let (outcome, cost) = measure(|| replay(bytes).expect("replay"));
            assert_eq!(outcome.events, events);
            assert!(!outcome.violations.is_empty(), "injected violations found");
            per_event.push(cost.allocs as f64 / events as f64);
        }
        let (n, n4) = (per_event[0], per_event[1]);
        eprintln!("{door}: allocations/event {n:.4} at N, {n4:.4} at 4N");
        assert!(
            n < 0.25 && n4 < 0.25,
            "{door}: replay allocates per event again: {n:.4} at N, {n4:.4} at 4N"
        );
        assert!(
            (n - n4).abs() <= 0.05 * n,
            "{door}: allocations per event depend on trace length: {n:.4} at N, {n4:.4} at 4N"
        );
    }

    // Overlapping regions: every join and every barrier runs the detector's
    // reachability sweep with a region live, which must not allocate. What
    // is left is about three allocations per twelve-event iteration (the
    // inner region's roster, the barrier epoch's clock); a sweep that
    // collected its live-region sets again read 0.59 per event.
    let (short, short_events) = single_section(&overlapping_regions(2_000));
    let (long, long_events) = single_section(&overlapping_regions(8_000));
    for (door, replay) in [FILE, PIPE] {
        let mut per_event = Vec::new();
        for (bytes, events) in [(&short, short_events), (&long, long_events)] {
            let (outcome, cost) = measure(|| replay(bytes).expect("replay"));
            assert_eq!(outcome.events, events);
            per_event.push(cost.allocs as f64 / events as f64);
        }
        let (n, n4) = (per_event[0], per_event[1]);
        eprintln!("{door}, overlapping regions: allocations/event {n:.4} at N, {n4:.4} at 4N");
        assert!(
            n < 0.3 && n4 < 0.3,
            "{door}: overlapped sweeps allocate: {n:.4} at N, {n4:.4} at 4N"
        );
        assert!(
            (n - n4).abs() <= 0.05 * n,
            "{door}: allocations per event depend on trace length: {n:.4} at N, {n4:.4} at 4N"
        );
    }
}

#[test]
fn live_heap_during_replay_is_bounded_by_frames_not_by_trace_length() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (trace, incidents) = recording();
    let (long, long_events) = tiled(&trace, &incidents, 32);

    // The bound has teeth: holding the decoded trace would break it.
    let (sections, held) = measure(|| home::core::decode_trace(&long, 1).expect("decode"));
    drop(sections);
    assert!(
        held.peak_bytes > 4 * LIVE_HEAP_BOUND,
        "corpus too small to tell: the materialized trace is {} bytes",
        held.peak_bytes
    );

    let two_jobs: Replay = ("file --jobs 2", |bytes| analyze_trace(bytes, 2));
    for (door, replay) in [FILE, two_jobs, PIPE] {
        let (outcome, cost) = measure(|| replay(&long).expect("replay"));
        assert_eq!(outcome.events, long_events);
        eprintln!(
            "{door}: peak live heap {} KiB over {long_events} events",
            cost.peak_bytes >> 10
        );
        assert!(
            cost.peak_bytes < LIVE_HEAP_BOUND,
            "{door}: replay held {} bytes live",
            cost.peak_bytes
        );
    }
}

/// What the v2 writer flushes a frame at (`hbt/writer.rs`).
const FRAME_TARGET: usize = 256 * 1024;

#[test]
fn writing_v2_frames_allocates_per_stream_not_per_frame() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (trace, incidents) = recording_of(Benchmark::BtMz);
    let section = |w: &mut HbtWriter<Vec<u8>>, seed: u64| {
        w.begin_run(seed).expect("run record");
        for e in trace.events() {
            w.write_event(e).expect("event record");
        }
        for i in &incidents {
            w.write_incident(i).expect("incident record");
        }
    };

    // The output is sized before anything is measured: what is left is
    // what the writer itself asks for.
    let capacity = 16 << 20;
    let out = Vec::with_capacity(capacity);
    let (mut w, first) = measure(|| {
        let mut w = HbtWriter::new_compressed(out).expect("header write");
        section(&mut w, 1);
        w
    });
    let (bytes, rest) = measure(|| {
        for seed in 2..=12 {
            section(&mut w, seed);
        }
        w.finish().expect("trailer write")
    });
    assert!(bytes.len() < capacity, "the output never grew");
    let frames = scan_layout(&bytes)
        .expect("valid")
        .expect("v2")
        .frames
        .len() as u64;
    assert!(frames >= 30, "corpus too small: {frames} frames");

    // One match table (1 MiB), the frame buffer and the block buffer at
    // their high-water marks, the index: nothing that scales with `frames`.
    // (1.7 MB here. A fresh table and two payload vectors per frame, what
    // the writer did before it kept a compressor, read 43.7 MB and 110
    // allocations after section 1 instead of 8.)
    let asked = first.alloc_bytes + rest.alloc_bytes;
    eprintln!(
        "write: {asked} bytes asked for over {frames} frames, {} allocation(s) after section 1",
        rest.allocs
    );
    assert!(
        asked < 8 * FRAME_TARGET as u64,
        "writing {frames} frames asked for {asked} bytes"
    );
    // Once the first frames are out every buffer has its size: what is left
    // is the index's and the manifest's amortised growth and the trailer.
    let events = 11 * trace.events().len() as u64;
    assert!(
        (rest.allocs as f64) < 0.01 * events as f64 && rest.allocs < frames,
        "{} allocation(s) for {events} events in {frames} frames",
        rest.allocs
    );
}

/// `n` events, each naming a source file no other event names.
fn events_naming_distinct_files(n: u64) -> Vec<Event> {
    (0..n)
        .map(|seq| Event {
            seq,
            rank: Rank(0),
            tid: Tid(0),
            region: None,
            time_ns: seq,
            loc: Some(SrcLoc::new(
                format!("generated/unit_{seq:08}_of_a_hostile_trace.hmp"),
                seq as u32,
            )),
            kind: EventKind::Access {
                loc: MemLoc::Var(VarId(0)),
                kind: home::trace::AccessKind::Read,
            },
        })
        .collect()
}

#[test]
fn a_new_file_name_per_event_decodes_equal_and_grows_no_table() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let events = events_naming_distinct_files(60_000);
    let name_bytes: usize = events
        .iter()
        .map(|e| e.loc.as_ref().map_or(0, |l| l.file.len()))
        .sum();
    let (bytes, _) = single_section(&events);

    // Frame decoder (what the fused driver runs): equal events, and once the
    // batch is gone the scratch holds one inflated frame and one name, not
    // the names it has seen.
    let layout = scan_layout(&bytes).expect("valid").expect("v2 layout");
    assert!(layout.frames.len() > 1, "several frames");
    let mut expected = events.iter();
    let (scratch, cost) = measure(|| {
        let mut scratch = FrameScratch::new();
        let mut batch = FrameBatch::new();
        for frame in &layout.frames {
            decode_frame_into(&bytes, frame, &mut scratch, &mut batch).expect("frame decodes");
            for e in &batch.events {
                assert_eq!(Some(e), expected.next());
            }
        }
        scratch
    });
    assert!(expected.next().is_none(), "every event decoded");
    assert!(
        cost.allocs < 2 * events.len() as u64,
        "the miss path costs one allocation per event, got {} for {}",
        cost.allocs,
        events.len()
    );
    assert!(
        cost.retained_bytes < name_bytes / 2,
        "the decoder kept {} bytes after decoding {name_bytes} bytes of names",
        cost.retained_bytes
    );
    drop(scratch);

    // Record-at-a-time reader (what a pipe goes through): equal events.
    let mut reader = HbtReader::new(&bytes[..]).expect("header");
    let mut expected = events.iter();
    while let Some(record) = reader.next_record().expect("record decodes") {
        if let HbtRecord::Event(e) = record {
            assert_eq!(Some(&e), expected.next());
        }
    }
    assert!(expected.next().is_none(), "every event streamed");

    // The whole replay (decoder, detector, rules): once it returns it holds
    // none of the names, and 4N events cost no more than 4.5x what N cost,
    // in allocations and in time (best of five, interleaved), so no
    // per-name table is searched or grown on the way.
    let (outcome, cost) = measure(|| analyze_trace(&bytes, 1).expect("replay"));
    assert_eq!(outcome.events, events.len() as u64);
    assert!(
        cost.retained_bytes < name_bytes / 2,
        "the replay kept {} bytes after reading {name_bytes} bytes of names",
        cost.retained_bytes
    );
    let (long, _) = single_section(&events_naming_distinct_files(4 * events.len() as u64));
    let replay = |bytes: &[u8]| {
        let start = std::time::Instant::now();
        let (_, cost) = measure(|| analyze_trace(bytes, 1).expect("replay"));
        (start.elapsed().as_secs_f64(), cost.allocs as f64)
    };
    let (mut best, mut best4) = ((f64::MAX, 0.0), (f64::MAX, 0.0));
    for _ in 0..5 {
        let (run, run4) = (replay(&bytes), replay(&long));
        best = if run.0 < best.0 { run } else { best };
        best4 = if run4.0 < best4.0 { run4 } else { best4 };
    }
    let ((t, allocs), (t4, allocs4)) = (best, best4);
    eprintln!(
        "distinct names: {t:.4} s and {allocs} allocations at N, {t4:.4} s and {allocs4} at 4N"
    );
    assert!(
        allocs4 <= 4.5 * allocs,
        "allocations: {allocs} at N, {allocs4} at 4N"
    );
    assert!(t4 <= 4.5 * t, "time: {t:.4} s at N, {t4:.4} s at 4N");

    // The detector keeps a name only for a remembered access, and it
    // remembers at most `history_cap` accesses of one location: every other
    // event's name is referenced by the event alone.
    let config = DetectorConfig::hybrid();
    let mut detector = StreamDetector::new(config.clone());
    detector.consume_batch(&events, None);
    let held = events
        .iter()
        .filter(|e| {
            e.loc
                .as_ref()
                .is_some_and(|l| std::sync::Arc::strong_count(&l.file) > 1)
        })
        .count();
    assert!(
        held <= config.history_cap,
        "the detector holds {held} names, more than the {} accesses it remembers",
        config.history_cap
    );
    detector.finish().expect("a well-formed stream");
}

/// Rank 0 keeps a two-thread region open while its spine forks, runs and
/// joins `n` one-thread regions: each join leaves a segment pending, and a
/// lock chain from the spine to both team members followed by a team
/// barrier lets the barrier's sweep retire it while the outer region is
/// still live.
fn overlapping_regions(n: u64) -> Vec<Event> {
    use home::trace::{AccessKind, BarrierId, LockId, RegionId};
    let mut events = Vec::new();
    let mut push = |tid: u32, region: Option<u64>, kind: EventKind| {
        let seq = events.len() as u64;
        events.push(Event {
            seq,
            rank: Rank(0),
            tid: Tid(tid),
            region: region.map(RegionId),
            time_ns: seq,
            loc: Some(SrcLoc::new("overlap.hmp", 1 + seq as u32 % 16)),
            kind,
        });
    };
    let write = |var| EventKind::Access {
        loc: MemLoc::Var(VarId(var)),
        kind: AccessKind::Write,
    };
    let outer = 0;
    push(
        0,
        None,
        EventKind::Fork {
            region: RegionId(outer),
            nthreads: 2,
        },
    );
    for k in 1..=n {
        push(
            0,
            None,
            EventKind::Fork {
                region: RegionId(k),
                nthreads: 1,
            },
        );
        push(0, Some(k), write(1));
        push(
            0,
            None,
            EventKind::JoinRegion {
                region: RegionId(k),
            },
        );
        for (tid, region) in [(0, None), (0, Some(outer)), (1, Some(outer))] {
            push(tid, region, EventKind::Acquire { lock: LockId(9) });
            push(tid, region, EventKind::Release { lock: LockId(9) });
        }
        for tid in 0..2 {
            let barrier = EventKind::Barrier {
                barrier: BarrierId(0),
                epoch: k,
            };
            push(tid, Some(outer), barrier);
        }
        push(1, Some(outer), write(2));
    }
    push(
        0,
        None,
        EventKind::JoinRegion {
            region: RegionId(outer),
        },
    );
    events
}
