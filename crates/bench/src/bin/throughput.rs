//! `throughput` — events/sec measurements for the detection hot path.
//!
//! Measures the detector inner loop and the trace decode paths (JSON,
//! buffered HBT, mmap HBT) over traces recorded from the bundled programs
//! plus a synthetic wide-region stress corpus, and prints one JSON
//! document so `BENCH_throughput.json` and the EXPERIMENTS.md table can be
//! regenerated:
//!
//! ```text
//! cargo run --release -p home-bench --bin throughput            # full run
//! cargo run --release -p home-bench --bin throughput -- --quick # CI smoke
//! ```

#![forbid(unsafe_code)]

use home_interp::{run, Instrumentation, RunConfig};
use home_ir::parse;
use home_static::analyze;
use home_stream::{decode_sections, detect_stream, encode_trace, DetectorConfig, HbtWriter};
use home_trace::{AccessKind, Event, EventKind, LockId, MemLoc, Rank, RegionId, Tid, Trace, VarId};
use std::sync::Arc;
use std::time::Instant;

/// One measured corpus: a named trace plus its serialized forms.
struct Corpus {
    name: &'static str,
    trace: Trace,
}

/// Parse one bundled program.
fn load_program(file: &str) -> home_ir::Program {
    let path = format!("{}/../../programs/{file}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("bundled program readable");
    parse(&src).expect("bundled program parses")
}

/// Record a HOME-instrumented trace of one bundled program.
fn program_trace(file: &str, procs: usize, threads: usize, seed: u64) -> Trace {
    let program = load_program(file);
    let checklist = Arc::new(analyze(&program).checklist.clone());
    let mut cfg = RunConfig::test(procs, seed)
        .with_instrumentation(Instrumentation::home())
        .with_checklist(checklist);
    cfg.threads_per_proc = threads;
    run(&program, &cfg).trace
}

/// Event-volume comparison of the coarse (per-kind table) and per-site
/// monitored-write models on one bundled program: (monitored writes
/// coarse/per-site, total events coarse/per-site).
fn instrumentation_reduction(file: &str, procs: usize, seed: u64) -> (usize, usize, usize, usize) {
    let program = load_program(file);
    let checklist = analyze(&program).checklist;
    let run_with = |cl| {
        let cfg = RunConfig::test(procs, seed)
            .with_instrumentation(Instrumentation::home())
            .with_checklist(Arc::new(cl));
        run(&program, &cfg).trace
    };
    let coarse = run_with(checklist.coarse());
    let fine = run_with(checklist);
    (
        coarse.monitored_writes().count(),
        fine.monitored_writes().count(),
        coarse.len(),
        fine.len(),
    )
}

/// A synthetic trace stressing the detector inner loop: `regions` fork/join
/// cycles of `threads` threads, each doing `writes` accesses over `vars`
/// distinct variables with periodic lock sections and barriers. Large event
/// count, bounded per-location history — the shape of a long NPB run.
fn synthetic_trace(regions: u64, threads: u32, writes: u64, vars: u32) -> Trace {
    let mut events = Vec::new();
    let mut seq = 0u64;
    let mut ev = |tid: u32, region: Option<u64>, kind: EventKind| {
        events.push(Event {
            seq,
            rank: Rank(0),
            tid: Tid(tid),
            region: region.map(RegionId),
            time_ns: seq,
            loc: None,
            kind,
        });
        seq += 1;
    };
    for r in 0..regions {
        ev(
            0,
            None,
            EventKind::Fork {
                region: RegionId(r),
                nthreads: threads,
            },
        );
        for w in 0..writes {
            for t in 0..threads {
                if w % 16 == 0 {
                    ev(
                        t,
                        Some(r),
                        EventKind::Acquire {
                            lock: LockId(t % 4),
                        },
                    );
                }
                ev(
                    t,
                    Some(r),
                    EventKind::Access {
                        loc: MemLoc::Var(VarId((w as u32 * 31 + t) % vars)),
                        kind: if w % 4 == 0 {
                            AccessKind::Read
                        } else {
                            AccessKind::Write
                        },
                    },
                );
                if w % 16 == 15 {
                    ev(
                        t,
                        Some(r),
                        EventKind::Release {
                            lock: LockId(t % 4),
                        },
                    );
                }
            }
            if w % 64 == 63 {
                for t in 0..threads {
                    ev(
                        t,
                        Some(r),
                        EventKind::Barrier {
                            barrier: home_trace::BarrierId(0),
                            epoch: w / 64,
                        },
                    );
                }
            }
        }
        ev(
            0,
            None,
            EventKind::JoinRegion {
                region: RegionId(r),
            },
        );
    }
    Trace::from_events(events)
}

/// Run `f` repeatedly for at least `min_iters` iterations and `min_secs`
/// seconds, returning events/sec for a trace of `events` events.
fn measure(events: usize, min_iters: u32, min_secs: f64, mut f: impl FnMut() -> usize) -> f64 {
    // Warm-up iteration (page in the corpus, fill allocator pools).
    let sink = f();
    assert!(sink < usize::MAX, "keep the call un-elided");
    let start = Instant::now();
    let mut iters = 0u32;
    while iters < min_iters || start.elapsed().as_secs_f64() < min_secs {
        std::hint::black_box(f());
        iters += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    (events as f64 * f64::from(iters)) / secs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (min_iters, min_secs) = if quick { (2, 0.05) } else { (5, 1.0) };

    let corpora = [
        Corpus {
            name: "pipeline_4x2",
            trace: program_trace("pipeline.hmp", 4, 2, 1),
        },
        Corpus {
            name: "figure2_2x2",
            trace: program_trace("figure2.hmp", 2, 2, 1),
        },
        Corpus {
            name: if quick {
                "synthetic_small"
            } else {
                "synthetic_wide"
            },
            trace: if quick {
                synthetic_trace(4, 4, 64, 64)
            } else {
                synthetic_trace(16, 8, 512, 512)
            },
        },
    ];

    let config = DetectorConfig::hybrid();

    println!("{{");
    println!("  \"unit\": \"events/sec\",");
    println!("  \"quick\": {quick},");
    println!("  \"corpora\": [");
    for (ci, corpus) in corpora.iter().enumerate() {
        let trace = &corpus.trace;
        let n = trace.len();
        let json = trace.to_json();
        let hbt = encode_trace(trace);
        let hbt_v2 = encode_trace_v2(trace);

        let stream = measure(n, min_iters, min_secs, || {
            detect_stream(std::hint::black_box(trace), &config)
                .map(|(r, _)| r.len())
                .unwrap_or(0)
        });
        let dec_json = measure(n, min_iters, min_secs, || {
            Trace::from_json(std::hint::black_box(&json))
                .map(|t| t.len())
                .unwrap_or(0)
        });
        let dec_hbt = measure(n, min_iters, min_secs, || {
            decode_sections(std::hint::black_box(&hbt))
                .map(|s| s.len())
                .unwrap_or(0)
        });
        let dec_hbt_mmap = mmap_decode_rate(corpus.name, &hbt, n, min_iters, min_secs);
        // v2 decode: serial (frames inflate through the shared reader) and
        // frame-parallel (`replay --jobs 4`, scan_layout + fan-out).
        let dec_v2 = measure(n, min_iters, min_secs, || {
            decode_sections(std::hint::black_box(&hbt_v2))
                .map(|s| s.len())
                .unwrap_or(0)
        });
        let dec_v2_par = measure(n, min_iters, min_secs, || {
            home_core::decode_trace(std::hint::black_box(&hbt_v2), 4)
                .map(|s| s.len())
                .unwrap_or(0)
        });
        // End-to-end replay: v2 decode + session-driven analysis, first
        // record-at-a-time (how a pipe is read) then batch-wise (what
        // `home replay <file>` runs).
        let replay_eventwise = measure(n, min_iters, min_secs, || {
            home_serve::analyze_stream(std::hint::black_box(&hbt_v2[..]))
                .map(|o| o.events as usize)
                .unwrap_or(0)
        });
        let replay_e2e = measure(n, min_iters, min_secs, || {
            home_core::decode_trace(std::hint::black_box(&hbt_v2), 1)
                .ok()
                .and_then(|sections| home_serve::analyze_sections(&sections).ok())
                .map(|o| o.events as usize)
                .unwrap_or(0)
        });
        let bpe_v1 = hbt.len() as f64 / n.max(1) as f64;
        let bpe_v2 = hbt_v2.len() as f64 / n.max(1) as f64;

        eprintln!(
            "{}: {} events | stream {:.0} | json-decode {:.0} | hbt-decode {:.0} | hbt-mmap {:.0} | v2-decode {:.0} | v2-jobs4 {:.0} | replay-eventwise {:.0} | replay-e2e {:.0} | B/ev {:.1} -> {:.1}",
            corpus.name, n, stream, dec_json, dec_hbt, dec_hbt_mmap, dec_v2, dec_v2_par, replay_eventwise, replay_e2e, bpe_v1, bpe_v2,
        );
        let comma = if ci + 1 < corpora.len() { "," } else { "" };
        println!("    {{");
        println!("      \"corpus\": \"{}\",", corpus.name);
        println!("      \"events\": {n},");
        println!("      \"detect_stream\": {stream:.0},");
        println!("      \"decode_json\": {dec_json:.0},");
        println!("      \"decode_hbt\": {dec_hbt:.0},");
        println!("      \"decode_hbt_mmap\": {dec_hbt_mmap:.0},");
        println!("      \"decode_hbt_v2\": {dec_v2:.0},");
        println!("      \"decode_hbt_v2_jobs4\": {dec_v2_par:.0},");
        println!("      \"replay_e2e_eventwise\": {replay_eventwise:.0},");
        println!("      \"replay_e2e\": {replay_e2e:.0},");
        println!("      \"bytes_per_event_v1\": {bpe_v1:.2},");
        println!("      \"bytes_per_event_v2\": {bpe_v2:.2}");
        println!("    }}{comma}");
    }
    println!("  ],");

    // Per-site vs coarse monitored-write volume on the bundled programs:
    // how much event traffic the interprocedural per-site checklists save
    // while keeping every verdict (parity suites enforce the latter).
    let reduction_programs = [
        "figure1.hmp",
        "figure2.hmp",
        "figure2_fixed.hmp",
        "hidden.hmp",
        "interproc.hmp",
        "interproc2.hmp",
        "pipeline.hmp",
    ];
    println!("  \"instrumentation_reduction\": [");
    for (pi, file) in reduction_programs.iter().enumerate() {
        let (mw_coarse, mw_fine, ev_coarse, ev_fine) = instrumentation_reduction(file, 2, 1);
        let pct = if mw_coarse > 0 {
            100.0 * (mw_coarse - mw_fine) as f64 / mw_coarse as f64
        } else {
            0.0
        };
        eprintln!(
            "{file}: monitored writes {mw_coarse} -> {mw_fine} ({pct:.0}% fewer) | events {ev_coarse} -> {ev_fine}",
        );
        let comma = if pi + 1 < reduction_programs.len() {
            ","
        } else {
            ""
        };
        println!("    {{");
        println!("      \"program\": \"{file}\",");
        println!("      \"monitored_writes_coarse\": {mw_coarse},");
        println!("      \"monitored_writes_per_site\": {mw_fine},");
        println!("      \"events_total_coarse\": {ev_coarse},");
        println!("      \"events_total_per_site\": {ev_fine},");
        println!("      \"write_reduction_pct\": {pct:.1}");
        println!("    }}{comma}");
    }
    println!("  ]");
    println!("}}");
}

/// The corpus as a v2 stream (`record --compress`): one anonymous section
/// packed into LZ-compressed frames with a trailing seek index.
fn encode_trace_v2(trace: &Trace) -> Vec<u8> {
    let mut writer = HbtWriter::new_compressed(Vec::new()).expect("vec write");
    for e in trace.events() {
        writer.write_event(e).expect("vec write");
    }
    writer.finish().expect("vec write")
}

/// Decode throughput straight from an mmap'd HBT file (zero-copy replay
/// path). Writes the corpus to a temp file once, then decodes from the
/// mapping on every iteration.
fn mmap_decode_rate(name: &str, hbt: &[u8], n: usize, min_iters: u32, min_secs: f64) -> f64 {
    let path =
        std::env::temp_dir().join(format!("home-throughput-{name}-{}.hbt", std::process::id()));
    if std::fs::write(&path, hbt).is_err() {
        return 0.0;
    }
    let rate = measure(n, min_iters, min_secs, || {
        home_stream::HbtMmapReader::open(&path)
            .and_then(|reader| reader.sections())
            .map(|s| s.len())
            .unwrap_or(0)
    });
    let _ = std::fs::remove_file(&path);
    rate
}
