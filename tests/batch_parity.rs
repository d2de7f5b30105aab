//! Batch-feed parity: the batch-at-a-time section analyzers (`feed_batch`
//! on the session, one batch per decoded section or frame) must be
//! observably byte-identical to the record-at-a-time ingest for every
//! bundled program and seed. (How the detector itself is chunked is
//! `tests/detector_oracle.rs`'s chunk-invariance property.)

use home::prelude::*;
use home::serve::{analyze_sections, analyze_stream};
use home::stream::{HbtWriter, TraceIncident};
use std::sync::Arc;

/// Every bundled sample program, in stable name order.
fn programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir("programs").unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "hmp") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&path).unwrap();
            out.push((name, parse(&src).unwrap()));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(!out.is_empty(), "no bundled programs found");
    out
}

/// Record one instrumented run of `program` under `seed`.
fn recorded(program: &Program, seed: u64) -> home::interp::RunResult {
    let checklist = Arc::new(analyze(program).checklist.clone());
    let mut cfg = RunConfig::test(2, seed)
        .with_instrumentation(Instrumentation::home())
        .with_checklist(checklist);
    cfg.threads_per_proc = 2;
    run(program, &cfg)
}

/// Session-level parity through the collector analyzers: for every
/// program, the record-at-a-time `analyze_stream` verdict (the original
/// ingest path) equals `analyze_sections`, which feeds each decoded
/// section as one batch.
#[test]
fn analyze_sections_matches_record_at_a_time_ingest() {
    for (name, program) in &programs() {
        let mut writer = HbtWriter::new(Vec::new()).unwrap();
        for seed in [1u64, 2] {
            writer.begin_run(seed).unwrap();
            let result = recorded(program, seed);
            for e in result.trace.events() {
                writer.write_event(e).unwrap();
            }
            for i in &result.mpi_errors {
                writer
                    .write_incident(&TraceIncident {
                        rank: i.rank,
                        line: i.line,
                        call: i.call.clone(),
                        error: i.error.clone(),
                    })
                    .unwrap();
            }
        }
        let bytes = writer.finish().unwrap();
        let baseline = analyze_stream(std::io::Cursor::new(&bytes)).unwrap();
        let sections = home::stream::decode_sections(&bytes).unwrap();
        let outcome = analyze_sections(&sections).unwrap();
        assert_eq!(
            format!("{baseline:?}"),
            format!("{outcome:?}"),
            "{name}: collector outcome must be byte-identical"
        );
    }
}

/// Frame-batch decode parity end to end: a compressed v2 stream decoded
/// through `decode_trace` (the frame→batch path at every `--jobs` value)
/// and analyzed batch-wise reaches the record-at-a-time verdict.
#[test]
fn v2_frame_batch_replay_matches_record_at_a_time_ingest() {
    let (name, program) = &programs()[0];
    let mut writer = HbtWriter::new_compressed(Vec::new()).unwrap();
    for seed in [1u64, 2, 3] {
        writer.begin_run(seed).unwrap();
        let result = recorded(program, seed);
        for e in result.trace.events() {
            writer.write_event(e).unwrap();
        }
    }
    let bytes = writer.finish().unwrap();
    let baseline = analyze_stream(std::io::Cursor::new(&bytes)).unwrap();
    for jobs in [1usize, 2, 4] {
        let sections = home::core::decode_trace(&bytes, jobs).unwrap();
        let outcome = analyze_sections(&sections).unwrap();
        assert_eq!(
            format!("{baseline:?}"),
            format!("{outcome:?}"),
            "{name} jobs {jobs}: v2 replay verdict"
        );
    }
}
