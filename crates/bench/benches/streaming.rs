//! Detector and HBT-codec benchmarks: detection over a recorded trace,
//! end-to-end `check`, and JSON vs HBT trace encode/decode throughput
//! (sizes printed once so EXPERIMENTS.md can quote bytes/event).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use home_core::{check, CheckOptions};
use home_interp::{run, Instrumentation, RunConfig};
use home_ir::{parse, Program};
use home_static::analyze;
use home_stream::{decode_sections, detect_stream, encode_trace, DetectorConfig};
use home_trace::Trace;
use std::sync::Arc;
use std::time::Duration;

fn pipeline_program() -> Program {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs/pipeline.hmp");
    let src = std::fs::read_to_string(path).expect("bundled program");
    parse(&src).expect("bundled program parses")
}

/// One recorded HOME-instrumented trace of pipeline.hmp (4 procs × 2
/// threads — the detector-facing workload).
fn pipeline_trace(program: &Program) -> Trace {
    let checklist = Arc::new(analyze(program).checklist.clone());
    let mut cfg = RunConfig::test(4, 1)
        .with_instrumentation(Instrumentation::home())
        .with_checklist(checklist);
    cfg.threads_per_proc = 2;
    run(program, &cfg).trace
}

fn bench_detection(c: &mut Criterion) {
    let program = pipeline_program();
    let trace = pipeline_trace(&program);
    let config = DetectorConfig::hybrid();

    let mut group = c.benchmark_group("detect_engine");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    group.bench_function("stream", |b| {
        b.iter(|| detect_stream(black_box(&trace), &config).map(|(r, _)| r.len()))
    });
    group.finish();

    let mut group = c.benchmark_group("check_engine");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    group.bench_function("stream", |b| {
        let options = CheckOptions::default().with_jobs(1);
        b.iter(|| check(black_box(&program), &options).violations.len())
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let program = pipeline_program();
    let trace = pipeline_trace(&program);
    let json = trace.to_json();
    let hbt = encode_trace(&trace);
    println!(
        "codec corpus: {} events, JSON {} bytes ({:.1} B/event), HBT {} bytes ({:.1} B/event)",
        trace.len(),
        json.len(),
        json.len() as f64 / trace.len() as f64,
        hbt.len(),
        hbt.len() as f64 / trace.len() as f64,
    );

    let mut group = c.benchmark_group("trace_codec");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    group.bench_function("encode_json", |b| {
        b.iter(|| black_box(&trace).to_json().len())
    });
    group.bench_function("encode_hbt", |b| {
        b.iter(|| encode_trace(black_box(&trace)).len())
    });
    group.bench_function("decode_json", |b| {
        b.iter(|| Trace::from_json(black_box(&json)).map(|t| t.len()))
    });
    group.bench_function("decode_hbt", |b| {
        b.iter(|| decode_sections(black_box(&hbt)).map(|s| s.len()))
    });
    group.finish();
}

criterion_group!(benches, bench_detection, bench_codec);
criterion_main!(benches);
