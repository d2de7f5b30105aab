//! Micro-benchmarks of the analysis engines themselves: vector-clock
//! algebra, lockset operations, the static analysis, and the DSL parser
//! (the race detector is timed in `streaming.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use home_npb::{generate, Benchmark, Class};
use home_static::analyze;
use home_trace::{LockId, LockSet, VectorClock};
use std::time::Duration;

fn bench_vector_clocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("vector_clock");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for width in [4usize, 64] {
        group.bench_with_input(BenchmarkId::new("join", width), &width, |b, &w| {
            let mut a = VectorClock::new();
            let mut x = VectorClock::new();
            for i in 0..w {
                a.set(i, i as u64);
                x.set(i, (w - i) as u64);
            }
            b.iter(|| {
                let mut j = a.clone();
                j.join(&x);
                j
            })
        });
        group.bench_with_input(BenchmarkId::new("concurrent", width), &width, |b, &w| {
            let mut a = VectorClock::new();
            let mut x = VectorClock::new();
            a.set(0, 5);
            x.set(w.saturating_sub(1), 5);
            b.iter(|| a.concurrent_with(&x))
        });
    }
    group.finish();
}

fn bench_locksets(c: &mut Criterion) {
    c.bench_function("lockset_intersect_8", |b| {
        let a = LockSet::from_iter((0..8).map(LockId));
        let x = LockSet::from_iter((4..12).map(LockId));
        b.iter(|| a.intersect(&x))
    });
}

fn bench_static_analysis(c: &mut Criterion) {
    let program = generate(Benchmark::BtMz, Class::C);
    c.bench_function("static_analyze_bt_mz", |b| b.iter(|| analyze(&program)));
}

fn bench_parser(c: &mut Criterion) {
    let program = generate(Benchmark::LuMz, Class::C);
    let source = home_ir::print_program(&program);
    c.bench_function("parse_lu_mz_source", |b| {
        b.iter(|| home_ir::parse(&source).unwrap())
    });
}

criterion_group!(
    benches,
    bench_vector_clocks,
    bench_locksets,
    bench_static_analysis,
    bench_parser
);
criterion_main!(benches);
