//! Figure 6 bench target: SpMz execution under each tool.
//!
//! Criterion measures the *wall-clock* cost of simulating each
//! (tool, process-count) cell; the simulated-seconds series itself is
//! printed by `cargo run -p home-bench --bin report -- figure6`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use home_bench::measure;
use home_npb::Tool;
use home_npb::{Benchmark, Class};
use std::time::Duration;

fn bench_sp_mz(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure6_sp_mz");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for np in [2usize, 8] {
        for tool in [Tool::Base, Tool::Home, Tool::Marmot, Tool::Itc] {
            group.bench_with_input(BenchmarkId::new(tool.label(), np), &np, |b, &np| {
                b.iter(|| measure(Benchmark::SpMz, Class::W, tool, np))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sp_mz);
criterion_main!(benches);
