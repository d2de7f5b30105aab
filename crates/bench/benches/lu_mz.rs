//! Figure 4 bench target: LU-MZ execution under each tool.
//!
//! Criterion measures the *wall-clock* cost of simulating each
//! (tool, process-count) cell; the simulated-seconds series itself is
//! printed by `cargo run -p home-bench --bin report -- figure4`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use home_bench::measure;
use home_npb::Tool;
use home_npb::{Benchmark, Class};
use std::time::Duration;

fn bench_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure4_lu_mz");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for np in [2usize, 8] {
        for tool in [Tool::Base, Tool::Home, Tool::Marmot, Tool::Itc] {
            group.bench_with_input(BenchmarkId::new(tool.label(), np), &np, |b, &np| {
                b.iter(|| measure(Benchmark::LuMz, Class::W, tool, np))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lu);
criterion_main!(benches);
