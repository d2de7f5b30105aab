//! Wall-clock comparison of the serial and parallel check pipeline: the
//! same multi-seed NPB-style check with `jobs = 1` versus `jobs = N`
//! (available parallelism). The per-seed simulate→detect→match chains are
//! independent, so the parallel path should approach `min(N, seeds)`×
//! speedup while producing an identical report (asserted here, too).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use home_core::{check, default_jobs, CheckOptions};
use home_npb::{generate, Benchmark, Class};
use std::time::Duration;

fn bench_check_jobs(c: &mut Criterion) {
    let program = generate(Benchmark::LuMz, Class::W);
    let seeds: Vec<u64> = (1..=8).collect();

    // Sanity: the fan-out must not change the report.
    let serial = check(
        &program,
        &CheckOptions::default()
            .with_seeds(seeds.clone())
            .with_jobs(1),
    );
    let parallel = check(
        &program,
        &CheckOptions::default()
            .with_seeds(seeds.clone())
            .with_jobs(default_jobs()),
    );
    assert_eq!(
        serial.render(),
        parallel.render(),
        "parallel check must match serial"
    );

    let mut group = c.benchmark_group("check_pipeline");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(4));
    group.sample_size(10);
    // `max(2)` keeps the scoped-thread path exercised even on one core.
    for jobs in [1, default_jobs().max(2)] {
        group.bench_with_input(
            BenchmarkId::new("lu_mz_w_8seeds", jobs),
            &jobs,
            |b, &jobs| {
                let options = CheckOptions::default()
                    .with_seeds(seeds.clone())
                    .with_jobs(jobs);
                b.iter(|| check(&program, &options))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_check_jobs);
criterion_main!(benches);
