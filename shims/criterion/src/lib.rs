//! Offline shim for the `criterion` API subset used by the bench targets.
//!
//! Implements the same surface (`Criterion`, `benchmark_group`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, `Bencher::iter`,
//! `black_box`, `criterion_group!`, `criterion_main!`) over a simple
//! wall-clock sampler: each benchmark warms up, then takes `sample_size`
//! timed samples within roughly `measurement_time`, and prints
//! median / min / max per-iteration times. No statistics engine, no HTML
//! reports — enough to compare hot paths offline.

#![forbid(unsafe_code)]

use std::hint;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer value passthrough.
pub fn black_box<T>(value: T) -> T {
    hint::black_box(value)
}

/// Benchmark identifier: `function_id/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Identifier combining a function name and a parameter rendering.
    pub fn new(function_id: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{parameter}", function_id.into()),
        }
    }

    /// Identifier from a parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Passed to the user's closure; `iter` runs and times the workload.
pub struct Bencher<'a> {
    samples: &'a mut Vec<Duration>,
    config: SamplerConfig,
}

impl Bencher<'_> {
    /// Time `routine`, collecting the configured number of samples.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run until the warm-up budget elapses at least once.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.config.warm_up_time || warm_iters == 0 {
            black_box(routine());
            warm_iters += 1;
        }
        let warm_elapsed = warm_start.elapsed();
        let per_iter = warm_elapsed
            .checked_div(warm_iters as u32)
            .unwrap_or_default();

        // Choose an inner iteration count so one sample is not noise-bound
        // but `sample_size` samples still fit the measurement budget.
        let budget_per_sample = self
            .config
            .measurement_time
            .checked_div(self.config.sample_size.max(1) as u32)
            .unwrap_or(Duration::from_millis(100));
        let inner = if per_iter.is_zero() {
            1_000
        } else {
            (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u32
        };

        for _ in 0..self.config.sample_size {
            let start = Instant::now();
            for _ in 0..inner {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            self.samples
                .push(elapsed.checked_div(inner).unwrap_or_default());
        }
    }
}

#[derive(Clone, Copy)]
struct SamplerConfig {
    warm_up_time: Duration,
    measurement_time: Duration,
    sample_size: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(1),
            sample_size: 10,
        }
    }
}

/// A named collection of related benchmarks sharing sampler settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    config: SamplerConfig,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the warm-up duration.
    pub fn warm_up_time(&mut self, duration: Duration) -> &mut Self {
        self.config.warm_up_time = duration;
        self
    }

    /// Set the total measurement budget.
    pub fn measurement_time(&mut self, duration: Duration) -> &mut Self {
        self.config.measurement_time = duration;
        self
    }

    /// Set the number of timed samples.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.config.sample_size = n;
        self
    }

    /// Run one named benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        run_sampled(&format!("{}/{}", self.name, id.into()), self.config, |b| {
            f(b)
        });
        self
    }

    /// Run one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        run_sampled(&format!("{}/{}", self.name, id.id), self.config, |b| {
            f(b, input)
        });
        self
    }

    /// Finish the group (prints nothing extra; samples print per-bench).
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {
    config: SamplerConfig,
}

impl Criterion {
    /// Start a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let config = self.config;
        BenchmarkGroup {
            name: name.into(),
            config,
            _criterion: self,
        }
    }

    /// Run one stand-alone named benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        run_sampled(&id.into(), self.config, |b| f(b));
        self
    }
}

fn run_sampled(label: &str, config: SamplerConfig, mut f: impl FnMut(&mut Bencher<'_>)) {
    let mut samples = Vec::new();
    let mut bencher = Bencher {
        samples: &mut samples,
        config,
    };
    f(&mut bencher);
    samples.sort_unstable();
    if samples.is_empty() {
        println!("{label:<48} (no samples)");
        return;
    }
    let median = samples[samples.len() / 2];
    let min = samples[0];
    let max = samples[samples.len() - 1];
    println!(
        "{label:<48} median {:>12?}  min {:>12?}  max {:>12?}  ({} samples)",
        median,
        min,
        max,
        samples.len()
    );
}

/// Declare a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declare the bench entry point, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut criterion = Criterion::default();
        let mut group = criterion.benchmark_group("shim");
        group
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5))
            .sample_size(3);
        group.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        group.bench_with_input(BenchmarkId::new("with_input", 4), &4u32, |b, &n| {
            b.iter(|| black_box(n * 2))
        });
        group.finish();
    }
}
