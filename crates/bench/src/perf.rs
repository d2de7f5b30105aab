//! Virtual-time performance sweeps behind Figures 4–7.

use home_baselines::Tool;
use home_interp::{run, RunConfig};
use home_npb::{generate, Benchmark, Class};
use home_static::analyze;
use std::sync::Arc;

/// One measured point: a tool on a benchmark at a process count.
#[derive(Debug, Clone)]
pub struct PerfPoint {
    /// Benchmark name.
    pub benchmark: String,
    /// Tool label.
    pub tool: String,
    /// MPI processes.
    pub nprocs: usize,
    /// Simulated execution time in seconds.
    pub seconds: f64,
    /// Instrumentation events recorded.
    pub events: u64,
}

/// The process counts of the paper's figures.
pub const PROC_COUNTS: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// Execute `benchmark` at `class` under `tool` on `nprocs` simulated
/// processes and return the measured point.
pub fn measure(benchmark: Benchmark, class: Class, tool: Tool, nprocs: usize) -> PerfPoint {
    let program = generate(benchmark, class);
    let checklist = Arc::new(analyze(&program).checklist.clone());
    let cfg = RunConfig::cluster(nprocs, 7)
        .with_instrumentation(tool.instrumentation_scaled(nprocs))
        .with_checklist(checklist);
    let result = run(&program, &cfg);
    assert!(
        result.clean(),
        "{benchmark}/{} on {nprocs} procs failed: {:?} {:?}",
        tool.label(),
        result.deadlock,
        result.runtime_errors
    );
    PerfPoint {
        benchmark: benchmark.name().to_string(),
        tool: tool.label().to_string(),
        nprocs,
        seconds: result.makespan.as_secs_f64(),
        events: result.events_recorded,
    }
}

/// Figure 4/5/6: all four tools over the process-count sweep.
pub fn figure_sweep(benchmark: Benchmark, class: Class, procs: &[usize]) -> Vec<PerfPoint> {
    let mut out = Vec::new();
    for &np in procs {
        for tool in Tool::ALL {
            out.push(measure(benchmark, class, tool, np));
        }
    }
    out
}

/// One overhead cell: `(tool_time − base_time) / base_time`, in percent.
#[derive(Debug, Clone)]
pub struct OverheadPoint {
    pub tool: String,
    pub nprocs: usize,
    /// Percent overhead, averaged across benchmarks.
    pub percent: f64,
}

/// Figure 7: per-tool average overhead over the process sweep, averaged
/// across the given benchmarks' points.
pub fn overhead_from_points(points: &[PerfPoint]) -> Vec<OverheadPoint> {
    let mut out = Vec::new();
    let tools: Vec<String> = {
        let mut t: Vec<String> = points
            .iter()
            .map(|p| p.tool.clone())
            .filter(|t| t != "Base")
            .collect();
        t.sort();
        t.dedup();
        t
    };
    let mut procs: Vec<usize> = points.iter().map(|p| p.nprocs).collect();
    procs.sort_unstable();
    procs.dedup();
    for tool in &tools {
        for &np in &procs {
            let mut ratios = Vec::new();
            let benches: Vec<&str> = {
                let mut b: Vec<&str> = points.iter().map(|p| p.benchmark.as_str()).collect();
                b.sort_unstable();
                b.dedup();
                b
            };
            for bench in benches {
                let base = points
                    .iter()
                    .find(|p| p.benchmark == bench && p.tool == "Base" && p.nprocs == np);
                let t = points
                    .iter()
                    .find(|p| p.benchmark == bench && &p.tool == tool && p.nprocs == np);
                if let (Some(base), Some(t)) = (base, t) {
                    if base.seconds > 0.0 {
                        ratios.push((t.seconds - base.seconds) / base.seconds * 100.0);
                    }
                }
            }
            if !ratios.is_empty() {
                out.push(OverheadPoint {
                    tool: tool.clone(),
                    nprocs: np,
                    percent: ratios.iter().sum::<f64>() / ratios.len() as f64,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_time_decreases_with_more_processes() {
        // Strong scaling: class A base time must shrink from 2 to 8 procs.
        let t2 = measure(Benchmark::BtMz, Class::A, Tool::Base, 2).seconds;
        let t8 = measure(Benchmark::BtMz, Class::A, Tool::Base, 8).seconds;
        assert!(t8 < t2, "strong scaling violated: {t2} vs {t8}");
    }

    #[test]
    fn tool_ordering_matches_paper() {
        // The paper's class (C) is where the cost model is calibrated. At
        // low process counts HOME's and Marmot's bands overlap (paper: 16%
        // vs 15%); from 8 processes up Marmot's central manager costs more
        // than HOME's selective wrappers, and ITC dominates everywhere.
        for np in [2usize, 8, 64] {
            let base = measure(Benchmark::LuMz, Class::C, Tool::Base, np).seconds;
            let home = measure(Benchmark::LuMz, Class::C, Tool::Home, np).seconds;
            let marmot = measure(Benchmark::LuMz, Class::C, Tool::Marmot, np).seconds;
            let itc = measure(Benchmark::LuMz, Class::C, Tool::Itc, np).seconds;
            assert!(base < home, "np={np}");
            assert!(home < itc, "np={np}: home={home} itc={itc}");
            assert!(marmot < itc, "np={np}: marmot={marmot} itc={itc}");
            // The crossover: Marmot's central manager eventually costs more
            // than HOME's selective wrappers (paper: 56% vs 45% at 64).
            if np >= 64 {
                assert!(home < marmot, "np={np}: home={home} marmot={marmot}");
            }
        }
    }

    #[test]
    fn home_overhead_band_matches_paper() {
        // Paper: HOME overhead ranges from ~16% (few processes) to ~45%
        // (64 processes), increasing with process count.
        let lo = {
            let base = measure(Benchmark::LuMz, Class::C, Tool::Base, 2).seconds;
            let home = measure(Benchmark::LuMz, Class::C, Tool::Home, 2).seconds;
            (home - base) / base * 100.0
        };
        let hi = {
            let base = measure(Benchmark::LuMz, Class::C, Tool::Base, 64).seconds;
            let home = measure(Benchmark::LuMz, Class::C, Tool::Home, 64).seconds;
            (home - base) / base * 100.0
        };
        assert!(lo > 8.0 && lo < 30.0, "low-end HOME overhead {lo:.1}%");
        assert!(hi > 30.0 && hi < 70.0, "high-end HOME overhead {hi:.1}%");
        assert!(hi > lo, "overhead must grow with process count");
    }

    #[test]
    fn overhead_computation() {
        let points = vec![
            PerfPoint {
                benchmark: "X".into(),
                tool: "Base".into(),
                nprocs: 2,
                seconds: 10.0,
                events: 0,
            },
            PerfPoint {
                benchmark: "X".into(),
                tool: "HOME".into(),
                nprocs: 2,
                seconds: 12.5,
                events: 100,
            },
        ];
        let oh = overhead_from_points(&points);
        assert_eq!(oh.len(), 1);
        assert!((oh[0].percent - 25.0).abs() < 1e-9);
    }

    #[test]
    fn itc_records_more_events_than_home() {
        let home = measure(Benchmark::SpMz, Class::A, Tool::Home, 2);
        let itc = measure(Benchmark::SpMz, Class::A, Tool::Itc, 2);
        assert!(
            itc.events > 2 * home.events,
            "itc={} home={}",
            itc.events,
            home.events
        );
    }
}
