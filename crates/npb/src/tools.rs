//! # `tools` — the comparison tools of the paper's evaluation
//!
//! Models of the two tools HOME is compared against in Section V, built
//! from the mechanisms the paper attributes to them rather than their
//! binaries:
//!
//! * **Marmot** ([`Tool::Marmot`]) — purely dynamic, manifest-only
//!   detection (no lockset/HB prediction → schedule-dependent false
//!   negatives) plus a central debug-process round trip charged on every
//!   MPI call (its overhead curve).
//! * **Intel Thread Checker** ([`Tool::Itc`]) — records *every* shared
//!   memory access at binary-instrumentation cost (its ~200% overhead),
//!   runs happens-before without `omp critical` awareness (its BT false
//!   positive), and does not wrap `MPI_Probe` (its LU false negatives).
//!
//! Both share HOME's interpreter, trace model, rule matcher and seed loop
//! ([`home_core::check_seeds`]): the ITC model is HOME's `check` with a
//! critical-blind detector, and the Marmot model passes manifest-only
//! matching as the per-seed analysis. So accuracy differences come purely
//! from instrumentation scope and detection engine — the paper's claim
//! under test.

use crate::marmot::manifest_races;
use home_core::{check_seeds, match_rules, CheckOptions, HomeReport, SessionOutcome};
use home_interp::SimTime;
use home_interp::{run, Instrumentation};
use home_ir::Program;
use home_stream::DetectorConfig;
use home_trace::EventFilter;

/// Which checking tool to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tool {
    /// No tool — the uninstrumented baseline (overhead reference).
    Base,
    /// The paper's tool: static filter + selective wrappers + hybrid
    /// lockset/HB detection.
    Home,
    /// Marmot: everything wrapped, a central debug-process round trip per
    /// MPI call, detection only of *manifest* concurrency.
    Marmot,
    /// Intel Thread Checker: binary instrumentation of every shared memory
    /// access, happens-before without `omp critical` awareness, probes not
    /// wrapped.
    Itc,
}

impl Tool {
    /// All four, in the figures' legend order.
    pub const ALL: [Tool; 4] = [Tool::Base, Tool::Home, Tool::Marmot, Tool::Itc];

    /// Display label used in the report tables.
    pub fn label(self) -> &'static str {
        match self {
            Tool::Base => "Base",
            Tool::Home => "HOME",
            Tool::Marmot => "MARMOT",
            Tool::Itc => "ITC",
        }
    }

    /// The instrumentation profile this tool runs with at the default
    /// two-process scale. See [`Tool::instrumentation_scaled`] for the cost
    /// model behind Figures 4–7.
    pub fn instrumentation(self) -> Instrumentation {
        self.instrumentation_scaled(2)
    }

    /// The cost model behind Figures 4–7, at a given process count:
    ///
    /// * HOME: selective wrapper stores plus a mild (×1.15) Pin-style
    ///   slowdown on instrumented compute;
    /// * Marmot: wrapper everywhere plus a central debug-process round trip
    ///   per MPI call whose latency grows with the number of processes the
    ///   manager serializes;
    /// * ITC: whole-program binary instrumentation (×2.9 on compute) plus a
    ///   fixed analysis cost per MPI call.
    pub fn instrumentation_scaled(self, nprocs: usize) -> Instrumentation {
        match self {
            Tool::Base => Instrumentation::base(),
            Tool::Home => Instrumentation::home(),
            Tool::Marmot => Instrumentation {
                name: "marmot".into(),
                filter: EventFilter::MONITORED_AND_SYNC,
                selective: false,
                wrap_probe: true,
                event_cost: SimTime::from_micros(1),
                mpi_call_extra: SimTime::from_nanos(3_500 * nprocs as u64),
                compute_slowdown: 1.13,
            },
            Tool::Itc => Instrumentation {
                name: "itc".into(),
                filter: EventFilter::ALL,
                selective: false,
                wrap_probe: false,
                event_cost: SimTime::from_micros(1),
                mpi_call_extra: SimTime::from_micros(150),
                compute_slowdown: 2.9,
            },
        }
    }
}

/// Run `tool` on `program` and produce its violation report.
///
/// Every tool runs through `home-core`'s one seed loop
/// ([`home_core::check_seeds`]): the same run configuration, fault
/// isolation, fan-out over `jobs`, merge and cross-check. They differ in
/// instrumentation scope (what gets into the trace), detection engine
/// (predictive vs manifest-only), and cost profile.
pub fn run_tool(tool: Tool, program: &Program, options: &CheckOptions) -> HomeReport {
    let mut opts = options.clone();
    opts.instrumentation = tool.instrumentation();
    match tool {
        Tool::Base => HomeReport::default(),
        Tool::Home => {
            opts.detector = DetectorConfig::hybrid();
            home_core::check(program, &opts)
        }
        // ITC is HOME's pipeline, critical-blind: the paper says it "cannot
        // recognize omp critical directives correctly" — no lock edges, no
        // locksets.
        Tool::Itc => {
            opts.detector = DetectorConfig {
                ignore_locks: true,
                ..DetectorConfig::hybrid()
            };
            home_core::check(program, &opts)
        }
        // Marmot: manifest-only matching over the run's materialized trace,
        // no detector.
        Tool::Marmot => check_seeds(program, &opts, |program, cfg| {
            let result = run(program, cfg);
            let races = manifest_races(&result.trace);
            let rules = match_rules(&result.trace, &races, &result.mpi_errors);
            let outcome = SessionOutcome {
                events: result.events_recorded,
                races,
                violations: rules.violations,
                unclassified: rules.unclassified,
            };
            Ok((result, outcome))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use home_core::ViolationKind;
    use home_ir::parse;

    fn opts() -> CheckOptions {
        CheckOptions::default()
    }

    #[test]
    fn tool_labels_and_profiles() {
        assert_eq!(Tool::Home.label(), "HOME");
        assert_eq!(Tool::Itc.instrumentation().name, "itc");
        assert!(Tool::Itc.instrumentation().filter.accesses);
        assert!(!Tool::Itc.instrumentation().wrap_probe);
        assert!(Tool::Marmot.instrumentation().mpi_call_extra > SimTime::ZERO);
    }

    #[test]
    fn itc_misses_probe_violations() {
        let src = r#"
            program probe {
                mpi_init_thread(multiple);
                if (rank == 0) {
                    mpi_send(to: 1, tag: 3, count: 1);
                    mpi_send(to: 1, tag: 3, count: 1);
                }
                if (rank == 1) {
                    omp parallel num_threads(2) {
                        mpi_probe(from: 0, tag: 3);
                        mpi_recv(from: 0, tag: 3);
                    }
                }
                mpi_finalize();
            }
        "#;
        let p = parse(src).unwrap();
        let home = run_tool(Tool::Home, &p, &opts());
        let itc = run_tool(Tool::Itc, &p, &opts());
        assert!(home.has(ViolationKind::Probe), "{}", home.render());
        assert!(
            !itc.has(ViolationKind::Probe),
            "ITC does not wrap probes: {}",
            itc.render()
        );
    }

    #[test]
    fn itc_false_positive_on_critical_protected_calls() {
        // Two threads receive with colliding envelopes but under one
        // omp critical — serialized, hence safe. HOME's lockset analysis
        // sees the common lock; ITC (critical-blind) flags it.
        let src = r#"
            program fp {
                mpi_init_thread(multiple);
                if (rank == 0) {
                    mpi_send(to: 1, tag: 0, count: 1);
                    mpi_send(to: 1, tag: 0, count: 1);
                }
                if (rank == 1) {
                    omp parallel num_threads(2) {
                        omp critical(recv_cs) {
                            mpi_recv(from: 0, tag: 0);
                        }
                    }
                }
                mpi_finalize();
            }
        "#;
        let p = parse(src).unwrap();
        let home = run_tool(Tool::Home, &p, &opts());
        let itc = run_tool(Tool::Itc, &p, &opts());
        assert!(
            !home.has(ViolationKind::ConcurrentRecv),
            "HOME respects critical: {}",
            home.render()
        );
        assert!(
            itc.has(ViolationKind::ConcurrentRecv),
            "ITC's critical blindness produces the false positive: {}",
            itc.render()
        );
    }

    #[test]
    fn marmot_detects_manifest_but_misses_latent_races() {
        // Latent: thread 1 computes a long time before its racy recv, so
        // under time-faithful scheduling the two receives serialize in the
        // observed run. HOME (predictive lockset/HB) still flags; Marmot
        // (manifest-only) misses.
        let src = r#"
            program latent {
                mpi_init_thread(multiple);
                if (rank == 0) {
                    mpi_send(to: 1, tag: 0, count: 1);
                    mpi_send(to: 1, tag: 0, count: 1);
                }
                if (rank == 1) {
                    omp parallel num_threads(2) {
                        if (tid == 0) {
                            mpi_recv(from: 0, tag: 0);
                            mpi_send(to: 0, tag: 99, count: 1);
                        }
                        if (tid == 1) {
                            compute(100000000);
                            mpi_recv(from: 0, tag: 0);
                        }
                    }
                }
                if (rank == 0) { mpi_recv(from: 1, tag: 99); }
                mpi_finalize();
            }
        "#;
        let p = parse(src).unwrap();
        let mut options = opts();
        options.sched_policy = home_interp::SchedPolicy::EarliestClockFirst;
        let home = run_tool(Tool::Home, &p, &options);
        let marmot = run_tool(Tool::Marmot, &p, &options);
        assert!(
            home.has(ViolationKind::ConcurrentRecv),
            "HOME predicts the latent race: {}",
            home.render()
        );
        assert!(
            !marmot.has(ViolationKind::ConcurrentRecv),
            "Marmot only sees manifest races: {}",
            marmot.render()
        );
    }

    #[test]
    fn marmot_detects_manifest_concurrent_recv() {
        // Symmetric concurrent receives: both threads sit in recv at the
        // same time in essentially every schedule → manifest → detected.
        let src = r#"
            program manifest {
                mpi_init_thread(multiple);
                if (rank == 0) {
                    mpi_send(to: 1, tag: 0, count: 1);
                    mpi_send(to: 1, tag: 0, count: 1);
                }
                if (rank == 1) {
                    omp parallel num_threads(2) {
                        mpi_recv(from: 0, tag: 0);
                    }
                }
                mpi_finalize();
            }
        "#;
        let p = parse(src).unwrap();
        let marmot = run_tool(Tool::Marmot, &p, &opts());
        assert!(
            marmot.has(ViolationKind::ConcurrentRecv),
            "{}",
            marmot.render()
        );
    }

    /// Colliding receives under a critical: the critical-blind ITC model
    /// flags them, and both baselines have races to merge.
    const SHARED_LOOP: &str = r#"
        program shared_loop {
            mpi_init_thread(multiple);
            if (rank == 0) {
                omp parallel num_threads(2) { mpi_send(to: 1, tag: 0, count: 1); }
                mpi_recv(from: 1, tag: 1);
                mpi_recv(from: 1, tag: 1);
            }
            if (rank == 1) {
                omp parallel num_threads(2) {
                    omp critical(net) { mpi_recv(from: 0, tag: 0); }
                    mpi_send(to: 0, tag: 1, count: 1);
                }
            }
            mpi_finalize();
        }
    "#;

    #[test]
    fn baselines_are_byte_identical_at_one_and_four_jobs() {
        let p = parse(SHARED_LOOP).unwrap();
        let seeds = vec![1, 2, 3, 4, 5, 6];
        for tool in [Tool::Itc, Tool::Marmot] {
            let serial = run_tool(tool, &p, &opts().with_seeds(seeds.clone()).with_jobs(1));
            let parallel = run_tool(tool, &p, &opts().with_seeds(seeds.clone()).with_jobs(4));
            assert_eq!(serial.runs, 6, "{}", serial.render());
            assert_eq!(serial.render(), parallel.render(), "{tool:?}");
            assert_eq!(
                format!("{:?}{:?}", serial.races, serial.seed_runs),
                format!("{:?}{:?}", parallel.races, parallel.seed_runs),
                "{tool:?}"
            );
        }
        let itc = run_tool(Tool::Itc, &p, &opts().with_seeds(seeds).with_jobs(4));
        assert!(itc.has(ViolationKind::ConcurrentRecv), "{}", itc.render());
    }

    #[test]
    fn a_panicking_seed_costs_a_baseline_only_that_seed() {
        let p = parse(SHARED_LOOP).unwrap();
        for tool in [Tool::Itc, Tool::Marmot] {
            let options = CheckOptions {
                inject_panic_seeds: vec![2],
                ..opts().with_seeds(vec![1, 2, 3]).with_jobs(1)
            };
            let report = run_tool(tool, &p, &options);
            assert!(report.partial, "{tool:?}: {}", report.render());
            assert_eq!(report.runs, 2, "{tool:?}");
            let statuses: Vec<(u64, bool)> = report
                .seed_runs
                .iter()
                .map(|r| (r.seed, r.is_ok()))
                .collect();
            assert_eq!(statuses, [(1, true), (2, false), (3, true)], "{tool:?}");
            assert!(
                report.render().contains("seed 2: FAILED (injected failure"),
                "{tool:?}: {}",
                report.render()
            );
        }
    }
}
