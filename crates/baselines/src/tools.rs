//! The three checking tools of the paper's evaluation, behind one
//! interface: HOME, Marmot, and an Intel-Thread-Checker (ITC) model.

use crate::marmot::manifest_races;
use home_core::{analyze_run, match_violations, CheckOptions, HomeReport, SeedRun, SeedStatus};
use home_interp::{run, Instrumentation, RunConfig};
use home_ir::Program;
use home_sched::SimTime;
use home_static::analyze;
use home_stream::{DetectorConfig, DetectorMode};
use home_trace::EventFilter;
use std::sync::Arc;

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

    /// The dynamic-analysis configuration this tool uses (`None` for
    /// Marmot, which uses manifest-only matching instead of a detector).
    pub fn detector(self) -> Option<DetectorConfig> {
        match self {
            Tool::Base => None,
            Tool::Home => Some(DetectorConfig::hybrid()),
            Tool::Marmot => None,
            Tool::Itc => Some(DetectorConfig {
                mode: DetectorMode::Hybrid,
                // The paper: ITC "cannot recognize omp critical directives
                // correctly" — no lock edges, no locksets.
                ignore_locks: true,
                ..DetectorConfig::hybrid()
            }),
        }
    }
}

/// Run `tool` on `program` and produce its violation report.
///
/// All tools share the interpreter and the rule matcher; they differ in
/// instrumentation scope (what gets into the trace), detection engine
/// (predictive vs manifest-only), and cost profile.
pub fn run_tool(tool: Tool, program: &Program, options: &CheckOptions) -> HomeReport {
    match tool {
        Tool::Home => {
            let mut opts = options.clone();
            opts.instrumentation = Instrumentation::home();
            opts.detector = DetectorConfig::hybrid();
            home_core::check(program, &opts)
        }
        Tool::Base => HomeReport::default(),
        Tool::Marmot | Tool::Itc => {
            let static_report = analyze(program);
            let checklist = Arc::new(static_report.checklist.clone());
            let mut report = HomeReport {
                static_stats: static_report.stats,
                ..HomeReport::default()
            };
            for &seed in &options.seeds {
                let mut cfg = RunConfig::test(options.nprocs, seed)
                    .with_instrumentation(tool.instrumentation())
                    .with_checklist(Arc::clone(&checklist));
                cfg.threads_per_proc = options.threads_per_proc;
                cfg.sched = options_sched(options, seed);
                let result = run(program, &cfg);
                let (races, violations) = match tool.detector() {
                    // Marmot: manifest-only matching, no detector.
                    None => {
                        let races = manifest_races(&result.trace);
                        let violations =
                            match_violations(&result.trace, &races, &result.mpi_errors);
                        (races, violations)
                    }
                    // ITC: the same session HOME runs, critical-blind.
                    Some(detector) => {
                        match analyze_run(seed, &detector, &result.trace, &result.mpi_errors) {
                            Ok(outcome) => (outcome.races, outcome.violations),
                            // A detector failure poisons only this seed:
                            // record it and keep the remaining seeds.
                            Err(e) => {
                                report.partial = true;
                                report.seed_runs.push(SeedRun {
                                    seed,
                                    status: SeedStatus::Failed {
                                        error: e.to_string(),
                                    },
                                });
                                continue;
                            }
                        }
                    }
                };
                report.seed_runs.push(SeedRun {
                    seed,
                    status: SeedStatus::Ok {
                        events: result.events_recorded,
                        races: races.len(),
                        violations: violations.len(),
                    },
                });
                report.runs += 1;
                report.total_events += result.events_recorded;
                if let Some(d) = result.deadlock {
                    report.deadlocks.push((seed, d));
                }
                report.incidents.extend(result.mpi_errors);
                report.races.extend(races);
                report.violations.extend(violations);
            }
            let mut seen = std::collections::BTreeSet::new();
            report
                .violations
                .retain(|v| seen.insert((v.kind, v.rank, v.locations.clone())));
            report
        }
    }
}

fn options_sched(options: &CheckOptions, seed: u64) -> home_sched::SchedConfig {
    // Baselines honour the same scheduling mode HOME uses in CheckOptions:
    // derive from the detector-independent defaults (deterministic random),
    // seeded per run.
    let mut sched = home_sched::SchedConfig::deterministic(seed);
    sched.policy = options.sched_policy;
    sched
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
        assert!(Tool::Base.detector().is_none());
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
        options.sched_policy = home_sched::SchedPolicy::EarliestClockFirst;
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
}
