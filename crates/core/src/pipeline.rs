//! The end-to-end HOME pipeline: static analysis → instrumented execution →
//! dynamic concurrency detection → violation matching → merged report.

use crate::report::{HomeReport, SeedRun, SeedStatus};
use crate::session::Session;
use crate::sink::{NullViolationSink, ViolationSink};
use home_interp::{run_with_sink, Instrumentation, RunConfig};
use home_ir::Program;
use home_static::analyze;
use home_stream::{DetectorConfig, Race};
use home_trace::HomeError;
use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::Arc;

/// Options for one HOME check.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// MPI processes to simulate.
    pub nprocs: usize,
    /// OpenMP threads per process (programs saying `num_threads(0)` or
    /// nothing inherit this).
    pub threads_per_proc: usize,
    /// Scheduler seeds to explore. More seeds = more interleavings covered;
    /// HOME's lockset+HB prediction usually needs only a few because races
    /// need not manifest to be detected.
    pub seeds: Vec<u64>,
    /// Dynamic-detector configuration.
    pub detector: DetectorConfig,
    /// Instrumentation profile (defaults to HOME's own).
    pub instrumentation: Instrumentation,
    /// Scheduling policy for the explored interleavings. `Random` explores
    /// broadly; `EarliestClockFirst` is time-faithful (what the accuracy
    /// table uses, so manifest-dependent baselines behave realistically).
    pub sched_policy: home_sched::SchedPolicy,
    /// Thread-name → priority pins for [`home_sched::SchedPolicy::Priority`]
    /// (directed rescheduling pins one racy access's thread high and the
    /// other low to flip their order). Ignored under other policies.
    pub priority_pins: Vec<(String, i64)>,
    /// Worker threads for the per-seed simulate→detect→match chains. Seeds
    /// are independent, so they fan out over up to `jobs` threads; each
    /// seed's results land in an indexed slot and merge back in seed-list
    /// order, so the report is identical for every value. `1` is exactly
    /// the serial path; the default is the machine's available parallelism.
    pub jobs: usize,
    /// Fault-injection hook: seeds in this list panic at the start of
    /// their chain. Exercises the per-seed fault isolation (a failed seed
    /// becomes a [`SeedStatus::Failed`] entry and sets
    /// [`HomeReport::partial`], never poisoning the other seeds). Exposed
    /// on the CLI as `--fail-seed`.
    pub inject_panic_seeds: Vec<u64>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            nprocs: 2,
            threads_per_proc: 2,
            seeds: vec![1, 2, 3, 4],
            detector: DetectorConfig::hybrid(),
            instrumentation: Instrumentation::home(),
            sched_policy: home_sched::SchedPolicy::Random,
            priority_pins: Vec::new(),
            jobs: crate::fanout::default_jobs(),
            inject_panic_seeds: Vec::new(),
        }
    }
}

impl CheckOptions {
    /// Convenience constructor.
    pub fn new(nprocs: usize, threads_per_proc: usize) -> Self {
        CheckOptions {
            nprocs,
            threads_per_proc,
            ..CheckOptions::default()
        }
    }

    /// Replace the seed list.
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Set the worker-thread count of the per-seed fan-out.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Inject a deliberate panic into the listed seeds' chains (fault
    /// isolation testing; see [`CheckOptions::inject_panic_seeds`]).
    pub fn with_fail_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.inject_panic_seeds = seeds;
        self
    }

    /// Replace the scheduling policy (see [`CheckOptions::sched_policy`]).
    pub fn with_sched_policy(mut self, policy: home_sched::SchedPolicy) -> Self {
        self.sched_policy = policy;
        self
    }

    /// Replace the priority pins (see [`CheckOptions::priority_pins`]).
    pub fn with_priority_pins(mut self, pins: Vec<(String, i64)>) -> Self {
        self.priority_pins = pins;
        self
    }
}

/// Render a caught panic payload as text (panics carry `&str` or `String`
/// in practice; anything else gets a stable placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Run the full HOME check on `program`.
///
/// ```
/// use home_core::{check, CheckOptions, ViolationKind};
///
/// let program = home_ir::parse(r#"
///     program demo {
///         mpi_init_thread(multiple);
///         omp parallel num_threads(2) {
///             if (rank == 1) { mpi_recv(from: 0, tag: 0); }
///             if (rank == 0) { mpi_send(to: 1, tag: 0, count: 1); }
///         }
///         mpi_finalize();
///     }
/// "#).unwrap();
/// let report = check(&program, &CheckOptions::default());
/// assert!(report.has(ViolationKind::ConcurrentRecv));
/// ```
pub fn check(program: &Program, options: &CheckOptions) -> HomeReport {
    check_with_sink(program, options, Arc::new(NullViolationSink))
}

/// [`check`], with every classified violation also delivered to `sink` as
/// its evidence completes (see [`ViolationSink`]). The returned report is
/// identical to [`check`]'s — the sink is a live tee, not a replacement.
/// `home watch` is this function plus a rendering sink.
pub fn check_with_sink(
    program: &Program,
    options: &CheckOptions,
    sink: Arc<dyn ViolationSink>,
) -> HomeReport {
    let static_report = analyze(program);
    let checklist = Arc::new(static_report.checklist.clone());

    let mut report = HomeReport {
        static_stats: static_report.stats,
        ..HomeReport::default()
    };

    // One seed's simulate→detect→match chain. Pure in `program` and the
    // shared checklist, so seeds may run on separate threads. The whole
    // chain is fault-isolated: a panic (or typed error) anywhere inside it
    // becomes an `Err` slot attributed to the seed, never a poisoned join.
    let run_seed = |seed: u64| -> SeedOutcome {
        let chain = || -> Result<SeedData, HomeError> {
            if options.inject_panic_seeds.contains(&seed) {
                panic!("injected failure (--fail-seed {seed})");
            }
            let mut cfg = RunConfig::test(options.nprocs, seed)
                .with_instrumentation(options.instrumentation.clone())
                .with_checklist(Arc::clone(&checklist));
            cfg.threads_per_proc = options.threads_per_proc;
            cfg.sched.policy = options.sched_policy;
            cfg.sched.priority_pins = options.priority_pins.clone();

            // Detection runs while the program does: every simulator
            // event goes straight into the session, no trace is
            // materialized, and races classify the moment they are found.
            let session = Rc::new(RefCell::new(Session::streaming(
                seed,
                options.detector.clone(),
                Arc::clone(&sink),
            )));
            let result = run_with_sink(program, &cfg, session.clone());
            let mut session = session.borrow_mut();
            // Incidents are gathered by the simulator and fed here, before
            // the end-of-seed evaluation.
            for incident in &result.mpi_errors {
                session.feed_incident(incident);
            }
            let outcome = session.finish()?;
            Ok(SeedData {
                events_recorded: result.events_recorded,
                deadlock: result.deadlock,
                incidents: result.mpi_errors,
                races: outcome.races,
                unclassified: outcome.unclassified,
                violations: outcome.violations,
            })
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(chain))
            .unwrap_or_else(|payload| Err(HomeError::seed(seed, panic_message(payload.as_ref()))))
            .map_err(|e| match e {
                seeded @ HomeError::Seed { .. } => seeded,
                other => HomeError::seed(seed, other.to_string()),
            });
        // Tell the sink this seed's chain resolved, with the same status
        // the report will show (live renderers use it as a seed boundary).
        match &result {
            Ok(data) => sink.seed_finished(
                seed,
                &SeedStatus::Ok {
                    events: data.events_recorded,
                    races: data.races.len(),
                    violations: data.violations.len(),
                },
                &data.violations,
            ),
            Err(e) => {
                let error = match e {
                    HomeError::Seed { message, .. } => message.clone(),
                    other => other.to_string(),
                };
                sink.seed_finished(seed, &SeedStatus::Failed { error }, &[]);
            }
        }
        SeedOutcome { seed, result }
    };

    // Indexed slots (crate::fanout) keep the merge in seed-list order
    // regardless of which worker finishes first, so the report is
    // byte-identical for every `jobs` value.
    let slots =
        crate::fanout::fan_out_indexed(&options.seeds, options.jobs, |_, &seed| run_seed(seed));
    let outcomes = slots.into_iter().zip(&options.seeds).map(|(slot, &seed)| {
        // A worker cannot leave its slot empty (the chain is caught), but
        // stay panic-free even if that invariant ever breaks.
        slot.unwrap_or_else(|| SeedOutcome {
            seed,
            result: Err(HomeError::seed(seed, "worker produced no result")),
        })
    });

    for outcome in outcomes {
        match outcome.result {
            Ok(data) => {
                report.runs += 1;
                report.total_events += data.events_recorded;
                report.seed_runs.push(SeedRun {
                    seed: outcome.seed,
                    status: SeedStatus::Ok {
                        events: data.events_recorded,
                        races: data.races.len(),
                        violations: data.violations.len(),
                    },
                });
                if let Some(d) = data.deadlock {
                    report.deadlocks.push((outcome.seed, d));
                }
                report.incidents.extend(data.incidents);
                report.races.extend(data.races);
                report.unclassified.extend(data.unclassified);
                report.violations.extend(data.violations);
            }
            Err(e) => {
                report.partial = true;
                let error = match e {
                    HomeError::Seed { message, .. } => message,
                    other => other.to_string(),
                };
                report.seed_runs.push(SeedRun {
                    seed: outcome.seed,
                    status: SeedStatus::Failed { error },
                });
            }
        }
    }

    // Merge: dedupe violations across seeds by (kind, rank, locations).
    let mut seen = std::collections::BTreeSet::new();
    report
        .violations
        .retain(|v| seen.insert(crate::report::violation_identity(v)));

    // Cross-check the static phase's candidates against the merged
    // dynamic findings (confirmed / not reproduced / dynamic-only).
    report.cross_check(&static_report.candidates);
    report
}

/// Everything one seed's chain contributes to the merged report, or the
/// typed error that took it down.
struct SeedOutcome {
    seed: u64,
    result: Result<SeedData, HomeError>,
}

/// One completed seed's results.
struct SeedData {
    events_recorded: u64,
    deadlock: Option<home_sched::DeadlockInfo>,
    incidents: Vec<home_interp::MpiIncident>,
    races: Vec<Race>,
    unclassified: Vec<Race>,
    violations: Vec<crate::report::Violation>,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::report::ViolationKind;
    use home_ir::parse;

    fn check_src(src: &str) -> HomeReport {
        check(&parse(src).unwrap(), &CheckOptions::default())
    }

    #[test]
    fn clean_hybrid_program_has_no_violations() {
        let r = check_src(
            r#"
            program clean {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) {
                    if (rank == 0) {
                        mpi_send(to: 1, tag: tid, count: 1);
                        mpi_recv(from: 1, tag: tid);
                    }
                    if (rank == 1) {
                        mpi_recv(from: 0, tag: tid);
                        mpi_send(to: 0, tag: tid, count: 1);
                    }
                }
                mpi_finalize();
            }
            "#,
        );
        assert!(
            r.violations.is_empty(),
            "unexpected violations: {:?}",
            r.violations
        );
        assert!(r.deadlocks.is_empty());
    }

    #[test]
    fn case_study_1_init_violation() {
        // Paper Figure 1: plain MPI_Init (single) + omp sections doing
        // MPI calls.
        let r = check_src(
            r#"
            program case1 {
                mpi_init();
                omp parallel num_threads(2) {
                    omp sections {
                        section { if (rank == 0) { mpi_send(to: 1, tag: 0, count: 1); } }
                        section { if (rank == 1) { mpi_recv(from: 0, tag: 0); } }
                    }
                }
                mpi_finalize();
            }
            "#,
        );
        assert!(r.has(ViolationKind::Initialization), "{}", r.render());
    }

    #[test]
    fn case_study_2_concurrent_recv_violation() {
        // Paper Figure 2: same tag from both threads.
        let r = check_src(
            r#"
            program case2 {
                mpi_init_thread(multiple);
                shared int tag = 0;
                omp parallel num_threads(2) {
                    if (rank == 0) {
                        mpi_send(to: 1, tag: tag, count: 1);
                        mpi_recv(from: 1, tag: tag);
                    }
                    if (rank == 1) {
                        mpi_recv(from: 0, tag: tag);
                        mpi_send(to: 0, tag: tag, count: 1);
                    }
                }
                mpi_finalize();
            }
            "#,
        );
        assert!(r.has(ViolationKind::ConcurrentRecv), "{}", r.render());
        // The fix (thread-distinct tags) must not be flagged — covered by
        // `clean_hybrid_program_has_no_violations`.
    }

    #[test]
    fn cross_check_confirms_concurrent_recv_candidate() {
        // Figure 2's shape: the static phase flags the unprotected recvs,
        // and the dynamic phase reproduces them — confirmed.
        let r = check_src(
            r#"
            program confirm {
                mpi_init_thread(multiple);
                shared int tag = 0;
                omp parallel num_threads(2) {
                    if (rank == 0) {
                        mpi_send(to: 1, tag: tag, count: 1);
                        mpi_recv(from: 1, tag: tag);
                    }
                    if (rank == 1) {
                        mpi_recv(from: 0, tag: tag);
                        mpi_send(to: 0, tag: tag, count: 1);
                    }
                }
                mpi_finalize();
            }
            "#,
        );
        assert!(r.cross_checked);
        let confirmed: Vec<&crate::report::CandidateOutcome> = r
            .candidates
            .iter()
            .filter(|c| c.status == crate::report::CandidateStatus::Confirmed)
            .collect();
        assert!(
            confirmed.iter().any(|c| c.candidate.violation_hint.as_deref()
                == Some("isConcurrentRecvViolation")),
            "{}",
            r.render()
        );
        let text = r.render();
        assert!(text.contains("static candidates:"), "{text}");
        assert!(text.contains("  * [confirmed]"), "{text}");
    }

    #[test]
    fn cross_check_marks_unreproduced_deadlock_candidate() {
        // A lock-guarded blocking recv in a multi-threaded region is a
        // static deadlock candidate, but the run completes: not reproduced.
        let r = check_src(
            r#"
            program notrepro {
                fn fetch() { mpi_recv(from: 0, tag: 4); }
                mpi_init_thread(multiple);
                if (rank == 0) {
                    mpi_send(to: 1, tag: 4, count: 1);
                    mpi_send(to: 1, tag: 4, count: 1);
                }
                if (rank == 1) {
                    omp parallel num_threads(2) {
                        omp critical(net) { call fetch(); }
                    }
                }
                mpi_finalize();
            }
            "#,
        );
        assert!(r.deadlocks.is_empty(), "{}", r.render());
        let dl: Vec<_> = r
            .candidates
            .iter()
            .filter(|c| c.candidate.kind == home_static::CandidateKind::PotentialDeadlock)
            .collect();
        assert!(!dl.is_empty(), "{}", r.render());
        assert!(dl
            .iter()
            .all(|c| c.status == crate::report::CandidateStatus::NotReproduced));
        assert!(
            r.render().contains("  * [not reproduced]"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn init_violation_is_dynamic_only() {
        // Figure 1's initialization violation has no static candidate (it
        // depends on the initialized thread level at runtime): the cross-
        // check lists it as dynamic-only.
        let r = check_src(
            r#"
            program dynonly {
                mpi_init();
                omp parallel num_threads(2) {
                    omp sections {
                        section { if (rank == 0) { mpi_send(to: 1, tag: 0, count: 1); } }
                        section { if (rank == 1) { mpi_recv(from: 0, tag: 0); } }
                    }
                }
                mpi_finalize();
            }
            "#,
        );
        assert!(r.has(ViolationKind::Initialization), "{}", r.render());
        assert!(
            r.dynamic_only
                .iter()
                .any(|v| v.kind == ViolationKind::Initialization),
            "{}",
            r.render()
        );
        assert!(r.render().contains("dynamic-only"), "{}", r.render());
    }

    #[test]
    fn serialized_level_with_concurrent_calls_is_init_violation() {
        let r = check_src(
            r#"
            program ser {
                mpi_init_thread(serialized);
                omp parallel num_threads(2) {
                    mpi_send(to: rank, tag: tid, count: 1);
                    mpi_recv(from: rank, tag: tid);
                }
                mpi_finalize();
            }
            "#,
        );
        assert!(r.has(ViolationKind::Initialization), "{}", r.render());
    }

    #[test]
    fn funneled_level_worker_calls_is_init_violation() {
        let r = check_src(
            r#"
            program fun {
                mpi_init_thread(funneled);
                omp parallel num_threads(2) {
                    mpi_send(to: rank, tag: tid, count: 1);
                    mpi_recv(from: rank, tag: tid);
                }
                mpi_finalize();
            }
            "#,
        );
        assert!(r.has(ViolationKind::Initialization), "{}", r.render());
    }

    #[test]
    fn concurrent_request_violation() {
        let r = check_src(
            r#"
            program req {
                mpi_init_thread(multiple);
                if (rank == 0) {
                    mpi_send(to: 1, tag: 0, count: 1);
                }
                if (rank == 1) {
                    mpi_irecv(from: 0, tag: 0, req: shared_r);
                    omp parallel num_threads(2) {
                        mpi_wait(req: shared_r);
                    }
                }
                mpi_finalize();
            }
            "#,
        );
        assert!(r.has(ViolationKind::ConcurrentRequest), "{}", r.render());
    }

    #[test]
    fn probe_violation() {
        let r = check_src(
            r#"
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
            "#,
        );
        assert!(r.has(ViolationKind::Probe), "{}", r.render());
    }

    #[test]
    fn collective_violation() {
        let r = check_src(
            r#"
            program coll {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) {
                    mpi_barrier();
                }
                mpi_finalize();
            }
            "#,
        );
        assert!(r.has(ViolationKind::CollectiveCall), "{}", r.render());
    }

    #[test]
    fn finalize_off_main_thread_is_violation() {
        let r = check_src(
            r#"
            program fin {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) {
                    if (tid == 1) { mpi_finalize(); }
                }
            }
            "#,
        );
        assert!(r.has(ViolationKind::Finalization), "{}", r.render());
    }

    #[test]
    fn collective_on_master_only_is_clean() {
        let r = check_src(
            r#"
            program ok {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) {
                    omp master { mpi_barrier(); }
                }
                mpi_finalize();
            }
            "#,
        );
        assert!(
            !r.has(ViolationKind::CollectiveCall),
            "master-only collective is safe: {}",
            r.render()
        );
    }

    #[test]
    fn lock_protected_sends_are_not_recv_violations() {
        let r = check_src(
            r#"
            program locked {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) {
                    if (rank == 0) {
                        omp critical(mpi) { mpi_send(to: 1, tag: 0, count: 1); }
                    }
                }
                if (rank == 1) {
                    mpi_recv(from: 0, tag: 0);
                    mpi_recv(from: 0, tag: 0);
                }
                mpi_finalize();
            }
            "#,
        );
        assert!(
            !r.has(ViolationKind::ConcurrentRecv),
            "critical-section sends are serialized: {}",
            r.render()
        );
    }

    #[test]
    fn static_stats_flow_into_report() {
        let r = check_src(
            r#"
            program stats {
                mpi_init_thread(multiple);
                mpi_barrier();
                omp parallel num_threads(2) { omp master { mpi_barrier(); } }
                mpi_finalize();
            }
            "#,
        );
        assert_eq!(r.static_stats.total_mpi_calls, 4);
        assert_eq!(r.static_stats.instrumented, 1);
        assert_eq!(r.runs, 4);
        assert!(r.total_events > 0);
    }

    #[test]
    fn parallel_check_matches_serial_byte_for_byte() {
        // The acceptance bar for the fan-out: across >= 4 seeds, the
        // rendered report with jobs=1 and jobs=N must be identical, and so
        // must every merged field the renderer does not show.
        let program = parse(
            r#"
            program par {
                mpi_init_thread(multiple);
                shared int tag = 0;
                omp parallel num_threads(2) {
                    if (rank == 0) {
                        mpi_send(to: 1, tag: tag, count: 1);
                        mpi_recv(from: 1, tag: tag);
                    }
                    if (rank == 1) {
                        mpi_recv(from: 0, tag: tag);
                        mpi_send(to: 0, tag: tag, count: 1);
                    }
                }
                mpi_finalize();
            }
            "#,
        )
        .unwrap();
        let seeds = vec![1, 2, 3, 4, 5, 6];
        let serial = check(
            &program,
            &CheckOptions::default()
                .with_seeds(seeds.clone())
                .with_jobs(1),
        );
        for jobs in [2, 4, 8] {
            let parallel = check(
                &program,
                &CheckOptions::default()
                    .with_seeds(seeds.clone())
                    .with_jobs(jobs),
            );
            assert_eq!(serial.render(), parallel.render(), "render at jobs={jobs}");
            assert_eq!(serial.runs, parallel.runs, "runs at jobs={jobs}");
            assert_eq!(
                serial.total_events, parallel.total_events,
                "events at jobs={jobs}"
            );
            assert_eq!(
                serial.violations, parallel.violations,
                "violations at jobs={jobs}"
            );
            assert_eq!(
                serial.races.len(),
                parallel.races.len(),
                "race count at jobs={jobs}"
            );
            assert_eq!(
                format!("{:?}", serial.races),
                format!("{:?}", parallel.races),
                "race order at jobs={jobs}"
            );
            assert_eq!(
                format!("{:?}", serial.deadlocks),
                format!("{:?}", parallel.deadlocks),
                "deadlocks at jobs={jobs}"
            );
        }
        assert!(serial.has(ViolationKind::ConcurrentRecv));
    }

    #[test]
    fn failing_seed_is_isolated_and_marks_report_partial() {
        // One injected failure among four seeds: the other three must
        // still contribute, the failed seed gets a Failed entry, and the
        // report is flagged partial.
        let program = parse(
            r#"
            program iso {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) { mpi_barrier(); }
                mpi_finalize();
            }
            "#,
        )
        .unwrap();
        let opts = CheckOptions::default()
            .with_seeds(vec![1, 2, 3, 4])
            .with_fail_seeds(vec![3]);
        let r = check(&program, &opts);
        assert!(r.partial);
        assert_eq!(r.runs, 3, "three of four seeds completed");
        assert_eq!(r.seed_runs.len(), 4, "every seed has a status entry");
        let failed: Vec<&SeedRun> = r.seed_runs.iter().filter(|s| !s.is_ok()).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].seed, 3);
        match &failed[0].status {
            SeedStatus::Failed { error } => {
                assert!(error.contains("injected failure"), "{error}")
            }
            other => panic!("unexpected status {other:?}"),
        }
        // The surviving seeds still find the violation.
        assert!(r.has(ViolationKind::CollectiveCall), "{}", r.render());
        let text = r.render();
        assert!(text.contains("PARTIAL RESULTS"), "{text}");
        assert!(text.contains("seed 3: FAILED"), "{text}");
    }

    #[test]
    fn partial_report_is_byte_identical_across_jobs() {
        let program = parse(
            r#"
            program isopar {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) { mpi_barrier(); }
                mpi_finalize();
            }
            "#,
        )
        .unwrap();
        let seeds = vec![1, 2, 3, 4, 5, 6];
        let serial = check(
            &program,
            &CheckOptions::default()
                .with_seeds(seeds.clone())
                .with_fail_seeds(vec![2, 5])
                .with_jobs(1),
        );
        assert!(serial.partial);
        assert_eq!(serial.runs, 4);
        for jobs in [2, 3, 4, 8] {
            let parallel = check(
                &program,
                &CheckOptions::default()
                    .with_seeds(seeds.clone())
                    .with_fail_seeds(vec![2, 5])
                    .with_jobs(jobs),
            );
            assert_eq!(serial.render(), parallel.render(), "render at jobs={jobs}");
            assert_eq!(
                format!("{:?}", serial.seed_runs),
                format!("{:?}", parallel.seed_runs),
                "seed status at jobs={jobs}"
            );
        }
    }

    /// Every schedule of `stuck` deadlocks (one message, two receivers),
    /// so every seed's parked tasks still share the session with the
    /// pipeline when it is finished: the session must finish all the same,
    /// with the violation, the deadlock and the seed boundary delivered.
    #[test]
    fn a_deadlocked_seed_still_finishes_its_session() {
        #[derive(Default)]
        struct Boundaries(std::sync::Mutex<Vec<(u64, String, usize)>>);
        impl ViolationSink for Boundaries {
            fn violation(&self, _v: &crate::report::EmittedViolation) {}
            fn seed_finished(
                &self,
                seed: u64,
                status: &SeedStatus,
                violations: &[crate::report::Violation],
            ) {
                let mut seen = self.0.lock().unwrap();
                seen.push((seed, format!("{status:?}"), violations.len()));
            }
        }
        let program = parse(
            r#"
            program stuck {
                mpi_init_thread(multiple);
                if (rank == 0) { mpi_send(to: 1, tag: 0, count: 1); }
                if (rank == 1) { omp parallel num_threads(2) { mpi_recv(from: 0, tag: 0); } }
                mpi_finalize();
            }
            "#,
        )
        .unwrap();
        let run = |jobs: usize| {
            let sink = Arc::new(Boundaries::default());
            let options = CheckOptions::default()
                .with_seeds(vec![1, 2, 3])
                .with_jobs(jobs);
            let report = check_with_sink(&program, &options, sink.clone());
            let mut boundaries = sink.0.lock().unwrap().clone();
            boundaries.sort();
            (report, boundaries)
        };
        let (serial, serial_boundaries) = run(1);
        assert!(!serial.partial, "{}", serial.render());
        assert_eq!(serial.deadlocks.len(), 3, "{}", serial.render());
        assert!(
            serial.has(ViolationKind::ConcurrentRecv),
            "{}",
            serial.render()
        );
        let seeds: Vec<u64> = serial_boundaries.iter().map(|b| b.0).collect();
        assert_eq!(seeds, [1, 2, 3], "one seed_finished per seed");
        assert!(
            serial_boundaries
                .iter()
                .all(|(_, status, violations)| status.starts_with("Ok") && *violations == 1),
            "{serial_boundaries:?}"
        );
        let (parallel, parallel_boundaries) = run(2);
        assert_eq!(serial.render(), parallel.render());
        assert_eq!(serial_boundaries, parallel_boundaries);
    }

    #[test]
    fn all_seeds_failing_yields_empty_partial_report() {
        let program = parse(
            r#"
            program allfail {
                mpi_init_thread(multiple);
                mpi_finalize();
            }
            "#,
        )
        .unwrap();
        let opts = CheckOptions::default()
            .with_seeds(vec![7, 8])
            .with_fail_seeds(vec![7, 8]);
        let r = check(&program, &opts);
        assert!(r.partial);
        assert_eq!(r.runs, 0);
        assert!(r.violations.is_empty());
        assert!(r.seed_runs.iter().all(|s| !s.is_ok()));
    }

    #[test]
    fn report_renders_violations() {
        let r = check_src(
            r#"
            program render {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) { mpi_barrier(); }
                mpi_finalize();
            }
            "#,
        );
        let text = r.render();
        assert!(text.contains("isCollectiveCallViolation"));
        assert!(text.contains("render.hmp"));
    }
}
