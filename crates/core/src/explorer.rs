//! # `explorer` — guided schedule-space exploration
//!
//! The HOME detector is predictive (lockset + happens-before: races need
//! not manifest to be reported), but it can only analyze code that
//! *executed*. A schedule-dependent branch that never runs is invisible,
//! and seeded uniform-random interleaving — the checker's default — is
//! exactly the coverage strategy whose misses the paper measures in its
//! Marmot comparison. This module turns the deterministic step-token
//! scheduler into a bug hunter: it drives the existing
//! `sched`/`interp`/`core::Session` pipeline through many schedules,
//! choosing *which* schedules to run.
//!
//! Every schedule is the reproducible token `(seed, depth)`, drawn by one
//! of two strategies:
//!
//! * **PCT priority schedules** ([`Strategy::Pct`], the default) — every
//!   thread draws a random priority at spawn
//!   ([`home_interp::SchedPolicy::Priority`]), the highest-priority
//!   runnable thread always runs, and `d` seed-derived priority-change
//!   points demote the would-be winner. For a bug of depth `d` this finds
//!   it with probability ≥ 1/(k·n^(d-1)) per schedule (Burckhardt et al.,
//!   ASPLOS 2010) — polynomial where uniform random is exponential.
//! * **Seeded uniform random** ([`Strategy::Random`]) — `check`'s own
//!   policy, and the baseline schedules-to-first-violation is measured
//!   against.
//!
//! One pruning is always on:
//!
//! * **DPOR-lite pruning** — every executed schedule is
//!   reduced to a [`schedule_fingerprint`]: a hash of its
//!   happens-before-relevant per-rank event projections. Detection is
//!   per-rank, so two schedules with equal fingerprints get identical
//!   verdicts; the second one is counted as *deduplicated* and skipped
//!   instead of re-detected.
//!
//! Every schedule runs the way `check` runs a seed: the static phase
//! (`home_static::analyze`) runs once per exploration, and each schedule's
//! run configuration is [`CheckOptions::run_config`] of
//! [`ExploreOptions::check_options`] — HOME's instrumentation against that
//! checklist, the exploration's shape, the strategy's scheduling policy.
//! Only MPI calls inside hybrid regions and the monitored variables are
//! recorded, fingerprinted and analysed, and a token's `reproduce:` line
//! re-runs its schedule under the instrumentation that found it.
//!
//! The [`explore`] budget loop fans fixed-size schedule batches over the
//! same indexed fan-out the seed pipeline uses, so reports are
//! byte-identical for every `--jobs` value, and aggregates violations by
//! the core identity key `(kind, rank, locations)` — first schedule to
//! find a violation wins the attribution.

use crate::fanout::fan_out_indexed_on;
use crate::fingerprint::schedule_fingerprint;
use crate::token::ScheduleToken;
use crate::{CheckOptions, KeyedViolation, Session, SessionOutcome, Violation, ViolationIdentity};
use home_interp::{run_with_sink, RunResult};
use home_ir::Program;
use home_stream::DetectorConfig;
use home_trace::{Event, HomeError, MemorySink, Trace};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::Arc;

/// Schedules per exploration round. Fixed (never derived from `--jobs`):
/// the token sequence — and with it every statistic the report shows —
/// must be a function of `(program, strategy, seed, budget)` alone. Jobs
/// only parallelize *within* a round.
const ROUND: usize = 8;

/// Which schedules the explorer generates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Strategy {
    /// PCT priority schedules at the options' depth.
    #[default]
    Pct,
    /// Seeded uniform-random schedules — `check`'s policy and the baseline
    /// PCT is measured against.
    Random,
}

impl Strategy {
    /// Parse a `--strategy` value.
    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "pct" => Some(Strategy::Pct),
            "random" => Some(Strategy::Random),
            _ => None,
        }
    }

    /// CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Pct => "pct",
            Strategy::Random => "random",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Options for one exploration.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// MPI processes to simulate.
    pub nprocs: usize,
    /// OpenMP threads per process.
    pub threads_per_proc: usize,
    /// Total schedules to attempt (deduplicated and failed ones count —
    /// the budget bounds work, not luck).
    pub budget: usize,
    /// Schedule-generation strategy.
    pub strategy: Strategy,
    /// PCT depth `d` for priority schedules.
    pub depth: u8,
    /// Worker threads within each round (never affects the result set).
    pub jobs: usize,
    /// First base-schedule seed; base seeds count up from here.
    pub base_seed: u64,
    /// Dynamic-detector configuration.
    pub detector: DetectorConfig,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            nprocs: 2,
            threads_per_proc: 2,
            budget: 64,
            strategy: Strategy::Pct,
            depth: 3,
            jobs: crate::default_jobs(),
            base_seed: 1,
            detector: DetectorConfig::hybrid(),
        }
    }
}

impl ExploreOptions {
    /// The token of the schedule this exploration draws at `seed`.
    fn token(&self, seed: u64) -> ScheduleToken {
        match self.strategy {
            Strategy::Pct => ScheduleToken::pct(seed, self.depth),
            Strategy::Random => ScheduleToken::random(seed),
        }
    }

    /// The `check` options every schedule of this exploration runs under:
    /// this shape and detector, HOME's instrumentation and the scheduling
    /// policy of the strategy's tokens. A schedule's run configuration is
    /// their [`CheckOptions::run_config`] at its token's seed, the one `home
    /// check` runs for the token's `reproduce:` line.
    pub fn check_options(&self) -> CheckOptions {
        CheckOptions {
            detector: self.detector.clone(),
            sched_policy: self.token(self.base_seed).policy(),
            ..CheckOptions::new(self.nprocs, self.threads_per_proc)
        }
    }
}

/// One violation with its discovery provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct FoundViolation {
    /// The classified violation.
    pub violation: Violation,
    /// 1-based index of the finding schedule in attempt order — the
    /// "schedules to first violation" number.
    pub schedule_index: usize,
    /// The reproduction token.
    pub token: ScheduleToken,
}

/// Coverage statistics over one exploration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Schedules attempted (= budget unless the budget was not exhausted).
    pub attempted: usize,
    /// Schedules with a novel fingerprint, analyzed end to end.
    pub analyzed: usize,
    /// Schedules skipped as HB-equivalent to an earlier one.
    pub deduped: usize,
    /// Schedules whose simulate or detect chain failed.
    pub failed: usize,
    /// Schedules that ended in whole-system deadlock.
    pub deadlocks: usize,
}

/// Final output of one exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Deduplicated violations, in discovery order.
    pub violations: Vec<FoundViolation>,
    /// Coverage statistics.
    pub coverage: Coverage,
    /// First deadlocking schedule, when any schedule deadlocked.
    pub first_deadlock: Option<ScheduleToken>,
    /// True when at least one schedule's chain failed: the report covers
    /// only the schedules that completed.
    pub partial: bool,
    /// The strategy that drew every schedule.
    strategy: Strategy,
    /// The `--procs`/`--threads` flags the reproduction commands carry:
    /// empty at `check`'s default shape.
    shape_flags: String,
}

impl ExploreReport {
    /// Did the exploration find anything actionable (violation or
    /// deadlock)?
    pub fn found_anything(&self) -> bool {
        !self.violations.is_empty() || self.coverage.deadlocks > 0
    }

    /// Render the report as text. `program` names the checked file in the
    /// reproduction commands.
    pub fn render(&self, program: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let c = &self.coverage;
        let _ = writeln!(out, "=== HOME schedule exploration report ===");
        let _ = writeln!(
            out,
            "schedules: {} attempted, {} analyzed, {} deduplicated, {} failed",
            c.attempted, c.analyzed, c.deduped, c.failed
        );
        let _ = writeln!(out, "deadlocking schedules: {}", c.deadlocks);
        if self.partial {
            let _ = writeln!(
                out,
                "PARTIAL RESULTS: the report covers only the schedules that completed"
            );
        }
        if self.violations.is_empty() {
            let _ = writeln!(out, "no thread-safety violations detected");
        } else {
            let _ = writeln!(out, "{} violation(s):", self.violations.len());
            for f in &self.violations {
                let _ = writeln!(
                    out,
                    "  - {} [found by {} at schedule {}, token {}]",
                    f.violation, self.strategy, f.schedule_index, f.token
                );
                let _ = writeln!(
                    out,
                    "    reproduce: home check {program} {}{}",
                    self.shape_flags,
                    f.token.repro_flags()
                );
            }
            let _ = writeln!(
                out,
                "first finder: {} x{}",
                self.strategy,
                self.violations.len()
            );
        }
        if let Some(t) = &self.first_deadlock {
            let _ = writeln!(out, "first deadlock under token {t}");
        }
        out
    }
}

/// What one worker of an exploration reuses from schedule to schedule:
/// the buffers its runs record into and the session that analyses them.
/// Each schedule pays for its own decisions and events; the buffers and
/// the detector and rule state grow to the widest schedule seen and stay
/// there.
struct Worker {
    /// Emptied recording buffers of finished schedules.
    buffers: Vec<Vec<Event>>,
    session: Session,
}

/// Keep a finished schedule's recording buffer, emptied, for a later one.
fn recycle(spare: &mut Vec<Vec<Event>>, trace: Trace) {
    let mut events = trace.into_events();
    events.clear();
    spare.push(events);
}

/// Explore `program`'s schedule space (see the crate docs).
pub fn explore(program: &Program, options: &ExploreOptions) -> ExploreReport {
    // The static phase runs once; every schedule runs the same copy
    // against its checklist.
    let checklist = Arc::new(home_static::analyze(program).checklist);
    let program = Arc::new(program.clone());
    let check = options.check_options();
    // A round never has more chunks than schedules.
    let mut workers: Vec<Worker> = (0..options.jobs.clamp(1, ROUND))
        .map(|_| Worker {
            buffers: Vec::new(),
            session: Session::new(check.detector.clone()),
        })
        .collect();

    let mut next_seed = options.base_seed;
    let mut fingerprints: BTreeSet<u64> = BTreeSet::new();
    let mut found_ids: BTreeSet<ViolationIdentity> = BTreeSet::new();
    // Recording buffers back from the schedules of the last round, handed
    // out again before the next: a round's traces are alive together
    // until its merge.
    let mut spare: Vec<Vec<Event>> = Vec::new();
    // A violation's identity is looked up in a key kept for its buffer: a
    // schedule mostly re-finds what earlier ones found.
    let mut probe: Option<ViolationIdentity> = None;
    let mut report = ExploreReport {
        strategy: options.strategy,
        ..ExploreReport::default()
    };
    let check_shape = CheckOptions::default();
    if (options.nprocs, options.threads_per_proc)
        != (check_shape.nprocs, check_shape.threads_per_proc)
    {
        report.shape_flags = format!(
            "--procs {} --threads {} ",
            options.nprocs, options.threads_per_proc
        );
    }

    while report.coverage.attempted < options.budget {
        // 1. Assemble one round of tokens.
        let round_len = ROUND.min(options.budget - report.coverage.attempted);
        let round: Vec<ScheduleToken> = (next_seed..next_seed + round_len as u64)
            .map(|seed| options.token(seed))
            .collect();
        next_seed += round_len as u64;

        // 2. Simulate the round in parallel (indexed slots keep order); the
        //    worker that ran a schedule fingerprints it.
        let n = workers.len();
        for (i, buffer) in spare.drain(..).enumerate() {
            workers[i % n].buffers.push(buffer);
        }
        let sim_slots = fan_out_indexed_on(&round, &mut workers, |worker, _, tok| {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                let cfg = check.run_config(tok.seed, &checklist);
                let buffer = worker.buffers.pop().unwrap_or_default();
                let sink = Rc::new(RefCell::new(MemorySink::reusing(buffer)));
                let mut result = run_with_sink(&program, &cfg, sink.clone());
                result.trace = sink.borrow_mut().drain();
                (schedule_fingerprint(&result), result)
            }))
        });

        // 3. Serial pass in attempt order: dedup by fingerprint and keep the
        //    novel runs for detection.
        let mut novel: Vec<(usize, ScheduleToken, RunResult)> = Vec::new();
        for (i, (slot, tok)) in sim_slots.into_iter().zip(round).enumerate() {
            let attempt = report.coverage.attempted + i + 1;
            match slot {
                Some(Ok((fingerprint, result))) => {
                    if fingerprints.insert(fingerprint) {
                        novel.push((attempt, tok, result));
                    } else {
                        report.coverage.deduped += 1;
                        recycle(&mut spare, result.trace);
                    }
                }
                _ => {
                    report.coverage.failed += 1;
                    report.partial = true;
                }
            }
        }
        report.coverage.attempted += round_len;

        // 4. Detect + classify the novel runs in parallel.
        let det_slots = fan_out_indexed_on(&novel, &mut workers, |worker, _, (_, _, result)| {
            std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<SessionOutcome, HomeError> {
                worker.session.restart();
                worker.session.analyze(&result.trace, &result.mpi_errors)
            }))
        });

        // 5. Merge in attempt order: aggregate violations by identity
        //    (first finder wins).
        for (slot, (attempt, tok, mut result)) in det_slots.into_iter().zip(novel) {
            recycle(&mut spare, std::mem::take(&mut result.trace));
            let outcome = match slot {
                Some(Ok(Ok(o))) => o,
                _ => {
                    report.coverage.failed += 1;
                    report.partial = true;
                    continue;
                }
            };
            report.coverage.analyzed += 1;
            if result.deadlock.is_some() {
                report.coverage.deadlocks += 1;
                if report.first_deadlock.is_none() {
                    report.first_deadlock = Some(tok.clone());
                }
            }
            for KeyedViolation { violation: v, .. } in outcome.violations {
                let key = probe.get_or_insert_with(|| (v.kind, v.rank, Vec::new()));
                (key.0, key.1) = (v.kind, v.rank);
                key.2.clone_from(&v.locations);
                if !found_ids.contains(key) {
                    found_ids.insert(key.clone());
                    report.violations.push(FoundViolation {
                        violation: v,
                        schedule_index: attempt,
                        token: tok.clone(),
                    });
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_parsing() {
        assert_eq!(Strategy::parse("pct"), Some(Strategy::Pct));
        assert_eq!(Strategy::parse("random"), Some(Strategy::Random));
        assert_eq!(Strategy::parse("directed"), None);
        assert_eq!(Strategy::parse("all"), None);
        assert_eq!(Strategy::parse("dfs"), None);
    }

    #[test]
    fn explore_finds_figure1_violation() {
        let program = home_ir::parse(
            r#"
            program fig1 {
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
        )
        .unwrap();
        let options = ExploreOptions {
            budget: 8,
            ..ExploreOptions::default()
        };
        let report = explore(&program, &options);
        assert!(report.found_anything(), "{}", report.render("fig1.hmp"));
        assert!(!report.partial);
        assert_eq!(report.coverage.attempted, 8);
        let first = &report.violations[0];
        assert!(first.schedule_index >= 1);
        assert!(first.token.repro_flags().contains("--seeds"));
    }
}
