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
//! Three strategies, layered on [`home_interp::SchedPolicy::Priority`]:
//!
//! * **PCT priority schedules** ([`Strategy::Pct`]) — every thread draws a
//!   random priority at spawn, the highest-priority runnable thread always
//!   runs, and `d` seed-derived priority-change points demote the would-be
//!   winner. For a bug of depth `d` this finds it with probability
//!   ≥ 1/(k·n^(d-1)) per schedule (Burckhardt et al., ASPLOS 2010) —
//!   polynomial where uniform random is exponential. Each schedule is the
//!   reproducible token `(seed, depth)`.
//! * **Race-directed rescheduling** ([`Strategy::Directed`]) — when a run
//!   surfaces a *suspect* (a plain-variable race, or a monitored race the
//!   rules could not classify), the explorer re-runs the same seed with
//!   the two racing threads' priorities pinned to flip the observed order
//!   of the two accesses, forcing the interleaving that would confirm or
//!   kill the suspicion.
//! * **DPOR-lite pruning** (always on) — every executed schedule is
//!   reduced to a [`schedule_fingerprint`]: a hash of its
//!   happens-before-relevant per-rank event projections. Detection is
//!   per-rank, so two schedules with equal fingerprints get identical
//!   verdicts; the second one is counted as *deduplicated* and skipped
//!   instead of re-detected.
//!
//! The [`explore`] budget loop fans fixed-size schedule batches over the
//! same indexed fan-out the seed pipeline uses, so reports are
//! byte-identical for every `--jobs` value, and aggregates violations by
//! the core identity key `(kind, rank, locations)` — first schedule to
//! find a violation wins the attribution.

use crate::fanout::fan_out_indexed;
use crate::fingerprint::schedule_fingerprint;
use crate::token::{ScheduleToken, DIRECTED_HIGH, DIRECTED_LOW};
use crate::{
    analyze_run, violation_identity, CheckOptions, SessionOutcome, Violation, ViolationIdentity,
};
use home_interp::{run_with_sink, RunConfig, RunResult};
use home_ir::Program;
use home_static::analyze;
use home_stream::{DetectorConfig, Race, RaceAccess};
use home_trace::{HomeError, MemorySink, Rank};
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// PCT priority schedules (all base schedules are priority schedules).
    Pct,
    /// Seeded uniform-random schedules — the paper's default coverage and
    /// the baseline the guided strategies are measured against.
    Random,
    /// Random base schedules plus race-directed flips of every suspect
    /// they surface.
    Directed,
    /// PCT base schedules plus race-directed flips.
    All,
}

impl Strategy {
    /// Parse a `--strategy` value.
    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "pct" => Some(Strategy::Pct),
            "random" => Some(Strategy::Random),
            "directed" => Some(Strategy::Directed),
            "all" => Some(Strategy::All),
            _ => None,
        }
    }

    /// CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Pct => "pct",
            Strategy::Random => "random",
            Strategy::Directed => "directed",
            Strategy::All => "all",
        }
    }

    fn launches_directed(self) -> bool {
        matches!(self, Strategy::Directed | Strategy::All)
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
            strategy: Strategy::All,
            depth: 3,
            jobs: crate::default_jobs(),
            base_seed: 1,
            detector: DetectorConfig::hybrid(),
        }
    }
}

/// One violation with its discovery provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct FoundViolation {
    /// The classified violation.
    pub violation: Violation,
    /// The strategy whose schedule found it first (`Pct`/`Random` for base
    /// schedules, `Directed` for flips).
    pub found_by: Strategy,
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
    /// Directed flips launched from suspects.
    pub directed_launched: usize,
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
        let _ = writeln!(
            out,
            "directed flips launched: {}; deadlocking schedules: {}",
            c.directed_launched, c.deadlocks
        );
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
                    f.violation, f.found_by, f.schedule_index, f.token
                );
                let _ = writeln!(
                    out,
                    "    reproduce: home check {program} {}{}",
                    self.shape_flags,
                    f.token.repro_flags()
                );
            }
            let mut by: Vec<(&'static str, usize)> = Vec::new();
            for f in &self.violations {
                match by.iter_mut().find(|(s, _)| *s == f.found_by.label()) {
                    Some((_, n)) => *n += 1,
                    None => by.push((f.found_by.label(), 1)),
                }
            }
            let _ = writeln!(
                out,
                "first finder: {}",
                by.iter()
                    .map(|(s, n)| format!("{s} x{n}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        if let Some(t) = &self.first_deadlock {
            let _ = writeln!(out, "first deadlock under token {t}");
        }
        out
    }
}

/// Explore `program`'s schedule space (see the crate docs).
pub fn explore(program: &Program, options: &ExploreOptions) -> ExploreReport {
    let static_report = analyze(program);
    let checklist = Arc::new(static_report.checklist.clone());
    // Every schedule runs the same copy.
    let program = Arc::new(program.clone());

    let mut next_seed = options.base_seed;
    let mut directed_queue: VecDeque<ScheduleToken> = VecDeque::new();
    let mut directed_seen: BTreeSet<(u64, Vec<(String, i64)>)> = BTreeSet::new();
    let mut fingerprints: BTreeSet<u64> = BTreeSet::new();
    let mut found_ids: BTreeSet<ViolationIdentity> = BTreeSet::new();
    let mut report = ExploreReport::default();
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
        // 1. Assemble one round of tokens. Directed flips queued by earlier
        //    rounds take precedence over fresh base schedules.
        let mut round: Vec<(Strategy, ScheduleToken)> = Vec::new();
        while round.len() < ROUND && report.coverage.attempted + round.len() < options.budget {
            if options.strategy.launches_directed() {
                if let Some(tok) = directed_queue.pop_front() {
                    report.coverage.directed_launched += 1;
                    round.push((Strategy::Directed, tok));
                    continue;
                }
            }
            let seed = next_seed;
            next_seed += 1;
            let entry = match options.strategy {
                Strategy::Pct | Strategy::All => {
                    (Strategy::Pct, ScheduleToken::pct(seed, options.depth))
                }
                Strategy::Random | Strategy::Directed => {
                    (Strategy::Random, ScheduleToken::random(seed))
                }
            };
            round.push(entry);
        }

        // 2. Simulate the round in parallel (indexed slots keep order); the
        //    worker that ran a schedule fingerprints it.
        let sim_slots = fan_out_indexed(&round, options.jobs, |_, (_, tok)| {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut cfg = RunConfig::test(options.nprocs, tok.seed)
                    .with_checklist(Arc::clone(&checklist));
                cfg.threads_per_proc = options.threads_per_proc;
                cfg.sched.policy = tok.policy();
                cfg.sched.priority_pins = tok.pins.clone();
                let sink = Rc::new(RefCell::new(MemorySink::new()));
                let mut result = run_with_sink(&program, &cfg, sink.clone());
                result.trace = sink.borrow_mut().drain();
                (schedule_fingerprint(&result), result)
            }))
        });

        // 3. Serial pass in attempt order: dedup by fingerprint and keep the
        //    novel runs for detection.
        let round_len = round.len();
        let mut novel: Vec<(usize, Strategy, ScheduleToken, RunResult)> = Vec::new();
        for (i, (slot, (origin, tok))) in sim_slots.into_iter().zip(round).enumerate() {
            let attempt = report.coverage.attempted + i + 1;
            match slot {
                Some(Ok((fingerprint, result))) => {
                    if fingerprints.insert(fingerprint) {
                        novel.push((attempt, origin, tok, result));
                    } else {
                        report.coverage.deduped += 1;
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
        let det_slots = fan_out_indexed(&novel, options.jobs, |_, (_, _, tok, result)| {
            std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<SessionOutcome, HomeError> {
                analyze_run(
                    tok.seed,
                    &options.detector,
                    &result.trace,
                    &result.mpi_errors,
                )
            }))
        });

        // 5. Merge in attempt order: aggregate violations by identity
        //    (first finder wins) and harvest suspects into directed flips.
        for (slot, (attempt, origin, tok, result)) in det_slots.into_iter().zip(novel) {
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
            for v in outcome.violations {
                if found_ids.insert(violation_identity(&v)) {
                    report.violations.push(FoundViolation {
                        violation: v,
                        found_by: origin,
                        schedule_index: attempt,
                        token: tok.clone(),
                    });
                }
            }
            if options.strategy.launches_directed() {
                let suspects = outcome
                    .races
                    .iter()
                    .filter(|r| !r.is_monitored())
                    .chain(outcome.unclassified.iter());
                for race in suspects {
                    let Some(pins) = flip_pins(race) else {
                        continue;
                    };
                    if directed_seen.insert((tok.seed, pins.clone())) {
                        directed_queue.push_back(ScheduleToken::directed(tok.seed, pins));
                    }
                }
            }
        }
    }
    report
}

/// The scheduler thread name executing one racing access, when it can be
/// named: the rank's master thread runs inline on the rank thread
/// (`rank{r}`), workers are spawned per region instance
/// (`rank{r}.r{region}.t{tid}`).
fn access_thread_name(rank: Rank, access: &RaceAccess) -> Option<String> {
    if access.tid.0 == 0 {
        Some(format!("rank{}", rank.0))
    } else {
        access
            .region
            .map(|r| format!("rank{}.r{}.t{}", rank.0, r.0, access.tid.0))
    }
}

/// Pins that flip the observed order of a suspect race's two accesses:
/// the *later* access's thread is pinned above every random draw, the
/// *earlier* one below everything, so the directed re-run executes them
/// in the opposite order.
fn flip_pins(race: &Race) -> Option<Vec<(String, i64)>> {
    let hi = access_thread_name(race.rank, &race.second)?;
    let lo = access_thread_name(race.rank, &race.first)?;
    if hi == lo {
        return None;
    }
    Some(vec![(hi, DIRECTED_HIGH), (lo, DIRECTED_LOW)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use home_trace::{AccessKind, MemLoc, RegionId, SrcLoc, Tid, VarId};

    fn access(tid: u32, region: Option<u64>) -> RaceAccess {
        RaceAccess {
            seq: 1,
            tid: Tid(tid),
            region: region.map(RegionId),
            kind: AccessKind::Write,
            loc: Some(SrcLoc::new("x.hmp", 3)),
            mpi: None,
        }
    }

    #[test]
    fn flip_pins_name_both_sides() {
        let race = Race {
            rank: Rank(1),
            loc: MemLoc::Var(VarId(0)),
            first: access(0, None),
            second: access(1, Some(4)),
        };
        let pins = flip_pins(&race).unwrap();
        assert_eq!(
            pins,
            vec![
                ("rank1.r4.t1".to_string(), DIRECTED_HIGH),
                ("rank1".to_string(), DIRECTED_LOW),
            ]
        );
    }

    #[test]
    fn flip_pins_skip_unnameable_and_same_thread_races() {
        let unnameable = Race {
            rank: Rank(0),
            loc: MemLoc::Var(VarId(0)),
            first: access(1, None), // worker without a region: no name
            second: access(0, None),
        };
        assert_eq!(flip_pins(&unnameable), None);
        let same = Race {
            rank: Rank(0),
            loc: MemLoc::Var(VarId(0)),
            first: access(0, None),
            second: access(0, None),
        };
        assert_eq!(flip_pins(&same), None);
    }

    #[test]
    fn strategy_parsing() {
        assert_eq!(Strategy::parse("pct"), Some(Strategy::Pct));
        assert_eq!(Strategy::parse("random"), Some(Strategy::Random));
        assert_eq!(Strategy::parse("directed"), Some(Strategy::Directed));
        assert_eq!(Strategy::parse("all"), Some(Strategy::All));
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
