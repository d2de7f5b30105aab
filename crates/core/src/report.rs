//! Violation and report types.

use home_interp::DeadlockInfo;
use home_interp::MpiIncident;
use home_static::{CandidateKind, StaticCandidate, StaticStats};
use home_stream::Race;
use home_trace::{Rank, SrcLoc, Tid};
use std::fmt;

/// The six thread-safety violation classes of the paper's Section III-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ViolationKind {
    /// `isInitializationViolation` — MPI used from threads in a way the
    /// initialized thread level forbids.
    Initialization,
    /// `isMPIFinalizationViolation` — finalize off the main thread, after
    /// pending communication, or concurrently with other calls.
    Finalization,
    /// `isConcurrentRecvViolation` — concurrent receives on one process
    /// whose source/tag/communicator do not differentiate the messages.
    ConcurrentRecv,
    /// `isConcurrentRequestViolation` — `MPI_Wait`/`MPI_Test` on the same
    /// request from two threads.
    ConcurrentRequest,
    /// `isProbeViolation` — concurrent probe vs probe/receive with the same
    /// envelope on one communicator.
    Probe,
    /// `isCollectiveCallViolation` — one communicator used concurrently by
    /// collective calls from threads of the same process.
    CollectiveCall,
}

impl ViolationKind {
    /// All six, in the paper's order.
    pub const ALL: [ViolationKind; 6] = [
        ViolationKind::Initialization,
        ViolationKind::Finalization,
        ViolationKind::ConcurrentRecv,
        ViolationKind::ConcurrentRequest,
        ViolationKind::Probe,
        ViolationKind::CollectiveCall,
    ];

    /// The paper's predicate name.
    pub fn predicate(self) -> &'static str {
        match self {
            ViolationKind::Initialization => "isInitializationViolation",
            ViolationKind::Finalization => "isMPIFinalizationViolation",
            ViolationKind::ConcurrentRecv => "isConcurrentRecvViolation",
            ViolationKind::ConcurrentRequest => "isConcurrentRequestViolation",
            ViolationKind::Probe => "isProbeViolation",
            ViolationKind::CollectiveCall => "isCollectiveCallViolation",
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.predicate())
    }
}

/// One detected thread-safety violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Violation class.
    pub kind: ViolationKind,
    /// The MPI process it occurred on.
    pub rank: Rank,
    /// Human-readable explanation.
    pub description: String,
    /// Source locations involved (deduplicated, sorted).
    pub locations: Vec<SrcLoc>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on {}: {}", self.kind, self.rank, self.description)?;
        if !self.locations.is_empty() {
            write!(f, " [")?;
            for (i, l) in self.locations.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// The deduplication key for a [`Violation`]: two violations with the same
/// kind, rank, and location set are the same finding, regardless of which
/// seed or schedule surfaced them. Used by the check pipeline's cross-seed
/// merge, the serve daemon's cross-section merge, and the exploration
/// engine's cross-schedule aggregation.
pub type ViolationIdentity = (ViolationKind, Rank, Vec<SrcLoc>);

/// The [`ViolationIdentity`] of `v`.
pub fn violation_identity(v: &Violation) -> ViolationIdentity {
    (v.kind, v.rank, v.locations.clone())
}

/// Deterministic position of one emission in the canonical (batch) rule
/// evaluation order.
///
/// The online rule engine emits violations the moment their evidence is
/// complete, which interleaves rules temporally; the batch report lists
/// them rule-major. Every emission therefore carries the key it *would*
/// have in the batch order — `(rule, stage, major, minor)` compared
/// lexicographically — so sorting a seed's emissions by key and keeping
/// the first of each `(kind, rank, locations)` reproduces the batch
/// violation list exactly (parity-test-enforced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EmitOrder {
    /// Rule index in the paper's order (0 = initialization … 5 = collective).
    pub rule: u8,
    /// Sub-stage within the rule (e.g. finalization: 0 = off-main-thread
    /// finalize, 1 = call-after-finalize incident, 2 = concurrent finalize).
    pub stage: u8,
    /// Primary position within the stage: the rank for per-rank and
    /// per-race stages, the evidence index for incident/finalize stages.
    pub major: u64,
    /// Secondary position: the per-rank race discovery index for race
    /// stages, 0 elsewhere.
    pub minor: u64,
}

impl EmitOrder {
    /// Construct a key (stages and indices documented on the fields).
    pub fn new(rule: u8, stage: u8, major: u64, minor: u64) -> EmitOrder {
        EmitOrder {
            rule,
            stage,
            major,
            minor,
        }
    }
}

/// One violation as produced by the online rule engine, with full
/// provenance: which seed's run it came from, which threads were involved,
/// where it sits in the canonical order, and whether it was emitted live
/// (from an `observe_*` call, before the run finished) or by the engine's
/// end-of-seed `finish` pass (rules that need whole-run evidence, such as
/// the `MPI_THREAD_SINGLE` call count).
#[derive(Debug, Clone, PartialEq)]
pub struct EmittedViolation {
    /// Scheduler seed of the run that produced the evidence.
    pub seed: u64,
    /// Position in the canonical batch evaluation order.
    pub order: EmitOrder,
    /// True when emitted from an `observe_*` call while evidence was still
    /// arriving; false for emissions completed only by `finish`.
    pub live: bool,
    /// OpenMP threads involved in the evidence (both sides of a race, the
    /// offending thread of a misplaced call), when known.
    pub threads: Vec<Tid>,
    /// The classified violation.
    pub violation: Violation,
}

impl fmt::Display for EmittedViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[seed {}] {}", self.seed, self.violation)?;
        if !self.threads.is_empty() {
            write!(f, " (")?;
            for (i, t) in self.threads.iter().enumerate() {
                if i > 0 {
                    write!(f, " vs ")?;
                }
                write!(f, "{t}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// What happened to one scheduler seed's simulate→detect→match chain.
#[derive(Debug, Clone, PartialEq)]
pub enum SeedStatus {
    /// The chain completed and its results are merged into the report.
    Ok {
        /// Instrumentation events the run recorded.
        events: u64,
        /// Monitored-variable races the dynamic phase found.
        races: usize,
        /// Violations matched (before cross-seed deduplication).
        violations: usize,
    },
    /// The chain panicked or returned a typed error; its results are
    /// missing from the report and [`HomeReport::partial`] is set.
    Failed {
        /// Failure description (panic payload or error message).
        error: String,
    },
}

/// Per-seed status entry, in seed-list order.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedRun {
    /// The scheduler seed.
    pub seed: u64,
    /// How its chain ended.
    pub status: SeedStatus,
}

impl SeedRun {
    /// Did this seed's chain complete?
    pub fn is_ok(&self) -> bool {
        matches!(self.status, SeedStatus::Ok { .. })
    }
}

/// Outcome of cross-checking one static candidate against the dynamic
/// findings of the same check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateStatus {
    /// The dynamic phase produced a matching finding.
    Confirmed,
    /// No checked schedule reproduced the candidate: either a static
    /// false positive, or a schedule-dependent issue the seed set missed.
    NotReproduced,
}

impl CandidateStatus {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CandidateStatus::Confirmed => "confirmed",
            CandidateStatus::NotReproduced => "not reproduced",
        }
    }
}

/// One static candidate with its cross-check verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateOutcome {
    /// The static phase's warning.
    pub candidate: StaticCandidate,
    /// What the dynamic phase made of it.
    pub status: CandidateStatus,
}

/// Does candidate `c` cover violation `v` (same predicate, same line)?
fn covers(c: &StaticCandidate, v: &Violation) -> bool {
    c.violation_hint.as_deref() == Some(v.kind.predicate())
        && v.locations.iter().any(|l| l.line == c.line)
}

/// Final output of a HOME check: merged violations plus supporting data.
#[derive(Debug, Default)]
pub struct HomeReport {
    /// Deduplicated violations across all checked schedules.
    pub violations: Vec<Violation>,
    /// Raw concurrency results on monitored variables (the dynamic phase's
    /// output before rule matching).
    pub races: Vec<Race>,
    /// Monitored-variable races the rules could not classify because one or
    /// both accesses carry no MPI call record (degraded diagnostics, not
    /// violations — see `home_core::RuleOutcome`).
    pub unclassified: Vec<Race>,
    /// Static-phase statistics.
    pub static_stats: StaticStats,
    /// Deadlocks observed, with the seed that produced them.
    pub deadlocks: Vec<(u64, DeadlockInfo)>,
    /// Non-fatal MPI misuse incidents across runs.
    pub incidents: Vec<MpiIncident>,
    /// Per-seed status, one entry per requested seed in seed-list order.
    pub seed_runs: Vec<SeedRun>,
    /// True when at least one seed's chain failed: the report covers only
    /// the seeds that completed. `home check` exits with code 3.
    pub partial: bool,
    /// Number of schedules executed (completed seeds only).
    pub runs: usize,
    /// Total instrumentation events recorded across runs.
    pub total_events: u64,
    /// Static candidates with their cross-check verdicts (empty unless
    /// [`HomeReport::cross_check`] ran).
    pub candidates: Vec<CandidateOutcome>,
    /// Violations no static candidate covered: purely dynamic findings.
    pub dynamic_only: Vec<Violation>,
    /// True when this report went through a static-vs-dynamic cross-check
    /// (replay/ingest reports have no static phase and stay false).
    pub cross_checked: bool,
}

impl HomeReport {
    /// Is a violation of `kind` present?
    pub fn has(&self, kind: ViolationKind) -> bool {
        self.violations.iter().any(|v| v.kind == kind)
    }

    /// Violations of one kind.
    pub fn of_kind(&self, kind: ViolationKind) -> Vec<&Violation> {
        self.violations.iter().filter(|v| v.kind == kind).collect()
    }

    /// Distinct violation kinds found.
    pub fn kinds(&self) -> Vec<ViolationKind> {
        let mut ks: Vec<ViolationKind> = self.violations.iter().map(|v| v.kind).collect();
        ks.sort_unstable();
        ks.dedup();
        ks
    }

    /// Cross-check the static phase's candidates against this report's
    /// dynamic findings: each candidate becomes confirmed (a matching
    /// dynamic finding exists) or not-reproduced, and violations no
    /// candidate predicted are collected as dynamic-only.
    ///
    /// A deadlock candidate is confirmed by any observed deadlock; an
    /// unprotected-write candidate by a violation whose predicate matches
    /// the candidate's hint at the candidate's line.
    pub(crate) fn cross_check(&mut self, candidates: &[StaticCandidate]) {
        self.cross_checked = true;
        self.candidates = candidates
            .iter()
            .map(|c| {
                let confirmed = match c.kind {
                    CandidateKind::PotentialDeadlock => !self.deadlocks.is_empty(),
                    CandidateKind::UnprotectedMonitoredWrite => {
                        self.violations.iter().any(|v| covers(c, v))
                    }
                };
                CandidateOutcome {
                    candidate: c.clone(),
                    status: if confirmed {
                        CandidateStatus::Confirmed
                    } else {
                        CandidateStatus::NotReproduced
                    },
                }
            })
            .collect();
        self.dynamic_only = self
            .violations
            .iter()
            .filter(|v| !candidates.iter().any(|c| covers(c, v)))
            .cloned()
            .collect();
    }

    /// Render the final report as text (what the tool prints).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "=== HOME thread-safety report ===");
        let _ = writeln!(
            out,
            "static: {} MPI call sites, {} instrumented, {} skipped ({} regions, {} error-free)",
            self.static_stats.total_mpi_calls,
            self.static_stats.instrumented,
            self.static_stats.skipped,
            self.static_stats.regions,
            self.static_stats.error_free_regions,
        );
        let _ = writeln!(
            out,
            "dynamic: {} schedule(s), {} events, {} monitored-variable race(s)",
            self.runs,
            self.total_events,
            self.races.len()
        );
        if !self.seed_runs.is_empty() {
            let ok = self.seed_runs.iter().filter(|r| r.is_ok()).count();
            let _ = writeln!(out, "seeds: {ok} ok, {} failed", self.seed_runs.len() - ok);
            for r in &self.seed_runs {
                match &r.status {
                    SeedStatus::Ok {
                        events,
                        races,
                        violations,
                    } => {
                        let _ = writeln!(
                            out,
                            "  seed {}: ok ({events} events, {races} race(s), {violations} violation(s))",
                            r.seed
                        );
                    }
                    SeedStatus::Failed { error } => {
                        let _ = writeln!(out, "  seed {}: FAILED ({error})", r.seed);
                    }
                }
            }
        }
        if self.partial {
            let _ = writeln!(
                out,
                "PARTIAL RESULTS: the report covers only the seeds that completed"
            );
        }
        if !self.unclassified.is_empty() {
            let _ = writeln!(
                out,
                "warning: {} monitored race(s) lacked MPI call metadata and were not classified",
                self.unclassified.len()
            );
        }
        if self.violations.is_empty() {
            let _ = writeln!(out, "no thread-safety violations detected");
        } else {
            let _ = writeln!(out, "{} violation(s):", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "  - {v}");
            }
        }
        for (seed, d) in &self.deadlocks {
            let _ = writeln!(out, "deadlock under seed {seed}: {d}");
        }
        if self.cross_checked && !(self.candidates.is_empty() && self.dynamic_only.is_empty()) {
            let confirmed = self
                .candidates
                .iter()
                .filter(|c| c.status == CandidateStatus::Confirmed)
                .count();
            let _ = writeln!(
                out,
                "static candidates: {} ({confirmed} confirmed, {} not reproduced)",
                self.candidates.len(),
                self.candidates.len() - confirmed,
            );
            for c in &self.candidates {
                let _ = writeln!(
                    out,
                    "  * [{}] {} at line {} ({}): {}",
                    c.status.label(),
                    c.candidate.kind.label(),
                    c.candidate.line,
                    c.candidate.site,
                    c.candidate.description,
                );
            }
            if !self.dynamic_only.is_empty() {
                let _ = writeln!(
                    out,
                    "dynamic-only finding(s) with no static candidate: {}",
                    self.dynamic_only.len()
                );
                for v in &self.dynamic_only {
                    let _ = writeln!(out, "  * {v}");
                }
            }
        }
        for i in &self.incidents {
            let _ = writeln!(
                out,
                "runtime incident: rank {} line {} {}: {}",
                i.rank, i.line, i.call, i.error
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates_match_paper() {
        assert_eq!(
            ViolationKind::ALL.map(|k| k.predicate()),
            [
                "isInitializationViolation",
                "isMPIFinalizationViolation",
                "isConcurrentRecvViolation",
                "isConcurrentRequestViolation",
                "isProbeViolation",
                "isCollectiveCallViolation",
            ]
        );
    }

    #[test]
    fn partial_report_renders_seed_section() {
        let mut r = HomeReport {
            runs: 1,
            partial: true,
            ..HomeReport::default()
        };
        r.seed_runs.push(SeedRun {
            seed: 1,
            status: SeedStatus::Ok {
                events: 10,
                races: 0,
                violations: 0,
            },
        });
        r.seed_runs.push(SeedRun {
            seed: 2,
            status: SeedStatus::Failed {
                error: "injected failure".into(),
            },
        });
        let text = r.render();
        assert!(text.contains("seeds: 1 ok, 1 failed"), "{text}");
        assert!(text.contains("seed 2: FAILED (injected failure)"), "{text}");
        assert!(text.contains("PARTIAL RESULTS"), "{text}");
    }

    #[test]
    fn report_queries_and_render() {
        let mut r = HomeReport::default();
        r.violations.push(Violation {
            kind: ViolationKind::ConcurrentRecv,
            rank: Rank(1),
            description: "two receives with tag 0".into(),
            locations: vec![SrcLoc::new("x.hmp", 9)],
        });
        r.runs = 3;
        assert!(r.has(ViolationKind::ConcurrentRecv));
        assert!(!r.has(ViolationKind::Probe));
        assert_eq!(r.kinds(), vec![ViolationKind::ConcurrentRecv]);
        let text = r.render();
        assert!(text.contains("isConcurrentRecvViolation"));
        assert!(text.contains("x.hmp:9"));
        assert!(text.contains("1 violation"));
    }
}
