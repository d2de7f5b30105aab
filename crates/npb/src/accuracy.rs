//! Accuracy scoring: match a tool's violation report against the known
//! injections — the paper's detection table.

use crate::inject::{InjectedProgram, InjectionInfo};
use crate::params::{Benchmark, Class};
use home_baselines::{run_tool, Tool};
use home_core::{CheckOptions, HomeReport, Violation, ViolationKind};

/// One tool's score on one injected benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolScore {
    /// Tool label.
    pub tool: String,
    /// Injections whose violation the tool reported (true positives).
    pub detected: usize,
    /// Reported violations that match no injection (false positives).
    pub false_positives: usize,
    /// Total injections present.
    pub injected: usize,
}

impl ToolScore {
    /// The paper-table cell: detections plus false positives
    /// (e.g. ITC on BT: 6 detected + 1 FP = 7).
    pub fn reported(&self) -> usize {
        self.detected + self.false_positives
    }
}

/// Does `violation` account for `injection`?
///
/// Initialization (and the level-global half of finalization) are matched
/// by kind alone — a wrong thread level taints call sites program-wide, so
/// locations are not meaningful. Everything else must overlap the
/// episode's line range.
fn matches(violation: &Violation, injection: &InjectionInfo) -> bool {
    if violation.kind != injection.kind {
        return false;
    }
    if violation.kind == ViolationKind::Initialization {
        return true;
    }
    violation
        .locations
        .iter()
        .any(|l| l.line >= injection.lines.0 && l.line <= injection.lines.1)
}

/// Score a report against the injections.
pub fn score(tool: &str, report: &HomeReport, injections: &[InjectionInfo]) -> ToolScore {
    let detected = injections
        .iter()
        .filter(|inj| report.violations.iter().any(|v| matches(v, inj)))
        .count();
    let false_positives = report
        .violations
        .iter()
        .filter(|v| !injections.iter().any(|inj| matches(v, inj)))
        .count();
    ToolScore {
        tool: tool.to_string(),
        detected,
        false_positives,
        injected: injections.len(),
    }
}

/// The accuracy row of one benchmark: every tool's score.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Benchmark name (e.g. `NPB-MZ LU`).
    pub benchmark: String,
    /// Number of injected violations.
    pub injected: usize,
    /// Scores per tool, in [`Tool::ALL`] order minus Base.
    pub scores: Vec<ToolScore>,
}

/// Options used for the accuracy experiment: time-faithful scheduling (so
/// latent races stay latent for manifest-only tools) over a few seeds.
pub fn accuracy_options(nprocs: usize) -> CheckOptions {
    let mut o = CheckOptions::new(nprocs, 2).with_seeds(vec![11, 12]);
    o.sched_policy = home_sched::SchedPolicy::EarliestClockFirst;
    o
}

/// Run the full accuracy experiment row for one benchmark.
pub fn accuracy_row(benchmark: Benchmark, class: Class, nprocs: usize) -> AccuracyRow {
    let InjectedProgram {
        program,
        injections,
    } = crate::inject::build_injected(benchmark, class);
    let options = accuracy_options(nprocs);
    let scores = [Tool::Home, Tool::Itc, Tool::Marmot]
        .into_iter()
        .map(|t| {
            let report = run_tool(t, &program, &options);
            score(t.label(), &report, &injections)
        })
        .collect();
    AccuracyRow {
        benchmark: format!("NPB-MZ {}", benchmark.name().trim_end_matches("-MZ")),
        injected: injections.len(),
        scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_scores(b: Benchmark) -> (usize, usize, usize) {
        let row = accuracy_row(b, Class::S, 2);
        let get = |name: &str| {
            row.scores
                .iter()
                .find(|s| s.tool == name)
                .unwrap()
                .reported()
        };
        (get("HOME"), get("ITC"), get("MARMOT"))
    }

    #[test]
    fn lu_reproduces_paper_row() {
        // Paper: HOME 6, ITC 5, Marmot 5.
        assert_eq!(row_scores(Benchmark::LuMz), (6, 5, 5));
    }

    #[test]
    fn bt_reproduces_paper_row() {
        // Paper: HOME 6, ITC 7 (one false positive), Marmot 6.
        assert_eq!(row_scores(Benchmark::BtMz), (6, 7, 6));
    }

    #[test]
    fn sp_reproduces_paper_row() {
        // Paper: HOME 6, ITC 6, Marmot 5.
        assert_eq!(row_scores(Benchmark::SpMz), (6, 6, 5));
    }

    #[test]
    fn home_has_no_false_positives() {
        for b in Benchmark::ALL {
            let row = accuracy_row(b, Class::S, 2);
            let home = row.scores.iter().find(|s| s.tool == "HOME").unwrap();
            assert_eq!(home.false_positives, 0, "{b}");
            assert_eq!(home.detected, 6, "{b}");
        }
    }
}
