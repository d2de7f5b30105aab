//! Static deadlock / violation candidates.
//!
//! A *candidate* is a site-level warning the static phase can justify
//! before any run: it names the pattern, the line, and — when the pattern
//! maps onto one of the paper's six violation classes — the predicate the
//! dynamic phase would report. `home-core` cross-checks candidates against
//! the dynamic findings (confirmed / not reproduced / dynamic-only).
//!
//! Two passes, both over the interprocedural facts already attached to the
//! checklist sites plus the function summaries:
//!
//! 1. **Wait-cycle candidates** ([`CandidateKind::PotentialDeadlock`]):
//!    a blocking MPI call executed while a critical section is provably
//!    held, in a context where multiple threads run — sibling threads
//!    serialize behind the lock while the call waits on a peer, so any
//!    peer-side dependency on this process closes a wait cycle. Plus the
//!    classic lock-order inversion: two lock pairs acquired in opposite
//!    nesting orders anywhere in the program.
//! 2. **Unprotected monitored writes**
//!    ([`CandidateKind::UnprotectedMonitoredWrite`]): a multi-thread site
//!    with no must-held lock whose envelope cannot distinguish threads —
//!    a receive/probe whose tag and peer are not thread-distinct, or any
//!    collective — i.e. the statically visible shape of the concurrent-
//!    recv, probe, and collective-call violations.

use crate::checklist::StaticCallSite;
use crate::summary::Summaries;
use home_ir::{Program, Stmt, StmtKind};
use std::collections::BTreeSet;

/// The two candidate classes the static phase emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateKind {
    /// A wait cycle is statically possible (blocking call under a lock in
    /// a multi-threaded context, or a lock-order inversion).
    PotentialDeadlock,
    /// A monitored variable is written with no protecting lock and no
    /// thread-distinct envelope.
    UnprotectedMonitoredWrite,
}

impl CandidateKind {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CandidateKind::PotentialDeadlock => "potential deadlock",
            CandidateKind::UnprotectedMonitoredWrite => "unprotected monitored write",
        }
    }
}

/// One static candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticCandidate {
    /// Candidate class.
    pub kind: CandidateKind,
    /// 1-based source line of the implicated site.
    pub line: u32,
    /// Surface name of the implicated call (`mpi_recv`, …), or a lock-pair
    /// description for lock-order inversions.
    pub site: String,
    /// Why the static phase flags it.
    pub description: String,
    /// The paper predicate the dynamic phase would report if the candidate
    /// manifests (`None` for deadlock candidates — deadlocks are reported
    /// outside the six classes).
    pub violation_hint: Option<String>,
}

/// MPI calls that block until a peer (or the whole communicator) makes
/// progress: receives, synchronous sends, completions, probes, collectives.
fn is_blocking(site: &StaticCallSite) -> bool {
    site.is_collective
        || matches!(
            site.name.as_str(),
            "mpi_recv" | "mpi_ssend" | "mpi_wait" | "mpi_waitall" | "mpi_probe"
        )
}

/// Run both candidate passes.
pub(crate) fn candidates(
    program: &Program,
    sites: &[StaticCallSite],
    summaries: &Summaries,
) -> Vec<StaticCandidate> {
    let mut out = Vec::new();

    for site in sites.iter().filter(|s| s.instrument) {
        // Pass 1a: blocking call under a must-held lock, multiple threads.
        if site.multi_thread && !site.must_locks.is_empty() && is_blocking(site) {
            out.push(StaticCandidate {
                kind: CandidateKind::PotentialDeadlock,
                line: site.line,
                site: site.name.clone(),
                description: format!(
                    "blocking {} while holding critical({}) in a multi-threaded region: \
                     sibling threads serialize behind the lock while the call waits on a peer",
                    site.name,
                    site.must_locks.join(", "),
                ),
                violation_hint: None,
            });
        }
        // Pass 2: unprotected monitored write with a colliding envelope.
        if site.multi_thread && site.must_locks.is_empty() {
            let tag_distinct = site.tag_thread_distinct.unwrap_or(false);
            let peer_distinct = site.peer_thread_distinct.unwrap_or(false);
            let hint = match site.name.as_str() {
                "mpi_recv" | "mpi_irecv" if !tag_distinct && !peer_distinct => {
                    Some("isConcurrentRecvViolation")
                }
                "mpi_probe" | "mpi_iprobe" if !tag_distinct && !peer_distinct => {
                    Some("isProbeViolation")
                }
                _ if site.is_collective => Some("isCollectiveCallViolation"),
                _ => None,
            };
            if let Some(hint) = hint {
                out.push(StaticCandidate {
                    kind: CandidateKind::UnprotectedMonitoredWrite,
                    line: site.line,
                    site: site.name.clone(),
                    description: format!(
                        "{} from multiple threads with no lock held and no \
                         thread-distinct envelope",
                        site.name
                    ),
                    violation_hint: Some(hint.to_string()),
                });
            }
        }
    }

    // Pass 1b: lock-order inversion anywhere in the program.
    let pairs = lock_order_pairs(program, summaries);
    let mut seen = BTreeSet::new();
    for (a, b, line) in &pairs {
        if a == b {
            continue;
        }
        let inverse = pairs.iter().find(|(x, y, _)| x == b && y == a);
        if let Some((_, _, line2)) = inverse {
            let key = if a < b {
                (a.clone(), b.clone())
            } else {
                (b.clone(), a.clone())
            };
            if seen.insert(key) {
                out.push(StaticCandidate {
                    kind: CandidateKind::PotentialDeadlock,
                    line: *line.min(line2),
                    site: format!("critical({a})/critical({b})"),
                    description: format!(
                        "lock-order inversion: critical({a}) is entered while holding \
                         critical({b}) and vice versa (lines {line} and {line2})",
                    ),
                    violation_hint: None,
                });
            }
        }
    }

    out.sort_by(|x, y| (x.line, &x.site).cmp(&(y.line, &y.site)));
    out
}

/// Ordered lock pairs `(held, acquired, line)`: somewhere, `acquired` is
/// entered while `held` is held — intraprocedurally (nested criticals, with
/// the body owner's entry locks as base) and interprocedurally (a call made
/// under locks into a function that may acquire more).
fn lock_order_pairs(program: &Program, summaries: &Summaries) -> Vec<(String, String, u32)> {
    let mut pairs = Vec::new();
    let mut base: Vec<String> = Vec::new();
    nested_pairs(&program.body, &mut base, &mut pairs);
    for func in &program.functions {
        let mut base: Vec<String> = summaries.entry_locks(&func.name).iter().cloned().collect();
        nested_pairs(&func.body, &mut base, &mut pairs);
    }
    for edge in &summaries.graph.edges {
        if let Some(callee) = summaries.get(&edge.callee) {
            for held in summaries.edge_locks(edge) {
                for acquired in &callee.locks_acquired {
                    pairs.push((held.clone(), acquired.clone(), edge.line));
                }
            }
        }
    }
    pairs
}

fn nested_pairs(stmts: &[Stmt], held: &mut Vec<String>, pairs: &mut Vec<(String, String, u32)>) {
    for s in stmts {
        if let StmtKind::OmpCritical { name, body } = &s.kind {
            for h in held.iter() {
                pairs.push((h.clone(), name.clone(), s.line));
            }
            held.push(name.clone());
            nested_pairs(body, held, pairs);
            held.pop();
        } else {
            for b in s.kind.blocks() {
                nested_pairs(b, held, pairs);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::analyze;
    use home_ir::parse;

    fn candidates_of(src: &str) -> Vec<StaticCandidate> {
        analyze(&parse(src).unwrap()).candidates
    }

    #[test]
    fn blocking_recv_under_interprocedural_lock_is_a_deadlock_candidate() {
        let cs = candidates_of(
            r#"
            program dl {
                fn fetch() { mpi_recv(from: 0, tag: 4); }
                fn relay() { call fetch(); }
                mpi_init_thread(multiple);
                omp parallel num_threads(2) {
                    omp critical(net) { call relay(); }
                }
                mpi_finalize();
            }
            "#,
        );
        let dl = cs
            .iter()
            .find(|c| c.kind == CandidateKind::PotentialDeadlock)
            .expect("deadlock candidate");
        assert_eq!(dl.site, "mpi_recv");
        assert!(
            dl.description.contains("critical(net)"),
            "{}",
            dl.description
        );
        assert!(dl.violation_hint.is_none());
    }

    #[test]
    fn unprotected_recv_and_collective_are_flagged_with_hints() {
        let cs = candidates_of(
            r#"
            program up {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) {
                    mpi_recv(from: 0, tag: 7);
                    mpi_barrier();
                }
                mpi_finalize();
            }
            "#,
        );
        let hints: Vec<&str> = cs
            .iter()
            .filter_map(|c| c.violation_hint.as_deref())
            .collect();
        assert!(hints.contains(&"isConcurrentRecvViolation"), "{cs:?}");
        assert!(hints.contains(&"isCollectiveCallViolation"), "{cs:?}");
        assert!(cs
            .iter()
            .all(|c| c.kind == CandidateKind::UnprotectedMonitoredWrite));
    }

    #[test]
    fn thread_distinct_envelope_and_serialized_sites_are_clean() {
        let cs = candidates_of(
            r#"
            program clean {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) {
                    mpi_recv(from: 0, tag: tid);
                    omp master { mpi_barrier(); }
                }
                mpi_finalize();
            }
            "#,
        );
        assert!(cs.is_empty(), "{cs:?}");
    }

    #[test]
    fn lock_order_inversion_is_one_deduplicated_candidate() {
        let cs = candidates_of(
            r#"
            program abba {
                omp parallel num_threads(2) {
                    omp critical(a) { omp critical(b) { compute(1); } }
                    omp critical(b) { omp critical(a) { compute(1); } }
                }
            }
            "#,
        );
        let dl: Vec<&StaticCandidate> = cs
            .iter()
            .filter(|c| c.kind == CandidateKind::PotentialDeadlock)
            .collect();
        assert_eq!(dl.len(), 1, "{cs:?}");
        assert!(dl[0].site.contains("critical(a)"));
        assert!(dl[0].site.contains("critical(b)"));
    }

    #[test]
    fn interprocedural_lock_order_inversion_is_found() {
        let cs = candidates_of(
            r#"
            program iabba {
                fn takes_b() { omp critical(b) { compute(1); } }
                fn takes_a() { omp critical(a) { compute(1); } }
                omp parallel num_threads(2) {
                    omp critical(a) { call takes_b(); }
                    omp critical(b) { call takes_a(); }
                }
            }
            "#,
        );
        assert!(
            cs.iter()
                .any(|c| c.kind == CandidateKind::PotentialDeadlock && c.site.contains("critical")),
            "{cs:?}"
        );
    }
}
