//! Bottom-up interprocedural function summaries.
//!
//! Replaces the former string-set fixpoints (`hybrid_context_functions`,
//! `mpi_bearing_functions`, `called_functions`) with one summary object per
//! function, computed over the [`CallGraph`]:
//!
//! * **reachable** — the function is invoked (transitively) from the main
//!   body;
//! * **hybrid_context** — some call chain places it inside an `omp
//!   parallel` region (Algorithm 1's interprocedural marking);
//! * **multi_context** — some call chain reaches it with more than one
//!   thread per region instance (no `master`/`single`/`section` guard on
//!   the way in);
//! * **entry_locks** — the *must* set of critical sections held whenever
//!   the function runs: the intersection over all live call contexts of
//!   the locks held at the call site plus the caller's own entry locks;
//! * **locks_acquired** — the *may* set of critical sections the function
//!   (or anything it calls) can acquire;
//! * **mpi_reachable** — MPI call names reachable through the function.
//!
//! The lattice is finite (sets over the program's lock/function/MPI names)
//! and every pass is a monotone fixpoint, so termination is structural.

use crate::callgraph::{CallEdge, CallGraph};
use home_ir::{Program, Stmt, StmtKind};
use std::collections::{BTreeMap, BTreeSet};

/// Interprocedural facts about one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSummary {
    /// Function name.
    pub name: String,
    /// Invoked (transitively) from the main body.
    pub reachable: bool,
    /// May execute inside an `omp parallel` region.
    pub hybrid_context: bool,
    /// May execute with more than one thread per region instance.
    pub multi_context: bool,
    /// Critical sections provably held on every invocation.
    pub entry_locks: BTreeSet<String>,
    /// Critical sections the function may acquire (transitively).
    pub locks_acquired: BTreeSet<String>,
    /// MPI call names reachable through the function (transitively).
    pub mpi_reachable: BTreeSet<String>,
}

/// All function summaries plus the call graph they were computed over.
#[derive(Debug, Clone, Default)]
pub struct Summaries {
    /// The underlying call graph.
    pub graph: CallGraph,
    map: BTreeMap<String, FnSummary>,
}

static EMPTY_LOCKS: BTreeSet<String> = BTreeSet::new();

impl Summaries {
    /// Compute summaries for every function in `program`.
    pub fn build(program: &Program) -> Summaries {
        let graph = CallGraph::build(program);
        let defined: BTreeSet<&str> = program.functions.iter().map(|f| f.name.as_str()).collect();

        // Direct facts (intraprocedural walk per function body).
        let mut direct_mpi: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
        let mut direct_locks: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
        for func in &program.functions {
            let (mut mpi, mut locks) = (BTreeSet::new(), BTreeSet::new());
            direct_facts(&func.body, &mut mpi, &mut locks);
            direct_mpi.insert(func.name.as_str(), mpi);
            direct_locks.insert(func.name.as_str(), locks);
        }

        // Reachability: BFS from the main body over defined callees.
        let mut reachable: BTreeSet<&str> = BTreeSet::new();
        let mut frontier: Vec<Option<&str>> = vec![None];
        while let Some(caller) = frontier.pop() {
            for edge in graph.edges_from(caller) {
                if let Some(&name) = defined.get(edge.callee.as_str()) {
                    if reachable.insert(name) {
                        frontier.push(Some(name));
                    }
                }
            }
        }

        // Hybrid / multi context: forward fixpoints over the edges. Hybrid
        // deliberately ignores reachability (matching the historical
        // marking); instrumentation requires both flags anyway.
        let mut hybrid: BTreeSet<&str> = BTreeSet::new();
        let mut multi: BTreeSet<&str> = BTreeSet::new();
        loop {
            let mut changed = false;
            for edge in &graph.edges {
                let Some(&callee) = defined.get(edge.callee.as_str()) else {
                    continue;
                };
                let caller_hybrid = edge.caller.as_deref().is_some_and(|c| hybrid.contains(c));
                let caller_multi = edge.caller.as_deref().is_some_and(|c| multi.contains(c));
                if edge.in_parallel || caller_hybrid {
                    changed |= hybrid.insert(callee);
                }
                if !edge.serialized && (edge.in_parallel || caller_multi) {
                    changed |= multi.insert(callee);
                }
            }
            if !changed {
                break;
            }
        }

        // Entry locks: descending meet-over-contexts fixpoint. `None` is ⊤
        // (no context seen yet); the meet of two contexts is intersection.
        // Only live contexts constrain: the main body, or a reachable
        // caller.
        let mut entry: BTreeMap<&str, Option<BTreeSet<String>>> =
            defined.iter().map(|f| (*f, None)).collect();
        loop {
            let mut changed = false;
            for &f in &defined {
                let mut acc: Option<BTreeSet<String>> = None;
                for edge in graph.callers_of(f) {
                    let ctx = match edge.caller.as_deref() {
                        None => Some(edge.locks_held.clone()),
                        Some(c) if reachable.contains(c) => {
                            entry.get(c).and_then(|e| e.clone()).map(|mut e| {
                                e.extend(edge.locks_held.iter().cloned());
                                e
                            })
                        }
                        Some(_) => continue,
                    };
                    acc = match (acc, ctx) {
                        (a, None) => a,
                        (None, c) => c,
                        (Some(a), Some(c)) => Some(&a & &c),
                    };
                }
                if let Some(new) = acc {
                    let slot = entry.entry(f).or_insert(None);
                    if slot.as_ref() != Some(&new) {
                        // The chain only descends (⊤ → sets shrinking), so
                        // replacing is the meet.
                        *slot = Some(new);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Transitive may-unions: locks acquired, MPI reachable.
        let mut locks_acq: BTreeMap<&str, BTreeSet<String>> = direct_locks.clone();
        let mut mpi_reach: BTreeMap<&str, BTreeSet<String>> = direct_mpi.clone();
        loop {
            let mut changed = false;
            for edge in &graph.edges {
                let (Some(caller), Some(callee)) = (
                    edge.caller.as_deref().and_then(|c| defined.get(c).copied()),
                    defined.get(edge.callee.as_str()).copied(),
                ) else {
                    continue;
                };
                for table in [&mut locks_acq, &mut mpi_reach] {
                    let from = table.get(callee).cloned().unwrap_or_default();
                    if let Some(into) = table.get_mut(caller) {
                        let before = into.len();
                        into.extend(from);
                        changed |= into.len() != before;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let map = program
            .functions
            .iter()
            .map(|func| {
                let name = func.name.as_str();
                (
                    func.name.clone(),
                    FnSummary {
                        name: func.name.clone(),
                        reachable: reachable.contains(name),
                        hybrid_context: hybrid.contains(name),
                        multi_context: multi.contains(name),
                        entry_locks: entry.get(name).cloned().flatten().unwrap_or_default(),
                        locks_acquired: locks_acq.get(name).cloned().unwrap_or_default(),
                        mpi_reachable: mpi_reach.get(name).cloned().unwrap_or_default(),
                    },
                )
            })
            .collect();
        Summaries { graph, map }
    }

    /// Summary of `name`, if the function is defined.
    pub fn get(&self, name: &str) -> Option<&FnSummary> {
        self.map.get(name)
    }

    /// May `name` execute inside a parallel region?
    pub fn hybrid(&self, name: &str) -> bool {
        self.get(name).is_some_and(|s| s.hybrid_context)
    }

    /// Is `name` invoked from the main body (transitively)?
    pub fn reachable(&self, name: &str) -> bool {
        self.get(name).is_some_and(|s| s.reachable)
    }

    /// May `name` execute with more than one thread per region instance?
    pub fn multi(&self, name: &str) -> bool {
        self.get(name).is_some_and(|s| s.multi_context)
    }

    /// Locks provably held whenever `name` runs.
    pub fn entry_locks(&self, name: &str) -> &BTreeSet<String> {
        self.get(name).map_or(&EMPTY_LOCKS, |s| &s.entry_locks)
    }

    /// Does `name` (transitively) contain MPI calls?
    pub fn mpi_bearing(&self, name: &str) -> bool {
        self.get(name).is_some_and(|s| !s.mpi_reachable.is_empty())
    }

    /// All summaries, in function-name order.
    pub fn iter(&self) -> impl Iterator<Item = &FnSummary> {
        self.map.values()
    }

    /// The live call-site lock context of `edge`: locks held at the call
    /// site plus the caller's own entry locks.
    pub fn edge_locks(&self, edge: &CallEdge) -> BTreeSet<String> {
        let mut held = edge.locks_held.clone();
        if let Some(caller) = edge.caller.as_deref() {
            held.extend(self.entry_locks(caller).iter().cloned());
        }
        held
    }
}

fn direct_facts(stmts: &[Stmt], mpi: &mut BTreeSet<String>, locks: &mut BTreeSet<String>) {
    for s in stmts {
        match &s.kind {
            StmtKind::Mpi(call) => {
                mpi.insert(call.name().to_string());
            }
            StmtKind::OmpCritical { name, body } => {
                locks.insert(name.clone());
                direct_facts(body, mpi, locks);
            }
            other => {
                for b in other.blocks() {
                    direct_facts(b, mpi, locks);
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use home_ir::parse;

    fn summaries(src: &str) -> Summaries {
        Summaries::build(&parse(src).unwrap())
    }

    #[test]
    fn two_deep_chain_propagates_context_and_locks() {
        let s = summaries(
            r#"
            program chain {
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
        let fetch = s.get("fetch").unwrap();
        assert!(fetch.reachable && fetch.hybrid_context && fetch.multi_context);
        assert_eq!(
            fetch.entry_locks.iter().collect::<Vec<_>>(),
            vec!["net"],
            "lock held by the outer frame reaches the innermost callee"
        );
        assert!(fetch.mpi_reachable.contains("mpi_recv"));
        let relay = s.get("relay").unwrap();
        assert!(relay.mpi_reachable.contains("mpi_recv"), "transitive MPI");
        assert!(s.mpi_bearing("relay"));
    }

    #[test]
    fn entry_locks_meet_over_contexts() {
        // One call under the lock, one without: the must-set is empty.
        let s = summaries(
            r#"
            program meet {
                fn f() { mpi_barrier(); }
                omp parallel num_threads(2) {
                    omp critical(a) { call f(); }
                    call f();
                }
            }
            "#,
        );
        assert!(s.entry_locks("f").is_empty());
        assert!(s.multi("f"));
    }

    #[test]
    fn serialized_call_sites_do_not_grant_multi_context() {
        let s = summaries(
            r#"
            program ser {
                fn f() { mpi_barrier(); }
                omp parallel num_threads(2) {
                    omp master { call f(); }
                }
            }
            "#,
        );
        assert!(s.hybrid("f"), "master still runs inside the region");
        assert!(!s.multi("f"), "but only one thread per instance");
    }

    #[test]
    fn uncalled_functions_are_unreachable_but_summarized() {
        let s = summaries(
            r#"
            program dead {
                fn ghost() { mpi_barrier(); }
                mpi_init_thread(multiple);
                mpi_finalize();
            }
            "#,
        );
        assert!(!s.reachable("ghost"));
        assert!(s.mpi_bearing("ghost"));
        assert!(!s.reachable("nosuch"), "undefined names are not reachable");
    }

    #[test]
    fn locks_acquired_is_transitive() {
        let s = summaries(
            r#"
            program locks {
                fn inner() { omp critical(b) { compute(1); } }
                fn outer() { call inner(); }
                omp parallel num_threads(2) { call outer(); }
            }
            "#,
        );
        assert!(s.get("outer").unwrap().locks_acquired.contains("b"));
    }
}
