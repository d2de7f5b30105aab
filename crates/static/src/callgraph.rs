//! Call graph with per-edge execution context.
//!
//! Every `call f()` statement becomes one [`CallEdge`] carrying the facts
//! the interprocedural summaries need about the *call site*: whether it
//! sits inside an `omp parallel` region, whether a serializing construct
//! (`master`, `single`, one `section`) guards it, and which critical
//! sections are lexically held around it. The bottom-up summary pass
//! ([`crate::summary`]) folds these contexts over the graph.

use home_ir::{Program, Stmt, StmtKind};
use std::collections::BTreeSet;

/// One `call` statement, with the execution context of its call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CallEdge {
    /// Calling function, `None` for the program's main body.
    pub caller: Option<String>,
    /// Callee name (may name no defined function; such edges are kept so
    /// diagnostics can see them, but summaries ignore them).
    pub callee: String,
    /// Source line of the `call` statement.
    pub line: u32,
    /// The call site is lexically inside an `omp parallel` region.
    pub in_parallel: bool,
    /// A serializing construct (`master`/`single`/one `section`) guards the
    /// call site: at most one thread per region instance executes it.
    pub serialized: bool,
    /// Critical-section names lexically held around the call site.
    pub locks_held: BTreeSet<String>,
}

/// The program's call graph: one edge per `call` statement.
#[derive(Debug, Clone, Default)]
pub(crate) struct CallGraph {
    /// All edges, in program order (main body first, then each function).
    pub edges: Vec<CallEdge>,
}

impl CallGraph {
    /// Build the call graph of `program`.
    pub(crate) fn build(program: &Program) -> CallGraph {
        let mut edges = Vec::new();
        let mut ctx = WalkCtx::default();
        walk(&program.body, None, &mut ctx, &mut edges);
        for func in &program.functions {
            let mut ctx = WalkCtx::default();
            walk(&func.body, Some(func.name.as_str()), &mut ctx, &mut edges);
        }
        CallGraph { edges }
    }

    /// Edges whose callee is `name`.
    pub(crate) fn callers_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a CallEdge> {
        self.edges.iter().filter(move |e| e.callee == name)
    }

    /// Edges originating in `caller` (`None` = main body).
    pub(crate) fn edges_from<'a>(
        &'a self,
        caller: Option<&'a str>,
    ) -> impl Iterator<Item = &'a CallEdge> {
        self.edges
            .iter()
            .filter(move |e| e.caller.as_deref() == caller)
    }
}

/// Lexical context accumulated while walking one body.
#[derive(Default)]
struct WalkCtx {
    parallel_depth: u32,
    serialize_depth: u32,
    locks: Vec<String>,
}

fn walk(stmts: &[Stmt], caller: Option<&str>, ctx: &mut WalkCtx, edges: &mut Vec<CallEdge>) {
    for s in stmts {
        match &s.kind {
            StmtKind::Call { name } => edges.push(CallEdge {
                caller: caller.map(str::to_string),
                callee: name.clone(),
                line: s.line,
                in_parallel: ctx.parallel_depth > 0,
                serialized: ctx.serialize_depth > 0,
                locks_held: ctx.locks.iter().cloned().collect(),
            }),
            StmtKind::OmpParallel { body, .. } => {
                ctx.parallel_depth += 1;
                walk(body, caller, ctx, edges);
                ctx.parallel_depth -= 1;
            }
            StmtKind::OmpMaster { body } | StmtKind::OmpSingle { body } => {
                ctx.serialize_depth += 1;
                walk(body, caller, ctx, edges);
                ctx.serialize_depth -= 1;
            }
            StmtKind::OmpSections { sections } => {
                ctx.serialize_depth += 1;
                for sec in sections {
                    walk(sec, caller, ctx, edges);
                }
                ctx.serialize_depth -= 1;
            }
            StmtKind::OmpCritical { name, body } => {
                ctx.locks.push(name.clone());
                walk(body, caller, ctx, edges);
                ctx.locks.pop();
            }
            other => {
                for b in other.blocks() {
                    walk(b, caller, ctx, edges);
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

    #[test]
    fn edges_carry_call_site_context() {
        let p = parse(
            r#"
            program cg {
                fn inner() { mpi_barrier(); }
                fn outer() { call inner(); }
                mpi_init_thread(multiple);
                omp parallel num_threads(2) {
                    omp critical(gate) { call outer(); }
                    omp master { call inner(); }
                }
                call outer();
                mpi_finalize();
            }
            "#,
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        // Main body: three call sites; `outer` body: one.
        assert_eq!(cg.edges.len(), 4);
        let gated = cg
            .edges
            .iter()
            .find(|e| e.caller.is_none() && e.callee == "outer" && e.in_parallel)
            .unwrap();
        assert!(gated.locks_held.contains("gate"));
        assert!(!gated.serialized);
        let mastered = cg
            .edges
            .iter()
            .find(|e| e.callee == "inner" && e.caller.is_none())
            .unwrap();
        assert!(mastered.serialized, "master serializes the call site");
        let sequential = cg
            .edges
            .iter()
            .find(|e| e.caller.is_none() && e.callee == "outer" && !e.in_parallel)
            .unwrap();
        assert!(sequential.locks_held.is_empty());
        let nested = cg.edges_from(Some("outer")).next().unwrap();
        assert_eq!(nested.callee, "inner");
        assert!(!nested.in_parallel, "context is per call site, not global");
        assert_eq!(cg.callers_of("inner").count(), 2);
    }

    #[test]
    fn sections_serialize_their_call_sites() {
        let p = parse(
            r#"
            program sec {
                fn f() { mpi_barrier(); }
                omp parallel num_threads(2) {
                    omp sections { section { call f(); } }
                }
            }
            "#,
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        assert!(cg.edges[0].serialized);
        assert!(cg.edges[0].in_parallel);
    }
}
