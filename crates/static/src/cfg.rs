//! Control-flow graph construction over the IR.
//!
//! The CFG serves two purposes, mirroring the paper:
//! 1. a *linearized* node list with explicit `ompParallelBegin`/
//!    `ompParallelEnd` markers — the exact structure Algorithm 1 iterates;
//! 2. real successor edges for reachability (MPI calls in unreachable code
//!    are never instrumented).

use home_ir::{NodeId, Stmt, StmtKind};
use std::collections::VecDeque;

/// Which OpenMP construct a begin/end marker belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OmpRegionKind {
    Parallel,
    For,
    Sections,
    Single,
    Master,
    Critical,
}

/// One CFG node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CfgNode {
    /// Function entry.
    Entry,
    /// Function exit.
    Exit,
    /// A simple statement (decl, assign, compute, MPI call, omp barrier).
    Stmt(NodeId),
    /// A branch head (`if` condition).
    Branch(NodeId),
    /// A loop head (`for` / `omp for`).
    LoopHead(NodeId),
    /// Start of an OpenMP structured block.
    OmpBegin(NodeId, OmpRegionKind),
    /// End of an OpenMP structured block.
    OmpEnd(NodeId, OmpRegionKind),
}

/// The control-flow graph of a program.
#[derive(Debug, Clone)]
pub(crate) struct Cfg {
    /// Nodes; index 0 is [`CfgNode::Entry`], index 1 is [`CfgNode::Exit`].
    pub nodes: Vec<CfgNode>,
    /// Directed edges as (from, to) node indices.
    pub edges: Vec<(usize, usize)>,
}

const ENTRY: usize = 0;
const EXIT: usize = 1;

impl Cfg {
    /// Build a CFG over an arbitrary statement block (used per function
    /// for the interprocedural analysis).
    pub(crate) fn build_block(stmts: &[Stmt]) -> Cfg {
        let mut b = Builder {
            nodes: vec![CfgNode::Entry, CfgNode::Exit],
            edges: Vec::new(),
        };
        let last = b.block(stmts, ENTRY);
        b.edge(last, EXIT);
        Cfg {
            nodes: b.nodes,
            edges: b.edges,
        }
    }

    /// Successors of node `n`.
    pub(crate) fn succs(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges
            .iter()
            .filter(move |&&(f, _)| f == n)
            .map(|&(_, t)| t)
    }

    /// Node indices reachable from entry.
    pub(crate) fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = VecDeque::from([ENTRY]);
        seen[ENTRY] = true;
        while let Some(n) = queue.pop_front() {
            for s in self.succs(n) {
                if !seen[s] {
                    seen[s] = true;
                    queue.push_back(s);
                }
            }
        }
        seen
    }

    /// The linearized node sequence in program order — what Algorithm 1
    /// iterates. (Construction pushes nodes in program order, so this is
    /// simply the node list minus entry/exit.)
    pub(crate) fn linearized(&self) -> impl Iterator<Item = (usize, &CfgNode)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != ENTRY && *i != EXIT)
    }
}

struct Builder {
    nodes: Vec<CfgNode>,
    edges: Vec<(usize, usize)>,
}

impl Builder {
    fn push(&mut self, node: CfgNode) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.edges.push((from, to));
    }

    /// Wire `stmts` sequentially after `pred`; returns the last node.
    fn block(&mut self, stmts: &[Stmt], mut pred: usize) -> usize {
        for s in stmts {
            pred = self.stmt(s, pred);
        }
        pred
    }

    /// Wire one statement after `pred`; returns its "after" node.
    fn stmt(&mut self, s: &Stmt, pred: usize) -> usize {
        match &s.kind {
            StmtKind::If {
                then_block,
                else_block,
                ..
            } => {
                let head = self.push(CfgNode::Branch(s.id));
                self.edge(pred, head);
                let then_last = self.block(then_block, head);
                let else_last = self.block(else_block, head);
                // Join node: reuse a synthetic Stmt? Use the branch's end by
                // adding a no-op join via edges into the *next* statement.
                // We model the join by returning a fresh join marker node.
                let join = self.push(CfgNode::Stmt(s.id));
                self.edge(then_last, join);
                self.edge(else_last, join);
                join
            }
            StmtKind::For { body, .. } => {
                let head = self.push(CfgNode::LoopHead(s.id));
                self.edge(pred, head);
                let body_last = self.block(body, head);
                // Back edge and fall-through.
                self.edge(body_last, head);
                head
            }
            StmtKind::OmpParallel { body, .. } => {
                self.region(s, body, OmpRegionKind::Parallel, pred)
            }
            StmtKind::OmpFor { body, .. } => {
                let begin = self.push(CfgNode::OmpBegin(s.id, OmpRegionKind::For));
                self.edge(pred, begin);
                let head = self.push(CfgNode::LoopHead(s.id));
                self.edge(begin, head);
                let body_last = self.block(body, head);
                self.edge(body_last, head);
                let end = self.push(CfgNode::OmpEnd(s.id, OmpRegionKind::For));
                self.edge(head, end);
                end
            }
            StmtKind::OmpSections { sections } => {
                let begin = self.push(CfgNode::OmpBegin(s.id, OmpRegionKind::Sections));
                self.edge(pred, begin);
                let end = self.push(CfgNode::OmpEnd(s.id, OmpRegionKind::Sections));
                for sec in sections {
                    let last = self.block(sec, begin);
                    self.edge(last, end);
                }
                end
            }
            StmtKind::OmpSingle { body } => self.region(s, body, OmpRegionKind::Single, pred),
            StmtKind::OmpMaster { body } => self.region(s, body, OmpRegionKind::Master, pred),
            StmtKind::OmpCritical { body, .. } => {
                self.region(s, body, OmpRegionKind::Critical, pred)
            }
            _ => {
                let n = self.push(CfgNode::Stmt(s.id));
                self.edge(pred, n);
                n
            }
        }
    }

    fn region(&mut self, s: &Stmt, body: &[Stmt], kind: OmpRegionKind, pred: usize) -> usize {
        let begin = self.push(CfgNode::OmpBegin(s.id, kind));
        self.edge(pred, begin);
        let last = self.block(body, begin);
        let end = self.push(CfgNode::OmpEnd(s.id, kind));
        self.edge(last, end);
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use home_ir::parse;

    #[test]
    fn straight_line_cfg() {
        let p = parse("program s { mpi_init(); compute(1); mpi_finalize(); }").unwrap();
        let cfg = Cfg::build_block(&p.body);
        // entry, exit + 3 statements.
        assert_eq!(cfg.nodes.len(), 5);
        let reach = cfg.reachable();
        assert!(reach.iter().all(|&r| r));
    }

    #[test]
    fn parallel_region_markers_bracket_body() {
        let p =
            parse("program r { omp parallel num_threads(2) { mpi_barrier(); } mpi_finalize(); }")
                .unwrap();
        let cfg = Cfg::build_block(&p.body);
        let seq: Vec<&CfgNode> = cfg.linearized().map(|(_, n)| n).collect();
        let begin = seq
            .iter()
            .position(|n| matches!(n, CfgNode::OmpBegin(_, OmpRegionKind::Parallel)))
            .unwrap();
        let end = seq
            .iter()
            .position(|n| matches!(n, CfgNode::OmpEnd(_, OmpRegionKind::Parallel)))
            .unwrap();
        let barrier = seq
            .iter()
            .position(|n| {
                matches!(n, CfgNode::Stmt(_)) && {
                    if let CfgNode::Stmt(id) = n {
                        matches!(
                            p.stmt(*id).unwrap().kind,
                            home_ir::StmtKind::Mpi(home_ir::MpiStmt::Barrier { .. })
                        )
                    } else {
                        false
                    }
                }
            })
            .unwrap();
        assert!(begin < barrier && barrier < end, "begin<{barrier}<{end}");
    }

    #[test]
    fn if_branches_join() {
        let p =
            parse("program b { if (rank == 0) { compute(1); } else { compute(2); } compute(3); }")
                .unwrap();
        let cfg = Cfg::build_block(&p.body);
        // The branch head must have two successors.
        let (branch_ix, _) = cfg
            .linearized()
            .find(|(_, n)| matches!(n, CfgNode::Branch(_)))
            .unwrap();
        assert_eq!(cfg.succs(branch_ix).count(), 2);
        assert!(cfg.reachable().iter().all(|&r| r));
    }

    #[test]
    fn loop_has_back_edge() {
        let p = parse("program l { for i in 0..3 { compute(i); } }").unwrap();
        let cfg = Cfg::build_block(&p.body);
        let (head_ix, _) = cfg
            .linearized()
            .find(|(_, n)| matches!(n, CfgNode::LoopHead(_)))
            .unwrap();
        // Some node has an edge back to the loop head.
        assert!(
            cfg.edges.iter().any(|&(f, t)| t == head_ix && f > head_ix),
            "missing back edge"
        );
    }

    #[test]
    fn sections_fan_out_and_rejoin() {
        let p = parse(
            "program s { omp parallel { omp sections { section { compute(1); } section { compute(2); } } } }",
        )
        .unwrap();
        let cfg = Cfg::build_block(&p.body);
        let (begin_ix, _) = cfg
            .linearized()
            .find(|(_, n)| matches!(n, CfgNode::OmpBegin(_, OmpRegionKind::Sections)))
            .unwrap();
        assert_eq!(cfg.succs(begin_ix).count(), 2, "one successor per section");
    }

    #[test]
    fn omp_for_emits_begin_loop_end() {
        let p = parse("program f { omp parallel { omp for i in 0..4 { compute(1); } } }").unwrap();
        let cfg = Cfg::build_block(&p.body);
        let kinds: Vec<String> = cfg.linearized().map(|(_, n)| format!("{n:?}")).collect();
        assert!(kinds
            .iter()
            .any(|k| k.contains("OmpBegin") && k.contains("For")));
        assert!(kinds.iter().any(|k| k.contains("LoopHead")));
        assert!(kinds
            .iter()
            .any(|k| k.contains("OmpEnd") && k.contains("For")));
    }
}
