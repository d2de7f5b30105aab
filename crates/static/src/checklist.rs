//! The instrumentation checklist produced by the static phase and consumed
//! by the interpreter's selective instrumentation.

use home_ir::{IrThreadLevel, NodeId};
use std::collections::BTreeSet;

/// Static facts about one MPI call site.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticCallSite {
    /// IR node of the call.
    pub node: NodeId,
    /// 1-based source line.
    pub line: u32,
    /// Surface function name (`mpi_send`, …).
    pub name: String,
    /// Inside an `omp parallel` region (Algorithm 1's marking)?
    pub in_hybrid_region: bool,
    /// Reachable from program entry?
    pub reachable: bool,
    /// Replace with the instrumented HMPI wrapper?
    /// (`in_hybrid_region && reachable` — the paper's filter.)
    pub instrument: bool,
    /// Is the call a collective?
    pub is_collective: bool,
    /// `Some(true)` when the tag argument is provably thread-distinct
    /// (e.g. `tag = tid`); `None` when the call has no tag argument.
    pub tag_thread_distinct: Option<bool>,
    /// Same for the source/destination argument.
    pub peer_thread_distinct: Option<bool>,
    /// For `mpi_init`/`mpi_init_thread`: the requested thread level.
    pub init_level: Option<IrThreadLevel>,
    /// Monitored variables this site's wrapper must store. `Some(set)` —
    /// possibly empty — is authoritative; `None` means the checklist was
    /// stripped back to the coarse model, and the interpreter falls back to
    /// its per-kind table.
    pub monitored: Option<Vec<String>>,
    /// Critical-section names provably held whenever this site executes
    /// (interprocedural must-intersection over all call contexts).
    pub must_locks: Vec<String>,
    /// Can two threads of one team reach this site within the same region
    /// instance? False outside parallel regions and under serializing
    /// constructs (`master`, `single`, one `section`).
    pub multi_thread: bool,
}

/// The paper's six monitored variables, named as strings so `home-static`
/// stays independent of the trace crate. `home-core` maps them onto
/// `home_trace::MonitoredVar`.
pub(crate) const ALL_MONITORED: [&str; 6] = [
    "srctmp",
    "tagtmp",
    "commtmp",
    "requesttmp",
    "collectivetmp",
    "finalizetmp",
];

/// Output of the static phase: which call sites to instrument, and which
/// monitored variables the dynamic phase must set up.
#[derive(Debug, Clone, Default)]
pub struct Checklist {
    /// Every MPI call site found, in program order.
    pub sites: Vec<StaticCallSite>,
    /// Monitored variables needed, given the instrumented call mix.
    pub monitored_vars: Vec<String>,
}

impl Checklist {
    /// Node ids of sites selected for instrumentation.
    pub fn instrumented_nodes(&self) -> BTreeSet<NodeId> {
        self.sites
            .iter()
            .filter(|s| s.instrument)
            .map(|s| s.node)
            .collect()
    }

    /// Site lookup.
    pub fn site(&self, node: NodeId) -> Option<&StaticCallSite> {
        self.sites.iter().find(|s| s.node == node)
    }

    /// The per-site monitored-variable set of `node`, when this checklist
    /// carries one (see [`StaticCallSite::monitored`]).
    pub fn site_monitored(&self, node: NodeId) -> Option<&[String]> {
        self.site(node).and_then(|s| s.monitored.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(node: u32, instrument: bool) -> StaticCallSite {
        StaticCallSite {
            node: NodeId(node),
            line: node,
            name: "mpi_send".into(),
            in_hybrid_region: instrument,
            reachable: true,
            instrument,
            is_collective: false,
            tag_thread_distinct: Some(false),
            peer_thread_distinct: Some(false),
            init_level: None,
            monitored: None,
            must_locks: Vec::new(),
            multi_thread: instrument,
        }
    }

    #[test]
    fn instrumented_queries() {
        let cl = Checklist {
            sites: vec![site(1, true), site(2, false), site(3, true)],
            monitored_vars: vec!["srctmp".into()],
        };
        let nodes: Vec<u32> = cl.instrumented_nodes().iter().map(|n| n.0).collect();
        assert_eq!(nodes, vec![1, 3]);
        assert_eq!(cl.site(NodeId(2)).unwrap().line, 2);
    }
}
