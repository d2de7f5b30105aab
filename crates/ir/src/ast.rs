//! Abstract syntax of the hybrid MPI/OpenMP mini-language.
//!
//! The paper's static analysis works on a compiler front-end's CFG of a
//! C/Fortran hybrid program. Our substitution is a small C-like language
//! rich enough to express the paper's case studies and the NPB-MZ-style
//! workloads: scalar variables, control flow, the OpenMP constructs, the
//! MPI calls the wrappers monitor, and an abstract `compute` statement that
//! performs (and charges virtual time for) floating-point work.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an AST statement node. Dense per program; the CFG and the
/// instrumentation checklist refer to statements by `NodeId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// Surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Expressions. All arithmetic is over 64-bit integers (the language models
/// control and MPI arguments; bulk floating-point work lives in `compute`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Variable reference.
    Var(String),
    /// `rank` — this process's world rank.
    Rank,
    /// `size` — world size.
    Size,
    /// `tid` — OpenMP thread id (0 outside parallel regions).
    ThreadId,
    /// `nthreads` — OpenMP team size (1 outside parallel regions).
    NumThreads,
    /// `any` — the wildcard value (−1) for source/tag arguments.
    Any,
    /// Unary minus.
    Neg(Box<Expr>),
    /// Logical not.
    Not(Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }

    /// Convenience variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// `lhs op rhs`.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// Free variables referenced by this expression.
    pub fn free_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(v) if !out.contains(v) => out.push(v.clone()),
            Expr::Var(_) => {}
            Expr::Neg(e) | Expr::Not(e) => e.free_vars(out),
            Expr::Bin(_, a, b) => {
                a.free_vars(out);
                b.free_vars(out);
            }
            _ => {}
        }
    }

    /// True if the expression depends on the OpenMP thread id — used by the
    /// static analysis to recognize thread-distinct tags (`tag = tid`).
    pub fn depends_on_tid(&self) -> bool {
        match self {
            Expr::ThreadId => true,
            Expr::Neg(e) | Expr::Not(e) => e.depends_on_tid(),
            Expr::Bin(_, a, b) => a.depends_on_tid() || b.depends_on_tid(),
            _ => false,
        }
    }
}

/// The four thread levels, surface form of `home_trace::ThreadLevel`
/// (kept separate so `home-ir` does not depend on the trace crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IrThreadLevel {
    Single,
    Funneled,
    Serialized,
    Multiple,
}

impl IrThreadLevel {
    /// Surface keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            IrThreadLevel::Single => "single",
            IrThreadLevel::Funneled => "funneled",
            IrThreadLevel::Serialized => "serialized",
            IrThreadLevel::Multiple => "multiple",
        }
    }
}

/// Reduction operators in the surface language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IrReduceOp {
    Sum,
    Prod,
    Min,
    Max,
}

impl IrReduceOp {
    /// Surface keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            IrReduceOp::Sum => "sum",
            IrReduceOp::Prod => "prod",
            IrReduceOp::Min => "min",
            IrReduceOp::Max => "max",
        }
    }
}

/// MPI statements of the surface language. Arguments are expressions so
/// programs can compute tags from thread ids, ranks, etc.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MpiStmt {
    /// `mpi_init();`
    Init,
    /// `mpi_init_thread(level);`
    InitThread { required: IrThreadLevel },
    /// `mpi_finalize();`
    Finalize,
    /// `mpi_send(to: e, tag: e, count: e [, comm: c]);`
    Send {
        dest: Expr,
        tag: Expr,
        count: Expr,
        comm: Option<String>,
    },
    /// `mpi_ssend(to: e, tag: e, count: e [, comm: c]);` — synchronous
    /// (rendezvous) send: returns only once matched by a receive.
    Ssend {
        dest: Expr,
        tag: Expr,
        count: Expr,
        comm: Option<String>,
    },
    /// `mpi_recv(from: e, tag: e [, comm: c]);`
    Recv {
        src: Expr,
        tag: Expr,
        comm: Option<String>,
    },
    /// `mpi_isend(to: e, tag: e, count: e, req: r [, comm: c]);`
    Isend {
        dest: Expr,
        tag: Expr,
        count: Expr,
        req: String,
        comm: Option<String>,
    },
    /// `mpi_irecv(from: e, tag: e, req: r [, comm: c]);`
    Irecv {
        src: Expr,
        tag: Expr,
        req: String,
        comm: Option<String>,
    },
    /// `mpi_wait(req);`
    Wait { req: String },
    /// `mpi_waitall(reqs: r1 r2 ...);`
    Waitall { reqs: Vec<String> },
    /// `mpi_test(req);`
    Test { req: String },
    /// `mpi_probe(from: e, tag: e [, comm: c]);`
    Probe {
        src: Expr,
        tag: Expr,
        comm: Option<String>,
    },
    /// `mpi_iprobe(from: e, tag: e [, comm: c]);`
    Iprobe {
        src: Expr,
        tag: Expr,
        comm: Option<String>,
    },
    /// `mpi_barrier([comm: c]);`
    Barrier { comm: Option<String> },
    /// `mpi_bcast(root: e, count: e [, comm: c]);`
    Bcast {
        root: Expr,
        count: Expr,
        comm: Option<String>,
    },
    /// `mpi_reduce(op, root: e, count: e [, comm: c]);`
    Reduce {
        op: IrReduceOp,
        root: Expr,
        count: Expr,
        comm: Option<String>,
    },
    /// `mpi_allreduce(op, count: e [, comm: c]);`
    Allreduce {
        op: IrReduceOp,
        count: Expr,
        comm: Option<String>,
    },
    /// `mpi_gather(root: e, count: e [, comm: c]);`
    Gather {
        root: Expr,
        count: Expr,
        comm: Option<String>,
    },
    /// `mpi_allgather(count: e [, comm: c]);`
    Allgather { count: Expr, comm: Option<String> },
    /// `mpi_scatter(root: e, count: e [, comm: c]);`
    Scatter {
        root: Expr,
        count: Expr,
        comm: Option<String>,
    },
    /// `mpi_alltoall(count: e [, comm: c]);`
    Alltoall { count: Expr, comm: Option<String> },
    /// `mpi_comm_dup(into: c [, comm: c0]);` — duplicate a communicator
    /// into the named handle (collective over the parent communicator).
    CommDup { into: String, comm: Option<String> },
    /// `mpi_comm_split(color: e, key: e, into: c [, comm: c0]);`
    CommSplit {
        color: Expr,
        key: Expr,
        into: String,
        comm: Option<String>,
    },
}

impl MpiStmt {
    /// Surface function name.
    pub fn name(&self) -> &'static str {
        match self {
            MpiStmt::Init => "mpi_init",
            MpiStmt::InitThread { .. } => "mpi_init_thread",
            MpiStmt::Finalize => "mpi_finalize",
            MpiStmt::Send { .. } => "mpi_send",
            MpiStmt::Ssend { .. } => "mpi_ssend",
            MpiStmt::Recv { .. } => "mpi_recv",
            MpiStmt::Isend { .. } => "mpi_isend",
            MpiStmt::Irecv { .. } => "mpi_irecv",
            MpiStmt::Wait { .. } => "mpi_wait",
            MpiStmt::Waitall { .. } => "mpi_waitall",
            MpiStmt::Test { .. } => "mpi_test",
            MpiStmt::Probe { .. } => "mpi_probe",
            MpiStmt::Iprobe { .. } => "mpi_iprobe",
            MpiStmt::Barrier { .. } => "mpi_barrier",
            MpiStmt::Bcast { .. } => "mpi_bcast",
            MpiStmt::Reduce { .. } => "mpi_reduce",
            MpiStmt::Allreduce { .. } => "mpi_allreduce",
            MpiStmt::Gather { .. } => "mpi_gather",
            MpiStmt::Allgather { .. } => "mpi_allgather",
            MpiStmt::Scatter { .. } => "mpi_scatter",
            MpiStmt::Alltoall { .. } => "mpi_alltoall",
            MpiStmt::CommDup { .. } => "mpi_comm_dup",
            MpiStmt::CommSplit { .. } => "mpi_comm_split",
        }
    }

    /// The communicator handle the call names (`None` = `MPI_COMM_WORLD`).
    pub fn comm_name(&self) -> Option<&str> {
        match self {
            MpiStmt::Send { comm, .. }
            | MpiStmt::Ssend { comm, .. }
            | MpiStmt::Recv { comm, .. }
            | MpiStmt::Isend { comm, .. }
            | MpiStmt::Irecv { comm, .. }
            | MpiStmt::Probe { comm, .. }
            | MpiStmt::Iprobe { comm, .. }
            | MpiStmt::Barrier { comm }
            | MpiStmt::Bcast { comm, .. }
            | MpiStmt::Reduce { comm, .. }
            | MpiStmt::Allreduce { comm, .. }
            | MpiStmt::Gather { comm, .. }
            | MpiStmt::Allgather { comm, .. }
            | MpiStmt::Scatter { comm, .. }
            | MpiStmt::Alltoall { comm, .. }
            | MpiStmt::CommDup { comm, .. }
            | MpiStmt::CommSplit { comm, .. } => comm.as_deref(),
            _ => None,
        }
    }

    /// True for collective operations.
    pub fn is_collective(&self) -> bool {
        matches!(
            self,
            MpiStmt::Barrier { .. }
                | MpiStmt::Bcast { .. }
                | MpiStmt::Reduce { .. }
                | MpiStmt::Allreduce { .. }
                | MpiStmt::Gather { .. }
                | MpiStmt::Allgather { .. }
                | MpiStmt::Scatter { .. }
                | MpiStmt::Alltoall { .. }
                | MpiStmt::CommDup { .. }
                | MpiStmt::CommSplit { .. }
        )
    }
}

/// `omp for` schedule clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Schedule {
    Static,
    Dynamic { chunk: u64 },
}

/// A statement, carrying its node id and source line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stmt {
    /// Dense node id (assigned by parser/builder).
    pub id: NodeId,
    /// 1-based source line (0 for synthesized nodes).
    pub line: u32,
    /// Payload.
    pub kind: StmtKind,
}

/// Statement payloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StmtKind {
    /// `int x = e;` / `shared int x = e;`
    Decl {
        name: String,
        shared: bool,
        init: Expr,
    },
    /// `x = e;`
    Assign { name: String, value: Expr },
    /// `if (e) { .. } else { .. }`
    If {
        cond: Expr,
        then_block: Vec<Stmt>,
        else_block: Vec<Stmt>,
    },
    /// `for i in a..b { .. }` — sequential loop.
    For {
        var: String,
        from: Expr,
        to: Expr,
        body: Vec<Stmt>,
    },
    /// `omp parallel num_threads(e) { .. }`
    OmpParallel { num_threads: Expr, body: Vec<Stmt> },
    /// `omp for [schedule(..)] i in a..b { .. }` — worksharing loop
    /// (must appear inside a parallel region).
    OmpFor {
        var: String,
        from: Expr,
        to: Expr,
        schedule: Schedule,
        body: Vec<Stmt>,
    },
    /// `omp sections { section { .. } section { .. } }`
    OmpSections { sections: Vec<Vec<Stmt>> },
    /// `omp single { .. }`
    OmpSingle { body: Vec<Stmt> },
    /// `omp master { .. }`
    OmpMaster { body: Vec<Stmt> },
    /// `omp critical(name) { .. }`
    OmpCritical { name: String, body: Vec<Stmt> },
    /// `omp barrier;`
    OmpBarrier,
    /// `omp atomic x = e;` — an atomically executed update of a shared
    /// scalar (modelled as a reserved critical section).
    OmpAtomic { name: String, value: Expr },
    /// An MPI call.
    Mpi(MpiStmt),
    /// `call name();` — invoke a program-level function (inlined
    /// semantics: the callee executes in the caller's environment under a
    /// fresh scope).
    Call { name: String },
    /// `compute(flops [, reads: a b] [, writes: c d]);` — synthetic
    /// floating-point work touching the named shared arrays.
    Compute {
        flops: Expr,
        reads: Vec<String>,
        writes: Vec<String>,
    },
}

impl StmtKind {
    /// Child statement blocks, in source order (for generic traversal).
    pub fn blocks(&self) -> impl Iterator<Item = &[Stmt]> {
        let none: &[Vec<Stmt>] = &[];
        let (first, second, sections) = match self {
            StmtKind::If {
                then_block,
                else_block,
                ..
            } => (
                Some(then_block.as_slice()),
                Some(else_block.as_slice()),
                none,
            ),
            StmtKind::For { body, .. }
            | StmtKind::OmpParallel { body, .. }
            | StmtKind::OmpFor { body, .. }
            | StmtKind::OmpSingle { body }
            | StmtKind::OmpMaster { body }
            | StmtKind::OmpCritical { body, .. } => (Some(body.as_slice()), None, none),
            StmtKind::OmpSections { sections } => (None, None, sections.as_slice()),
            _ => (None, None, none),
        };
        (first.into_iter().chain(second)).chain(sections.iter().map(Vec::as_slice))
    }
}

/// A program-level function definition (`fn name() { ... }`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// 1-based source line of the definition.
    pub line: u32,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A whole program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Program name (used as the synthetic file name in source locations).
    pub name: String,
    /// Function definitions (callable from anywhere via `call f();`).
    pub functions: Vec<FuncDef>,
    /// Top-level statements.
    pub body: Vec<Stmt>,
    /// Number of nodes allocated (ids are `0..node_count`).
    pub node_count: u32,
}

impl Program {
    /// Visit every statement (preorder): function bodies first (definition
    /// order), then the main body.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        fn walk<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
            for s in stmts {
                f(s);
                for b in s.kind.blocks() {
                    walk(b, f);
                }
            }
        }
        for func in &self.functions {
            walk(&func.body, f);
        }
        walk(&self.body, f);
    }

    /// Look up a function definition by name.
    pub fn function(&self, name: &str) -> Option<&FuncDef> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Find a statement by node id ([`Program::visit`]'s order, stopping at
    /// the hit).
    pub fn stmt(&self, id: NodeId) -> Option<&Stmt> {
        fn find(stmts: &[Stmt], id: NodeId) -> Option<&Stmt> {
            stmts.iter().find_map(|s| {
                if s.id == id {
                    Some(s)
                } else {
                    s.kind.blocks().find_map(|b| find(b, id))
                }
            })
        }
        let mut bodies = self.functions.iter().map(|f| &f.body).chain([&self.body]);
        bodies.find_map(|b| find(b, id))
    }

    /// All MPI-call statements, preorder.
    pub fn mpi_calls(&self) -> Vec<&Stmt> {
        let mut out = Vec::new();
        self.visit(&mut |s| {
            if matches!(s.kind, StmtKind::Mpi(_)) {
                out.push(s);
            }
        });
        out
    }

    /// Total number of statements.
    pub fn stmt_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stmt(id: u32, kind: StmtKind) -> Stmt {
        Stmt {
            id: NodeId(id),
            line: id + 1,
            kind,
        }
    }

    fn sample() -> Program {
        Program {
            name: "t".into(),
            functions: Vec::new(),
            body: vec![
                stmt(0, StmtKind::Mpi(MpiStmt::Init)),
                stmt(
                    1,
                    StmtKind::OmpParallel {
                        num_threads: Expr::int(2),
                        body: vec![stmt(
                            2,
                            StmtKind::If {
                                cond: Expr::bin(BinOp::Eq, Expr::Rank, Expr::int(0)),
                                then_block: vec![stmt(
                                    3,
                                    StmtKind::Mpi(MpiStmt::Send {
                                        dest: Expr::int(1),
                                        tag: Expr::var("tag"),
                                        count: Expr::int(1),
                                        comm: None,
                                    }),
                                )],
                                else_block: vec![],
                            },
                        )],
                    },
                ),
                stmt(4, StmtKind::Mpi(MpiStmt::Finalize)),
            ],
            node_count: 5,
        }
    }

    #[test]
    fn visit_preorder_sees_everything() {
        let p = sample();
        let mut ids = Vec::new();
        p.visit(&mut |s| ids.push(s.id.0));
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(p.stmt_count(), 5);
    }

    #[test]
    fn stmt_lookup_by_id() {
        let p = sample();
        let s = p.stmt(NodeId(3)).unwrap();
        assert!(matches!(s.kind, StmtKind::Mpi(MpiStmt::Send { .. })));
        assert!(p.stmt(NodeId(99)).is_none());
    }

    #[test]
    fn stmt_finds_what_visit_visits_under_every_block_shape() {
        let p = crate::parse(
            r#"
            program shapes {
                fn helper() { omp critical(c) { compute(1); } }
                mpi_init_thread(multiple);
                for i in 0..2 { call helper(); }
                omp parallel num_threads(2) {
                    if (tid == 0) { compute(1); } else { compute(2); }
                    omp for i in 0..4 { compute(3); }
                    omp sections { section { compute(4); } section { compute(5); } }
                    omp single { compute(6); }
                    omp master { compute(7); }
                }
                mpi_finalize();
            }
            "#,
        )
        .unwrap();
        let mut lines = Vec::new();
        p.visit(&mut |s| {
            lines.push(s.line);
            assert!(std::ptr::eq(p.stmt(s.id).unwrap(), s), "line {}", s.line);
        });
        assert_eq!(lines.len(), 19);
        // Preorder within a body is source order: then before else, the
        // first section before the second.
        assert!(lines[1..].windows(2).all(|w| w[0] <= w[1]), "{lines:?}");
    }

    #[test]
    fn mpi_calls_found() {
        let p = sample();
        let calls = p.mpi_calls();
        assert_eq!(calls.len(), 3);
        assert_eq!(calls[1].id, NodeId(3));
    }

    #[test]
    fn expr_free_vars_and_tid_dependence() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::var("a"),
            Expr::bin(BinOp::Mul, Expr::var("b"), Expr::var("a")),
        );
        let mut vars = Vec::new();
        e.free_vars(&mut vars);
        assert_eq!(vars, vec!["a".to_string(), "b".to_string()]);
        assert!(!e.depends_on_tid());
        let t = Expr::bin(BinOp::Add, Expr::ThreadId, Expr::int(1));
        assert!(t.depends_on_tid());
    }

    #[test]
    fn collective_predicate() {
        assert!(MpiStmt::Barrier { comm: None }.is_collective());
        assert!(MpiStmt::Allreduce {
            op: IrReduceOp::Sum,
            count: Expr::int(1),
            comm: None
        }
        .is_collective());
        assert!(MpiStmt::CommDup {
            into: "c".into(),
            comm: None
        }
        .is_collective());
        assert!(!MpiStmt::Recv {
            src: Expr::Any,
            tag: Expr::Any,
            comm: None
        }
        .is_collective());
    }

    #[test]
    fn comm_name_accessor() {
        let s = MpiStmt::Recv {
            src: Expr::Any,
            tag: Expr::Any,
            comm: Some("row".into()),
        };
        assert_eq!(s.comm_name(), Some("row"));
        assert_eq!(MpiStmt::Barrier { comm: None }.comm_name(), None);
        assert_eq!(MpiStmt::Finalize.comm_name(), None);
    }

    #[test]
    fn serde_roundtrip() {
        let p = sample();
        let json = serde_json::to_string(&p).unwrap();
        let back: Program = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
