//! Ergonomic Rust builder for IR programs.
//!
//! The NPB workload generators construct large programs programmatically;
//! writing raw [`Stmt`] literals is noisy, so this module provides free
//! functions returning unnumbered statements plus [`finalize`] which assigns
//! dense node ids (preorder) and a synthetic line per statement.

#[allow(unused_imports)]
use crate::ast::FuncDef;
use crate::ast::*;
use std::sync::Arc;

/// An unnumbered statement (ids assigned by [`finalize`]).
pub fn stmt(kind: StmtKind) -> Stmt {
    Stmt {
        id: NodeId(u32::MAX),
        line: 0,
        kind,
    }
}

/// `int name = init;`
pub fn decl(name: &str, init: Expr) -> Stmt {
    stmt(StmtKind::Decl {
        name: name.into(),
        shared: false,
        init,
    })
}

/// `shared int name = init;`
pub fn shared_decl(name: &str, init: Expr) -> Stmt {
    stmt(StmtKind::Decl {
        name: name.into(),
        shared: true,
        init,
    })
}

/// `name = value;`
pub fn assign(name: &str, value: Expr) -> Stmt {
    stmt(StmtKind::Assign {
        name: name.into(),
        value,
    })
}

/// `if (cond) { then_block }`
pub fn if_then(cond: Expr, then_block: Vec<Stmt>) -> Stmt {
    stmt(StmtKind::If {
        cond,
        then_block,
        else_block: Vec::new(),
    })
}

/// `if (cond) { .. } else { .. }`
pub fn if_else(cond: Expr, then_block: Vec<Stmt>, else_block: Vec<Stmt>) -> Stmt {
    stmt(StmtKind::If {
        cond,
        then_block,
        else_block,
    })
}

/// `for var in from..to { body }`
pub fn seq_for(var: &str, from: Expr, to: Expr, body: Vec<Stmt>) -> Stmt {
    stmt(StmtKind::For {
        var: var.into(),
        from,
        to,
        body,
    })
}

/// `omp parallel num_threads(n) { body }`
pub fn omp_parallel(num_threads: Expr, body: Vec<Stmt>) -> Stmt {
    stmt(StmtKind::OmpParallel {
        num_threads,
        body: body.into(),
    })
}

/// `omp for i in from..to { body }` (static schedule).
pub fn omp_for(var: &str, from: Expr, to: Expr, body: Vec<Stmt>) -> Stmt {
    stmt(StmtKind::OmpFor {
        var: var.into(),
        from,
        to,
        schedule: Schedule::Static,
        body,
    })
}

/// `omp sections { .. }`
pub fn omp_sections(sections: Vec<Vec<Stmt>>) -> Stmt {
    stmt(StmtKind::OmpSections { sections })
}

/// `omp single { body }`
pub fn omp_single(body: Vec<Stmt>) -> Stmt {
    stmt(StmtKind::OmpSingle { body })
}

/// `omp master { body }`
pub fn omp_master(body: Vec<Stmt>) -> Stmt {
    stmt(StmtKind::OmpMaster { body })
}

/// `omp critical(name) { body }`
pub fn omp_critical(name: &str, body: Vec<Stmt>) -> Stmt {
    stmt(StmtKind::OmpCritical {
        name: name.into(),
        body,
    })
}

/// `omp barrier;`
pub fn omp_barrier() -> Stmt {
    stmt(StmtKind::OmpBarrier)
}

/// `compute(flops);`
pub fn compute(flops: Expr) -> Stmt {
    stmt(StmtKind::Compute {
        flops,
        reads: Vec::new(),
        writes: Vec::new(),
    })
}

/// `compute(flops, reads: .., writes: ..);`
pub fn compute_rw(flops: Expr, reads: &[&str], writes: &[&str]) -> Stmt {
    stmt(StmtKind::Compute {
        flops,
        reads: reads.iter().map(|s| s.to_string()).collect(),
        writes: writes.iter().map(|s| s.to_string()).collect(),
    })
}

/// Wrap an MPI call.
pub fn mpi(call: MpiStmt) -> Stmt {
    stmt(StmtKind::Mpi(call))
}

/// `mpi_send(to: dest, tag: tag, count: count);`
pub fn send(dest: Expr, tag: Expr, count: Expr) -> Stmt {
    mpi(MpiStmt::Send {
        dest,
        tag,
        count,
        comm: None,
    })
}

/// `mpi_recv(from: src, tag: tag);`
pub fn recv(src: Expr, tag: Expr) -> Stmt {
    mpi(MpiStmt::Recv {
        src,
        tag,
        comm: None,
    })
}

/// `call name();`
pub fn call(name: &str) -> Stmt {
    stmt(StmtKind::Call { name: name.into() })
}

/// Assign dense preorder node ids and synthetic lines, producing a program.
pub fn finalize(name: &str, mut body: Vec<Stmt>) -> Program {
    fn number(stmts: &mut [Stmt], next: &mut u32) {
        for s in stmts {
            s.id = NodeId(*next);
            if s.line == 0 {
                s.line = *next + 1;
            }
            *next += 1;
            match &mut s.kind {
                StmtKind::If {
                    then_block,
                    else_block,
                    ..
                } => {
                    number(then_block, next);
                    number(else_block, next);
                }
                StmtKind::OmpParallel { body, .. } => {
                    // A body the builder's caller shared is copied first.
                    if Arc::get_mut(body).is_none() {
                        *body = body.iter().cloned().collect();
                    }
                    if let Some(body) = Arc::get_mut(body) {
                        number(body, next);
                    }
                }
                StmtKind::For { body, .. }
                | StmtKind::OmpFor { body, .. }
                | StmtKind::OmpSingle { body }
                | StmtKind::OmpMaster { body }
                | StmtKind::OmpCritical { body, .. } => number(body, next),
                StmtKind::OmpSections { sections } => {
                    for sec in sections {
                        number(sec, next);
                    }
                }
                _ => {}
            }
        }
    }
    let mut next = 0;
    number(&mut body, &mut next);
    Program {
        name: name.into(),
        functions: Vec::new(),
        body,
        node_count: next,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::printer::print_program;

    #[test]
    fn builder_assigns_dense_ids() {
        let p = finalize(
            "built",
            vec![
                mpi(MpiStmt::InitThread {
                    required: IrThreadLevel::Multiple,
                }),
                omp_parallel(
                    Expr::int(2),
                    vec![
                        if_then(
                            Expr::bin(BinOp::Eq, Expr::Rank, Expr::int(0)),
                            vec![send(Expr::int(1), Expr::ThreadId, Expr::int(1))],
                        ),
                        omp_barrier(),
                    ],
                ),
                mpi(MpiStmt::Finalize),
            ],
        );
        let mut ids = Vec::new();
        p.visit(&mut |s| ids.push(s.id.0));
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(p.node_count, 6);
    }

    #[test]
    fn built_program_prints_and_reparses() {
        let p = finalize(
            "built",
            vec![
                mpi(MpiStmt::Init),
                omp_parallel(
                    Expr::int(4),
                    vec![
                        omp_for(
                            "i",
                            Expr::int(0),
                            Expr::int(16),
                            vec![compute_rw(Expr::var("i"), &["u"], &["rsd"])],
                        ),
                        omp_critical("acc", vec![assign("x", Expr::int(1))]),
                    ],
                ),
                mpi(MpiStmt::Finalize),
            ],
        );
        let printed = print_program(&p);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(reparsed.stmt_count(), p.stmt_count());
    }
}
