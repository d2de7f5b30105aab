//! Canonical pretty-printer. `parse(print(p))` reproduces `p` up to node
//! ids and line numbers — the round-trip property the test suite checks.

use crate::ast::*;
use std::fmt::Write;

/// Render `program` in canonical surface syntax.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {} {{", program.name);
    for func in &program.functions {
        indent(&mut out, 1);
        let _ = writeln!(out, "fn {}() {{", func.name);
        print_block(&mut out, &func.body, 2);
        indent(&mut out, 1);
        out.push_str("}\n");
    }
    print_block(&mut out, &program.body, 1);
    out.push_str("}\n");
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn print_block(out: &mut String, stmts: &[Stmt], depth: usize) {
    for s in stmts {
        print_stmt(out, s, depth);
    }
}

fn print_stmt(out: &mut String, s: &Stmt, depth: usize) {
    indent(out, depth);
    match &s.kind {
        StmtKind::Decl { name, shared, init } => {
            if *shared {
                out.push_str("shared ");
            }
            let _ = writeln!(out, "int {name} = {};", print_expr(init));
        }
        StmtKind::Assign { name, value } => {
            let _ = writeln!(out, "{name} = {};", print_expr(value));
        }
        StmtKind::If {
            cond,
            then_block,
            else_block,
        } => {
            let _ = writeln!(out, "if ({}) {{", print_expr(cond));
            print_block(out, then_block, depth + 1);
            indent(out, depth);
            if else_block.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                print_block(out, else_block, depth + 1);
                indent(out, depth);
                out.push_str("}\n");
            }
        }
        StmtKind::For {
            var,
            from,
            to,
            body,
        } => {
            let _ = writeln!(
                out,
                "for {var} in {}..{} {{",
                print_expr(from),
                print_expr(to)
            );
            print_block(out, body, depth + 1);
            indent(out, depth);
            out.push_str("}\n");
        }
        StmtKind::OmpParallel { num_threads, body } => {
            let _ = writeln!(
                out,
                "omp parallel num_threads({}) {{",
                print_expr(num_threads)
            );
            print_block(out, body, depth + 1);
            indent(out, depth);
            out.push_str("}\n");
        }
        StmtKind::OmpFor {
            var,
            from,
            to,
            schedule,
            body,
        } => {
            let sched = match schedule {
                Schedule::Static => "schedule(static)".to_string(),
                Schedule::Dynamic { chunk } => format!("schedule(dynamic, {chunk})"),
            };
            let _ = writeln!(
                out,
                "omp for {sched} {var} in {}..{} {{",
                print_expr(from),
                print_expr(to)
            );
            print_block(out, body, depth + 1);
            indent(out, depth);
            out.push_str("}\n");
        }
        StmtKind::OmpSections { sections } => {
            out.push_str("omp sections {\n");
            for sec in sections {
                indent(out, depth + 1);
                out.push_str("section {\n");
                print_block(out, sec, depth + 2);
                indent(out, depth + 1);
                out.push_str("}\n");
            }
            indent(out, depth);
            out.push_str("}\n");
        }
        StmtKind::OmpSingle { body } => {
            out.push_str("omp single {\n");
            print_block(out, body, depth + 1);
            indent(out, depth);
            out.push_str("}\n");
        }
        StmtKind::OmpMaster { body } => {
            out.push_str("omp master {\n");
            print_block(out, body, depth + 1);
            indent(out, depth);
            out.push_str("}\n");
        }
        StmtKind::OmpCritical { name, body } => {
            let _ = writeln!(out, "omp critical({name}) {{");
            print_block(out, body, depth + 1);
            indent(out, depth);
            out.push_str("}\n");
        }
        StmtKind::OmpBarrier => out.push_str("omp barrier;\n"),
        StmtKind::OmpAtomic { name, value } => {
            let _ = writeln!(out, "omp atomic {name} = {};", print_expr(value));
        }
        StmtKind::Compute {
            flops,
            reads,
            writes,
        } => {
            let mut line = format!("compute({}", print_expr(flops));
            if !reads.is_empty() {
                line.push_str(&format!(", reads: {}", reads.join(" ")));
            }
            if !writes.is_empty() {
                line.push_str(&format!(", writes: {}", writes.join(" ")));
            }
            line.push_str(");\n");
            out.push_str(&line);
        }
        StmtKind::Mpi(call) => print_mpi(out, call),
        StmtKind::Call { name } => {
            let _ = writeln!(out, "call {name}();");
        }
    }
}

fn print_mpi(out: &mut String, call: &MpiStmt) {
    // Optional trailing `, comm: name` for calls that take one.
    let comm_suffix = |comm: &Option<String>| match comm {
        Some(c) => format!(", comm: {c}"),
        None => String::new(),
    };
    let s = match call {
        MpiStmt::Init => "mpi_init();".to_string(),
        MpiStmt::InitThread { required } => {
            format!("mpi_init_thread({});", required.keyword())
        }
        MpiStmt::Finalize => "mpi_finalize();".to_string(),
        MpiStmt::Send {
            dest,
            tag,
            count,
            comm,
        } => format!(
            "mpi_send(to: {}, tag: {}, count: {}{});",
            print_expr(dest),
            print_expr(tag),
            print_expr(count),
            comm_suffix(comm)
        ),
        MpiStmt::Ssend {
            dest,
            tag,
            count,
            comm,
        } => format!(
            "mpi_ssend(to: {}, tag: {}, count: {}{});",
            print_expr(dest),
            print_expr(tag),
            print_expr(count),
            comm_suffix(comm)
        ),
        MpiStmt::Recv { src, tag, comm } => format!(
            "mpi_recv(from: {}, tag: {}{});",
            print_expr(src),
            print_expr(tag),
            comm_suffix(comm)
        ),
        MpiStmt::Isend {
            dest,
            tag,
            count,
            req,
            comm,
        } => format!(
            "mpi_isend(to: {}, tag: {}, count: {}, req: {req}{});",
            print_expr(dest),
            print_expr(tag),
            print_expr(count),
            comm_suffix(comm)
        ),
        MpiStmt::Irecv {
            src,
            tag,
            req,
            comm,
        } => format!(
            "mpi_irecv(from: {}, tag: {}, req: {req}{});",
            print_expr(src),
            print_expr(tag),
            comm_suffix(comm)
        ),
        MpiStmt::Wait { req } => format!("mpi_wait(req: {req});"),
        MpiStmt::Waitall { reqs } => {
            // First request keyed, the rest bare — matching the parser.
            let mut it = reqs.iter();
            let first = it.next().map(String::as_str).unwrap_or("");
            let rest: Vec<&str> = it.map(String::as_str).collect();
            if rest.is_empty() {
                format!("mpi_waitall(reqs: {first});")
            } else {
                format!("mpi_waitall(reqs: {first}, {});", rest.join(", "))
            }
        }
        MpiStmt::Test { req } => format!("mpi_test(req: {req});"),
        MpiStmt::Probe { src, tag, comm } => format!(
            "mpi_probe(from: {}, tag: {}{});",
            print_expr(src),
            print_expr(tag),
            comm_suffix(comm)
        ),
        MpiStmt::Iprobe { src, tag, comm } => format!(
            "mpi_iprobe(from: {}, tag: {}{});",
            print_expr(src),
            print_expr(tag),
            comm_suffix(comm)
        ),
        MpiStmt::Barrier { comm: None } => "mpi_barrier();".to_string(),
        MpiStmt::Barrier { comm: Some(c) } => format!("mpi_barrier(comm: {c});"),
        MpiStmt::Bcast { root, count, comm } => format!(
            "mpi_bcast(root: {}, count: {}{});",
            print_expr(root),
            print_expr(count),
            comm_suffix(comm)
        ),
        MpiStmt::Reduce {
            op,
            root,
            count,
            comm,
        } => format!(
            "mpi_reduce({}, root: {}, count: {}{});",
            op.keyword(),
            print_expr(root),
            print_expr(count),
            comm_suffix(comm)
        ),
        MpiStmt::Allreduce { op, count, comm } => format!(
            "mpi_allreduce({}, count: {}{});",
            op.keyword(),
            print_expr(count),
            comm_suffix(comm)
        ),
        MpiStmt::Gather { root, count, comm } => format!(
            "mpi_gather(root: {}, count: {}{});",
            print_expr(root),
            print_expr(count),
            comm_suffix(comm)
        ),
        MpiStmt::Allgather { count, comm } => format!(
            "mpi_allgather(count: {}{});",
            print_expr(count),
            comm_suffix(comm)
        ),
        MpiStmt::Scatter { root, count, comm } => format!(
            "mpi_scatter(root: {}, count: {}{});",
            print_expr(root),
            print_expr(count),
            comm_suffix(comm)
        ),
        MpiStmt::Alltoall { count, comm } => format!(
            "mpi_alltoall(count: {}{});",
            print_expr(count),
            comm_suffix(comm)
        ),
        MpiStmt::CommDup { into, comm } => {
            format!("mpi_comm_dup(into: {into}{});", comm_suffix(comm))
        }
        MpiStmt::CommSplit {
            color,
            key,
            into,
            comm,
        } => format!(
            "mpi_comm_split(color: {}, key: {}, into: {into}{});",
            print_expr(color),
            print_expr(key),
            comm_suffix(comm)
        ),
    };
    out.push_str(&s);
    out.push('\n');
}

/// Render an expression with minimal but sufficient parentheses (children
/// of binary operators are parenthesized unless atomic).
pub(crate) fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Var(n) => n.clone(),
        Expr::Rank => "rank".to_string(),
        Expr::Size => "size".to_string(),
        Expr::ThreadId => "tid".to_string(),
        Expr::NumThreads => "nthreads".to_string(),
        Expr::Any => "any".to_string(),
        Expr::Neg(inner) => format!("-{}", atom(inner)),
        Expr::Not(inner) => format!("!{}", atom(inner)),
        Expr::Bin(op, a, b) => format!("{} {} {}", atom(a), op.symbol(), atom(b)),
    }
}

fn atom(e: &Expr) -> String {
    match e {
        Expr::Bin(..) => format!("({})", print_expr(e)),
        _ => print_expr(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Strip ids/lines so structural equality ignores positions.
    fn normalize(p: &Program) -> Program {
        fn walk(stmts: &[Stmt]) -> Vec<Stmt> {
            stmts
                .iter()
                .map(|s| Stmt {
                    id: NodeId(0),
                    line: 0,
                    kind: match &s.kind {
                        StmtKind::If {
                            cond,
                            then_block,
                            else_block,
                        } => StmtKind::If {
                            cond: cond.clone(),
                            then_block: walk(then_block),
                            else_block: walk(else_block),
                        },
                        StmtKind::For {
                            var,
                            from,
                            to,
                            body,
                        } => StmtKind::For {
                            var: var.clone(),
                            from: from.clone(),
                            to: to.clone(),
                            body: walk(body),
                        },
                        StmtKind::OmpParallel { num_threads, body } => StmtKind::OmpParallel {
                            num_threads: num_threads.clone(),
                            body: walk(body).into(),
                        },
                        StmtKind::OmpFor {
                            var,
                            from,
                            to,
                            schedule,
                            body,
                        } => StmtKind::OmpFor {
                            var: var.clone(),
                            from: from.clone(),
                            to: to.clone(),
                            schedule: schedule.clone(),
                            body: walk(body),
                        },
                        StmtKind::OmpSections { sections } => StmtKind::OmpSections {
                            sections: sections.iter().map(|s| walk(s)).collect(),
                        },
                        StmtKind::OmpSingle { body } => StmtKind::OmpSingle { body: walk(body) },
                        StmtKind::OmpMaster { body } => StmtKind::OmpMaster { body: walk(body) },
                        StmtKind::OmpCritical { name, body } => StmtKind::OmpCritical {
                            name: name.clone(),
                            body: walk(body),
                        },
                        other => other.clone(),
                    },
                })
                .collect()
        }
        Program {
            name: p.name.clone(),
            functions: p
                .functions
                .iter()
                .map(|f| FuncDef {
                    name: f.name.clone(),
                    line: 0,
                    body: walk(&f.body),
                })
                .collect(),
            body: walk(&p.body),
            node_count: 0,
        }
    }

    #[test]
    fn roundtrip_rich_program() {
        let src = r#"
            program rich {
                mpi_init_thread(serialized);
                shared int tag = 0;
                int x = 1 + 2 * 3;
                omp parallel num_threads(2 + 2) {
                    omp for schedule(dynamic, 4) i in 0..(10 * size) {
                        compute(i * 100, reads: a, writes: b c);
                    }
                    omp critical(cs) { x = x + 1; }
                    omp sections {
                        section { mpi_send(to: 1, tag: tid, count: 1); }
                        section { mpi_recv(from: any, tag: any); }
                    }
                    omp single { mpi_barrier(); }
                    omp master { mpi_probe(from: 0, tag: 5); }
                    omp barrier;
                }
                if (rank == 0) { mpi_reduce(max, root: 0, count: 2); } else { mpi_allreduce(sum, count: 2); }
                for k in 0..3 { mpi_iprobe(from: any, tag: k); }
                mpi_finalize();
            }
        "#;
        let p1 = parse(src).unwrap();
        let printed = print_program(&p1);
        let p2 = parse(&printed).unwrap();
        assert_eq!(normalize(&p1), normalize(&p2), "printed:\n{printed}");
        // Idempotence: printing the reparsed program is stable.
        assert_eq!(printed, print_program(&p2));
    }

    #[test]
    fn expr_parenthesization_preserves_structure() {
        let e = Expr::bin(
            BinOp::Mul,
            Expr::bin(BinOp::Add, Expr::int(1), Expr::int(2)),
            Expr::int(3),
        );
        assert_eq!(print_expr(&e), "(1 + 2) * 3");
        let e2 = Expr::Neg(Box::new(Expr::bin(BinOp::Add, Expr::int(1), Expr::int(2))));
        assert_eq!(print_expr(&e2), "-(1 + 2)");
    }
}
