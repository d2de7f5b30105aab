//! Recursive-descent parser for the hybrid mini-language.

use crate::ast::*;
use crate::lexer::{lex, LexError, Tok, Token};
use std::fmt;

/// Parse errors.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// 1-based line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            msg: e.to_string(),
            line: e.line,
        }
    }
}

/// Parse a whole program:
///
/// ```text
/// program name {
///     mpi_init_thread(multiple);
///     shared int tag = 0;
///     omp parallel num_threads(2) {
///         if (rank == 0) { mpi_send(to: 1, tag: tag, count: 1); }
///     }
///     mpi_finalize();
/// }
/// ```
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        next_id: 0,
    };
    p.program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            msg: msg.into(),
            line: self.line(),
        })
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {tok}, found {}", self.peek()))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found {}", self.peek()))
        }
    }

    fn new_id(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    fn mk(&mut self, line: u32, kind: StmtKind) -> Stmt {
        Stmt {
            id: self.new_id(),
            line,
            kind,
        }
    }

    // ---- grammar ----------------------------------------------------------

    fn program(&mut self) -> Result<Program, ParseError> {
        self.expect_kw("program")?;
        let name = self.expect_ident()?;
        // Program block, with `fn name() { ... }` definitions allowed at
        // the top level alongside statements.
        self.expect(Tok::LBrace)?;
        let mut functions = Vec::new();
        let mut body = Vec::new();
        while *self.peek() != Tok::RBrace {
            if *self.peek() == Tok::Eof {
                return self.err("unexpected end of input inside program");
            }
            if matches!(self.peek(), Tok::Ident(s) if s == "fn") {
                let line = self.line();
                self.bump();
                let fname = self.expect_ident()?;
                self.expect(Tok::LParen)?;
                self.expect(Tok::RParen)?;
                let fbody = self.block()?;
                if functions.iter().any(|f: &FuncDef| f.name == fname) {
                    return Err(ParseError {
                        msg: format!("duplicate function `{fname}`"),
                        line,
                    });
                }
                functions.push(FuncDef {
                    name: fname,
                    line,
                    body: fbody,
                });
            } else {
                body.push(self.stmt()?);
            }
        }
        self.expect(Tok::RBrace)?;
        self.expect(Tok::Eof)?;
        Ok(Program {
            name,
            functions,
            body,
            node_count: self.next_id,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while *self.peek() != Tok::RBrace {
            if *self.peek() == Tok::Eof {
                return self.err("unexpected end of input inside block");
            }
            stmts.push(self.stmt()?);
        }
        self.expect(Tok::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        match self.peek().clone() {
            Tok::Ident(kw) => match kw.as_str() {
                "shared" => {
                    self.bump();
                    self.expect_kw("int")?;
                    self.decl(line, true)
                }
                "int" => {
                    self.bump();
                    self.decl(line, false)
                }
                "if" => self.if_stmt(line),
                "for" => {
                    self.bump();
                    let var = self.expect_ident()?;
                    self.expect_kw("in")?;
                    let from = self.expr()?;
                    self.expect(Tok::DotDot)?;
                    let to = self.expr()?;
                    let body = self.block()?;
                    Ok(self.mk(
                        line,
                        StmtKind::For {
                            var,
                            from,
                            to,
                            body,
                        },
                    ))
                }
                "omp" => self.omp_stmt(line),
                "compute" => self.compute_stmt(line),
                "call" => {
                    self.bump();
                    let name = self.expect_ident()?;
                    self.expect(Tok::LParen)?;
                    self.expect(Tok::RParen)?;
                    self.expect(Tok::Semi)?;
                    Ok(self.mk(line, StmtKind::Call { name }))
                }
                name if name.starts_with("mpi_") => self.mpi_stmt(line),
                _ => {
                    // Assignment.
                    let name = self.expect_ident()?;
                    self.expect(Tok::Assign)?;
                    let value = self.expr()?;
                    self.expect(Tok::Semi)?;
                    Ok(self.mk(line, StmtKind::Assign { name, value }))
                }
            },
            other => self.err(format!("expected statement, found {other}")),
        }
    }

    fn decl(&mut self, line: u32, shared: bool) -> Result<Stmt, ParseError> {
        let name = self.expect_ident()?;
        let init = if *self.peek() == Tok::Assign {
            self.bump();
            self.expr()?
        } else {
            Expr::Int(0)
        };
        self.expect(Tok::Semi)?;
        Ok(self.mk(line, StmtKind::Decl { name, shared, init }))
    }

    fn if_stmt(&mut self, line: u32) -> Result<Stmt, ParseError> {
        self.expect_kw("if")?;
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        let then_block = self.block()?;
        let else_block = if self.eat_kw("else") {
            self.block()?
        } else {
            Vec::new()
        };
        Ok(self.mk(
            line,
            StmtKind::If {
                cond,
                then_block,
                else_block,
            },
        ))
    }

    fn omp_stmt(&mut self, line: u32) -> Result<Stmt, ParseError> {
        self.expect_kw("omp")?;
        let which = self.expect_ident()?;
        match which.as_str() {
            "parallel" => {
                let num_threads = if self.eat_kw("num_threads") {
                    self.expect(Tok::LParen)?;
                    let e = self.expr()?;
                    self.expect(Tok::RParen)?;
                    e
                } else {
                    Expr::Int(2)
                };
                let body = self.block()?.into();
                Ok(self.mk(line, StmtKind::OmpParallel { num_threads, body }))
            }
            "for" => {
                let schedule = if self.eat_kw("schedule") {
                    self.expect(Tok::LParen)?;
                    let s = self.expect_ident()?;
                    let sched = match s.as_str() {
                        "static" => Schedule::Static,
                        "dynamic" => {
                            let chunk = if *self.peek() == Tok::Comma {
                                self.bump();
                                match self.bump() {
                                    Tok::Int(v) if v > 0 => v as u64,
                                    other => {
                                        return self
                                            .err(format!("expected chunk size, found {other}"))
                                    }
                                }
                            } else {
                                1
                            };
                            Schedule::Dynamic { chunk }
                        }
                        other => return self.err(format!("unknown schedule `{other}`")),
                    };
                    self.expect(Tok::RParen)?;
                    sched
                } else {
                    Schedule::Static
                };
                let var = self.expect_ident()?;
                self.expect_kw("in")?;
                let from = self.expr()?;
                self.expect(Tok::DotDot)?;
                let to = self.expr()?;
                let body = self.block()?;
                Ok(self.mk(
                    line,
                    StmtKind::OmpFor {
                        var,
                        from,
                        to,
                        schedule,
                        body,
                    },
                ))
            }
            "sections" => {
                self.expect(Tok::LBrace)?;
                let mut sections = Vec::new();
                while self.eat_kw("section") {
                    sections.push(self.block()?);
                }
                self.expect(Tok::RBrace)?;
                if sections.is_empty() {
                    return self.err("omp sections needs at least one section");
                }
                Ok(self.mk(line, StmtKind::OmpSections { sections }))
            }
            "single" => {
                let body = self.block()?;
                Ok(self.mk(line, StmtKind::OmpSingle { body }))
            }
            "master" => {
                let body = self.block()?;
                Ok(self.mk(line, StmtKind::OmpMaster { body }))
            }
            "critical" => {
                let name = if *self.peek() == Tok::LParen {
                    self.bump();
                    let n = self.expect_ident()?;
                    self.expect(Tok::RParen)?;
                    n
                } else {
                    "unnamed".to_string()
                };
                let body = self.block()?;
                Ok(self.mk(line, StmtKind::OmpCritical { name, body }))
            }
            "barrier" => {
                self.expect(Tok::Semi)?;
                Ok(self.mk(line, StmtKind::OmpBarrier))
            }
            "atomic" => {
                let name = self.expect_ident()?;
                self.expect(Tok::Assign)?;
                let value = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(self.mk(line, StmtKind::OmpAtomic { name, value }))
            }
            other => self.err(format!("unknown omp construct `{other}`")),
        }
    }

    fn compute_stmt(&mut self, line: u32) -> Result<Stmt, ParseError> {
        self.expect_kw("compute")?;
        self.expect(Tok::LParen)?;
        let flops = self.expr()?;
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        while *self.peek() == Tok::Comma {
            self.bump();
            let key = self.expect_ident()?;
            self.expect(Tok::Colon)?;
            let list = match key.as_str() {
                "reads" => &mut reads,
                "writes" => &mut writes,
                other => return self.err(format!("unknown compute clause `{other}`")),
            };
            // One or more identifiers.
            list.push(self.expect_ident()?);
            while matches!(self.peek(), Tok::Ident(_)) {
                list.push(self.expect_ident()?);
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::Semi)?;
        Ok(self.mk(
            line,
            StmtKind::Compute {
                flops,
                reads,
                writes,
            },
        ))
    }

    /// Parse `key: expr` argument lists for MPI calls.
    fn mpi_args(&mut self) -> Result<Vec<(String, Expr)>, ParseError> {
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                let key = self.expect_ident()?;
                // Bare keyword argument (thread level / reduce op).
                if *self.peek() == Tok::Colon {
                    self.bump();
                    let value = self.expr()?;
                    args.push((key, value));
                } else {
                    args.push((key, Expr::Int(i64::MIN))); // marker for bare keyword
                }
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok(args)
    }

    fn take_arg(&self, args: &mut Vec<(String, Expr)>, keys: &[&str]) -> Option<Expr> {
        let pos = args.iter().position(|(k, _)| keys.contains(&k.as_str()))?;
        Some(args.remove(pos).1)
    }

    fn take_bare(&self, args: &mut Vec<(String, Expr)>) -> Option<String> {
        let pos = args.iter().position(|(_, v)| *v == Expr::Int(i64::MIN))?;
        Some(args.remove(pos).0)
    }

    fn mpi_stmt(&mut self, line: u32) -> Result<Stmt, ParseError> {
        let name = self.expect_ident()?;
        let mut args = self.mpi_args()?;
        self.expect(Tok::Semi)?;
        let one = Expr::Int(1);
        let call = match name.as_str() {
            "mpi_init" => MpiStmt::Init,
            "mpi_init_thread" => {
                let level = self.take_bare(&mut args).ok_or_else(|| ParseError {
                    msg: "mpi_init_thread needs a thread level".into(),
                    line,
                })?;
                let required = match level.as_str() {
                    "single" => IrThreadLevel::Single,
                    "funneled" => IrThreadLevel::Funneled,
                    "serialized" => IrThreadLevel::Serialized,
                    "multiple" => IrThreadLevel::Multiple,
                    other => {
                        return Err(ParseError {
                            msg: format!("unknown thread level `{other}`"),
                            line,
                        })
                    }
                };
                MpiStmt::InitThread { required }
            }
            "mpi_finalize" => MpiStmt::Finalize,
            "mpi_send" => MpiStmt::Send {
                dest: self
                    .take_arg(&mut args, &["to", "dest"])
                    .ok_or_else(|| ParseError {
                        msg: "mpi_send needs `to:`".into(),
                        line,
                    })?,
                tag: self.take_arg(&mut args, &["tag"]).unwrap_or(Expr::Int(0)),
                count: self.take_arg(&mut args, &["count"]).unwrap_or(one.clone()),
                comm: self.comm_arg(&mut args, line)?,
            },
            "mpi_ssend" => MpiStmt::Ssend {
                dest: self
                    .take_arg(&mut args, &["to", "dest"])
                    .ok_or_else(|| ParseError {
                        msg: "mpi_ssend needs `to:`".into(),
                        line,
                    })?,
                tag: self.take_arg(&mut args, &["tag"]).unwrap_or(Expr::Int(0)),
                count: self.take_arg(&mut args, &["count"]).unwrap_or(one.clone()),
                comm: self.comm_arg(&mut args, line)?,
            },
            "mpi_recv" => MpiStmt::Recv {
                src: self
                    .take_arg(&mut args, &["from", "src"])
                    .unwrap_or(Expr::Any),
                tag: self.take_arg(&mut args, &["tag"]).unwrap_or(Expr::Any),
                comm: self.comm_arg(&mut args, line)?,
            },
            "mpi_isend" => {
                let req = self.req_arg(&mut args, line)?;
                MpiStmt::Isend {
                    dest: self
                        .take_arg(&mut args, &["to", "dest"])
                        .ok_or_else(|| ParseError {
                            msg: "mpi_isend needs `to:`".into(),
                            line,
                        })?,
                    tag: self.take_arg(&mut args, &["tag"]).unwrap_or(Expr::Int(0)),
                    count: self.take_arg(&mut args, &["count"]).unwrap_or(one.clone()),
                    req,
                    comm: self.comm_arg(&mut args, line)?,
                }
            }
            "mpi_irecv" => {
                let req = self.req_arg(&mut args, line)?;
                MpiStmt::Irecv {
                    src: self
                        .take_arg(&mut args, &["from", "src"])
                        .unwrap_or(Expr::Any),
                    tag: self.take_arg(&mut args, &["tag"]).unwrap_or(Expr::Any),
                    req,
                    comm: self.comm_arg(&mut args, line)?,
                }
            }
            "mpi_wait" => MpiStmt::Wait {
                req: self.req_arg(&mut args, line)?,
            },
            "mpi_test" => MpiStmt::Test {
                req: self.req_arg(&mut args, line)?,
            },
            "mpi_waitall" => {
                // `reqs:` takes one or more bare identifiers; the first is
                // parsed as the keyed value, the rest arrive as bare args.
                let mut reqs = Vec::new();
                if let Some(Expr::Var(first)) = self.take_arg(&mut args, &["reqs", "req"]) {
                    reqs.push(first);
                }
                while let Some(name) = self.take_bare(&mut args) {
                    reqs.push(name);
                }
                if reqs.is_empty() {
                    return Err(ParseError {
                        msg: "mpi_waitall needs `reqs: r1 r2 ...`".into(),
                        line,
                    });
                }
                MpiStmt::Waitall { reqs }
            }
            "mpi_probe" => MpiStmt::Probe {
                src: self
                    .take_arg(&mut args, &["from", "src"])
                    .unwrap_or(Expr::Any),
                tag: self.take_arg(&mut args, &["tag"]).unwrap_or(Expr::Any),
                comm: self.comm_arg(&mut args, line)?,
            },
            "mpi_iprobe" => MpiStmt::Iprobe {
                src: self
                    .take_arg(&mut args, &["from", "src"])
                    .unwrap_or(Expr::Any),
                tag: self.take_arg(&mut args, &["tag"]).unwrap_or(Expr::Any),
                comm: self.comm_arg(&mut args, line)?,
            },
            "mpi_barrier" => MpiStmt::Barrier {
                comm: self.comm_arg(&mut args, line)?,
            },
            "mpi_bcast" => MpiStmt::Bcast {
                root: self.take_arg(&mut args, &["root"]).unwrap_or(Expr::Int(0)),
                count: self.take_arg(&mut args, &["count"]).unwrap_or(one.clone()),
                comm: self.comm_arg(&mut args, line)?,
            },
            "mpi_reduce" => MpiStmt::Reduce {
                op: self.reduce_op(&mut args, line)?,
                root: self.take_arg(&mut args, &["root"]).unwrap_or(Expr::Int(0)),
                count: self.take_arg(&mut args, &["count"]).unwrap_or(one.clone()),
                comm: self.comm_arg(&mut args, line)?,
            },
            "mpi_allreduce" => MpiStmt::Allreduce {
                op: self.reduce_op(&mut args, line)?,
                count: self.take_arg(&mut args, &["count"]).unwrap_or(one.clone()),
                comm: self.comm_arg(&mut args, line)?,
            },
            "mpi_gather" => MpiStmt::Gather {
                root: self.take_arg(&mut args, &["root"]).unwrap_or(Expr::Int(0)),
                count: self.take_arg(&mut args, &["count"]).unwrap_or(one.clone()),
                comm: self.comm_arg(&mut args, line)?,
            },
            "mpi_allgather" => MpiStmt::Allgather {
                count: self.take_arg(&mut args, &["count"]).unwrap_or(one.clone()),
                comm: self.comm_arg(&mut args, line)?,
            },
            "mpi_scatter" => MpiStmt::Scatter {
                root: self.take_arg(&mut args, &["root"]).unwrap_or(Expr::Int(0)),
                count: self.take_arg(&mut args, &["count"]).unwrap_or(one.clone()),
                comm: self.comm_arg(&mut args, line)?,
            },
            "mpi_alltoall" => MpiStmt::Alltoall {
                count: self.take_arg(&mut args, &["count"]).unwrap_or(one),
                comm: self.comm_arg(&mut args, line)?,
            },
            "mpi_comm_dup" => MpiStmt::CommDup {
                into: self.handle_arg(&mut args, "into", line)?,
                comm: self.comm_arg(&mut args, line)?,
            },
            "mpi_comm_split" => MpiStmt::CommSplit {
                color: self
                    .take_arg(&mut args, &["color"])
                    .ok_or_else(|| ParseError {
                        msg: "mpi_comm_split needs `color:`".into(),
                        line,
                    })?,
                key: self.take_arg(&mut args, &["key"]).unwrap_or(Expr::Rank),
                into: self.handle_arg(&mut args, "into", line)?,
                comm: self.comm_arg(&mut args, line)?,
            },
            other => {
                return Err(ParseError {
                    msg: format!("unknown MPI call `{other}`"),
                    line,
                })
            }
        };
        if let Some((k, _)) = args.first() {
            return Err(ParseError {
                msg: format!("unexpected argument `{k}` for {name}"),
                line,
            });
        }
        Ok(self.mk(line, StmtKind::Mpi(call)))
    }

    /// Optional `comm: name` argument (the value must be an identifier).
    fn comm_arg(
        &self,
        args: &mut Vec<(String, Expr)>,
        line: u32,
    ) -> Result<Option<String>, ParseError> {
        match self.take_arg(args, &["comm"]) {
            Some(Expr::Var(name)) => Ok(Some(name)),
            Some(_) => Err(ParseError {
                msg: "`comm:` must name a communicator variable".into(),
                line,
            }),
            None => Ok(None),
        }
    }

    /// Named handle argument (e.g. `into: c`), value must be an identifier.
    fn handle_arg(
        &self,
        args: &mut Vec<(String, Expr)>,
        key: &str,
        line: u32,
    ) -> Result<String, ParseError> {
        match self.take_arg(args, &[key]) {
            Some(Expr::Var(name)) => Ok(name),
            _ => Err(ParseError {
                msg: format!("missing `{key}:` handle argument"),
                line,
            }),
        }
    }

    fn req_arg(&self, args: &mut Vec<(String, Expr)>, line: u32) -> Result<String, ParseError> {
        match self.take_arg(args, &["req"]) {
            Some(Expr::Var(name)) => Ok(name),
            Some(_) => Err(ParseError {
                msg: "`req:` must name a request variable".into(),
                line,
            }),
            None => match args.iter().position(|(_, v)| *v == Expr::Int(i64::MIN)) {
                // Allow `mpi_wait(r1)` — bare identifier.
                Some(pos) => Ok(args.remove(pos).0),
                None => Err(ParseError {
                    msg: "missing `req:` argument".into(),
                    line,
                }),
            },
        }
    }

    fn reduce_op(
        &self,
        args: &mut Vec<(String, Expr)>,
        line: u32,
    ) -> Result<IrReduceOp, ParseError> {
        let bare = self.take_bare_op(args);
        match bare.as_deref() {
            Some("sum") => Ok(IrReduceOp::Sum),
            Some("prod") => Ok(IrReduceOp::Prod),
            Some("min") => Ok(IrReduceOp::Min),
            Some("max") => Ok(IrReduceOp::Max),
            Some(other) => Err(ParseError {
                msg: format!("unknown reduce op `{other}`"),
                line,
            }),
            None => Ok(IrReduceOp::Sum),
        }
    }

    fn take_bare_op(&self, args: &mut Vec<(String, Expr)>) -> Option<String> {
        self.take_bare(args)
    }

    // ---- expressions -------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while *self.peek() == Tok::OrOr {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while *self.peek() == Tok::AndAnd {
            self.bump();
            let rhs = self.cmp_expr()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::EqEq => BinOp::Eq,
            Tok::NotEq => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Minus => {
                self.bump();
                Ok(Expr::Neg(Box::new(self.unary_expr()?)))
            }
            Tok::Bang => {
                self.bump();
                Ok(Expr::Not(Box::new(self.unary_expr()?)))
            }
            _ => self.atom(),
        }
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(s) => {
                self.bump();
                Ok(match s.as_str() {
                    "rank" => Expr::Rank,
                    "size" => Expr::Size,
                    "tid" => Expr::ThreadId,
                    "nthreads" => Expr::NumThreads,
                    "any" => Expr::Any,
                    _ => Expr::Var(s),
                })
            }
            other => self.err(format!("expected expression, found {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_case_study_2() {
        let src = r#"
            program case2 {
                mpi_init_thread(multiple);
                shared int tag = 0;
                omp parallel num_threads(2) {
                    for j in 0..2 {
                        if (rank == 0) {
                            mpi_send(to: 1, tag: tag, count: 1);
                            mpi_recv(from: 1, tag: tag);
                        }
                        if (rank == 1) {
                            mpi_recv(from: 0, tag: tag);
                            mpi_send(to: 0, tag: tag, count: 1);
                        }
                    }
                }
                mpi_finalize();
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.name, "case2");
        assert_eq!(p.mpi_calls().len(), 6);
        // Node ids dense and unique.
        let mut ids = Vec::new();
        p.visit(&mut |s| ids.push(s.id.0));
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
        assert_eq!(p.node_count as usize, ids.len());
    }

    #[test]
    fn parses_sections_single_master_critical_barrier() {
        let src = r#"
            program constructs {
                omp parallel num_threads(4) {
                    omp sections {
                        section { compute(10); }
                        section { compute(20); }
                    }
                    omp single { compute(1); }
                    omp master { compute(2); }
                    omp critical(update) { compute(3); }
                    omp barrier;
                }
            }
        "#;
        let p = parse(src).unwrap();
        // parallel + sections + 2 section computes + single + compute +
        // master + compute + critical + compute + barrier = 11 statements.
        assert_eq!(p.stmt_count(), 11);
    }

    #[test]
    fn parses_omp_for_schedules() {
        let src = r#"
            program loops {
                omp parallel {
                    omp for i in 0..100 { compute(i); }
                    omp for schedule(static) i in 0..10 { compute(1); }
                    omp for schedule(dynamic, 4) i in 0..10 { compute(1); }
                }
            }
        "#;
        let p = parse(src).unwrap();
        let mut schedules = Vec::new();
        p.visit(&mut |s| {
            if let StmtKind::OmpFor { schedule, .. } = &s.kind {
                schedules.push(schedule.clone());
            }
        });
        assert_eq!(
            schedules,
            vec![
                Schedule::Static,
                Schedule::Static,
                Schedule::Dynamic { chunk: 4 }
            ]
        );
    }

    #[test]
    fn parses_nonblocking_and_probe() {
        let src = r#"
            program nb {
                mpi_init_thread(multiple);
                mpi_irecv(from: any, tag: any, req: r1);
                mpi_isend(to: 1, tag: 5, count: 10, req: r2);
                mpi_wait(r1);
                mpi_test(r2);
                mpi_probe(from: 0, tag: 3);
                mpi_iprobe(from: any, tag: any);
                mpi_finalize();
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.mpi_calls().len(), 8);
        let mut reqs = Vec::new();
        p.visit(&mut |s| {
            if let StmtKind::Mpi(MpiStmt::Wait { req } | MpiStmt::Test { req }) = &s.kind {
                reqs.push(req.clone());
            }
        });
        assert_eq!(reqs, vec!["r1".to_string(), "r2".to_string()]);
    }

    #[test]
    fn parses_collectives() {
        let src = r#"
            program colls {
                mpi_init_thread(multiple);
                mpi_barrier();
                mpi_bcast(root: 0, count: 4);
                mpi_reduce(sum, root: 0, count: 2);
                mpi_allreduce(max, count: 1);
                mpi_gather(root: 1, count: 3);
                mpi_allgather(count: 1);
                mpi_scatter(root: 0, count: 8);
                mpi_alltoall(count: 2);
                mpi_finalize();
            }
        "#;
        let p = parse(src).unwrap();
        let colls = p
            .mpi_calls()
            .iter()
            .filter(|s| matches!(&s.kind, StmtKind::Mpi(m) if m.is_collective()))
            .count();
        assert_eq!(colls, 8);
    }

    #[test]
    fn expression_precedence() {
        let src =
            "program e { int x = 1 + 2 * 3; int y = (1 + 2) * 3; int z = rank == 0 && tid != 1; }";
        let p = parse(src).unwrap();
        let inits: Vec<&Expr> = p
            .body
            .iter()
            .filter_map(|s| match &s.kind {
                StmtKind::Decl { init, .. } => Some(init),
                _ => None,
            })
            .collect();
        assert_eq!(
            *inits[0],
            Expr::bin(
                BinOp::Add,
                Expr::int(1),
                Expr::bin(BinOp::Mul, Expr::int(2), Expr::int(3))
            )
        );
        assert_eq!(
            *inits[1],
            Expr::bin(
                BinOp::Mul,
                Expr::bin(BinOp::Add, Expr::int(1), Expr::int(2)),
                Expr::int(3)
            )
        );
        assert!(matches!(*inits[2], Expr::Bin(BinOp::And, _, _)));
    }

    #[test]
    fn error_reports_line() {
        let src = "program bad {\n  int x = ;\n}";
        let e = parse(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn unknown_mpi_call_is_rejected() {
        let e = parse("program bad { mpi_frobnicate(); }").unwrap_err();
        assert!(e.msg.contains("mpi_frobnicate"));
    }

    #[test]
    fn extra_argument_is_rejected() {
        let e = parse("program bad { mpi_send(to: 1, tag: 0, bogus: 3); }").unwrap_err();
        assert!(e.msg.contains("bogus"));
    }

    #[test]
    fn source_lines_recorded() {
        let src = "program l {\nmpi_init();\n\nmpi_finalize();\n}";
        let p = parse(src).unwrap();
        assert_eq!(p.body[0].line, 2);
        assert_eq!(p.body[1].line, 4);
    }

    #[test]
    fn compute_clauses() {
        let p = parse("program c { compute(100, reads: a b, writes: c); }").unwrap();
        match &p.body[0].kind {
            StmtKind::Compute {
                flops,
                reads,
                writes,
            } => {
                assert_eq!(*flops, Expr::int(100));
                assert_eq!(reads, &vec!["a".to_string(), "b".to_string()]);
                assert_eq!(writes, &vec!["c".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
