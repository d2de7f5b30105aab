//! Flow-insensitive abstract evaluation of MPI-argument expressions.
//!
//! The static phase wants to know, for each MPI call inside a hybrid
//! region, whether its `tag`/`source` arguments are *thread-distinct*
//! (depend on the OpenMP thread id — the paper's recommended fix of using
//! the thread id as tag), *constant*, or *unknown*. This lets the checklist
//! carry precision hints that reduce dynamic work and false positives.

use home_ir::{BinOp, Expr, Program, StmtKind};
use std::collections::HashMap;

/// Abstract value of an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// A compile-time constant.
    Const(i64),
    /// Depends on the OpenMP thread id (thread-distinct).
    TidDep,
    /// Depends on the MPI rank but not the thread id.
    RankDep,
    /// Anything else (or joined conflicting values).
    Unknown,
}

impl AbsVal {
    /// Lattice join.
    pub fn join(self, other: AbsVal) -> AbsVal {
        if self == other {
            self
        } else {
            match (self, other) {
                // Any combination involving tid-dependence stays
                // tid-dependent only if both sides are; otherwise Unknown —
                // except Const⊔Const (different) which is Unknown too.
                (AbsVal::TidDep, AbsVal::TidDep) => AbsVal::TidDep,
                _ => AbsVal::Unknown,
            }
        }
    }

    /// Combine through a binary operation: tid-dependence propagates.
    fn bin(self, other: AbsVal, op: BinOp, lv: Option<i64>, rv: Option<i64>) -> AbsVal {
        if let (Some(a), Some(b)) = (lv, rv) {
            if let Some(v) = const_bin(op, a, b) {
                return AbsVal::Const(v);
            }
        }
        if self == AbsVal::TidDep || other == AbsVal::TidDep {
            AbsVal::TidDep
        } else if self == AbsVal::RankDep || other == AbsVal::RankDep {
            AbsVal::RankDep
        } else {
            AbsVal::Unknown
        }
    }
}

fn const_bin(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a / b
        }
        BinOp::Mod => {
            if b == 0 {
                return None;
            }
            a % b
        }
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
        BinOp::And => ((a != 0) && (b != 0)) as i64,
        BinOp::Or => ((a != 0) || (b != 0)) as i64,
    })
}

/// A flow-insensitive abstract environment: every variable maps to the join
/// of all values ever assigned to it anywhere in the program. Sound (never
/// claims thread-distinctness that might not hold) and cheap.
#[derive(Debug, Clone, Default)]
pub struct AbsEnv {
    vars: HashMap<String, AbsVal>,
}

impl AbsEnv {
    /// Build the environment for a whole program.
    pub fn of_program(program: &Program) -> AbsEnv {
        let mut env = AbsEnv::default();
        // Two passes so later assignments influence earlier uses (loops).
        for _ in 0..2 {
            program.visit(&mut |s| match &s.kind {
                StmtKind::Decl { name, init, .. } => env.record(name, init),
                StmtKind::Assign { name, value } => env.record(name, value),
                StmtKind::For { var, .. } | StmtKind::OmpFor { var, .. } => {
                    // Loop variables range over iteration indices; inside an
                    // `omp for` the value is thread-dependent.
                    let v = if matches!(s.kind, StmtKind::OmpFor { .. }) {
                        AbsVal::TidDep
                    } else {
                        AbsVal::Unknown
                    };
                    env.set_join(var, v);
                }
                _ => {}
            });
        }
        env
    }

    fn record(&mut self, name: &str, value: &Expr) {
        let v = self.eval(value);
        self.set_join(name, v);
    }

    fn set_join(&mut self, name: &str, v: AbsVal) {
        let slot = self.vars.entry(name.to_string()).or_insert(v);
        *slot = slot.join(v);
    }

    /// Abstract value of `e` under this environment.
    pub fn eval(&self, e: &Expr) -> AbsVal {
        match e {
            Expr::Int(v) => AbsVal::Const(*v),
            Expr::Any => AbsVal::Const(-1),
            Expr::ThreadId | Expr::NumThreads => AbsVal::TidDep,
            Expr::Rank | Expr::Size => AbsVal::RankDep,
            Expr::Var(name) => self.vars.get(name).copied().unwrap_or(AbsVal::Unknown),
            Expr::Neg(inner) => match self.eval(inner) {
                AbsVal::Const(v) => AbsVal::Const(-v),
                other => other,
            },
            Expr::Not(inner) => match self.eval(inner) {
                AbsVal::Const(v) => AbsVal::Const((v == 0) as i64),
                other => other,
            },
            Expr::Bin(op, a, b) => {
                let av = self.eval(a);
                let bv = self.eval(b);
                let lv = match av {
                    AbsVal::Const(v) => Some(v),
                    _ => None,
                };
                let rv = match bv {
                    AbsVal::Const(v) => Some(v),
                    _ => None,
                };
                av.bin(bv, *op, lv, rv)
            }
        }
    }

    /// True if `e` is thread-distinct (contains the thread id).
    pub fn is_thread_distinct(&self, e: &Expr) -> bool {
        self.eval(e) == AbsVal::TidDep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use home_ir::parse;

    #[test]
    fn constants_fold() {
        let env = AbsEnv::default();
        let e = Expr::bin(BinOp::Add, Expr::int(2), Expr::int(3));
        assert_eq!(env.eval(&e), AbsVal::Const(5));
        assert_eq!(env.eval(&Expr::Any), AbsVal::Const(-1));
    }

    #[test]
    fn tid_propagates_through_arithmetic() {
        let env = AbsEnv::default();
        let e = Expr::bin(
            BinOp::Add,
            Expr::ThreadId,
            Expr::bin(BinOp::Mul, Expr::Rank, Expr::int(4)),
        );
        assert_eq!(env.eval(&e), AbsVal::TidDep);
        assert!(env.is_thread_distinct(&e));
    }

    #[test]
    fn rank_without_tid_is_rankdep() {
        let env = AbsEnv::default();
        let e = Expr::bin(BinOp::Add, Expr::Rank, Expr::int(1));
        assert_eq!(env.eval(&e), AbsVal::RankDep);
        assert!(!env.is_thread_distinct(&e));
    }

    #[test]
    fn variables_track_assignments() {
        let p = parse(
            "program v { shared int tag = 0; int t2 = tid; omp parallel { mpi_send(to: 1, tag: tag, count: 1); } }",
        )
        .unwrap();
        let env = AbsEnv::of_program(&p);
        assert_eq!(env.eval(&Expr::var("tag")), AbsVal::Const(0));
        assert_eq!(env.eval(&Expr::var("t2")), AbsVal::TidDep);
        assert_eq!(env.eval(&Expr::var("nosuch")), AbsVal::Unknown);
    }

    #[test]
    fn conflicting_assignments_join_to_unknown() {
        let p = parse("program j { int x = 1; x = 2; }").unwrap();
        let env = AbsEnv::of_program(&p);
        assert_eq!(env.eval(&Expr::var("x")), AbsVal::Unknown);
    }

    #[test]
    fn later_assignment_reaches_earlier_use_via_second_pass() {
        // `y = x;` before `x = tid;` — the two-pass join must still see the
        // tid-dependence of x when evaluating y's assignment.
        let p = parse("program l { int x = tid; int y = x; }").unwrap();
        let env = AbsEnv::of_program(&p);
        assert_eq!(env.eval(&Expr::var("y")), AbsVal::TidDep);
    }

    #[test]
    fn omp_for_loop_var_is_tid_dependent() {
        let p = parse("program f { omp parallel { omp for i in 0..8 { mpi_send(to: 1, tag: i, count: 1); } } }").unwrap();
        let env = AbsEnv::of_program(&p);
        assert_eq!(env.eval(&Expr::var("i")), AbsVal::TidDep);
    }

    #[test]
    fn join_laws() {
        use AbsVal::*;
        assert_eq!(Const(1).join(Const(1)), Const(1));
        assert_eq!(Const(1).join(Const(2)), Unknown);
        assert_eq!(TidDep.join(TidDep), TidDep);
        assert_eq!(TidDep.join(Const(1)), Unknown);
        assert_eq!(RankDep.join(Unknown), Unknown);
    }
}
