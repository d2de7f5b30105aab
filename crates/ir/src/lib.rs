//! # home-ir — the hybrid MPI/OpenMP mini-language
//!
//! The paper's static phase consumes a compiler front-end's view of a
//! C/Fortran hybrid program. This crate is our substitution: a small C-like
//! language with OpenMP constructs, MPI calls, and an abstract `compute`
//! statement, offered through three equivalent front doors:
//!
//! * [`parse`] — a text DSL (see `parser` docs for the grammar by example);
//! * [`build`] — a Rust builder API used by the workload generators;
//! * the raw [`Program`]/[`Stmt`]/[`Expr`] types, built directly.
//!
//! Statements carry dense [`NodeId`]s, which the CFG (`home-static`) and
//! instrumentation checklist refer back to, and source lines, which
//! violation reports display.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod ast;
pub mod build;
mod lexer;
mod parser;
mod printer;

pub use ast::{
    BinOp, Expr, IrReduceOp, IrThreadLevel, MpiStmt, NodeId, Program, Schedule, Stmt, StmtKind,
};
pub use parser::parse;
pub use printer::print_program;
