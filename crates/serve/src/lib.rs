//! # home-serve — multi-tenant HBT trace ingest
//!
//! The collector side of the HOME pipeline: long-lived daemons accept
//! recorded HBT streams from many instrumented runs, analyze each with the
//! same per-seed [`Session`](home_core::Session) machinery the `check`
//! pipeline uses, and aggregate verdicts across the fleet.
//!
//! * [`analyze_trace`] / [`analyze_stream`] — the shared verdict path:
//!   one session run per recorded section, violations keyed by the rule
//!   engine with their canonical
//!   [`EmitOrder`](home_core::EmitOrder) position. `home replay` calls the
//!   same functions, so daemon verdicts are byte-identical to offline
//!   ones.
//! * [`Server`] — the Unix-domain-socket daemon behind `home serve`:
//!   thread-per-connection, a counting gate bounding concurrent ingest
//!   sessions (backpressure instead of unbounded memory), cross-run
//!   violation aggregation, JSON `STATUS` fleet reports.
//! * [`submit`] / [`status`] / [`stop`] — the client calls behind
//!   `home submit` and `home serve --status`/`--stop`.
//!
//! Every byte that crosses the socket is untrusted; see the trust-model
//! notes on [`server`](crate::Server) and the bounded HBT readers in
//! `home_stream::hbt`.

// The daemon faces hostile input and must never panic on it; fallible
// paths return typed errors. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod analyze;
mod client;
mod protocol;
mod server;

pub use analyze::{
    analyze_sections, analyze_stream, analyze_trace, analyze_trace_run, combine_verdicts,
    violation_identity, TraceOutcome, ViolationIdentity,
};
pub use client::{ping, status, stop, submit};
pub use protocol::parse_reply;
pub use server::{ServeConfig, Server};
