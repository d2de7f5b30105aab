//! # home-core — the HOME checker
//!
//! The paper's tool, end to end:
//!
//! 1. **Static phase** ([`home_static::analyze`]) — CFG walk marking MPI
//!    calls inside OpenMP parallel regions for wrapper instrumentation and
//!    producing the monitored-variable checklist.
//! 2. **Instrumented execution** ([`home_interp::run`]) — the program runs
//!    on the simulated MPI/OpenMP substrates; selected call sites write the
//!    monitored variables (`srctmp`, `tagtmp`, `commtmp`, `requesttmp`,
//!    `collectivetmp`, `finalizetmp`) tagged with thread ids.
//! 3. **Dynamic phase** ([`home_stream::StreamDetector`], inside a
//!    [`Session`], while the program runs) — lockset + happens-before
//!    concurrency detection over the monitored variables.
//! 4. **Rule matching** ([`match_violations`]) — concurrency results are
//!    matched against the six thread-safety predicates of Section III-A,
//!    yielding [`Violation`]s with source locations.
//!
//! Entry point: [`check`]. [`explore`] drives the same pipeline through
//! many chosen schedules instead of a list of seeds.

// Fallible paths return `HomeError` instead of panicking: a poisoned seed
// or trace must degrade into a partial report, never abort the pipeline.
// Tests are exempt (the attribute is off under cfg(test)).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod explorer;
mod fanout;
mod fingerprint;
mod pipeline;
mod replay;
mod report;
mod rules;
mod session;
mod sink;
mod token;

pub use explorer::{explore, ExploreOptions, ExploreReport, Strategy};
pub use fanout::{default_jobs, fan_out_indexed_with};
pub use fingerprint::schedule_fingerprint;
pub use pipeline::{check, check_with_sink, CheckOptions};
pub use replay::decode_trace;

pub use report::{
    violation_identity, CandidateStatus, EmitOrder, EmittedViolation, HomeReport, SeedRun,
    SeedStatus, Violation, ViolationIdentity, ViolationKind,
};
pub use rules::{match_rules, match_violations, RuleEngine};
pub use session::{analyze_run, Session, SessionOutcome, FEED_BATCH};
pub use sink::{NullViolationSink, ViolationCollector, ViolationSink};
pub use token::{ScheduleToken, DIRECTED_HIGH, DIRECTED_LOW};
