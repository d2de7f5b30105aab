//! # home-explore — guided schedule-space exploration
//!
//! The HOME detector is predictive (lockset + happens-before: races need
//! not manifest to be reported), but it can only analyze code that
//! *executed*. A schedule-dependent branch that never runs is invisible,
//! and seeded uniform-random interleaving — the checker's default — is
//! exactly the coverage strategy whose misses the paper measures in its
//! Marmot comparison. This crate turns the deterministic step-token
//! scheduler into a bug hunter: it drives the existing
//! `sched`/`interp`/`core::Session` pipeline through many schedules,
//! choosing *which* schedules to run.
//!
//! Three strategies, layered on [`home_sched::SchedPolicy::Priority`]:
//!
//! * **PCT priority schedules** ([`Strategy::Pct`]) — every thread draws a
//!   random priority at spawn, the highest-priority runnable thread always
//!   runs, and `d` seed-derived priority-change points demote the would-be
//!   winner. For a bug of depth `d` this finds it with probability
//!   ≥ 1/(k·n^(d-1)) per schedule (Burckhardt et al., ASPLOS 2010) —
//!   polynomial where uniform random is exponential. Each schedule is the
//!   reproducible token `(seed, depth)`.
//! * **Race-directed rescheduling** ([`Strategy::Directed`]) — when a run
//!   surfaces a *suspect* (a plain-variable race, or a monitored race the
//!   rules could not classify), the explorer re-runs the same seed with
//!   the two racing threads' priorities pinned to flip the observed order
//!   of the two accesses, forcing the interleaving that would confirm or
//!   kill the suspicion.
//! * **DPOR-lite pruning** (always on) — every executed schedule is
//!   reduced to a [`schedule_fingerprint`]: a hash of its
//!   happens-before-relevant per-rank event projections. Detection is
//!   per-rank, so two schedules with equal fingerprints get identical
//!   verdicts; the second one is counted as *deduplicated* and skipped
//!   instead of re-detected.
//!
//! The [`explore`] budget loop fans fixed-size schedule batches over the
//! same indexed fan-out the seed pipeline uses, so reports are
//! byte-identical for every `--jobs` value, and aggregates violations by
//! the core identity key `(kind, rank, locations)` — first schedule to
//! find a violation wins the attribution.

// Same posture as home-core: exploration must degrade (failed schedule →
// partial report), never abort.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod explorer;
mod fingerprint;
mod token;

pub use explorer::{explore, Coverage, ExploreOptions, ExploreReport, FoundViolation, Strategy};
pub use fingerprint::schedule_fingerprint;
pub use token::{ScheduleToken, DIRECTED_HIGH, DIRECTED_LOW};
