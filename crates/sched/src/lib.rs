//! # home-sched — deterministic virtual-thread scheduler
//!
//! The substrate underneath the HOME checker's simulated MPI ranks and
//! OpenMP threads. Every concurrent entity in the simulation (an MPI rank,
//! an OpenMP worker inside a rank) is a *virtual thread*: a future that
//! this scheduler resumes one step at a time.
//!
//! ## Execution model
//!
//! * **Bodies are futures.** [`Runtime::spawn`] stores the thread's body —
//!   any `Future` — in the thread's slot. The body suspends only inside a
//!   scheduler primitive: [`Runtime::yield_now`],
//!   [`Runtime::block_current`], [`JoinHandle::wait`], or a future built
//!   from those (the MPI and OpenMP simulators' blocking calls). The
//!   compiler turns each body into a resumable state machine, so a virtual
//!   thread is plain data: no OS thread, no stack of its own.
//! * **One driver.** [`Runtime::run`] is the only loop, on the OS thread
//!   that calls it. It takes a *decision* — the [`SchedPolicy`] (seeded
//!   random, round-robin, earliest-virtual-clock-first, or PCT priorities)
//!   picks one runnable thread — resumes that thread until it next
//!   suspends or finishes, and decides again. A decision costs a return
//!   and a call; nothing sleeps, wakes or locks, and a run makes no system
//!   call of its own. A fixed seed reproduces the exact same interleaving,
//!   which is what lets the test suite reproduce schedule-dependent
//!   behaviour such as races that only manifest under some interleavings.
//! * **Run queue.** The runnable threads are kept in ascending id order.
//!   The order is part of the contract: a random draw indexes into the
//!   queue and every tie breaks toward its front, so the order decides
//!   which interleaving a `(seed, depth, pins)` token names.
//! * **One runtime, one OS thread.** A [`Runtime`] and everything its
//!   bodies share are `!Send`. Real concurrency is one runtime per OS
//!   thread (`--jobs` over seeds and exploration rounds); runtimes share
//!   nothing.
//!
//! The scheduler also maintains a **virtual clock** per thread (nanosecond
//! resolution). Simulated compute charges time with [`Runtime::advance_ns`],
//! message deliveries propagate clocks across threads, and the maximum
//! per-thread clock at the end of a run is the simulated makespan reported
//! by the benchmark harness.
//!
//! Finally, the scheduler performs **whole-system deadlock
//! detection**: if every live virtual thread is blocked, the run is
//! *poisoned* with [`SchedError::Deadlock`], carrying a report of who was
//! blocked on what, and every unfinished thread is resumed once more with
//! that error, in ascending id order, so each unwinds through `?` and
//! whatever it does on the way out (events it still emits, results it
//! returns) is as reproducible as the schedule before it. A step bound
//! ([`SchedConfig::max_steps`]) poisons the same way. This is how the
//! paper's Figure 2 case study (two threads per rank receiving with the
//! same tag) is caught deterministically. A panicking body is caught where
//! it was resumed and becomes [`JoinError::Panicked`]; the other threads
//! never notice.
//!
//! ## Example
//!
//! ```
//! use home_sched::{Runtime, SchedConfig};
//!
//! let rt = Runtime::new(SchedConfig::deterministic(42));
//! let h1 = rt.spawn("worker-0", {
//!     let rt = rt.clone();
//!     async move {
//!         rt.advance_ns(100);
//!         rt.yield_now().await?;
//!         Ok::<_, home_sched::SchedError>(1)
//!     }
//! });
//! let h2 = rt.spawn("worker-1", {
//!     let rt = rt.clone();
//!     async move { rt.advance_ns(250); 2 }
//! });
//! rt.run().unwrap();
//! assert_eq!(h1.join().unwrap().unwrap() + h2.join().unwrap(), 3);
//! assert_eq!(rt.makespan().as_nanos(), 250);
//! assert_eq!(rt.steps(), 3);
//! ```

// Failures surface as `SchedError`/`JoinError`; the only panic left is the
// documented one (a virtual-thread-only primitive called from outside a
// virtual thread).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod clock;
mod config;
mod deadlock;
mod handle;
mod policy;
mod runtime;
mod state;
mod vtid;

pub use clock::SimTime;
pub use config::{SchedConfig, PRIORITY_BASE_MAX, PRIORITY_BASE_MIN};
pub use deadlock::{BlockedThread, DeadlockInfo};
pub use handle::{JoinError, JoinHandle};
pub use policy::SchedPolicy;
pub use runtime::Runtime;
pub use state::BlockReason;
pub use vtid::Vtid;

/// Errors surfaced to virtual threads by scheduler primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// Every live virtual thread was blocked; the run cannot make progress.
    Deadlock(DeadlockInfo),
    /// The run hit its step bound ([`SchedConfig::max_steps`]) and was
    /// aborted.
    Shutdown,
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Deadlock(info) => write!(f, "deadlock detected: {info}"),
            SchedError::Shutdown => write!(f, "runtime shut down"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Result alias for scheduler primitives that can observe a deadlock.
pub type SchedResult<T> = Result<T, SchedError>;
