//! # home-sched — deterministic virtual-thread scheduler
//!
//! The substrate underneath the HOME checker's simulated MPI ranks and
//! OpenMP threads. Every concurrent entity in the simulation (an MPI rank,
//! an OpenMP worker inside a rank) is a *virtual thread*: a closure whose
//! progress is gated by this scheduler.
//!
//! ## Execution model
//!
//! * **Step token.** Exactly one virtual thread runs at a time. At every
//!   *yield point* (and whenever the running thread blocks or finishes) the
//!   scheduler picks the next runnable thread according to a
//!   [`SchedPolicy`] (seeded random, round-robin, earliest-virtual-clock-
//!   first, or PCT priorities) and hands it the token. A fixed seed
//!   reproduces the exact same interleaving, which is what lets the test
//!   suite reproduce schedule-dependent behaviour such as races that only
//!   manifest under some interleavings.
//! * **Parker.** A thread without the token parks its OS thread
//!   (`std::thread::park`). The granter publishes the grant under the
//!   runtime's mutex, releases the mutex, then unparks the target and parks
//!   itself: one wake and one wait per hand-off, and the woken thread never
//!   queues behind the granter on the mutex.
//! * **Carrier pool.** Bodies run on process-wide *carrier* OS threads. A
//!   carrier that finishes a body goes idle and takes the next spawn — from
//!   this runtime or any other — so a run needs only as many OS threads as
//!   it has virtual threads live at once, however many parallel regions,
//!   seeds or explored schedules it goes through.
//! * **Run queue.** The runnable threads are kept in ascending id order.
//!   The order is part of the contract: a random draw indexes into the
//!   queue and every tie breaks toward its front, so the order decides
//!   which interleaving a `(seed, depth, pins)` token names.
//!
//! The scheduler also maintains a **virtual clock** per thread (nanosecond
//! resolution). Simulated compute charges time with [`Runtime::advance_ns`],
//! message deliveries propagate clocks across threads, and the maximum
//! per-thread clock at the end of a run is the simulated makespan reported
//! by the benchmark harness.
//!
//! Finally, the scheduler performs **whole-system deadlock
//! detection**: if every live virtual thread is blocked, all blocked threads
//! are woken with [`SchedError::Deadlock`], carrying a report of who was
//! blocked on what. This is how the paper's Figure 2 case study (two threads
//! per rank receiving with the same tag) is caught deterministically.
//!
//! ## Example
//!
//! ```
//! use home_sched::{Runtime, SchedConfig};
//!
//! let rt = Runtime::new(SchedConfig::deterministic(42));
//! let h1 = rt.spawn("worker-0", {
//!     let rt = rt.clone();
//!     move || { rt.advance_ns(100); 1 }
//! });
//! let h2 = rt.spawn("worker-1", {
//!     let rt = rt.clone();
//!     move || { rt.advance_ns(250); 2 }
//! });
//! rt.run();
//! assert_eq!(h1.join().unwrap() + h2.join().unwrap(), 3);
//! assert_eq!(rt.makespan().as_nanos(), 250);
//! ```

// Failures surface as `SchedError`/`JoinError`; the only panics left are the
// documented ones (a virtual-thread-only primitive called from an unmanaged
// thread, OS-thread exhaustion).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod clock;
mod config;
mod deadlock;
mod handle;
mod policy;
mod pool;
mod runtime;
mod semaphore;
mod state;
mod vtid;

pub use clock::SimTime;
pub use config::{SchedConfig, PRIORITY_BASE_MAX, PRIORITY_BASE_MIN};
pub use deadlock::{BlockedThread, DeadlockInfo};
pub use handle::{JoinError, JoinHandle};
pub use policy::SchedPolicy;
pub use runtime::{current_runtime, current_vtid, Runtime};
pub use semaphore::SimSemaphore;
pub use state::BlockReason;
pub use vtid::Vtid;

/// Errors surfaced to virtual threads by scheduler primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// Every live virtual thread was blocked; the run cannot make progress.
    Deadlock(DeadlockInfo),
    /// The runtime was shut down while this thread was blocked.
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
