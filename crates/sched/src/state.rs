//! Internal scheduler state.

use crate::clock::SimTime;
use crate::policy::SchedPolicy;
use crate::vtid::Vtid;
use crate::SchedError;
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::Thread;

/// Why a virtual thread is blocked. Carried into deadlock reports so the
/// HOME pipeline can explain *what* each participant was waiting for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting for a message (MPI receive/wait/probe). The payload is a
    /// human-readable description such as `"MPI_Recv(src=1, tag=0)"`.
    Message(String),
    /// Waiting to acquire a lock (OpenMP critical section or runtime lock).
    Lock(String),
    /// Waiting at a barrier (OpenMP barrier or MPI collective).
    Barrier(String),
    /// Waiting for another virtual thread to finish.
    Join(String),
    /// Waiting on a semaphore.
    Semaphore(String),
    /// Anything else.
    Other(String),
}

impl fmt::Display for BlockReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockReason::Message(s) => write!(f, "message: {s}"),
            BlockReason::Lock(s) => write!(f, "lock: {s}"),
            BlockReason::Barrier(s) => write!(f, "barrier: {s}"),
            BlockReason::Join(s) => write!(f, "join: {s}"),
            BlockReason::Semaphore(s) => write!(f, "semaphore: {s}"),
            BlockReason::Other(s) => write!(f, "{s}"),
        }
    }
}

/// Lifecycle state of one virtual thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ThreadStatus {
    /// Wants to run; waiting for a grant.
    Runnable,
    /// Currently holds the step token.
    Running,
    /// Blocked on a scheduler primitive.
    Blocked(BlockReason),
    /// The closure returned or panicked.
    Finished,
}

/// Per-thread bookkeeping slot.
pub(crate) struct ThreadSlot {
    pub(crate) name: String,
    /// Changed only through [`Inner::set_status`], which keeps the run
    /// queue and the running/live counts in step with it.
    status: ThreadStatus,
    /// Pending wake tokens (park/unpark protocol): an `unblock` delivered
    /// before the target actually blocks must not be lost.
    pub(crate) wake_tokens: u32,
    /// True once a grant has been issued and not yet consumed.
    pub(crate) granted: bool,
    /// The carrier running this thread's body: it parks while the thread
    /// waits for the step token and is unparked by whoever grants it.
    pub(crate) carrier: Thread,
    /// Virtual clock, shared with the thread-local fast path.
    pub(crate) clock: Arc<AtomicU64>,
    /// Threads blocked in `join` on this thread.
    pub(crate) join_waiters: Vec<Vtid>,
    /// Someone waits on the runtime's condvar for this thread to finish.
    pub(crate) cv_joined: bool,
    /// Scheduling priority ([`crate::SchedPolicy::Priority`] only): drawn
    /// or pinned at spawn, lowered by change-point demotions.
    pub(crate) priority: i64,
}

impl ThreadSlot {
    pub(crate) fn new(name: String, carrier: Thread, clock: Arc<AtomicU64>) -> Self {
        ThreadSlot {
            name,
            status: ThreadStatus::Runnable,
            wake_tokens: 0,
            granted: false,
            carrier,
            clock,
            join_waiters: Vec::new(),
            cv_joined: false,
            priority: 0,
        }
    }

    pub(crate) fn status(&self) -> &ThreadStatus {
        &self.status
    }

    pub(crate) fn clock_now(&self) -> SimTime {
        SimTime::from_nanos(self.clock.load(std::sync::atomic::Ordering::Relaxed))
    }
}

/// PCT bookkeeping for [`crate::SchedPolicy::Priority`]: which scheduling
/// decisions are priority-change points, how many decisions have been
/// taken, and the next (descending, non-positive) demotion priority.
#[derive(Default)]
pub(crate) struct PctState {
    /// Sorted decision indices (1-based) at which the would-be winner is
    /// demoted below every other thread. Drawn from the seed at
    /// [`crate::Runtime::new`], so `(seed, depth)` fully names the schedule.
    pub(crate) change_points: Vec<u64>,
    /// Scheduling decisions taken under the priority policy.
    pub(crate) decisions: u64,
    /// Priority assigned by the most recent demotion; each demotion takes
    /// the next lower value, so later demotions rank below earlier ones
    /// (PCT's ordering) and all demotions rank below unpinned draws.
    pub(crate) next_demotion: i64,
}

/// Shared mutable scheduler state, protected by the runtime's global mutex.
pub(crate) struct Inner {
    slots: Vec<ThreadSlot>,
    /// The run queue: every `Runnable` thread, in ascending id order. The
    /// order is load-bearing: a policy's RNG draw indexes into it and ties
    /// break toward its front, so it decides which schedule a `(seed,
    /// depth, pins)` token names.
    runnable: Vec<Vtid>,
    /// Threads currently `Running` (at most one until the run is poisoned).
    running: usize,
    /// Threads not yet `Finished`.
    live: usize,
    /// Scheduling decisions taken so far.
    pub(crate) steps: u64,
    /// Last thread granted (for round-robin).
    pub(crate) last_granted: Option<Vtid>,
    /// Once set, every scheduler primitive returns this error and gating is
    /// disabled so that all threads can unwind.
    pub(crate) poison: Option<SchedError>,
    /// RNG behind random picks and priority draws.
    pub(crate) rng: ChaCha8Rng,
    /// Priority-change-point state ([`crate::SchedPolicy::Priority`] only).
    pct: PctState,
}

impl Inner {
    pub(crate) fn new(rng: ChaCha8Rng, pct: PctState) -> Self {
        Inner {
            slots: Vec::new(),
            runnable: Vec::new(),
            running: 0,
            live: 0,
            steps: 0,
            last_granted: None,
            poison: None,
            rng,
            pct,
        }
    }

    /// Append a freshly spawned (`Runnable`) thread's slot; its id is the
    /// slot's index, the largest so far, so it joins the run queue's back.
    pub(crate) fn push(&mut self, slot: ThreadSlot) {
        self.runnable.push(Vtid::from_index(self.slots.len()));
        self.slots.push(slot);
        self.live += 1;
    }

    /// Move `v` to `status`, keeping the run queue and counts consistent.
    pub(crate) fn set_status(&mut self, v: Vtid, status: ThreadStatus) {
        match self.slots[v.index()].status {
            ThreadStatus::Runnable => self.runnable.retain(|&r| r != v),
            ThreadStatus::Running => self.running -= 1,
            ThreadStatus::Blocked(_) | ThreadStatus::Finished => {}
        }
        match status {
            ThreadStatus::Runnable => {
                let at = self.runnable.partition_point(|&r| r < v);
                self.runnable.insert(at, v);
            }
            ThreadStatus::Running => self.running += 1,
            ThreadStatus::Blocked(_) => {}
            ThreadStatus::Finished => self.live -= 1,
        }
        self.slots[v.index()].status = status;
    }

    /// The policy's pick among the runnable threads; `None` when the run
    /// queue is empty.
    pub(crate) fn choose(&mut self, policy: SchedPolicy) -> Option<Vtid> {
        if self.runnable.is_empty() {
            return None;
        }
        if let SchedPolicy::Priority { .. } = policy {
            // PCT change point: when this decision's index was drawn at
            // construction, the thread that would win is demoted below
            // every other thread (and below all earlier demotions), handing
            // the step — and all subsequent ones until the next change
            // point — to the runner-up.
            self.pct.decisions += 1;
            if self
                .pct
                .change_points
                .binary_search(&self.pct.decisions)
                .is_ok()
            {
                let top = self.pick(policy);
                self.pct.next_demotion -= 1;
                self.slots[top.index()].priority = self.pct.next_demotion;
            }
        }
        Some(self.pick(policy))
    }

    fn pick(&mut self, policy: SchedPolicy) -> Vtid {
        let slots = &self.slots;
        policy.choose(
            &self.runnable,
            |v| slots[v.index()].clock_now(),
            |v| slots[v.index()].priority,
            self.last_granted,
            &mut self.rng,
        )
    }

    pub(crate) fn slots(&self) -> &[ThreadSlot] {
        &self.slots
    }

    pub(crate) fn running(&self) -> usize {
        self.running
    }

    pub(crate) fn live(&self) -> usize {
        self.live
    }

    pub(crate) fn slot(&self, v: Vtid) -> &ThreadSlot {
        &self.slots[v.index()]
    }

    pub(crate) fn slot_mut(&mut self, v: Vtid) -> &mut ThreadSlot {
        &mut self.slots[v.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_reason_display() {
        assert_eq!(
            BlockReason::Message("MPI_Recv(src=1)".into()).to_string(),
            "message: MPI_Recv(src=1)"
        );
        assert_eq!(BlockReason::Lock("cs".into()).to_string(), "lock: cs");
        assert_eq!(BlockReason::Other("x".into()).to_string(), "x");
    }

    #[test]
    fn run_queue_stays_ascending_and_counts_follow_status() {
        use rand::SeedableRng;
        let mut inner = Inner::new(ChaCha8Rng::seed_from_u64(0), PctState::default());
        let vt = Vtid::from_index;
        for name in ["a", "b", "c", "d"] {
            inner.push(ThreadSlot::new(
                name.into(),
                std::thread::current(),
                Arc::default(),
            ));
        }
        assert_eq!(inner.runnable, [vt(0), vt(1), vt(2), vt(3)]);
        inner.set_status(vt(1), ThreadStatus::Running);
        inner.set_status(vt(3), ThreadStatus::Blocked(BlockReason::Other("x".into())));
        inner.set_status(vt(0), ThreadStatus::Finished);
        assert_eq!(inner.runnable, [vt(2)]);
        assert_eq!((inner.running(), inner.live()), (1, 3));
        // Re-entering out of spawn order lands in id order, not at the back.
        inner.set_status(vt(3), ThreadStatus::Runnable);
        inner.set_status(vt(1), ThreadStatus::Runnable);
        assert_eq!(inner.runnable, [vt(1), vt(2), vt(3)]);
        assert_eq!(inner.running(), 0);
        assert_eq!(inner.choose(SchedPolicy::RoundRobin), Some(vt(1)));
    }
}
