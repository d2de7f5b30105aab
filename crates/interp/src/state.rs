//! Internal scheduler state.

use crate::clock::SimTime;
use crate::policy::SchedPolicy;
use crate::vtid::Vtid;
use crate::SchedError;
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::future::Future;
use std::pin::Pin;

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
            BlockReason::Other(s) => write!(f, "{s}"),
        }
    }
}

/// Lifecycle state of one virtual thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ThreadStatus {
    /// Wants to run; waiting to be chosen.
    Runnable,
    /// The thread the driver is resuming.
    Running,
    /// Blocked on a scheduler primitive.
    Blocked(BlockReason),
    /// The body returned or panicked.
    Finished,
}

/// A virtual thread's suspended body: the driver resumes it by polling,
/// and it suspends only inside a scheduler primitive.
pub(crate) type Body = Pin<Box<dyn Future<Output = ()>>>;

/// Per-thread bookkeeping slot.
pub(crate) struct ThreadSlot {
    pub(crate) name: String,
    /// Changed only through [`Inner::set_status`], which keeps the run
    /// queue and the live count in step with it.
    status: ThreadStatus,
    /// Pending wake tokens: an `unblock` delivered before the target
    /// actually blocks must not be lost.
    pub(crate) wake_tokens: u32,
    /// The suspended body; `None` while it is being resumed and once it
    /// has finished.
    pub(crate) body: Option<Body>,
    /// The panic message, when the body ended by panicking.
    pub(crate) panic: Option<String>,
    /// Virtual clock.
    pub(crate) clock: SimTime,
    /// Threads blocked in `join` on this thread.
    pub(crate) join_waiters: Vec<Vtid>,
    /// Scheduling priority ([`crate::SchedPolicy::Priority`] only): drawn
    /// or pinned at spawn, lowered by change-point demotions.
    pub(crate) priority: i64,
}

impl ThreadSlot {
    pub(crate) fn new(name: String, body: Body) -> Self {
        ThreadSlot {
            name,
            status: ThreadStatus::Runnable,
            wake_tokens: 0,
            body: Some(body),
            panic: None,
            clock: SimTime::ZERO,
            join_waiters: Vec::new(),
            priority: 0,
        }
    }

    pub(crate) fn status(&self) -> &ThreadStatus {
        &self.status
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

/// The scheduler's mutable state. One OS thread drives a run, so a
/// `RefCell` in the runtime guards it; no borrow is held across a resume.
pub(crate) struct Inner {
    slots: Vec<ThreadSlot>,
    /// The run queue: every `Runnable` or `Running` thread, in ascending
    /// id order. A thread being resumed stays queued, so a yield edits
    /// nothing; [`Inner::choose`] runs only while nothing is `Running`,
    /// when the queue is exactly the runnable set. The order is
    /// load-bearing: a policy's RNG draw indexes into it and ties break
    /// toward its front, so it decides which schedule a `(seed, depth,
    /// pins)` token names.
    runnable: Vec<Vtid>,
    /// Threads not yet `Finished`.
    live: usize,
    /// The thread being resumed, if any.
    pub(crate) current: Option<Vtid>,
    /// Maximum over all per-thread virtual clocks, ever.
    pub(crate) makespan: SimTime,
    /// Scheduling decisions taken so far.
    pub(crate) steps: u64,
    /// Last thread resumed (for round-robin).
    pub(crate) last_granted: Option<Vtid>,
    /// Once set, no more decisions are taken and every scheduler primitive
    /// returns this error, so that all threads unwind.
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
            live: 0,
            current: None,
            makespan: SimTime::ZERO,
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

    /// Move `v` to `status`, keeping the run queue and live count
    /// consistent. The queue changes only when `v` enters or leaves
    /// {`Runnable`, `Running`}: a resume and a yield touch nothing, a block
    /// or a finish leaves the queue and an unblock re-enters it, each at a
    /// binary-searched position.
    pub(crate) fn set_status(&mut self, v: Vtid, status: ThreadStatus) {
        let queued = |s: &ThreadStatus| matches!(s, ThreadStatus::Runnable | ThreadStatus::Running);
        match (queued(&self.slots[v.index()].status), queued(&status)) {
            (true, false) => {
                if let Ok(at) = self.runnable.binary_search(&v) {
                    self.runnable.remove(at);
                }
            }
            (false, true) => {
                let at = self.runnable.partition_point(|&r| r < v);
                self.runnable.insert(at, v);
            }
            _ => {}
        }
        if status == ThreadStatus::Finished {
            self.live -= 1;
        }
        self.slots[v.index()].status = status;
    }

    /// The policy's pick among the runnable threads; `None` when the run
    /// queue is empty. Called only between resumes, while no thread is
    /// `Running`.
    pub(crate) fn choose(&mut self, policy: SchedPolicy) -> Option<Vtid> {
        debug_assert!(
            self.current.is_none()
                && self
                    .runnable
                    .iter()
                    .all(|&v| self.slots[v.index()].status == ThreadStatus::Runnable),
            "a decision while a thread is Running"
        );
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
            |v| slots[v.index()].clock,
            |v| slots[v.index()].priority,
            self.last_granted,
            &mut self.rng,
        )
    }

    pub(crate) fn slots(&self) -> &[ThreadSlot] {
        &self.slots
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
            inner.push(ThreadSlot::new(name.into(), Box::pin(async {})));
        }
        assert_eq!(inner.runnable, [vt(0), vt(1), vt(2), vt(3)]);
        inner.set_status(vt(1), ThreadStatus::Running);
        inner.set_status(vt(3), ThreadStatus::Blocked(BlockReason::Other("x".into())));
        inner.set_status(vt(0), ThreadStatus::Finished);
        // A thread being resumed stays queued.
        assert_eq!(inner.runnable, [vt(1), vt(2)]);
        assert_eq!(inner.live(), 3);
        inner.set_status(vt(1), ThreadStatus::Blocked(BlockReason::Other("y".into())));
        assert_eq!(inner.runnable, [vt(2)]);
        // Re-entering out of spawn order lands in id order, not at the back.
        inner.set_status(vt(3), ThreadStatus::Runnable);
        inner.set_status(vt(1), ThreadStatus::Runnable);
        assert_eq!(inner.runnable, [vt(1), vt(2), vt(3)]);
        assert_eq!(inner.choose(SchedPolicy::RoundRobin), Some(vt(1)));
    }

    /// Ten thousand seeded status changes over 64 threads: the run queue is
    /// always the ascending list of `Runnable` and `Running` threads a
    /// `BTreeSet` keeps, and `live` counts the threads not `Finished`
    /// (which is final).
    #[test]
    fn run_queue_matches_a_btreeset_over_random_status_changes() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let mut inner = Inner::new(ChaCha8Rng::seed_from_u64(0), PctState::default());
        let mut rng = ChaCha8Rng::seed_from_u64(27);
        let n = 64;
        for i in 0..n {
            inner.push(ThreadSlot::new(format!("t{i}"), Box::pin(async {})));
        }
        let mut runnable: BTreeSet<Vtid> = (0..n).map(Vtid::from_index).collect();
        let mut live = n;
        for _ in 0..10_000 {
            let v = Vtid::from_index(rng.gen_range(0..n));
            if *inner.slot(v).status() == ThreadStatus::Finished {
                continue;
            }
            let status = match rng.gen_range(0..400u32) {
                0 => ThreadStatus::Finished,
                1..=160 => ThreadStatus::Runnable,
                161..=240 => ThreadStatus::Running,
                _ => ThreadStatus::Blocked(BlockReason::Other("x".into())),
            };
            runnable.remove(&v);
            match status {
                ThreadStatus::Runnable | ThreadStatus::Running => {
                    runnable.insert(v);
                }
                ThreadStatus::Finished => live -= 1,
                _ => {}
            }
            inner.set_status(v, status);
            assert!(inner.runnable.iter().eq(runnable.iter()));
            assert_eq!(inner.live(), live);
        }
        assert!(
            live > 0 && live < n,
            "the walk finished some threads, not all"
        );
    }
}
