//! The virtual-thread runtime: a single-OS-thread executor.
//!
//! A virtual thread is a future. [`Runtime::run`] is the only loop: it
//! takes a scheduling decision, resumes the chosen thread by polling its
//! future on the calling OS thread, and takes the next decision when the
//! thread suspends in [`Runtime::yield_now`], [`Runtime::block_current`] or
//! an in-run join, or finishes. Nothing else in a run ever waits, so a
//! decision costs a function return and a call, not a kernel hand-off.

use crate::clock::SimTime;
use crate::config::{SchedConfig, PRIORITY_BASE_MAX, PRIORITY_BASE_MIN};
use crate::deadlock::{BlockedThread, DeadlockInfo};
use crate::handle::{JoinError, JoinHandle};
use crate::policy::SchedPolicy;
use crate::state::{BlockReason, Inner, PctState, ThreadSlot, ThreadStatus};
use crate::vtid::Vtid;
use crate::{SchedError, SchedResult};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::{RefCell, RefMut};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Hands control back to the driver once: pending at the first poll, ready
/// at the next. Every suspension of a virtual thread is one of these.
#[derive(Default)]
struct Suspend {
    resumed: bool,
}

impl Future for Suspend {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        if std::mem::replace(&mut self.resumed, true) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

struct RtShared {
    config: SchedConfig,
    inner: RefCell<Inner>,
}

/// A handle to the scheduler. Cheap to clone (`Rc` inside), and neither
/// `Send` nor `Sync`: a runtime, its virtual threads and everything they
/// share live on the OS thread that calls [`Runtime::run`]. Real
/// concurrency is one runtime per OS thread.
///
/// See the crate-level docs for the execution model. Methods documented as
/// requiring a *virtual thread* panic when called from outside a body the
/// driver is resuming.
#[derive(Clone)]
pub struct Runtime {
    shared: Rc<RtShared>,
}

impl Runtime {
    /// Create a runtime with the given configuration.
    pub fn new(config: SchedConfig) -> Runtime {
        let seed = config.seed;
        // Priority policy: draw the d change points up front from a stream
        // derived from (but independent of) the decision RNG, so the same
        // (seed, depth) always names the same schedule.
        let pct = if let SchedPolicy::Priority { depth } = config.policy {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
            let horizon = config.pct_horizon.max(1);
            let mut change_points: Vec<u64> =
                (0..depth).map(|_| rng.gen_range(0..horizon) + 1).collect();
            change_points.sort_unstable();
            change_points.dedup();
            PctState {
                change_points,
                ..PctState::default()
            }
        } else {
            PctState::default()
        };
        Runtime {
            shared: Rc::new(RtShared {
                config,
                inner: RefCell::new(Inner::new(ChaCha8Rng::seed_from_u64(seed), pct)),
            }),
        }
    }

    fn inner(&self) -> RefMut<'_, Inner> {
        self.shared.inner.borrow_mut()
    }

    /// Spawn a virtual thread with `body`. Nothing of it runs until
    /// [`Runtime::run`] first chooses it. The body may suspend only in this
    /// runtime's primitives (or futures built from them).
    pub fn spawn<T, F>(&self, name: impl Into<String>, body: F) -> JoinHandle<T>
    where
        T: 'static,
        F: Future<Output = T> + 'static,
    {
        let name = name.into();
        let cell = Rc::new(RefCell::new(None));
        let result = Rc::clone(&cell);
        let mut slot = ThreadSlot::new(
            name.clone(),
            Box::pin(async move {
                let value = body.await;
                *result.borrow_mut() = Some(value);
            }),
        );
        let mut inner = self.inner();
        // Priority policy: a pinned thread takes its pin verbatim;
        // everything else draws from the base range. Spawn order is
        // deterministic, so the draw sequence — and thus the whole priority
        // assignment — is a function of the seed.
        if let SchedPolicy::Priority { .. } = self.shared.config.policy {
            let pins = &self.shared.config.priority_pins;
            slot.priority = match pins.iter().find(|(pin, _)| *pin == name) {
                Some((_, p)) => *p,
                None => inner
                    .rng
                    .gen_range(PRIORITY_BASE_MIN..PRIORITY_BASE_MAX + 1),
            };
        }
        let vtid = Vtid::from_index(inner.slots().len());
        inner.push(slot);
        JoinHandle::new(self.clone(), vtid, cell, name)
    }

    /// Drive every virtual thread to completion on the calling OS thread
    /// (never from inside a virtual thread). Returns the poison error if
    /// the run deadlocked or hit its step bound.
    ///
    /// A poisoned run takes no more decisions: every unfinished thread is
    /// resumed with the error in ascending id order, so each unwinds
    /// through `?` and what it does on the way out is a function of the
    /// seed like everything before it.
    pub fn run(&self) -> SchedResult<()> {
        while let Some(next) = self.decide() {
            self.resume(next);
        }
        // A thread joining one that has not unwound yet waits for the next
        // sweep; a sweep that finishes nothing is the last (on a healthy
        // run, the first).
        let mut unwinding = true;
        while unwinding {
            unwinding = false;
            let mut index = 0;
            // Re-read the length: an unwinding body may still spawn.
            while index < self.inner().slots().len() {
                unwinding |= self.resume(Vtid::from_index(index));
                index += 1;
            }
        }
        self.healthy()
    }

    /// One scheduling decision: the policy's pick, `None` once the run is
    /// over — finished, deadlocked (nothing runnable, something live) or
    /// out of steps.
    fn decide(&self) -> Option<Vtid> {
        let mut inner = self.inner();
        if inner.poison.is_some() {
            return None;
        }
        let Some(next) = inner.choose(self.shared.config.policy) else {
            if inner.live() > 0 {
                let info = DeadlockInfo {
                    blocked: inner
                        .slots()
                        .iter()
                        .enumerate()
                        .filter_map(|(i, slot)| match slot.status() {
                            ThreadStatus::Blocked(reason) => Some(BlockedThread {
                                vtid: Vtid::from_index(i),
                                name: slot.name.clone(),
                                reason: reason.clone(),
                            }),
                            _ => None,
                        })
                        .collect(),
                    step: inner.steps,
                };
                inner.poison = Some(SchedError::Deadlock(info));
            }
            return None;
        };
        inner.steps += 1;
        if self
            .shared
            .config
            .max_steps
            .is_some_and(|max| inner.steps > max)
        {
            inner.poison = Some(SchedError::Shutdown);
            return None;
        }
        Some(next)
    }

    /// Run `v` until it next suspends or finishes, and say whether it
    /// finished. A panic in the body is caught here and finishes the thread.
    fn resume(&self, v: Vtid) -> bool {
        let mut body = {
            let mut inner = self.inner();
            // Only a finished thread has no body to resume.
            let Some(body) = inner.slot_mut(v).body.take() else {
                return false;
            };
            inner.set_status(v, ThreadStatus::Running);
            inner.last_granted = Some(v);
            inner.current = Some(v);
            body
        };
        let mut cx = Context::from_waker(Waker::noop());
        let polled = catch_unwind(AssertUnwindSafe(|| body.as_mut().poll(&mut cx)));
        let mut inner = self.inner();
        inner.current = None;
        let panic = match polled {
            Ok(Poll::Pending) => {
                inner.slot_mut(v).body = Some(body);
                return false;
            }
            Ok(Poll::Ready(())) => None,
            Err(payload) => Some(
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string()),
            ),
        };
        inner.slot_mut(v).panic = panic;
        inner.set_status(v, ThreadStatus::Finished);
        for w in std::mem::take(&mut inner.slot_mut(v).join_waiters) {
            Self::unblock_in(&mut inner, w);
        }
        true
    }

    /// `Err` with the poison once the run has deadlocked or hit its step
    /// bound.
    fn healthy(&self) -> SchedResult<()> {
        self.inner().poison.clone().map_or(Ok(()), Err)
    }

    /// Scheduling decisions taken so far.
    pub fn steps(&self) -> u64 {
        self.inner().steps
    }

    /// The virtual thread being resumed, if the caller is inside one.
    pub(crate) fn current_vtid(&self) -> Option<Vtid> {
        self.inner().current
    }

    /// The calling virtual thread. Calling a virtual-thread-only primitive
    /// (`what`) from outside one is a documented panic.
    fn me(inner: &Inner, what: &str) -> Vtid {
        match inner.current {
            Some(v) => v,
            None => panic!("{what} called outside a virtual thread"),
        }
    }

    // ---- scheduling primitives -------------------------------------------

    /// A voluntary yield point: the scheduler may switch to another virtual
    /// thread here. Must be called from a virtual thread.
    pub async fn yield_now(&self) -> SchedResult<()> {
        let me = Self::me(&self.inner(), "yield_now");
        self.suspend(me, ThreadStatus::Runnable).await
    }

    /// Block the calling virtual thread until another thread calls
    /// [`Runtime::unblock`] on it. If an unblock was already delivered
    /// (wake token), returns after a plain reschedule. Returns an error if
    /// the whole system deadlocks while this thread is blocked.
    pub async fn block_current(&self, reason: BlockReason) -> SchedResult<()> {
        let (me, status) = {
            let mut inner = self.inner();
            let me = Self::me(&inner, "block_current");
            let slot = inner.slot_mut(me);
            if slot.wake_tokens > 0 {
                slot.wake_tokens -= 1;
                (me, ThreadStatus::Runnable)
            } else {
                (me, ThreadStatus::Blocked(reason))
            }
        };
        self.suspend(me, status).await
    }

    /// Leave the calling thread `me` in `status` and hand control to the
    /// driver for one decision; back here, report the poison if the run
    /// ended meanwhile. On a poisoned run nothing suspends any more.
    async fn suspend(&self, me: Vtid, status: ThreadStatus) -> SchedResult<()> {
        self.healthy()?;
        self.inner().set_status(me, status);
        Suspend::default().await;
        self.healthy()
    }

    /// Make a blocked virtual thread runnable again (or credit it a wake
    /// token if it is not currently blocked).
    pub fn unblock(&self, vtid: Vtid) {
        Self::unblock_in(&mut self.inner(), vtid);
    }

    fn unblock_in(inner: &mut Inner, vtid: Vtid) {
        match inner.slot(vtid).status() {
            ThreadStatus::Blocked(_) => inner.set_status(vtid, ThreadStatus::Runnable),
            ThreadStatus::Finished => {}
            _ => inner.slot_mut(vtid).wake_tokens += 1,
        }
    }

    /// Wait, from a virtual thread, for `target` to finish: blocked through
    /// the scheduler (and so part of deadlock detection) on a healthy run,
    /// from sweep to sweep on a poisoned one, where `target` unwinds at its
    /// own turn. Used by [`JoinHandle::wait`].
    pub(crate) async fn join_wait(&self, target: Vtid) {
        loop {
            let name = {
                let mut inner = self.inner();
                if *inner.slot(target).status() == ThreadStatus::Finished {
                    return;
                }
                let me = Self::me(&inner, "JoinHandle::wait");
                inner.slot_mut(target).join_waiters.push(me);
                inner.slot(target).name.clone()
            };
            if self.block_current(BlockReason::Join(name)).await.is_err() {
                Suspend::default().await;
            }
        }
    }

    /// What `vtid` left behind: the value `cell` holds if its body
    /// returned, its panic message, or the run's error if it never
    /// finished. Used by [`JoinHandle`].
    pub(crate) fn outcome<T>(&self, vtid: Vtid, cell: &RefCell<Option<T>>) -> Result<T, JoinError> {
        if let Some(value) = cell.borrow_mut().take() {
            return Ok(value);
        }
        let inner = self.inner();
        match &inner.slot(vtid).panic {
            Some(msg) => Err(JoinError::Panicked(msg.clone())),
            None => Err(JoinError::Sched(
                inner.poison.clone().unwrap_or(SchedError::Shutdown),
            )),
        }
    }

    pub(crate) fn is_finished(&self, target: Vtid) -> bool {
        *self.inner().slot(target).status() == ThreadStatus::Finished
    }

    // ---- virtual time ------------------------------------------------------

    /// Advance the calling virtual thread's clock by `ns` nanoseconds.
    pub fn advance_ns(&self, ns: u64) {
        self.advance(SimTime::from_nanos(ns));
    }

    /// Advance the calling virtual thread's clock by `dt`.
    pub fn advance(&self, dt: SimTime) {
        let mut inner = self.inner();
        let me = Self::me(&inner, "advance");
        let now = inner.slot(me).clock + dt;
        inner.slot_mut(me).clock = now;
        inner.makespan = inner.makespan.max(now);
    }

    /// The calling virtual thread's clock.
    pub fn clock(&self) -> SimTime {
        let inner = self.inner();
        inner.slot(Self::me(&inner, "clock")).clock
    }

    /// Raise the calling virtual thread's clock to at least `t` (message
    /// delivery: receiver time = max(receiver, sender + latency)).
    pub(crate) fn merge_clock(&self, t: SimTime) {
        let mut inner = self.inner();
        let me = Self::me(&inner, "merge_clock");
        let now = inner.slot(me).clock.max(t);
        inner.slot_mut(me).clock = now;
        inner.makespan = inner.makespan.max(now);
    }

    /// Maximum virtual clock observed across all threads, ever — the
    /// simulated makespan of the run.
    pub fn makespan(&self) -> SimTime {
        self.inner().makespan
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner();
        f.debug_struct("Runtime")
            .field("threads", &inner.slots().len())
            .field("live", &inner.live())
            .field("steps", &inner.steps)
            .field("poison", &inner.poison)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedPolicy;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_thread_runs_to_completion() {
        let rt = Runtime::new(SchedConfig::deterministic(1));
        let h = rt.spawn("solo", async { 42 });
        rt.run().unwrap();
        assert!(h.is_finished());
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn deterministic_interleaving_is_reproducible() {
        let order_for_seed = |seed: u64| {
            let rt = Runtime::new(SchedConfig::deterministic(seed));
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut handles = Vec::new();
            for i in 0..4 {
                let rt2 = rt.clone();
                let log2 = Rc::clone(&log);
                handles.push(rt.spawn(format!("t{i}"), async move {
                    for _ in 0..5 {
                        log2.borrow_mut().push(i);
                        rt2.yield_now().await.unwrap();
                    }
                }));
            }
            rt.run().unwrap();
            for h in handles {
                h.join().unwrap();
            }
            Rc::try_unwrap(log).unwrap().into_inner()
        };
        assert_eq!(order_for_seed(11), order_for_seed(11));
    }

    #[test]
    fn different_seeds_usually_differ() {
        let order_for_seed = |seed: u64| {
            let rt = Runtime::new(SchedConfig::deterministic(seed));
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..3 {
                let rt2 = rt.clone();
                let log2 = Rc::clone(&log);
                rt.spawn(format!("t{i}"), async move {
                    for _ in 0..8 {
                        log2.borrow_mut().push(i);
                        rt2.yield_now().await.unwrap();
                    }
                });
            }
            rt.run().unwrap();
            Rc::try_unwrap(log).unwrap().into_inner()
        };
        // Not guaranteed in principle, but over 24 scheduling points the
        // probability of identical random schedules is negligible.
        assert_ne!(order_for_seed(1), order_for_seed(2));
    }

    #[test]
    fn block_unblock_pingpong() {
        let rt = Runtime::new(SchedConfig::deterministic(3));
        let flag = Arc::new(AtomicBool::new(false));
        let rt_a = rt.clone();
        let flag_a = Arc::clone(&flag);
        let a = rt.spawn("blocker", async move {
            while !flag_a.load(Ordering::SeqCst) {
                rt_a.block_current(BlockReason::Other("wait flag".into()))
                    .await
                    .unwrap();
            }
            true
        });
        let rt_b = rt.clone();
        let flag_b = Arc::clone(&flag);
        let target = a.vtid();
        rt.spawn("waker", async move {
            rt_b.yield_now().await.unwrap();
            flag_b.store(true, Ordering::SeqCst);
            rt_b.unblock(target);
        });
        rt.run().unwrap();
        assert!(a.join().unwrap());
    }

    #[test]
    fn wake_token_before_block_is_not_lost() {
        let rt = Runtime::new(SchedConfig::deterministic(5));
        let rt_a = rt.clone();
        let a = rt.spawn("late-blocker", async move {
            // Burn some yields so the waker very likely unblocks first.
            for _ in 0..10 {
                rt_a.yield_now().await.unwrap();
            }
            rt_a.block_current(BlockReason::Other("token".into()))
                .await
                .unwrap();
            7
        });
        let rt_b = rt.clone();
        let target = a.vtid();
        rt.spawn("early-waker", async move {
            rt_b.unblock(target);
        });
        rt.run().unwrap();
        assert_eq!(a.join().unwrap(), 7);
    }

    #[test]
    fn whole_system_deadlock_is_detected() {
        let rt = Runtime::new(SchedConfig::deterministic(7));
        for i in 0..2 {
            let rt2 = rt.clone();
            rt.spawn(format!("stuck{i}"), async move {
                let e = rt2
                    .block_current(BlockReason::Message(format!("recv{i}")))
                    .await
                    .unwrap_err();
                assert!(matches!(e, SchedError::Deadlock(_)));
            });
        }
        let err = rt.run().unwrap_err();
        match err {
            SchedError::Deadlock(info) => {
                assert_eq!(info.blocked.len(), 2);
                assert!(info.involves("recv0"));
                assert!(info.involves("recv1"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn join_from_vthread_is_cooperative() {
        let rt = Runtime::new(SchedConfig::deterministic(9));
        let rt_a = rt.clone();
        let child = rt.spawn("child", async move {
            rt_a.yield_now().await.unwrap();
            21
        });
        let rt_b = rt.clone();
        let parent = rt.spawn("parent", async move {
            let _ = rt_b.yield_now().await;
            2 * child.wait().await.unwrap()
        });
        rt.run().unwrap();
        assert_eq!(parent.join().unwrap(), 42);
    }

    #[test]
    fn virtual_clocks_and_makespan() {
        let rt = Runtime::new(SchedConfig::time_faithful(0));
        let rt_a = rt.clone();
        rt.spawn("fast", async move { rt_a.advance_ns(10) });
        let rt_b = rt.clone();
        rt.spawn("slow", async move {
            rt_b.advance_ns(100);
            assert_eq!(rt_b.clock().as_nanos(), 100);
            rt_b.merge_clock(SimTime::from_nanos(500));
            assert_eq!(rt_b.clock().as_nanos(), 500);
        });
        rt.run().unwrap();
        assert_eq!(rt.makespan().as_nanos(), 500);
    }

    #[test]
    fn earliest_clock_first_serializes_by_time() {
        let rt = Runtime::new(
            SchedConfig::deterministic(0).with_policy(SchedPolicy::EarliestClockFirst),
        );
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, cost) in [30u64, 10, 20].into_iter().enumerate() {
            let rt2 = rt.clone();
            let log2 = Rc::clone(&log);
            rt.spawn(format!("w{i}"), async move {
                for _ in 0..3 {
                    log2.borrow_mut().push((rt2.clock().as_nanos(), i));
                    rt2.advance_ns(cost);
                    rt2.yield_now().await.unwrap();
                }
            });
        }
        rt.run().unwrap();
        let log = Rc::try_unwrap(log).unwrap().into_inner();
        // Step *start* times must be nondecreasing: the policy always runs
        // the least-advanced runnable thread next.
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "out of order: {log:?}");
        }
    }

    #[test]
    fn panicking_thread_does_not_hang_the_runtime() {
        let rt = Runtime::new(SchedConfig::deterministic(4));
        let bad = rt.spawn("bad", async { panic!("boom (expected by this test)") });
        let rt2 = rt.clone();
        let good = rt.spawn("good", async move {
            rt2.yield_now().await.unwrap();
            1
        });
        rt.run().unwrap();
        match bad.join() {
            Err(JoinError::Panicked(msg)) => assert!(msg.contains("boom"), "{msg}"),
            other => panic!("expected the panic message, got {other:?}"),
        }
        assert_eq!(good.join().unwrap(), 1);
    }

    /// Poisoned by the step bound at the very first decision: `first` has
    /// not started, `inside` is spawned by it while it unwinds, `late` after
    /// `run` has returned. Each body still runs, and sees the poison.
    #[test]
    fn spawn_on_a_poisoned_run_still_runs_the_body() {
        let rt = Runtime::new(SchedConfig {
            max_steps: Some(0),
            ..SchedConfig::deterministic(0)
        });
        let rt2 = rt.clone();
        let first = rt.spawn("first", async move {
            let err = rt2.yield_now().await;
            let rt3 = rt2.clone();
            let inside = rt2.spawn("inside", async move { rt3.yield_now().await });
            (err, inside.wait().await.unwrap())
        });
        assert_eq!(rt.run(), Err(SchedError::Shutdown));
        assert_eq!(
            first.join().unwrap(),
            (Err(SchedError::Shutdown), Err(SchedError::Shutdown))
        );
        let rt2 = rt.clone();
        let late = rt.spawn("late", async move { rt2.yield_now().await });
        assert_eq!(rt.run(), Err(SchedError::Shutdown));
        assert_eq!(late.join().unwrap(), Err(SchedError::Shutdown));
    }

    #[test]
    fn max_steps_aborts_livelock() {
        let rt = Runtime::new(SchedConfig {
            max_steps: Some(100),
            ..SchedConfig::deterministic(0)
        });
        let rt2 = rt.clone();
        rt.spawn(
            "spinner",
            async move { while rt2.yield_now().await.is_ok() {} },
        );
        let err = rt.run().unwrap_err();
        assert_eq!(err, SchedError::Shutdown);
    }

    #[test]
    fn dynamic_spawn_from_vthread() {
        let rt = Runtime::new(SchedConfig::deterministic(6));
        let counter = Arc::new(AtomicUsize::new(0));
        let rt2 = rt.clone();
        let c2 = Arc::clone(&counter);
        rt.spawn("forker", async move {
            let mut hs = Vec::new();
            for i in 0..3 {
                let c3 = Arc::clone(&c2);
                let rt3 = rt2.clone();
                hs.push(rt2.spawn(format!("kid{i}"), async move {
                    rt3.yield_now().await.unwrap();
                    c3.fetch_add(1, Ordering::SeqCst);
                }));
            }
            for h in hs {
                h.wait().await.unwrap();
            }
        });
        rt.run().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    fn priority_order(seed: u64, depth: u8, pins: Vec<(String, i64)>) -> Vec<usize> {
        let rt = Runtime::new(
            SchedConfig::deterministic(seed)
                .with_policy(SchedPolicy::Priority { depth })
                .with_pct_horizon(16)
                .with_priority_pins(pins),
        );
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4 {
            let rt2 = rt.clone();
            let log2 = Rc::clone(&log);
            rt.spawn(format!("t{i}"), async move {
                for _ in 0..5 {
                    log2.borrow_mut().push(i);
                    rt2.yield_now().await.unwrap();
                }
            });
        }
        rt.run().unwrap();
        Rc::try_unwrap(log).unwrap().into_inner()
    }

    #[test]
    fn priority_schedule_is_reproducible() {
        assert_eq!(
            priority_order(42, 3, Vec::new()),
            priority_order(42, 3, Vec::new())
        );
    }

    #[test]
    fn priority_depth_changes_the_schedule() {
        // depth 0 = fixed priorities: strictly one thread to completion,
        // then the next. With change points the prefix winner gets demoted
        // at some step, so (very likely for this seed) the orders differ.
        assert_ne!(
            priority_order(42, 0, Vec::new()),
            priority_order(42, 4, Vec::new())
        );
    }

    #[test]
    fn priority_pins_override_draws() {
        // Pin t2 above PRIORITY_BASE_MAX and t0 below zero: t2 must run all
        // its steps first and t0 all its steps last, regardless of seed.
        let pins = vec![
            ("t2".to_string(), PRIORITY_BASE_MAX + 10),
            ("t0".to_string(), -10),
        ];
        let order = priority_order(7, 0, pins);
        assert_eq!(&order[..5], &[2usize, 2, 2, 2, 2][..]);
        assert_eq!(&order[15..], &[0usize, 0, 0, 0, 0][..]);
    }

    /// Every way a thread leaves the processor — a yield, a block and its
    /// unblock, a wake token, a join, a spawn, a finish, a panic — under
    /// every policy: no decision is taken while a thread is `Running`
    /// (`Inner::choose` asserts it in debug builds, where this test runs by
    /// default), so the queue a pick indexes is the runnable set alone.
    #[test]
    fn no_decision_is_taken_while_a_thread_is_running() {
        let policies = [
            SchedPolicy::Random,
            SchedPolicy::RoundRobin,
            SchedPolicy::EarliestClockFirst,
            SchedPolicy::Priority { depth: 3 },
        ];
        for policy in policies {
            for seed in 0..8 {
                let rt = Runtime::new(SchedConfig::deterministic(seed).with_policy(policy));
                let rt_a = rt.clone();
                let blocker = rt.spawn("blocker", async move {
                    for _ in 0..3 {
                        rt_a.block_current(BlockReason::Other("poke".into()))
                            .await?;
                        rt_a.yield_now().await?;
                    }
                    Ok::<_, SchedError>(())
                });
                let target = blocker.vtid();
                let rt_b = rt.clone();
                rt.spawn("poker", async move {
                    for i in 0..3 {
                        rt_b.advance_ns(10 * (i + 1));
                        rt_b.unblock(target);
                        let rt_c = rt_b.clone();
                        let kid =
                            rt_b.spawn(format!("kid{i}"), async move { rt_c.yield_now().await });
                        kid.wait().await.unwrap().unwrap();
                    }
                    blocker.wait().await.unwrap().unwrap();
                });
                rt.spawn("bad", async { panic!("boom (expected by this test)") });
                rt.run().unwrap();
                assert!(rt.steps() > 8, "{policy:?} seed {seed}");
            }
        }
    }

    #[test]
    fn steps_are_counted() {
        let rt = Runtime::new(SchedConfig::deterministic(0));
        let rt2 = rt.clone();
        rt.spawn("y", async move {
            for _ in 0..5 {
                rt2.yield_now().await.unwrap();
            }
        });
        rt.run().unwrap();
        // The first resume, then one decision per yield.
        assert_eq!(rt.steps(), 6);
    }
}
