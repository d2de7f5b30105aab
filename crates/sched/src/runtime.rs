//! The virtual-thread runtime.
//!
//! One *step token* serialises a run: exactly one virtual thread holds it
//! and runs; every other live thread's carrier is parked. A hand-off
//! publishes the grant under the global mutex `mu`, releases `mu`, and only
//! then unparks the target — so the woken carrier never queues behind the
//! granter on `mu`, and a hand-off costs one wake and one wait.

use crate::clock::SimTime;
use crate::config::{SchedConfig, PRIORITY_BASE_MAX, PRIORITY_BASE_MIN};
use crate::deadlock::{BlockedThread, DeadlockInfo};
use crate::handle::JoinHandle;
use crate::policy::SchedPolicy;
use crate::pool;
use crate::state::{BlockReason, Inner, PctState, ThreadSlot, ThreadStatus};
use crate::vtid::Vtid;
use crate::{SchedError, SchedResult};
use parking_lot::{Condvar, Mutex, MutexGuard};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;

thread_local! {
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

#[derive(Clone)]
struct Ctx {
    rt: Runtime,
    vtid: Vtid,
    clock: Arc<AtomicU64>,
}

/// Run `f` on the calling virtual thread's context. Calling a
/// virtual-thread-only primitive (`what`) from an unmanaged thread is a
/// documented panic.
fn with_ctx<R>(what: &str, f: impl FnOnce(&Ctx) -> R) -> R {
    CURRENT.with(|c| match c.borrow().as_ref() {
        Some(ctx) => f(ctx),
        None => panic!("{what} called outside a virtual thread"),
    })
}

/// The virtual thread the calling OS thread is executing, if any.
pub fn current_vtid() -> Option<Vtid> {
    CURRENT.with(|c| c.borrow().as_ref().map(|ctx| ctx.vtid))
}

/// The runtime owning the calling virtual thread, if any.
pub fn current_runtime() -> Option<Runtime> {
    CURRENT.with(|c| c.borrow().as_ref().map(|ctx| ctx.rt.clone()))
}

struct RtShared {
    config: SchedConfig,
    mu: Mutex<Inner>,
    /// Signalled when a finish ends the run or a join that cannot wait
    /// cooperatively (see [`Runtime::join_wait`]).
    driver_cv: Condvar,
    /// Global maximum over all per-thread virtual clocks, ever.
    makespan: AtomicU64,
    /// Fast-path flag mirroring `Inner::poison.is_some()`.
    poisoned: AtomicBool,
    /// Set by `run()`; allows kicks from driver-side unblocks.
    started: AtomicBool,
}

/// A handle to the scheduler. Cheap to clone (`Arc` inside).
///
/// See the crate-level docs for the execution model. All methods are safe to
/// call from any thread; methods documented as requiring a *virtual thread*
/// panic when called from an unmanaged thread.
#[derive(Clone)]
pub struct Runtime {
    shared: Arc<RtShared>,
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
            shared: Arc::new(RtShared {
                config,
                mu: Mutex::new(Inner::new(ChaCha8Rng::seed_from_u64(seed), pct)),
                driver_cv: Condvar::new(),
                makespan: AtomicU64::new(0),
                poisoned: AtomicBool::new(false),
                started: AtomicBool::new(false),
            }),
        }
    }

    /// The configuration this runtime was created with.
    pub fn config(&self) -> &SchedConfig {
        &self.shared.config
    }

    /// Spawn a virtual thread. It does not start running until
    /// [`Runtime::run`] (or a scheduling decision) grants it.
    pub fn spawn<T, F>(&self, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let name = name.into();
        let cell: Arc<Mutex<Option<std::thread::Result<T>>>> = Arc::new(Mutex::new(None));
        let clock = Arc::new(AtomicU64::new(0));

        let mut inner = self.shared.mu.lock();
        let vtid = Vtid::from_index(inner.slots().len());
        let ctx = Ctx {
            rt: self.clone(),
            vtid,
            clock: Arc::clone(&clock),
        };
        let cell2 = Arc::clone(&cell);
        // The carrier sleeps on until the first grant unparks it, and then
        // first touches the scheduler through `mu`, which is held until the
        // slot it will find there has been pushed.
        let carrier = pool::assign(Box::new(move || {
            let rt = ctx.rt.clone();
            CURRENT.with(|c| *c.borrow_mut() = Some(ctx));
            // A poisoned run still executes the body: its first scheduler
            // primitive reports the poison and the thread unwinds normally.
            let _ = rt.wait_for_grant(vtid);
            *cell2.lock() = Some(catch_unwind(AssertUnwindSafe(f)));
            // An idle carrier must not keep the finished run alive.
            CURRENT.with(|c| *c.borrow_mut() = None);
            rt.finish_current(vtid)
        }));
        let mut slot = ThreadSlot::new(name.clone(), carrier.clone(), clock);
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
        inner.push(slot);
        // No grant will ever come on a poisoned run; let the body unwind.
        if inner.poison.is_some() {
            carrier.unpark();
        }
        drop(inner);

        JoinHandle::new(self.clone(), vtid, cell, name)
    }

    /// Start scheduling and wait until every virtual thread has finished.
    /// Returns the poison error if the run deadlocked or was aborted.
    pub fn run(&self) -> SchedResult<()> {
        self.shared.started.store(true, Ordering::SeqCst);
        let mut inner = self.shared.mu.lock();
        let first = self.kick(&mut inner);
        Self::unlock_then_wake(inner, first);
        let mut inner = self.shared.mu.lock();
        while inner.live() > 0 {
            self.shared.driver_cv.wait(&mut inner);
        }
        match &inner.poison {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// The poison error, if the run deadlocked or was shut down.
    pub fn error(&self) -> Option<SchedError> {
        self.shared.mu.lock().poison.clone()
    }

    /// Number of virtual threads that have not yet finished.
    pub fn live_threads(&self) -> usize {
        self.shared.mu.lock().live()
    }

    /// Total virtual threads ever spawned.
    pub fn total_threads(&self) -> usize {
        self.shared.mu.lock().slots().len()
    }

    /// Name given to `vtid` at spawn.
    pub fn thread_name(&self, vtid: Vtid) -> String {
        self.shared.mu.lock().slot(vtid).name.clone()
    }

    /// Scheduling decisions taken so far.
    pub fn steps(&self) -> u64 {
        self.shared.mu.lock().steps
    }

    // ---- scheduling primitives -------------------------------------------

    /// A voluntary yield point: the scheduler may switch to another virtual
    /// thread here. Must be called from a virtual thread.
    pub fn yield_now(&self) -> SchedResult<()> {
        if self.shared.poisoned.load(Ordering::Relaxed) {
            return Err(self.error().unwrap_or(SchedError::Shutdown));
        }
        let me = with_ctx("yield_now", |ctx| ctx.vtid);
        let mut inner = self.shared.mu.lock();
        if let Some(p) = &inner.poison {
            return Err(p.clone());
        }
        inner.set_status(me, ThreadStatus::Runnable);
        let chosen = inner.choose(self.shared.config.policy);
        self.count_step(&mut inner)?;
        if chosen == Some(me) {
            inner.set_status(me, ThreadStatus::Running);
            inner.last_granted = Some(me);
            return Ok(());
        }
        let next = chosen.map(|next| Self::grant(&mut inner, next));
        Self::unlock_then_wake(inner, next);
        self.wait_for_grant(me)
    }

    /// Block the calling virtual thread until another thread calls
    /// [`Runtime::unblock`] on it. If an unblock was already delivered
    /// (wake token), returns immediately after a reschedule. Returns an
    /// error if the whole system deadlocks while this thread is blocked.
    pub fn block_current(&self, reason: BlockReason) -> SchedResult<()> {
        let me = with_ctx("block_current", |ctx| ctx.vtid);
        let mut inner = self.shared.mu.lock();
        if let Some(p) = &inner.poison {
            return Err(p.clone());
        }
        if inner.slot(me).wake_tokens > 0 {
            inner.slot_mut(me).wake_tokens -= 1;
            drop(inner);
            return self.yield_now();
        }
        inner.set_status(me, ThreadStatus::Blocked(reason));
        let next = self.pass_token(&mut inner);
        Self::unlock_then_wake(inner, next);
        self.wait_for_grant(me)
    }

    /// Make a blocked virtual thread runnable again (or credit it a wake
    /// token if it is not currently blocked). Safe to call from any thread.
    pub fn unblock(&self, vtid: Vtid) {
        let mut inner = self.shared.mu.lock();
        Self::unblock_locked(&mut inner, vtid);
        // If nothing is running (e.g. unblock from the driver), kick.
        let next = if self.shared.started.load(Ordering::SeqCst) {
            self.kick(&mut inner)
        } else {
            None
        };
        Self::unlock_then_wake(inner, next);
    }

    fn unblock_locked(inner: &mut Inner, vtid: Vtid) {
        match inner.slot(vtid).status() {
            ThreadStatus::Blocked(_) => inner.set_status(vtid, ThreadStatus::Runnable),
            ThreadStatus::Finished => {}
            _ => inner.slot_mut(vtid).wake_tokens += 1,
        }
    }

    /// Mark `me` finished and pass the token on. Returns the carrier to
    /// wake; the pool does that once `me`'s own carrier is idle again.
    fn finish_current(&self, me: Vtid) -> Option<Thread> {
        let mut inner = self.shared.mu.lock();
        // Fold our final clock into the makespan.
        let final_clock = inner.slot(me).clock.load(Ordering::Relaxed);
        self.shared
            .makespan
            .fetch_max(final_clock, Ordering::Relaxed);
        inner.set_status(me, ThreadStatus::Finished);
        let waiters = std::mem::take(&mut inner.slot_mut(me).join_waiters);
        for w in waiters {
            Self::unblock_locked(&mut inner, w);
        }
        // `run` waits for the last finish, a non-cooperative join for this
        // one; any other finish would wake the driver for nothing.
        if inner.live() == 0 || inner.slot(me).cv_joined {
            self.shared.driver_cv.notify_all();
        }
        self.pass_token(&mut inner)
    }

    /// Wait for `target` to finish: cooperatively (through the scheduler,
    /// participating in deadlock detection) from a virtual thread of a
    /// healthy run, on `driver_cv` from the driver. A poisoned run no longer
    /// gates anything — every thread unwinds on its own carrier — so there
    /// a virtual thread waits on `driver_cv` too. Used by [`JoinHandle`].
    pub(crate) fn join_wait(&self, target: Vtid) {
        if let Some(me) = current_vtid() {
            loop {
                let mut inner = self.shared.mu.lock();
                if *inner.slot(target).status() == ThreadStatus::Finished {
                    return;
                }
                if inner.poison.is_some() {
                    break;
                }
                let name = inner.slot(target).name.clone();
                inner.slot_mut(target).join_waiters.push(me);
                drop(inner);
                if self.block_current(BlockReason::Join(name)).is_err() {
                    break;
                }
            }
        }
        let mut inner = self.shared.mu.lock();
        while *inner.slot(target).status() != ThreadStatus::Finished {
            inner.slot_mut(target).cv_joined = true;
            self.shared.driver_cv.wait(&mut inner);
        }
    }

    pub(crate) fn is_finished(&self, target: Vtid) -> bool {
        *self.shared.mu.lock().slot(target).status() == ThreadStatus::Finished
    }

    // ---- internal scheduling helpers -------------------------------------

    /// Publish the grant of the step token to `next` and return its
    /// carrier, for [`Runtime::unlock_then_wake`].
    fn grant(inner: &mut Inner, next: Vtid) -> Thread {
        inner.last_granted = Some(next);
        inner.set_status(next, ThreadStatus::Running);
        let slot = inner.slot_mut(next);
        slot.granted = true;
        slot.carrier.clone()
    }

    /// Release `mu`, then wake the carrier just granted the token: its
    /// first act is to lock `mu`, and it must not find the granter on it.
    fn unlock_then_wake(inner: MutexGuard<'_, Inner>, granted: Option<Thread>) {
        drop(inner);
        if let Some(carrier) = granted {
            carrier.unpark();
        }
    }

    /// The current holder gave the token up (blocked or finished): grant it
    /// to the policy's pick, or declare a deadlock when nothing can run.
    fn pass_token(&self, inner: &mut Inner) -> Option<Thread> {
        match inner.choose(self.shared.config.policy) {
            Some(next) => self
                .count_step(inner)
                .is_ok()
                .then(|| Self::grant(inner, next)),
            None => {
                if inner.live() > 0 && inner.running() == 0 {
                    self.declare_deadlock(inner);
                }
                None
            }
        }
    }

    /// Put the token into play if nobody holds it.
    fn kick(&self, inner: &mut Inner) -> Option<Thread> {
        if inner.running() > 0 {
            return None;
        }
        self.pass_token(inner)
    }

    fn count_step(&self, inner: &mut Inner) -> SchedResult<()> {
        inner.steps += 1;
        if let Some(max) = self.shared.config.max_steps {
            if inner.steps > max {
                self.poison_all(inner, SchedError::Shutdown);
                return Err(SchedError::Shutdown);
            }
        }
        Ok(())
    }

    /// Park the calling carrier until `me` is granted the step token (or
    /// the run is poisoned). Unpark tokens carry no meaning of their own —
    /// `granted`, read under `mu`, is the hand-off — so stale or early
    /// unparks only cost a loop turn.
    fn wait_for_grant(&self, me: Vtid) -> SchedResult<()> {
        loop {
            {
                let mut inner = self.shared.mu.lock();
                if let Some(p) = &inner.poison {
                    return Err(p.clone());
                }
                if inner.slot(me).granted {
                    inner.slot_mut(me).granted = false;
                    return Ok(());
                }
            }
            std::thread::park();
        }
    }

    fn declare_deadlock(&self, inner: &mut Inner) {
        let blocked = inner
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
            .collect();
        let info = DeadlockInfo {
            blocked,
            step: inner.steps,
        };
        self.poison_all(inner, SchedError::Deadlock(info));
    }

    /// Set the poison, ungate everything, and wake every parked thread so
    /// the whole system can unwind.
    fn poison_all(&self, inner: &mut Inner, err: SchedError) {
        if inner.poison.is_none() {
            inner.poison = Some(err);
        }
        self.shared.poisoned.store(true, Ordering::SeqCst);
        for slot in inner.slots() {
            if *slot.status() != ThreadStatus::Finished {
                slot.carrier.unpark();
            }
        }
        self.shared.driver_cv.notify_all();
    }

    /// Abort the run: every blocked or parked thread wakes with
    /// [`SchedError::Shutdown`]. Intended for harness-level timeouts.
    pub fn shutdown(&self) {
        let mut inner = self.shared.mu.lock();
        self.poison_all(&mut inner, SchedError::Shutdown);
    }

    // ---- virtual time ------------------------------------------------------

    /// Advance the calling virtual thread's clock by `ns` nanoseconds.
    pub fn advance_ns(&self, ns: u64) {
        self.advance(SimTime::from_nanos(ns));
    }

    /// Advance the calling virtual thread's clock by `dt`.
    pub fn advance(&self, dt: SimTime) {
        with_ctx("advance", |ctx| {
            let new = ctx.clock.fetch_add(dt.as_nanos(), Ordering::Relaxed) + dt.as_nanos();
            self.shared.makespan.fetch_max(new, Ordering::Relaxed);
        });
    }

    /// The calling virtual thread's clock.
    pub fn clock(&self) -> SimTime {
        with_ctx("clock", |ctx| {
            SimTime::from_nanos(ctx.clock.load(Ordering::Relaxed))
        })
    }

    /// Raise the calling virtual thread's clock to at least `t` (message
    /// delivery: receiver time = max(receiver, sender + latency)).
    pub fn merge_clock(&self, t: SimTime) {
        with_ctx("merge_clock", |ctx| {
            ctx.clock.fetch_max(t.as_nanos(), Ordering::Relaxed);
            self.shared
                .makespan
                .fetch_max(t.as_nanos(), Ordering::Relaxed);
        });
    }

    /// `vtid`'s current clock.
    pub fn clock_of(&self, vtid: Vtid) -> SimTime {
        self.shared.mu.lock().slot(vtid).clock_now()
    }

    /// Maximum virtual clock observed across all threads, ever — the
    /// simulated makespan of the run.
    pub fn makespan(&self) -> SimTime {
        SimTime::from_nanos(self.shared.makespan.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.shared.mu.lock();
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
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_thread_runs_to_completion() {
        let rt = Runtime::new(SchedConfig::deterministic(1));
        let h = rt.spawn("solo", || 42);
        rt.run().unwrap();
        assert_eq!(h.join().unwrap(), 42);
        assert_eq!(rt.live_threads(), 0);
    }

    #[test]
    fn deterministic_interleaving_is_reproducible() {
        let order_for_seed = |seed: u64| {
            let rt = Runtime::new(SchedConfig::deterministic(seed));
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut handles = Vec::new();
            for i in 0..4 {
                let rt2 = rt.clone();
                let log2 = Arc::clone(&log);
                handles.push(rt.spawn(format!("t{i}"), move || {
                    for _ in 0..5 {
                        log2.lock().push(i);
                        rt2.yield_now().unwrap();
                    }
                }));
            }
            rt.run().unwrap();
            for h in handles {
                h.join().unwrap();
            }
            Arc::try_unwrap(log).unwrap().into_inner()
        };
        assert_eq!(order_for_seed(11), order_for_seed(11));
    }

    #[test]
    fn different_seeds_usually_differ() {
        let order_for_seed = |seed: u64| {
            let rt = Runtime::new(SchedConfig::deterministic(seed));
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..3 {
                let rt2 = rt.clone();
                let log2 = Arc::clone(&log);
                rt.spawn(format!("t{i}"), move || {
                    for _ in 0..8 {
                        log2.lock().push(i);
                        rt2.yield_now().unwrap();
                    }
                });
            }
            rt.run().unwrap();
            Arc::try_unwrap(log).unwrap().into_inner()
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
        let a = rt.spawn("blocker", move || {
            while !flag_a.load(Ordering::SeqCst) {
                rt_a.block_current(BlockReason::Other("wait flag".into()))
                    .unwrap();
            }
            true
        });
        let rt_b = rt.clone();
        let flag_b = Arc::clone(&flag);
        let target = a.vtid();
        rt.spawn("waker", move || {
            rt_b.yield_now().unwrap();
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
        let a = rt.spawn("late-blocker", move || {
            // Burn some yields so the waker very likely unblocks first.
            for _ in 0..10 {
                rt_a.yield_now().unwrap();
            }
            rt_a.block_current(BlockReason::Other("token".into()))
                .unwrap();
            7
        });
        let rt_b = rt.clone();
        let target = a.vtid();
        rt.spawn("early-waker", move || {
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
            rt.spawn(format!("stuck{i}"), move || {
                let e = rt2
                    .block_current(BlockReason::Message(format!("recv{i}")))
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
        let child = rt.spawn("child", move || {
            rt_a.yield_now().unwrap();
            21
        });
        let rt_b = rt.clone();
        let parent = rt.spawn("parent", move || {
            let _ = rt_b.yield_now();
            2 * child.join().unwrap()
        });
        rt.run().unwrap();
        assert_eq!(parent.join().unwrap(), 42);
    }

    #[test]
    fn virtual_clocks_and_makespan() {
        let rt = Runtime::new(SchedConfig::time_faithful(0));
        let rt_a = rt.clone();
        rt.spawn("fast", move || rt_a.advance_ns(10));
        let rt_b = rt.clone();
        rt.spawn("slow", move || {
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
        let log: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        for (i, cost) in [30u64, 10, 20].into_iter().enumerate() {
            let rt2 = rt.clone();
            let log2 = Arc::clone(&log);
            rt.spawn(format!("w{i}"), move || {
                for _ in 0..3 {
                    log2.lock().push((rt2.clock().as_nanos(), i));
                    rt2.advance_ns(cost);
                    rt2.yield_now().unwrap();
                }
            });
        }
        rt.run().unwrap();
        let log = Arc::try_unwrap(log).unwrap().into_inner();
        // Step *start* times must be nondecreasing: the policy always runs
        // the least-advanced runnable thread next.
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "out of order: {log:?}");
        }
    }

    #[test]
    fn panicking_thread_does_not_hang_the_runtime() {
        let rt = Runtime::new(SchedConfig::deterministic(4));
        let bad = rt.spawn("bad", || panic!("boom"));
        let rt2 = rt.clone();
        let good = rt.spawn("good", move || {
            rt2.yield_now().unwrap();
            1
        });
        rt.run().unwrap();
        assert!(bad.join().is_err());
        assert_eq!(good.join().unwrap(), 1);
    }

    #[test]
    fn spawn_on_a_poisoned_run_still_runs_the_body() {
        let rt = Runtime::new(SchedConfig::deterministic(0));
        rt.shutdown();
        let rt2 = rt.clone();
        let late = rt.spawn("late", move || rt2.yield_now());
        assert_eq!(late.join().unwrap(), Err(SchedError::Shutdown));
        assert_eq!(rt.run(), Err(SchedError::Shutdown));
    }

    #[test]
    fn max_steps_aborts_livelock() {
        let rt = Runtime::new(SchedConfig::deterministic(0).with_max_steps(Some(100)));
        let rt2 = rt.clone();
        rt.spawn("spinner", move || loop {
            if rt2.yield_now().is_err() {
                break;
            }
        });
        let err = rt.run().unwrap_err();
        assert_eq!(err, SchedError::Shutdown);
    }

    #[test]
    fn dynamic_spawn_from_vthread() {
        let rt = Runtime::new(SchedConfig::deterministic(6));
        let counter = Arc::new(AtomicUsize::new(0));
        let rt2 = rt.clone();
        let c2 = Arc::clone(&counter);
        rt.spawn("forker", move || {
            let mut hs = Vec::new();
            for i in 0..3 {
                let c3 = Arc::clone(&c2);
                let rt3 = rt2.clone();
                hs.push(rt2.spawn(format!("kid{i}"), move || {
                    rt3.yield_now().unwrap();
                    c3.fetch_add(1, Ordering::SeqCst);
                }));
            }
            for h in hs {
                h.join().unwrap();
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
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4 {
            let rt2 = rt.clone();
            let log2 = Arc::clone(&log);
            rt.spawn(format!("t{i}"), move || {
                for _ in 0..5 {
                    log2.lock().push(i);
                    rt2.yield_now().unwrap();
                }
            });
        }
        rt.run().unwrap();
        Arc::try_unwrap(log).unwrap().into_inner()
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

    #[test]
    fn steps_are_counted() {
        let rt = Runtime::new(SchedConfig::deterministic(0));
        let rt2 = rt.clone();
        rt.spawn("y", move || {
            for _ in 0..5 {
                rt2.yield_now().unwrap();
            }
        });
        rt.run().unwrap();
        assert!(rt.steps() >= 5);
    }
}
