//! Runtime locks (OpenMP `omp_lock_t` and the locks behind `critical`).

use home_sched::{BlockReason, Runtime, SchedResult, Vtid};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

#[derive(Debug, Default)]
struct LockState {
    holder: Option<Vtid>,
    waiters: VecDeque<Vtid>,
}

/// A mutual-exclusion lock over virtual threads, participating in
/// deterministic scheduling and deadlock detection.
///
/// Not reentrant (matching `omp_lock_t`; OpenMP nestable locks are a
/// separate construct this simulator does not need).
#[derive(Clone)]
pub struct OmpLock {
    rt: Runtime,
    /// Shared, so that a handle costs no allocation.
    name: Rc<str>,
    state: Rc<RefCell<LockState>>,
}

impl OmpLock {
    /// Create an unlocked lock.
    pub fn new(rt: Runtime, name: impl Into<String>) -> Self {
        OmpLock {
            rt,
            name: Rc::from(name.into()),
            state: Rc::default(),
        }
    }

    /// The lock's name (critical-section label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Acquire, blocking through the scheduler.
    pub async fn acquire(&self) -> SchedResult<()> {
        let me = self.me("OmpLock::acquire");
        loop {
            {
                let mut st = self.state.borrow_mut();
                match st.holder {
                    None => {
                        st.holder = Some(me);
                        return Ok(());
                    }
                    Some(h) => {
                        assert_ne!(h, me, "OmpLock is not reentrant: {}", self.name);
                        if !st.waiters.contains(&me) {
                            st.waiters.push_back(me);
                        }
                    }
                }
            }
            self.rt
                .block_current(BlockReason::Lock(self.name.to_string()))
                .await?;
        }
    }

    /// The calling virtual thread; `what` outside one is a documented panic.
    fn me(&self, what: &str) -> Vtid {
        match self.rt.current_vtid() {
            Some(me) => me,
            None => panic!("{what} outside a virtual thread"),
        }
    }

    /// Try to acquire without blocking.
    pub fn try_acquire(&self) -> bool {
        let me = self.me("OmpLock::try_acquire");
        let mut st = self.state.borrow_mut();
        if st.holder.is_none() {
            st.holder = Some(me);
            true
        } else {
            false
        }
    }

    /// Release; panics if the caller does not hold the lock.
    pub fn release(&self) {
        let me = self.me("OmpLock::release");
        let next = {
            let mut st = self.state.borrow_mut();
            assert_eq!(
                st.holder,
                Some(me),
                "OmpLock::release by non-holder: {}",
                self.name
            );
            st.holder = None;
            st.waiters.pop_front()
        };
        if let Some(w) = next {
            self.rt.unblock(w);
        }
    }

    /// True if some thread currently holds the lock.
    pub fn is_held(&self) -> bool {
        self.state.borrow().holder.is_some()
    }
}

impl std::fmt::Debug for OmpLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OmpLock")
            .field("name", &self.name)
            .field("held", &self.is_held())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use home_sched::{SchedConfig, SchedError};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn mutual_exclusion_under_contention() {
        let rt = Runtime::new(SchedConfig::deterministic(1));
        let lock = OmpLock::new(rt.clone(), "cs");
        let inside = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        for i in 0..4 {
            let lock = lock.clone();
            let rt2 = rt.clone();
            let inside = Arc::clone(&inside);
            let max_seen = Arc::clone(&max_seen);
            rt.spawn(format!("t{i}"), async move {
                for _ in 0..10 {
                    lock.acquire().await.unwrap();
                    let n = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    max_seen.fetch_max(n, Ordering::SeqCst);
                    rt2.yield_now().await.unwrap();
                    inside.fetch_sub(1, Ordering::SeqCst);
                    lock.release();
                }
            });
        }
        rt.run().unwrap();
        assert_eq!(max_seen.load(Ordering::SeqCst), 1, "never two holders");
        assert!(!lock.is_held());
    }

    #[test]
    fn try_acquire_fails_when_held() {
        let rt = Runtime::new(SchedConfig::deterministic(0));
        let lock = OmpLock::new(rt.clone(), "cs");
        let l2 = lock.clone();
        let rt2 = rt.clone();
        rt.spawn("a", async move {
            assert!(l2.try_acquire());
            rt2.yield_now().await.unwrap();
            rt2.yield_now().await.unwrap();
            l2.release();
        });
        let l3 = lock.clone();
        let rt3 = rt.clone();
        rt.spawn("b", async move {
            rt3.yield_now().await.unwrap();
            // `a` probably holds it now — but regardless, the final state
            // must end with a successful blocking acquire.
            if !l3.try_acquire() {
                l3.acquire().await.unwrap();
            }
            l3.release();
        });
        rt.run().unwrap();
    }

    #[test]
    fn self_deadlock_on_held_lock_is_detected() {
        let rt = Runtime::new(SchedConfig::deterministic(2));
        let lock = OmpLock::new(rt.clone(), "held-forever");
        let l1 = lock.clone();
        rt.spawn("holder-then-blocker", {
            let rt = rt.clone();
            async move {
                l1.acquire().await.unwrap();
                // Block on something that never comes while holding the lock.
                let _ = rt.block_current(BlockReason::Other("never".into())).await;
            }
        });
        let l2 = lock.clone();
        rt.spawn("waiter", async move {
            let e = l2.acquire().await.unwrap_err();
            assert!(matches!(e, SchedError::Deadlock(_)));
        });
        let err = rt.run().unwrap_err();
        match err {
            SchedError::Deadlock(info) => assert!(info.involves("held-forever")),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }
}
