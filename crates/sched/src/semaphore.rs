//! A counting semaphore built on the scheduler's block/unblock primitives.
//!
//! Unlike an OS semaphore, blocking here participates in deterministic
//! scheduling and whole-system deadlock detection. The MPI and OpenMP
//! simulators build their barriers and rendezvous on top of this.

use crate::runtime::{current_vtid, Runtime};
use crate::state::BlockReason;
use crate::vtid::Vtid;
use crate::SchedResult;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

struct SemState {
    permits: u64,
    waiters: VecDeque<Vtid>,
}

/// A counting semaphore over virtual threads.
#[derive(Clone)]
pub struct SimSemaphore {
    rt: Runtime,
    name: String,
    state: Arc<Mutex<SemState>>,
}

impl SimSemaphore {
    /// Create a semaphore with `permits` initial permits.
    pub fn new(rt: Runtime, name: impl Into<String>, permits: u64) -> Self {
        SimSemaphore {
            rt,
            name: name.into(),
            state: Arc::new(Mutex::new(SemState {
                permits,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Acquire one permit, blocking through the scheduler if none are
    /// available. Must be called from a virtual thread.
    pub fn acquire(&self) -> SchedResult<()> {
        let Some(me) = current_vtid() else {
            panic!("SimSemaphore::acquire called outside a virtual thread")
        };
        loop {
            {
                let mut st = self.state.lock();
                if st.permits > 0 {
                    st.permits -= 1;
                    return Ok(());
                }
                if !st.waiters.contains(&me) {
                    st.waiters.push_back(me);
                }
            }
            self.rt
                .block_current(BlockReason::Semaphore(self.name.clone()))?;
        }
    }

    /// Try to acquire a permit without blocking.
    pub fn try_acquire(&self) -> bool {
        let mut st = self.state.lock();
        if st.permits > 0 {
            st.permits -= 1;
            true
        } else {
            false
        }
    }

    /// Release one permit, waking one waiter if any.
    pub fn release(&self) {
        let waiter = {
            let mut st = self.state.lock();
            st.permits += 1;
            st.waiters.pop_front()
        };
        if let Some(w) = waiter {
            self.rt.unblock(w);
        }
    }

    /// Current number of available permits.
    pub fn permits(&self) -> u64 {
        self.state.lock().permits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SchedConfig, SchedError};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn acquire_release_counts() {
        let rt = Runtime::new(SchedConfig::deterministic(0));
        let sem = SimSemaphore::new(rt.clone(), "s", 2);
        let sem2 = sem.clone();
        rt.spawn("user", move || {
            sem2.acquire().unwrap();
            sem2.acquire().unwrap();
            assert_eq!(sem2.permits(), 0);
            assert!(!sem2.try_acquire());
            sem2.release();
            assert!(sem2.try_acquire());
            sem2.release();
            sem2.release();
        });
        rt.run().unwrap();
        assert_eq!(sem.permits(), 2);
    }

    #[test]
    fn blocked_acquire_is_woken_by_release() {
        let rt = Runtime::new(SchedConfig::deterministic(1));
        let sem = SimSemaphore::new(rt.clone(), "s", 0);
        let order = Arc::new(AtomicUsize::new(0));

        let s1 = sem.clone();
        let o1 = Arc::clone(&order);
        rt.spawn("taker", move || {
            s1.acquire().unwrap();
            o1.fetch_add(1, Ordering::SeqCst);
        });

        let s2 = sem.clone();
        let rt2 = rt.clone();
        rt.spawn("giver", move || {
            for _ in 0..3 {
                rt2.yield_now().unwrap();
            }
            s2.release();
        });
        rt.run().unwrap();
        assert_eq!(order.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn starvation_is_a_deadlock() {
        let rt = Runtime::new(SchedConfig::deterministic(2));
        let sem = SimSemaphore::new(rt.clone(), "never", 0);
        rt.spawn("starved", move || {
            let e = sem.acquire().unwrap_err();
            assert!(matches!(e, SchedError::Deadlock(_)));
        });
        let err = rt.run().unwrap_err();
        match err {
            SchedError::Deadlock(info) => assert!(info.involves("never")),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn fifo_handoff_under_contention() {
        let rt = Runtime::new(SchedConfig::deterministic(3));
        let sem = SimSemaphore::new(rt.clone(), "s", 1);
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..4 {
            let s = sem.clone();
            let d = Arc::clone(&done);
            let rt2 = rt.clone();
            rt.spawn(format!("c{i}"), move || {
                s.acquire().unwrap();
                rt2.yield_now().unwrap();
                d.fetch_add(1, Ordering::SeqCst);
                s.release();
            });
        }
        rt.run().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }
}
