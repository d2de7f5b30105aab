//! Join handles for virtual threads.

use crate::runtime::Runtime;
use crate::vtid::Vtid;
use std::cell::RefCell;
use std::rc::Rc;

/// Error returned by [`JoinHandle::join`].
#[derive(Debug)]
pub enum JoinError {
    /// The virtual thread panicked; the payload is its panic message when
    /// it was a string.
    Panicked(String),
    /// The thread never finished: the run has not been driven yet, or it
    /// was poisoned and the thread could not unwind.
    Sched(crate::SchedError),
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Panicked(msg) => write!(f, "virtual thread panicked: {msg}"),
            JoinError::Sched(e) => write!(f, "scheduler error during join: {e}"),
        }
    }
}

impl std::error::Error for JoinError {}

/// Handle to a spawned virtual thread.
///
/// The driver collects a thread's result with [`JoinHandle::join`] once
/// [`Runtime::run`] has returned; another virtual thread waits for it with
/// [`JoinHandle::wait`], which blocks through the scheduler and so takes
/// part in deadlock detection.
pub struct JoinHandle<T> {
    rt: Runtime,
    vtid: Vtid,
    /// Filled by the body's wrapper when the body returns.
    cell: Rc<RefCell<Option<T>>>,
}

impl<T> JoinHandle<T> {
    pub(crate) fn new(rt: Runtime, vtid: Vtid, cell: Rc<RefCell<Option<T>>>) -> Self {
        JoinHandle { rt, vtid, cell }
    }

    /// The virtual thread id of the spawned thread.
    pub fn vtid(&self) -> Vtid {
        self.vtid
    }

    /// The name given at spawn, spelled out.
    pub fn name(&self) -> String {
        self.rt.thread_name(self.vtid)
    }

    /// True if the thread's body has returned (or panicked).
    pub fn is_finished(&self) -> bool {
        self.rt.is_finished(self.vtid)
    }

    /// The thread's result, without waiting: call it from the driver after
    /// [`Runtime::run`]. A thread that has not finished reads as
    /// `JoinError::Sched`.
    pub fn join(self) -> Result<T, JoinError> {
        self.rt.outcome(self.vtid, &self.cell)
    }

    /// Wait, from another virtual thread, for the thread to finish and
    /// return its result. On a poisoned run (deadlock, step bound) this
    /// still waits for the thread to unwind, so what it returned on the way
    /// out is never missed.
    pub async fn wait(self) -> Result<T, JoinError> {
        self.rt.join_wait(self.vtid).await;
        self.join()
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("vtid", &self.vtid)
            .field("name", &self.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedConfig;

    #[test]
    fn handle_reports_metadata() {
        let rt = Runtime::new(SchedConfig::deterministic(0));
        let h = rt.spawn("meta", async {});
        assert_eq!(h.name(), "meta");
        assert_eq!(h.vtid().index(), 0);
        rt.run().unwrap();
        assert!(h.is_finished());
        h.join().unwrap();
    }

    /// A joiner that only looked at the poison would read the result cell
    /// before its target had unwound and miss what it returned. `wait` must
    /// see the target finish instead — whether the target unwinds before
    /// the joiner in the ascending sweep (`outer` joining `stuck`) or after
    /// it (`early` joining `late`, spawned first so that it unwinds first).
    #[test]
    fn join_on_a_deadlocked_run_always_returns_the_stored_result() {
        use crate::{BlockReason, SchedError};
        use std::cell::RefCell;
        use std::rc::Rc;
        async fn stuck(rt: Runtime) -> i32 {
            let err = rt
                .block_current(BlockReason::Other("never".into()))
                .await
                .unwrap_err();
            assert!(matches!(err, SchedError::Deadlock(_)));
            7
        }
        for seed in 0..200 {
            let rt = Runtime::new(SchedConfig::deterministic(seed));
            let target = rt.spawn("stuck", stuck(rt.clone()));
            let outer = rt.spawn("outer", target.wait());
            let slot = Rc::new(RefCell::new(None::<JoinHandle<i32>>));
            let early = rt.spawn("early", {
                let slot = Rc::clone(&slot);
                async move {
                    let late = slot.borrow_mut().take().unwrap();
                    late.wait().await
                }
            });
            *slot.borrow_mut() = Some(rt.spawn("late", stuck(rt.clone())));
            assert!(matches!(rt.run(), Err(SchedError::Deadlock(_))));
            for joiner in [outer, early] {
                match joiner.join() {
                    Ok(Ok(7)) => {}
                    other => panic!("seed {seed}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn join_error_display() {
        let e = JoinError::Panicked("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
