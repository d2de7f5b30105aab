//! Join handles for virtual threads.

use crate::runtime::Runtime;
use crate::vtid::Vtid;
use parking_lot::Mutex;
use std::sync::Arc;

/// Error returned by [`JoinHandle::join`].
#[derive(Debug)]
pub enum JoinError {
    /// The virtual thread panicked; the payload is its panic message when
    /// it was a string.
    Panicked(String),
    /// The scheduler was poisoned (deadlock/shutdown) and the thread's
    /// result never materialized.
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
/// `join` is cooperative when called from another virtual thread (it blocks
/// through the scheduler, participating in deadlock detection) and a plain
/// condition wait when called from the driver.
pub struct JoinHandle<T> {
    rt: Runtime,
    vtid: Vtid,
    /// Filled by the carrier before it marks the thread `Finished`.
    cell: Arc<Mutex<Option<std::thread::Result<T>>>>,
    name: String,
}

impl<T: Send + 'static> JoinHandle<T> {
    pub(crate) fn new(
        rt: Runtime,
        vtid: Vtid,
        cell: Arc<Mutex<Option<std::thread::Result<T>>>>,
        name: String,
    ) -> Self {
        JoinHandle {
            rt,
            vtid,
            cell,
            name,
        }
    }

    /// The virtual thread id of the spawned thread.
    pub fn vtid(&self) -> Vtid {
        self.vtid
    }

    /// The name given at spawn.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// True if the thread's closure has returned (or panicked).
    pub fn is_finished(&self) -> bool {
        self.rt.is_finished(self.vtid)
    }

    /// Wait for the thread to finish and return its result. On a poisoned
    /// run (deadlock/shutdown) this still waits for the thread to unwind, so
    /// what it returned on the way out is never missed.
    pub fn join(self) -> Result<T, JoinError> {
        self.rt.join_wait(self.vtid);
        match self.cell.lock().take() {
            Some(result) => result.map_err(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                JoinError::Panicked(msg)
            }),
            None => Err(JoinError::Sched(
                self.rt.error().unwrap_or(crate::SchedError::Shutdown),
            )),
        }
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("vtid", &self.vtid)
            .field("name", &self.name)
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
        let h = rt.spawn("meta", || ());
        assert_eq!(h.name(), "meta");
        assert_eq!(h.vtid().index(), 0);
        rt.run().unwrap();
        assert!(h.is_finished());
        h.join().unwrap();
    }

    /// Once a run is poisoned nothing is gated any more, so a joiner that
    /// only looked at the poison could read the result cell while the
    /// target was still unwinding and miss what it returned. `join` must
    /// wait for the target to finish instead, from a virtual thread
    /// (`outer` joining `stuck`) and from the driver alike.
    #[test]
    fn join_on_a_deadlocked_run_always_returns_the_stored_result() {
        use crate::{BlockReason, SchedError};
        for seed in 0..200 {
            let rt = Runtime::new(SchedConfig::deterministic(seed));
            let rt2 = rt.clone();
            let stuck = rt.spawn("stuck", move || {
                let err = rt2
                    .block_current(BlockReason::Other("never".into()))
                    .unwrap_err();
                assert!(matches!(err, SchedError::Deadlock(_)));
                // Widen the window a joiner that did not wait would fall in.
                std::thread::yield_now();
                7
            });
            let outer = rt.spawn("outer", move || stuck.join());
            assert!(matches!(rt.run(), Err(SchedError::Deadlock(_))));
            match outer.join() {
                Ok(Ok(7)) => {}
                other => panic!("seed {seed}: {other:?}"),
            }
        }
    }

    #[test]
    fn join_error_display() {
        let e = JoinError::Panicked("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
