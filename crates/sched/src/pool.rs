//! Process-wide pool of carrier threads.
//!
//! A virtual thread needs an OS thread only while its body runs. Carriers
//! outlive the bodies they run and are shared by every runtime in the
//! process, so a run — and the next region, seed or explored schedule —
//! reuses the OS threads the previous one left idle instead of creating one
//! per virtual thread.

use parking_lot::Mutex;
use std::sync::{Arc, LazyLock};
use std::thread::Thread;

/// A virtual thread's body, wrapped by the runtime. It returns the carrier
/// of the thread it handed the step token to on finishing, if any.
pub(crate) type Job = Box<dyn FnOnce() -> Option<Thread> + Send + 'static>;

/// Where an idle carrier finds its next job.
type Mailbox = Arc<Mutex<Option<Job>>>;

/// Carriers waiting for a job.
static IDLE: LazyLock<Mutex<Vec<(Thread, Mailbox)>>> = LazyLock::new(Mutex::default);

/// Give `job` to an idle carrier, spawning one only when none is idle, and
/// return the carrier's handle. An idle carrier is *not* woken: it starts
/// the job at its next unpark, which for a virtual thread's body is the
/// first grant of the step token — so a spawn costs no context switch of
/// its own. `job` must not unwind.
pub(crate) fn assign(job: Job) -> Thread {
    let idle = IDLE.lock().pop();
    if let Some((thread, mailbox)) = idle {
        *mailbox.lock() = Some(job);
        return thread;
    }
    let mailbox: Mailbox = Arc::new(Mutex::new(Some(job)));
    std::thread::Builder::new()
        .name("home-carrier".into())
        .spawn(move || carry(mailbox))
        .unwrap_or_else(|e| panic!("cannot spawn a carrier thread: {e}"))
        .thread()
        .clone()
}

/// A carrier's whole life: run the job in the mailbox, go idle, repeat.
/// Carriers never exit; the process ending reaps them.
fn carry(mailbox: Mailbox) {
    loop {
        let job = mailbox.lock().take();
        match job {
            Some(job) => {
                let successor = job();
                IDLE.lock()
                    .push((std::thread::current(), Arc::clone(&mailbox)));
                // Woken only now, so that whatever the successor spawns
                // first finds this carrier idle instead of adding one.
                if let Some(successor) = successor {
                    successor.unpark();
                }
            }
            // Unpark tokens left over from earlier hand-offs wake an idle
            // carrier spuriously; only the mailbox counts.
            None => std::thread::park(),
        }
    }
}
