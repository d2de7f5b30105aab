//! The simulated MPI universe.

use crate::collective::CollectiveSeq;
use crate::comm::CommTable;
use crate::config::MpiConfig;
use crate::error::{MpiError, MpiResult};
use crate::msg::Message;
use crate::process::Process;
use crate::reqs::{ReqState, RequestTable};
use home_sched::{Runtime, Vtid};
use home_trace::{CommId, Rank, ThreadLevel};
use std::cell::{RefCell, RefMut};
use std::collections::HashMap;
use std::rc::Rc;

/// Per-process MPI lifecycle state.
#[derive(Debug, Default)]
pub(crate) struct ProcState {
    /// Thread level provided at initialization (`None` = not initialized).
    pub level: Option<ThreadLevel>,
    /// True after `MPI_Finalize` completed on this process.
    pub finalized: bool,
    /// Virtual thread that called `MPI_Init` (`MPI_Is_thread_main`).
    pub main_vtid: Option<Vtid>,
}

/// Mutable world state (one cell; a borrow is short and never held across
/// a suspension).
pub(crate) struct WorldState {
    pub comms: CommTable,
    pub reqs: RequestTable,
    pub procs: Vec<ProcState>,
    /// Unexpected-message queue per destination world rank, arrival order.
    pub mailbox: Vec<Vec<Message>>,
    /// Threads blocked in blocking receive/probe per world rank.
    pub recv_waiters: Vec<Vec<Vtid>>,
    /// Collective slot sequences per communicator.
    pub collectives: HashMap<CommId, CollectiveSeq>,
    /// FIFO sequence per (src, dst, tag, comm) channel.
    pub fifo: HashMap<(Rank, Rank, i32, CommId), u64>,
    /// Unique message id counter.
    pub next_msg_uid: u64,
    /// Synchronous senders blocked until their message (by uid) is matched
    /// by a receive.
    pub sync_waiters: HashMap<u64, Vtid>,
}

impl WorldState {
    fn new(n: usize) -> Self {
        WorldState {
            comms: CommTable::new_world(n),
            reqs: RequestTable::new(),
            procs: (0..n).map(|_| ProcState::default()).collect(),
            mailbox: vec![Vec::new(); n],
            recv_waiters: vec![Vec::new(); n],
            collectives: HashMap::new(),
            fifo: HashMap::new(),
            next_msg_uid: 0,
            sync_waiters: HashMap::new(),
        }
    }

    /// Deliver `msg` to `dst`: try pending nonblocking receives first (post
    /// order), else append to the unexpected queue. Returns threads to wake.
    pub fn deliver(&mut self, dst: Rank, msg: Message) -> Vec<Vtid> {
        self.mailbox[dst.index()].push(msg);
        let mut woken = self.sweep(dst);
        // Wake blocked receivers/probers so they can re-scan.
        woken.append(&mut self.recv_waiters[dst.index()]);
        woken
    }

    /// Match pending nonblocking receives of `dst` against the unexpected
    /// queue, earliest post first, preserving channel FIFO order. Returns
    /// threads to wake.
    pub fn sweep(&mut self, dst: Rank) -> Vec<Vtid> {
        let mut woken = Vec::new();
        let mailbox = &mut self.mailbox[dst.index()];
        loop {
            let matched = self
                .reqs
                .pending_recvs(dst)
                .find_map(|(req, src, tag, comm)| {
                    let pos = mailbox.iter().position(|m| m.matches(src, tag, comm))?;
                    Some((req, pos))
                });
            let Some((req, pos)) = matched else {
                return woken;
            };
            let msg = mailbox.remove(pos);
            // A rendezvous sender completes when its message is matched by
            // a receive.
            if let Some(w) = self.sync_waiters.remove(&msg.uid) {
                woken.push(w);
            }
            woken.extend(self.reqs.complete_recv(req, msg));
        }
    }

    /// Allocate a fresh message uid.
    pub fn msg_uid(&mut self) -> u64 {
        let u = self.next_msg_uid;
        self.next_msg_uid += 1;
        u
    }

    /// Next FIFO sequence number on a channel.
    pub fn fifo_next(&mut self, src: Rank, dst: Rank, tag: i32, comm: CommId) -> u64 {
        let e = self.fifo.entry((src, dst, tag, comm)).or_insert(0);
        let s = *e;
        *e += 1;
        s
    }
}

pub(crate) struct WorldShared {
    pub rt: Runtime,
    pub config: MpiConfig,
    pub size: usize,
    pub state: RefCell<WorldState>,
}

/// A simulated MPI universe of `size` processes.
///
/// Each process is driven by one or more virtual threads of the associated
/// [`Runtime`]; obtain per-rank handles with [`World::process`]. All MPI
/// semantics — envelope matching with wildcards, non-overtaking channels,
/// nonblocking requests, probing, collectives, communicator management, and
/// the four thread-support levels — are implemented here on virtual time.
///
/// ```
/// use home_mpi::{payload, MpiConfig, SrcSpec, TagSpec, World};
/// use home_sched::{Runtime, SchedConfig};
/// use home_trace::{ThreadLevel, COMM_WORLD};
///
/// let rt = Runtime::new(SchedConfig::deterministic(1));
/// let world = World::new(rt.clone(), 2, MpiConfig::test());
/// for r in 0..2 {
///     let p = world.process(r);
///     rt.spawn(format!("rank{r}"), async move {
///         p.init_thread(ThreadLevel::Multiple).await.unwrap();
///         if p.rank() == 0 {
///             p.send(1, 7, COMM_WORLD, payload(vec![3.0])).await.unwrap();
///         } else {
///             let (data, st) = p.recv(SrcSpec::Any, TagSpec::Any, COMM_WORLD).await.unwrap();
///             assert_eq!((data[0], st.tag), (3.0, 7));
///         }
///         p.finalize().await.unwrap();
///     });
/// }
/// rt.run().unwrap();
/// ```
#[derive(Clone)]
pub struct World {
    pub(crate) shared: Rc<WorldShared>,
}

impl World {
    /// Create a world of `size` processes scheduled by `rt`.
    pub fn new(rt: Runtime, size: usize, config: MpiConfig) -> World {
        assert!(size > 0, "world must have at least one process");
        World {
            shared: Rc::new(WorldShared {
                rt,
                config,
                size,
                state: RefCell::new(WorldState::new(size)),
            }),
        }
    }

    /// Number of processes.
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// The scheduler driving this world.
    pub fn runtime(&self) -> &Runtime {
        &self.shared.rt
    }

    /// The configuration.
    pub fn config(&self) -> &MpiConfig {
        &self.shared.config
    }

    /// Handle for `rank`'s MPI calls. Cheap; may be cloned into the rank's
    /// OpenMP threads.
    pub fn process(&self, rank: u32) -> Process {
        assert!(
            (rank as usize) < self.shared.size,
            "rank {rank} out of range for world of size {}",
            self.shared.size
        );
        Process::new(self.clone(), Rank(rank))
    }

    pub(crate) fn state(&self) -> RefMut<'_, WorldState> {
        self.shared.state.borrow_mut()
    }

    /// True if every process has been finalized.
    pub fn all_finalized(&self) -> bool {
        self.state().procs.iter().all(|p| p.finalized)
    }

    /// Count of live (unconsumed) requests — test helper for leak checks.
    pub fn live_requests(&self) -> usize {
        self.state().reqs.live()
    }

    /// Messages still sitting in unexpected queues — test helper.
    pub fn undelivered_messages(&self) -> usize {
        self.state().mailbox.iter().map(|q| q.len()).sum()
    }

    pub(crate) fn check_active(&self, rank: Rank) -> MpiResult<ThreadLevel> {
        let st = self.state();
        let p = &st.procs[rank.index()];
        match p.level {
            None => Err(MpiError::NotInitialized),
            Some(_) if p.finalized => Err(MpiError::AlreadyFinalized),
            Some(level) => Ok(level),
        }
    }

    /// Validate that a request exists and is not yet consumed — useful for
    /// harness-level assertions about request hygiene.
    pub fn request_live(&self, req: home_trace::ReqId) -> bool {
        let st = self.state();
        matches!(
            st.reqs.get(req).map(|r| &r.state),
            Ok(ReqState::PendingRecv { .. })
                | Ok(ReqState::ReadyRecv(_))
                | Ok(ReqState::SendInFlight { .. })
        )
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("size", &self.shared.size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{payload, SrcSpec, TagSpec};
    use home_sched::SchedConfig;
    use home_trace::COMM_WORLD;

    fn mk_msg(src: u32, dst_seq: u64, tag: i32) -> Message {
        Message {
            src,
            src_world: Rank(src),
            tag,
            comm: COMM_WORLD,
            data: payload(vec![src as f64]),
            available_at_ns: 0,
            fifo_seq: dst_seq,
            uid: 1000 + dst_seq,
        }
    }

    #[test]
    fn deliver_goes_to_mailbox_without_postings() {
        let mut st = WorldState::new(2);
        let woken = st.deliver(Rank(1), mk_msg(0, 0, 5));
        assert!(woken.is_empty());
        assert_eq!(st.mailbox[1].len(), 1);
    }

    /// Whichever order the two receives were allocated in, the earlier
    /// posting takes the first message.
    #[test]
    fn sweep_matches_earliest_posting_first() {
        for allocated_in_posting_order in [true, false] {
            let mut st = WorldState::new(2);
            let (s0, s1) = (st.reqs.next_post_seq(), st.reqs.next_post_seq());
            let mut recv = |post_seq| {
                st.reqs.alloc(
                    Rank(1),
                    ReqState::PendingRecv {
                        dst: Rank(1),
                        src: SrcSpec::Any,
                        tag: TagSpec::Any,
                        comm: COMM_WORLD,
                        post_seq,
                    },
                )
            };
            let (r0, r1) = if allocated_in_posting_order {
                let r0 = recv(s0);
                (r0, recv(s1))
            } else {
                let r1 = recv(s1);
                (recv(s0), r1)
            };
            st.deliver(Rank(1), mk_msg(0, 0, 1));
            assert!(
                matches!(st.reqs.get(r0).unwrap().state, ReqState::ReadyRecv(_)),
                "earliest posting matched first"
            );
            assert!(matches!(
                st.reqs.get(r1).unwrap().state,
                ReqState::PendingRecv { .. }
            ));
            st.deliver(Rank(1), mk_msg(0, 1, 2));
            assert!(matches!(
                st.reqs.get(r1).unwrap().state,
                ReqState::ReadyRecv(_)
            ));
            assert_eq!(st.mailbox[1].len(), 0);
        }
    }

    #[test]
    fn fifo_counters_are_per_channel() {
        let mut st = WorldState::new(2);
        assert_eq!(st.fifo_next(Rank(0), Rank(1), 0, COMM_WORLD), 0);
        assert_eq!(st.fifo_next(Rank(0), Rank(1), 0, COMM_WORLD), 1);
        assert_eq!(st.fifo_next(Rank(0), Rank(1), 1, COMM_WORLD), 0);
        assert_eq!(st.fifo_next(Rank(1), Rank(0), 0, COMM_WORLD), 0);
    }

    #[test]
    fn world_basics() {
        let rt = Runtime::new(SchedConfig::deterministic(0));
        let w = World::new(rt, 4, MpiConfig::test());
        assert_eq!(w.size(), 4);
        assert_eq!(w.undelivered_messages(), 0);
        assert_eq!(w.live_requests(), 0);
        assert!(!w.all_finalized());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_rank_panics() {
        let rt = Runtime::new(SchedConfig::deterministic(0));
        let w = World::new(rt, 2, MpiConfig::test());
        let _ = w.process(2);
    }
}
