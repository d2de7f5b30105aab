//! Nonblocking-request bookkeeping.
//!
//! A [`RequestTable`] keeps every request the world ever issued, indexed by
//! id, and — per destination rank — the ids of that rank's unmatched
//! receives in posting order. Delivering a message or posting a receive
//! walks only the destination's queue ([`RequestTable::pending_recvs`]),
//! earliest posting first, which is MPI's matching rule for receives posted
//! from several threads; a receive leaves its queue when
//! [`RequestTable::complete_recv`] matches it. A request that has been
//! waited on stays in the table as [`ReqState::Consumed`], so waiting on it
//! again is [`MpiError::RequestConsumed`] (the evidence behind a
//! concurrent-request violation), not [`MpiError::RequestUnknown`].

use crate::error::{MpiError, MpiResult};
use crate::msg::{Message, SrcSpec, TagSpec};
use crate::Vtid;
use home_trace::{CommId, Rank, ReqId};

/// What a pending request is waiting for.
#[derive(Debug, Clone)]
pub(crate) enum ReqState {
    /// An `MPI_Irecv` that has not matched yet.
    PendingRecv {
        /// Receiving world rank.
        dst: Rank,
        src: SrcSpec,
        tag: TagSpec,
        comm: CommId,
        /// Post order among this rank's pending receives (earlier posts
        /// match first).
        post_seq: u64,
    },
    /// An `MPI_Irecv` that matched; the message is ready to be consumed.
    ReadyRecv(Message),
    /// An `MPI_Isend` (eager: the data is already in flight).
    SendInFlight {
        /// Virtual time at which the send buffer is reusable.
        complete_at_ns: u64,
    },
    /// Completed and consumed by `MPI_Wait`/`MPI_Test`.
    Consumed,
}

/// One request record.
#[derive(Debug)]
pub(crate) struct Request {
    /// Owning world rank.
    pub owner: Rank,
    /// Current state.
    pub state: ReqState,
    /// Threads blocked in `MPI_Wait` on this request.
    pub waiters: Vec<Vtid>,
}

/// The request table of a [`crate::World`].
#[derive(Debug, Default)]
pub(crate) struct RequestTable {
    post_seq: u64,
    /// Every request issued, at the index of its id.
    reqs: Vec<Request>,
    /// Per receiving world rank: `(post_seq, id)` of its unmatched
    /// receives, ascending.
    pending: Vec<Vec<(u64, ReqId)>>,
}

impl RequestTable {
    /// Create an empty table.
    pub(crate) fn new() -> Self {
        RequestTable::default()
    }

    /// Allocate a new request; a pending receive joins its rank's queue at
    /// its posting position (callers may allocate out of posting order).
    pub(crate) fn alloc(&mut self, owner: Rank, state: ReqState) -> ReqId {
        let id = ReqId(self.reqs.len() as u64);
        if let ReqState::PendingRecv { dst, post_seq, .. } = state {
            if self.pending.len() <= dst.index() {
                self.pending.resize_with(dst.index() + 1, Vec::new);
            }
            let queue = &mut self.pending[dst.index()];
            let at = queue.partition_point(|&(seq, _)| seq < post_seq);
            queue.insert(at, (post_seq, id));
        }
        self.reqs.push(Request {
            owner,
            state,
            waiters: Vec::new(),
        });
        id
    }

    /// Next posting sequence number (ordering of pending receives).
    pub(crate) fn next_post_seq(&mut self) -> u64 {
        let s = self.post_seq;
        self.post_seq += 1;
        s
    }

    /// Borrow a request.
    pub(crate) fn get(&self, id: ReqId) -> MpiResult<&Request> {
        self.reqs.get(id.index()).ok_or(MpiError::RequestUnknown)
    }

    /// Mutably borrow a request.
    pub(crate) fn get_mut(&mut self, id: ReqId) -> MpiResult<&mut Request> {
        self.reqs
            .get_mut(id.index())
            .ok_or(MpiError::RequestUnknown)
    }

    /// The unmatched receives of `dst` with their envelopes, earliest
    /// posting first.
    pub(crate) fn pending_recvs(
        &self,
        dst: Rank,
    ) -> impl Iterator<Item = (ReqId, SrcSpec, TagSpec, CommId)> + '_ {
        let queue = self.pending.get(dst.index()).map_or(&[][..], Vec::as_slice);
        queue.iter().filter_map(|&(_, id)| match self.get(id) {
            Ok(Request {
                state: ReqState::PendingRecv { src, tag, comm, .. },
                ..
            }) => Some((id, *src, *tag, *comm)),
            _ => None,
        })
    }

    /// Complete a pending receive with `msg`, taking it off its rank's
    /// queue, and return the threads to wake (none for an id this table
    /// never issued).
    pub(crate) fn complete_recv(&mut self, id: ReqId, msg: Message) -> Vec<Vtid> {
        let Some(r) = self.reqs.get_mut(id.index()) else {
            return Vec::new();
        };
        debug_assert!(matches!(r.state, ReqState::PendingRecv { .. }));
        if let ReqState::PendingRecv { dst, post_seq, .. } = r.state {
            if let Some(queue) = self.pending.get_mut(dst.index()) {
                if let Ok(at) = queue.binary_search(&(post_seq, id)) {
                    queue.remove(at);
                }
            }
        }
        r.state = ReqState::ReadyRecv(msg);
        std::mem::take(&mut r.waiters)
    }
}

#[cfg(test)]
impl RequestTable {
    /// Number of live (non-consumed) requests.
    pub(crate) fn live(&self) -> usize {
        self.reqs
            .iter()
            .filter(|r| !matches!(r.state, ReqState::Consumed))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::payload;
    use crate::{MpiConfig, World};
    use crate::{Runtime, SchedConfig};
    use home_trace::{ThreadLevel, COMM_WORLD};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn recv(t: &mut RequestTable, dst: u32, post_seq: u64) -> ReqId {
        t.alloc(
            Rank(dst),
            ReqState::PendingRecv {
                dst: Rank(dst),
                src: SrcSpec::Any,
                tag: TagSpec::Any,
                comm: COMM_WORLD,
                post_seq,
            },
        )
    }

    fn msg() -> Message {
        Message {
            src: 1,
            src_world: Rank(1),
            tag: 0,
            comm: COMM_WORLD,
            data: payload(vec![3.0]),
            available_at_ns: 0,
            fifo_seq: 0,
            uid: 0,
        }
    }

    fn queue_of(t: &RequestTable, dst: u32) -> Vec<ReqId> {
        t.pending_recvs(Rank(dst)).map(|(id, ..)| id).collect()
    }

    #[test]
    fn alloc_and_lookup() {
        let mut t = RequestTable::new();
        let id = t.alloc(Rank(0), ReqState::SendInFlight { complete_at_ns: 5 });
        assert!(t.get(id).is_ok());
        assert!(t.get(ReqId(99)).is_err());
        assert_eq!(t.live(), 1);
        assert!(queue_of(&t, 0).is_empty(), "a send never queues");
    }

    #[test]
    fn pending_recvs_ordered_by_post_seq() {
        let mut t = RequestTable::new();
        let s1 = t.next_post_seq();
        let s0 = t.next_post_seq();
        assert!(s1 < s0);
        let a = recv(&mut t, 1, s0);
        let b = recv(&mut t, 1, s1);
        assert_eq!(queue_of(&t, 1), [b, a], "earlier post first");
        // Other ranks see nothing.
        assert!(queue_of(&t, 0).is_empty());
        assert!(queue_of(&t, 7).is_empty());
    }

    #[test]
    fn complete_recv_transitions_state() {
        let mut t = RequestTable::new();
        let seq = t.next_post_seq();
        let id = recv(&mut t, 0, seq);
        let woken = t.complete_recv(id, msg());
        assert!(woken.is_empty());
        assert!(matches!(t.get(id).unwrap().state, ReqState::ReadyRecv(_)));
    }

    /// A rank's queue holds exactly its unmatched receives, in posting order
    /// whatever the allocation order, and empties as they complete.
    #[test]
    fn a_ranks_queue_holds_exactly_its_unmatched_receives() {
        let mut t = RequestTable::new();
        let seqs: Vec<u64> = (0..5).map(|_| t.next_post_seq()).collect();
        // Allocated 3, 0, 4, 1 on rank 2 and 2 on rank 0.
        let r3 = recv(&mut t, 2, seqs[3]);
        let r0 = recv(&mut t, 2, seqs[0]);
        let r4 = recv(&mut t, 2, seqs[4]);
        let r1 = recv(&mut t, 2, seqs[1]);
        let other = recv(&mut t, 0, seqs[2]);
        t.alloc(Rank(2), ReqState::SendInFlight { complete_at_ns: 0 });
        assert_eq!(queue_of(&t, 2), [r0, r1, r3, r4]);
        assert_eq!(queue_of(&t, 0), [other]);
        assert!(queue_of(&t, 1).is_empty());

        t.complete_recv(r1, msg());
        assert_eq!(queue_of(&t, 2), [r0, r3, r4], "a match leaves the queue");
        for id in [r4, r0, r3] {
            t.complete_recv(id, msg());
        }
        assert!(queue_of(&t, 2).is_empty());
        assert_eq!(queue_of(&t, 0), [other], "other ranks are untouched");
    }

    /// Receiving takes a request off its rank's queue but not out of the
    /// table: a second `MPI_Wait` on it is `RequestConsumed`.
    #[test]
    fn a_second_wait_finds_the_request_consumed() {
        let rt = Runtime::new(SchedConfig::deterministic(1));
        let world = World::new(rt.clone(), 2, MpiConfig::test());
        let errors = Rc::new(RefCell::new(Vec::new()));
        for r in 0..2 {
            let p = world.process(r);
            let errors = Rc::clone(&errors);
            rt.spawn(format!("rank{r}"), async move {
                p.init_thread(ThreadLevel::Multiple).await.unwrap();
                if p.rank() == 0 {
                    p.send(1, 3, COMM_WORLD, payload(vec![1.0])).await.unwrap();
                } else {
                    let req = p
                        .irecv(SrcSpec::Any, TagSpec::Any, COMM_WORLD)
                        .await
                        .unwrap();
                    p.wait(req).await.unwrap();
                    let again = p.wait(req).await.unwrap_err();
                    errors.borrow_mut().push(again);
                }
                p.finalize().await.unwrap();
            });
        }
        rt.run().unwrap();
        assert_eq!(*errors.borrow(), [MpiError::RequestConsumed]);
        assert_eq!(world.live_requests(), 0);
        assert_eq!(world.undelivered_messages(), 0);
    }
}
