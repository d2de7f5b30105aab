//! Nonblocking-request bookkeeping.

use crate::error::{MpiError, MpiResult};
use crate::msg::{Message, SrcSpec, TagSpec};
use home_sched::Vtid;
use home_trace::{CommId, Rank, ReqId};
use std::collections::HashMap;

/// What a pending request is waiting for.
#[derive(Debug, Clone)]
pub enum ReqState {
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
pub struct Request {
    /// Owning world rank.
    pub owner: Rank,
    /// Current state.
    pub state: ReqState,
    /// Threads blocked in `MPI_Wait` on this request.
    pub waiters: Vec<Vtid>,
}

/// The request table of a [`crate::World`].
#[derive(Debug, Default)]
pub struct RequestTable {
    next: u64,
    post_seq: u64,
    reqs: HashMap<ReqId, Request>,
}

impl RequestTable {
    /// Create an empty table.
    pub fn new() -> Self {
        RequestTable::default()
    }

    /// Allocate a new request.
    pub fn alloc(&mut self, owner: Rank, state: ReqState) -> ReqId {
        let id = ReqId(self.next);
        self.next += 1;
        self.reqs.insert(
            id,
            Request {
                owner,
                state,
                waiters: Vec::new(),
            },
        );
        id
    }

    /// Next posting sequence number (ordering of pending receives).
    pub fn next_post_seq(&mut self) -> u64 {
        let s = self.post_seq;
        self.post_seq += 1;
        s
    }

    /// Borrow a request.
    pub fn get(&self, id: ReqId) -> MpiResult<&Request> {
        self.reqs.get(&id).ok_or(MpiError::RequestUnknown)
    }

    /// Mutably borrow a request.
    pub fn get_mut(&mut self, id: ReqId) -> MpiResult<&mut Request> {
        self.reqs.get_mut(&id).ok_or(MpiError::RequestUnknown)
    }

    /// All pending receive requests of `dst`, ordered by post sequence.
    pub fn pending_recvs_of(&self, dst: Rank) -> Vec<(ReqId, SrcSpec, TagSpec, CommId, u64)> {
        let mut v: Vec<_> = self
            .reqs
            .iter()
            .filter_map(|(&id, r)| match &r.state {
                ReqState::PendingRecv {
                    dst: d,
                    src,
                    tag,
                    comm,
                    post_seq,
                } if *d == dst => Some((id, *src, *tag, *comm, *post_seq)),
                _ => None,
            })
            .collect();
        v.sort_by_key(|&(_, _, _, _, seq)| seq);
        v
    }

    /// Complete a pending receive with `msg`, returning the threads to wake
    /// (none for an id this table never issued).
    pub fn complete_recv(&mut self, id: ReqId, msg: Message) -> Vec<Vtid> {
        let Some(r) = self.reqs.get_mut(&id) else {
            return Vec::new();
        };
        debug_assert!(matches!(r.state, ReqState::PendingRecv { .. }));
        r.state = ReqState::ReadyRecv(msg);
        std::mem::take(&mut r.waiters)
    }

    /// Number of live (non-consumed) requests, for leak assertions in tests.
    pub fn live(&self) -> usize {
        self.reqs
            .values()
            .filter(|r| !matches!(r.state, ReqState::Consumed))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::payload;
    use home_trace::COMM_WORLD;

    #[test]
    fn alloc_and_lookup() {
        let mut t = RequestTable::new();
        let id = t.alloc(Rank(0), ReqState::SendInFlight { complete_at_ns: 5 });
        assert!(t.get(id).is_ok());
        assert!(t.get(ReqId(99)).is_err());
        assert_eq!(t.live(), 1);
    }

    #[test]
    fn pending_recvs_ordered_by_post_seq() {
        let mut t = RequestTable::new();
        let s1 = t.next_post_seq();
        let s0 = t.next_post_seq();
        assert!(s1 < s0);
        let a = t.alloc(
            Rank(1),
            ReqState::PendingRecv {
                dst: Rank(1),
                src: SrcSpec::Any,
                tag: TagSpec::Any,
                comm: COMM_WORLD,
                post_seq: s0,
            },
        );
        let b = t.alloc(
            Rank(1),
            ReqState::PendingRecv {
                dst: Rank(1),
                src: SrcSpec::Any,
                tag: TagSpec::Any,
                comm: COMM_WORLD,
                post_seq: s1,
            },
        );
        let pending = t.pending_recvs_of(Rank(1));
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].0, b, "earlier post first");
        assert_eq!(pending[1].0, a);
        // Other ranks see nothing.
        assert!(t.pending_recvs_of(Rank(0)).is_empty());
    }

    #[test]
    fn complete_recv_transitions_state() {
        let mut t = RequestTable::new();
        let seq = t.next_post_seq();
        let id = t.alloc(
            Rank(0),
            ReqState::PendingRecv {
                dst: Rank(0),
                src: SrcSpec::Rank(1),
                tag: TagSpec::Tag(0),
                comm: COMM_WORLD,
                post_seq: seq,
            },
        );
        let msg = Message {
            src: 1,
            src_world: Rank(1),
            tag: 0,
            comm: COMM_WORLD,
            data: payload(vec![3.0]),
            available_at_ns: 0,
            fifo_seq: 0,
            uid: 0,
        };
        let woken = t.complete_recv(id, msg);
        assert!(woken.is_empty());
        assert!(matches!(t.get(id).unwrap().state, ReqState::ReadyRecv(_)));
    }
}
