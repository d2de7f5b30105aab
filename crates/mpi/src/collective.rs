//! Collective-operation rendezvous machinery.
//!
//! Each communicator carries an ordered sequence of *collective slots*.
//! Every process keeps a per-communicator call counter; its k-th collective
//! call on that communicator joins slot k. When all members have arrived at
//! a slot, the result is computed and everyone proceeds. If two threads of
//! one process call collectives concurrently, their calls claim consecutive
//! slots in a schedule-dependent order — exactly the corruption the paper's
//! collective-call violation describes (slots then mismatch across ranks,
//! surfacing as [`crate::MpiError::CollectiveMismatch`] or a deadlock).

use crate::error::{MpiError, MpiResult};
use crate::msg::Payload;
use home_sched::Vtid;
use home_trace::MpiCallKind;
use std::collections::HashMap;
use std::sync::Arc;

/// Reduction operator for `MPI_Reduce`/`MPI_Allreduce`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    Sum,
    Prod,
    Min,
    Max,
}

impl ReduceOp {
    /// Combine two values.
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    /// Elementwise fold of `src` into `acc`.
    pub fn fold(self, acc: &mut [f64], src: &[f64]) {
        for (a, &s) in acc.iter_mut().zip(src) {
            *a = self.combine(*a, s);
        }
    }
}

/// Which collective a slot runs, carrying the operands that collective
/// needs: a slot cannot hold a reduction without an operator or a rooted
/// operation without a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CollectiveOp {
    Barrier,
    Finalize,
    Bcast { root: u32 },
    Reduce { op: ReduceOp, root: u32 },
    Allreduce { op: ReduceOp },
    Gather { root: u32 },
    Allgather,
    Scatter { root: u32 },
    Alltoall,
    CommDup,
    CommSplit,
}

impl CollectiveOp {
    /// The root of a rooted operation.
    pub(crate) fn root(self) -> Option<u32> {
        match self {
            CollectiveOp::Bcast { root }
            | CollectiveOp::Reduce { root, .. }
            | CollectiveOp::Gather { root }
            | CollectiveOp::Scatter { root } => Some(root),
            _ => None,
        }
    }

    /// The MPI call this operation is.
    pub(crate) fn kind(self) -> MpiCallKind {
        match self {
            CollectiveOp::Barrier => MpiCallKind::Barrier,
            CollectiveOp::Finalize => MpiCallKind::Finalize,
            CollectiveOp::Bcast { .. } => MpiCallKind::Bcast,
            CollectiveOp::Reduce { .. } => MpiCallKind::Reduce,
            CollectiveOp::Allreduce { .. } => MpiCallKind::Allreduce,
            CollectiveOp::Gather { .. } => MpiCallKind::Gather,
            CollectiveOp::Allgather => MpiCallKind::Allgather,
            CollectiveOp::Scatter { .. } => MpiCallKind::Scatter,
            CollectiveOp::Alltoall => MpiCallKind::Alltoall,
            CollectiveOp::CommDup => MpiCallKind::CommDup,
            CollectiveOp::CommSplit => MpiCallKind::CommSplit,
        }
    }
}

/// What one participant contributed to a slot.
#[derive(Debug, Clone)]
pub struct Contribution {
    /// Payload (empty for barriers).
    pub data: Payload,
    /// `(color, key)` for `MPI_Comm_split`.
    pub color_key: Option<(i32, i32)>,
    /// Virtual time of arrival.
    pub arrived_at_ns: u64,
}

/// Result of a completed slot, as seen by one participant.
#[derive(Debug, Clone, Default)]
pub struct SlotResult {
    /// Per-member output payload (indexed by communicator rank). Operations
    /// whose result is identical for everyone store it at every index.
    pub per_rank: Vec<Payload>,
    /// Virtual completion time (all participants merge to this).
    pub complete_at_ns: u64,
    /// For `MPI_Comm_split`/`MPI_Comm_dup`: the new communicator per member.
    pub new_comm: Vec<Option<home_trace::CommId>>,
}

/// One collective slot.
#[derive(Debug)]
pub struct Slot {
    /// Operation fixed by the first arrival (roots are
    /// communicator-relative).
    pub(crate) op: CollectiveOp,
    /// Contributions by communicator rank.
    pub contributions: HashMap<u32, Contribution>,
    /// Threads blocked waiting for the slot to complete.
    pub waiters: Vec<Vtid>,
    /// Set once all members have arrived.
    pub result: Option<SlotResult>,
    /// Set when the slot is poisoned (mismatched operations or payloads);
    /// every participant then observes this error.
    pub failed: Option<MpiError>,
}

impl Slot {
    /// Create a slot for the given operation.
    pub(crate) fn new(op: CollectiveOp) -> Self {
        Slot {
            op,
            contributions: HashMap::new(),
            waiters: Vec::new(),
            result: None,
            failed: None,
        }
    }

    /// Check that a late arrival agrees with the slot's operation.
    pub(crate) fn check_match(&self, op: CollectiveOp) -> MpiResult<()> {
        if self.op != op {
            return Err(MpiError::CollectiveMismatch {
                expected: self.op.kind(),
                got: op.kind(),
            });
        }
        Ok(())
    }

    /// Compute the slot result once all `size` members have contributed.
    /// `extra_ns` is the per-participant collective overhead.
    pub fn compute(&self, size: usize, extra_ns: u64) -> MpiResult<SlotResult> {
        debug_assert_eq!(self.contributions.len(), size);
        let complete_at_ns = self
            .contributions
            .values()
            .map(|c| c.arrived_at_ns)
            .max()
            .unwrap_or(0)
            + extra_ns;
        let empty: Payload = Arc::new(Vec::new());
        let data_of = |r: u32| -> Payload {
            self.contributions
                .get(&r)
                .map(|c| Arc::clone(&c.data))
                .unwrap_or_else(|| Arc::clone(&empty))
        };
        // A reduction: fold everyone's payload, elementwise, in rank order.
        let reduce = |op: ReduceOp| -> MpiResult<Payload> {
            let mut acc: Vec<f64> = data_of(0).as_ref().clone();
            for r in 1..size as u32 {
                let d = data_of(r);
                if d.len() != acc.len() {
                    return Err(MpiError::PayloadMismatch {
                        expected: acc.len(),
                        got: d.len(),
                    });
                }
                op.fold(&mut acc, &d);
            }
            Ok(Arc::new(acc))
        };
        let gather = || -> Payload {
            let mut concat = Vec::new();
            for r in 0..size as u32 {
                concat.extend_from_slice(&data_of(r));
            }
            Arc::new(concat)
        };
        // Only `root` (a member: `Process::collective` checked) receives
        // `data`.
        let to_root = |root: u32, data: Payload| -> Vec<Payload> {
            let mut v = vec![Arc::clone(&empty); size];
            v[root as usize] = data;
            v
        };
        let per_rank: Vec<Payload> = match self.op {
            // Communicator creation carries no payload; `new_comm` is
            // filled in by the caller (the world owns the communicator
            // table).
            CollectiveOp::Barrier
            | CollectiveOp::Finalize
            | CollectiveOp::CommDup
            | CollectiveOp::CommSplit => vec![Arc::clone(&empty); size],
            CollectiveOp::Bcast { root } => vec![data_of(root); size],
            CollectiveOp::Reduce { op, root } => to_root(root, reduce(op)?),
            CollectiveOp::Allreduce { op } => vec![reduce(op)?; size],
            CollectiveOp::Gather { root } => to_root(root, gather()),
            CollectiveOp::Allgather => vec![gather(); size],
            CollectiveOp::Scatter { root } => {
                let src = data_of(root);
                if src.len() % size != 0 {
                    return Err(MpiError::PayloadMismatch {
                        expected: size,
                        got: src.len(),
                    });
                }
                let chunk = src.len() / size;
                (0..size)
                    .map(|r| Arc::new(src[r * chunk..(r + 1) * chunk].to_vec()) as Payload)
                    .collect()
            }
            CollectiveOp::Alltoall => {
                // Each contribution is `size` equal chunks; receiver i gets
                // the concatenation of everyone's chunk i.
                let mut chunks: Vec<Vec<f64>> = Vec::with_capacity(size);
                let first = data_of(0);
                if first.len() % size != 0 {
                    return Err(MpiError::PayloadMismatch {
                        expected: size,
                        got: first.len(),
                    });
                }
                let chunk = first.len() / size;
                for i in 0..size {
                    let mut out = Vec::with_capacity(chunk * size);
                    for r in 0..size as u32 {
                        let d = data_of(r);
                        if d.len() != chunk * size {
                            return Err(MpiError::PayloadMismatch {
                                expected: chunk * size,
                                got: d.len(),
                            });
                        }
                        out.extend_from_slice(&d[i * chunk..(i + 1) * chunk]);
                    }
                    chunks.push(out);
                }
                chunks.into_iter().map(|c| Arc::new(c) as Payload).collect()
            }
        };
        Ok(SlotResult {
            per_rank,
            complete_at_ns,
            new_comm: Vec::new(),
        })
    }
}

/// Per-communicator sequence of slots plus per-process call counters.
#[derive(Debug, Default)]
pub struct CollectiveSeq {
    /// Slots in program order.
    pub slots: Vec<Slot>,
    /// Next slot index per communicator rank.
    pub next_of_rank: HashMap<u32, usize>,
}

impl CollectiveSeq {
    /// Claim the next slot index for `crank`.
    pub fn claim(&mut self, crank: u32) -> usize {
        let e = self.next_of_rank.entry(crank).or_insert(0);
        let ix = *e;
        *e += 1;
        ix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::payload;

    fn contribute(slot: &mut Slot, rank: u32, data: Vec<f64>) {
        slot.contributions.insert(
            rank,
            Contribution {
                data: payload(data),
                color_key: None,
                arrived_at_ns: rank as u64 * 10,
            },
        );
    }

    #[test]
    fn reduce_ops() {
        assert_eq!(ReduceOp::Sum.combine(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Prod.combine(2.0, 3.0), 6.0);
        assert_eq!(ReduceOp::Min.combine(2.0, 3.0), 2.0);
        assert_eq!(ReduceOp::Max.combine(2.0, 3.0), 3.0);
        let mut acc = vec![1.0, 5.0];
        ReduceOp::Max.fold(&mut acc, &[3.0, 2.0]);
        assert_eq!(acc, vec![3.0, 5.0]);
    }

    #[test]
    fn barrier_completes_at_max_arrival() {
        let mut s = Slot::new(CollectiveOp::Barrier);
        contribute(&mut s, 0, vec![]);
        contribute(&mut s, 1, vec![]);
        contribute(&mut s, 2, vec![]);
        let r = s.compute(3, 7).unwrap();
        assert_eq!(r.complete_at_ns, 20 + 7);
    }

    #[test]
    fn allreduce_sums_elementwise() {
        let mut s = Slot::new(CollectiveOp::Allreduce { op: ReduceOp::Sum });
        contribute(&mut s, 0, vec![1.0, 2.0]);
        contribute(&mut s, 1, vec![10.0, 20.0]);
        let r = s.compute(2, 0).unwrap();
        assert_eq!(*r.per_rank[0], vec![11.0, 22.0]);
        assert_eq!(*r.per_rank[1], vec![11.0, 22.0]);
    }

    #[test]
    fn reduce_only_root_gets_result() {
        let mut s = Slot::new(CollectiveOp::Reduce {
            op: ReduceOp::Sum,
            root: 1,
        });
        contribute(&mut s, 0, vec![1.0]);
        contribute(&mut s, 1, vec![2.0]);
        let r = s.compute(2, 0).unwrap();
        assert!(r.per_rank[0].is_empty());
        assert_eq!(*r.per_rank[1], vec![3.0]);
    }

    #[test]
    fn bcast_copies_root() {
        let mut s = Slot::new(CollectiveOp::Bcast { root: 0 });
        contribute(&mut s, 0, vec![9.0]);
        contribute(&mut s, 1, vec![]);
        let r = s.compute(2, 0).unwrap();
        assert_eq!(*r.per_rank[1], vec![9.0]);
    }

    #[test]
    fn gather_concatenates_in_rank_order() {
        let mut s = Slot::new(CollectiveOp::Gather { root: 0 });
        contribute(&mut s, 1, vec![2.0]);
        contribute(&mut s, 0, vec![1.0]);
        let r = s.compute(2, 0).unwrap();
        assert_eq!(*r.per_rank[0], vec![1.0, 2.0]);
        assert!(r.per_rank[1].is_empty());
    }

    #[test]
    fn scatter_slices() {
        let mut s = Slot::new(CollectiveOp::Scatter { root: 0 });
        contribute(&mut s, 0, vec![1.0, 2.0, 3.0, 4.0]);
        contribute(&mut s, 1, vec![]);
        let r = s.compute(2, 0).unwrap();
        assert_eq!(*r.per_rank[0], vec![1.0, 2.0]);
        assert_eq!(*r.per_rank[1], vec![3.0, 4.0]);
    }

    #[test]
    fn alltoall_transposes() {
        let mut s = Slot::new(CollectiveOp::Alltoall);
        contribute(&mut s, 0, vec![1.0, 2.0]); // chunk0→rank0, chunk1→rank1
        contribute(&mut s, 1, vec![3.0, 4.0]);
        let r = s.compute(2, 0).unwrap();
        assert_eq!(*r.per_rank[0], vec![1.0, 3.0]);
        assert_eq!(*r.per_rank[1], vec![2.0, 4.0]);
    }

    #[test]
    fn mismatched_kind_is_detected() {
        let s = Slot::new(CollectiveOp::Barrier);
        let e = s.check_match(CollectiveOp::Bcast { root: 0 }).unwrap_err();
        assert!(matches!(e, MpiError::CollectiveMismatch { .. }));
        assert!(s.check_match(CollectiveOp::Barrier).is_ok());
    }

    #[test]
    fn mismatched_lengths_fail_reduce() {
        let mut s = Slot::new(CollectiveOp::Allreduce { op: ReduceOp::Sum });
        contribute(&mut s, 0, vec![1.0]);
        contribute(&mut s, 1, vec![1.0, 2.0]);
        assert!(matches!(
            s.compute(2, 0),
            Err(MpiError::PayloadMismatch { .. })
        ));
    }

    #[test]
    fn claim_is_per_rank_monotone() {
        let mut seq = CollectiveSeq::default();
        assert_eq!(seq.claim(0), 0);
        assert_eq!(seq.claim(0), 1);
        assert_eq!(seq.claim(1), 0);
        assert_eq!(seq.claim(1), 1);
    }
}
