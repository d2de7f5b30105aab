//! Shared state of one parallel-region team: barrier, worksharing
//! constructs, and reductions.

use crate::{BlockReason, Runtime, SchedResult, Vtid};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

#[derive(Debug, Default)]
struct BarrierState {
    arrived: usize,
    epoch: u64,
    waiters: Vec<Vtid>,
}

/// Per-construct shared state (worksharing/single/reduction bookkeeping),
/// keyed by the construct occurrence index. SPMD semantics: every thread of
/// the team encounters the constructs in the same order, so a per-thread
/// counter indexes into this map consistently.
#[derive(Debug, Default)]
struct ConstructState {
    /// `single`: whether some thread already claimed execution.
    single_claimed: bool,
    /// `sections` / dynamic `for`: next unclaimed index.
    next_index: u64,
    /// reduction accumulator.
    red_acc: Option<f64>,
    /// reduction contributions so far.
    red_count: usize,
}

/// State shared by the threads of one parallel region.
#[derive(Clone)]
pub(crate) struct Team {
    rt: Runtime,
    nthreads: usize,
    label: String,
    barrier: Rc<RefCell<BarrierState>>,
    constructs: Rc<RefCell<HashMap<u64, ConstructState>>>,
}

impl Team {
    /// Create the shared state for a team of `nthreads`.
    pub(crate) fn new(rt: Runtime, nthreads: usize, label: impl Into<String>) -> Self {
        Team {
            rt,
            nthreads,
            label: label.into(),
            barrier: Rc::default(),
            constructs: Rc::default(),
        }
    }

    /// Team size.
    pub(crate) fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Wait until all `nthreads` team members arrive. Returns the barrier
    /// epoch that was completed (for trace events).
    pub(crate) async fn barrier_wait(&self) -> SchedResult<u64> {
        let Some(me) = self.rt.current_vtid() else {
            panic!("barrier_wait outside a virtual thread")
        };
        let my_epoch;
        {
            let mut b = self.barrier.borrow_mut();
            my_epoch = b.epoch;
            b.arrived += 1;
            if b.arrived == self.nthreads {
                b.arrived = 0;
                b.epoch += 1;
                let waiters = std::mem::take(&mut b.waiters);
                drop(b);
                for w in waiters {
                    self.rt.unblock(w);
                }
                return Ok(my_epoch);
            }
        }
        loop {
            {
                let mut b = self.barrier.borrow_mut();
                if b.epoch > my_epoch {
                    return Ok(my_epoch);
                }
                if !b.waiters.contains(&me) {
                    b.waiters.push(me);
                }
            }
            self.rt
                .block_current(BlockReason::Barrier(self.label.clone()))
                .await?;
        }
    }

    /// `single` claim: true for exactly one thread per construct occurrence.
    pub(crate) fn claim_single(&self, construct: u64) -> bool {
        let mut cs = self.constructs.borrow_mut();
        let st = cs.entry(construct).or_default();
        if st.single_claimed {
            false
        } else {
            st.single_claimed = true;
            true
        }
    }

    /// Claim the next index of a `sections`/dynamic-`for` construct;
    /// `None` once `limit` is exhausted.
    pub(crate) fn claim_index(&self, construct: u64, limit: u64) -> Option<u64> {
        let mut cs = self.constructs.borrow_mut();
        let st = cs.entry(construct).or_default();
        if st.next_index >= limit {
            None
        } else {
            let ix = st.next_index;
            st.next_index += 1;
            Some(ix)
        }
    }

    /// Claim the next chunk `[lo, hi)` of a dynamic `for` over `0..total`.
    pub(crate) fn claim_chunk(&self, construct: u64, total: u64, chunk: u64) -> Option<Range<u64>> {
        debug_assert!(chunk > 0);
        let mut cs = self.constructs.borrow_mut();
        let st = cs.entry(construct).or_default();
        if st.next_index >= total {
            None
        } else {
            let lo = st.next_index;
            let hi = (lo + chunk).min(total);
            st.next_index = hi;
            Some(lo..hi)
        }
    }

    /// Contribute `value` to a reduction at `construct`; the combined result
    /// is available to everyone after the following team barrier.
    pub(crate) fn reduce_contribute(
        &self,
        construct: u64,
        value: f64,
        op: impl Fn(f64, f64) -> f64,
    ) {
        let mut cs = self.constructs.borrow_mut();
        let st = cs.entry(construct).or_default();
        st.red_acc = Some(match st.red_acc {
            None => value,
            Some(acc) => op(acc, value),
        });
        st.red_count += 1;
    }

    /// Read a completed reduction's result (call after the barrier);
    /// `None` if nothing was contributed at `construct`.
    pub(crate) fn reduce_result(&self, construct: u64) -> Option<f64> {
        let cs = self.constructs.borrow();
        let st = cs.get(&construct)?;
        debug_assert_eq!(st.red_count, self.nthreads, "reduction incomplete");
        st.red_acc
    }
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("nthreads", &self.nthreads)
            .field("label", &self.label)
            .finish()
    }
}

/// Block distribution of `0..n` over `nthreads`, returning `tid`'s range —
/// the static `for` schedule.
pub(crate) fn static_range(n: u64, nthreads: usize, tid: usize) -> Range<u64> {
    let nthreads = nthreads as u64;
    let tid = tid as u64;
    let base = n / nthreads;
    let rem = n % nthreads;
    // The first `rem` threads take one extra element.
    let lo = tid * base + tid.min(rem);
    let len = base + u64::from(tid < rem);
    lo..(lo + len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedConfig;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn static_range_partitions_exactly() {
        for n in [0u64, 1, 7, 100] {
            for nt in [1usize, 2, 3, 8] {
                let mut covered = Vec::new();
                for t in 0..nt {
                    covered.extend(static_range(n, nt, t));
                }
                covered.sort_unstable();
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} nt={nt}");
                // Balance: sizes differ by at most 1.
                let sizes: Vec<u64> = (0..nt)
                    .map(|t| {
                        let r = static_range(n, nt, t);
                        r.end - r.start
                    })
                    .collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn barrier_synchronizes_team() {
        let rt = Runtime::new(SchedConfig::deterministic(3));
        let team = Team::new(rt.clone(), 3, "test");
        let phase = Arc::new(AtomicUsize::new(0));
        for i in 0..3 {
            let team = team.clone();
            let phase = Arc::clone(&phase);
            let rt2 = rt.clone();
            rt.spawn(format!("t{i}"), async move {
                phase.fetch_add(1, Ordering::SeqCst);
                for _ in 0..i {
                    rt2.yield_now().await.unwrap();
                }
                team.barrier_wait().await.unwrap();
                // After the barrier everyone must observe all 3 arrivals.
                assert_eq!(phase.load(Ordering::SeqCst), 3);
            });
        }
        rt.run().unwrap();
        assert_eq!(team.barrier.borrow().epoch, 1);
    }

    #[test]
    fn barrier_is_reusable_across_epochs() {
        let rt = Runtime::new(SchedConfig::deterministic(4));
        let team = Team::new(rt.clone(), 2, "test");
        for i in 0..2 {
            let team = team.clone();
            rt.spawn(format!("t{i}"), async move {
                for round in 0..5u64 {
                    let epoch = team.barrier_wait().await.unwrap();
                    assert_eq!(epoch, round);
                }
            });
        }
        rt.run().unwrap();
        assert_eq!(team.barrier.borrow().epoch, 5);
    }

    #[test]
    fn single_claim_exactly_one() {
        let rt = Runtime::new(SchedConfig::deterministic(5));
        let team = Team::new(rt.clone(), 4, "test");
        let claims = Arc::new(AtomicUsize::new(0));
        for i in 0..4 {
            let team = team.clone();
            let claims = Arc::clone(&claims);
            rt.spawn(format!("t{i}"), async move {
                if team.claim_single(0) {
                    claims.fetch_add(1, Ordering::SeqCst);
                }
                // Second construct occurrence gets a fresh claim.
                if team.claim_single(1) {
                    claims.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        rt.run().unwrap();
        assert_eq!(claims.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn claim_index_hands_out_each_once() {
        let rt = Runtime::new(SchedConfig::deterministic(6));
        let team = Team::new(rt.clone(), 3, "test");
        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicU64::new(0));
        for i in 0..3 {
            let team = team.clone();
            let sum = Arc::clone(&sum);
            let count = Arc::clone(&count);
            rt.spawn(format!("t{i}"), async move {
                while let Some(ix) = team.claim_index(0, 10) {
                    sum.fetch_add(ix, Ordering::SeqCst);
                    count.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        rt.run().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 10);
        assert_eq!(sum.load(Ordering::SeqCst), 45);
    }

    #[test]
    fn claim_chunk_covers_range() {
        let rt = Runtime::new(SchedConfig::deterministic(7));
        let team = Team::new(rt.clone(), 2, "test");
        let covered = Rc::new(RefCell::new(Vec::new()));
        for i in 0..2 {
            let team = team.clone();
            let covered = Rc::clone(&covered);
            rt.spawn(format!("t{i}"), async move {
                while let Some(r) = team.claim_chunk(0, 23, 4) {
                    covered.borrow_mut().extend(r);
                }
            });
        }
        rt.run().unwrap();
        let mut c = covered.borrow().clone();
        c.sort_unstable();
        assert_eq!(c, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn reduction_combines_all_contributions() {
        let rt = Runtime::new(SchedConfig::deterministic(8));
        let team = Team::new(rt.clone(), 3, "test");
        for i in 0..3 {
            let team = team.clone();
            rt.spawn(format!("t{i}"), async move {
                team.reduce_contribute(0, (i + 1) as f64, |a, b| a + b);
                team.barrier_wait().await.unwrap();
                assert_eq!(team.reduce_result(0), Some(6.0));
            });
        }
        rt.run().unwrap();
    }
}
