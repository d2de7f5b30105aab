//! # home-omp — an OpenMP-like shared-memory runtime
//!
//! Implements the OpenMP constructs the paper's programs use, over
//! [`home_sched`] virtual threads, with every synchronization operation
//! emitting [`home_trace`] events the dynamic analyses consume:
//!
//! * `parallel` regions ([`OmpProc::parallel`]) — the caller becomes the
//!   master (tid 0) and workers are forked as virtual threads;
//! * worksharing: static and dynamic `for` schedules, `sections`, `single`;
//! * synchronization: `barrier`, named `critical`, runtime locks
//!   ([`OmpLock`]), and team reductions;
//! * instrumented shared-variable accesses (`read_var`/`write_var`) for the
//!   full-monitoring baseline (Intel-Thread-Checker-style).
//!
//! Construct costs ([`OmpCosts`]) are charged in virtual time so that
//! instrumentation overhead shows up in the simulated makespan — the
//! quantity Figures 4–7 of the paper compare across tools.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod lock;
mod proc;
mod team;

pub use lock::OmpLock;
pub use proc::{DynFor, OmpCosts, OmpCtx, OmpProc};
pub use team::{static_range, Team};

#[cfg(test)]
mod tests {
    use super::*;
    use home_sched::{Runtime, SchedConfig};
    use home_trace::{Collector, EventKind, Rank, Tid};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    fn with_proc<F>(seed: u64, f: F) -> home_trace::Trace
    where
        F: AsyncFnOnce(OmpProc) + 'static,
    {
        let rt = Runtime::new(SchedConfig::deterministic(seed));
        let (collector, sink) = Collector::in_memory();
        let proc = OmpProc::with_costs(rt.clone(), Rank(0), collector, OmpCosts::zero());
        rt.spawn("rank0", async move { f(proc).await });
        rt.run().unwrap();
        let trace = sink.borrow_mut().drain();
        trace
    }

    #[test]
    fn parallel_runs_all_threads() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        with_proc(0, async move |proc| {
            proc.parallel(4, async move |ctx| {
                assert!(ctx.tid().index() < 4);
                assert_eq!(ctx.nthreads(), 4);
                c2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })
            .await
            .unwrap();
        });
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn fork_join_events_bracket_region() {
        let trace = with_proc(1, async |proc| {
            proc.parallel(2, async |ctx| {
                ctx.write_var("x", None);
                Ok(())
            })
            .await
            .unwrap();
        });
        let kinds: Vec<&EventKind> = trace.events().iter().map(|e| &e.kind).collect();
        assert!(matches!(
            kinds.first(),
            Some(EventKind::Fork { nthreads: 2, .. })
        ));
        assert!(matches!(kinds.last(), Some(EventKind::JoinRegion { .. })));
        // Two access events, one per thread, both inside the region.
        let accesses: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Access { .. }))
            .collect();
        assert_eq!(accesses.len(), 2);
        assert!(accesses.iter().all(|e| e.region.is_some()));
        let tids: std::collections::HashSet<Tid> = accesses.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2);
    }

    #[test]
    fn master_and_single_select_one_thread() {
        let master_runs = Arc::new(AtomicUsize::new(0));
        let single_runs = Arc::new(AtomicUsize::new(0));
        let (m2, s2) = (Arc::clone(&master_runs), Arc::clone(&single_runs));
        with_proc(2, async move |proc| {
            let m3 = Arc::clone(&m2);
            let s3 = Arc::clone(&s2);
            proc.parallel(4, async move |ctx| {
                ctx.master(async { m3.fetch_add(1, Ordering::SeqCst) })
                    .await;
                ctx.single(async { s3.fetch_add(1, Ordering::SeqCst) })
                    .await?;
                Ok(())
            })
            .await
            .unwrap();
        });
        assert_eq!(master_runs.load(Ordering::SeqCst), 1);
        assert_eq!(single_runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn critical_emits_acquire_release_and_excludes() {
        let max_inside = Arc::new(AtomicUsize::new(0));
        let inside = Arc::new(AtomicUsize::new(0));
        let (m2, i2) = (Arc::clone(&max_inside), Arc::clone(&inside));
        let trace = with_proc(3, async move |proc| {
            let m3 = Arc::clone(&m2);
            let i3 = Arc::clone(&i2);
            proc.parallel(3, async move |ctx| {
                let m = Arc::clone(&m3);
                let i = Arc::clone(&i3);
                ctx.critical("update", async {
                    let n = i.fetch_add(1, Ordering::SeqCst) + 1;
                    m.fetch_max(n, Ordering::SeqCst);
                    // Suspend inside the section: nobody else may get in.
                    ctx.yield_now().await?;
                    i.fetch_sub(1, Ordering::SeqCst);
                    Ok::<_, home_sched::SchedError>(())
                })
                .await??;
                Ok(())
            })
            .await
            .unwrap();
        });
        assert_eq!(max_inside.load(Ordering::SeqCst), 1);
        let acquires = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Acquire { .. }))
            .count();
        let releases = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Release { .. }))
            .count();
        assert_eq!(acquires, 3);
        assert_eq!(releases, 3);
    }

    #[test]
    fn barrier_emits_per_thread_events_with_same_epoch() {
        let trace = with_proc(4, async |proc| {
            proc.parallel(3, async |ctx| {
                ctx.barrier().await?;
                ctx.barrier().await?;
                Ok(())
            })
            .await
            .unwrap();
        });
        let epochs: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Barrier { epoch, .. } => Some(epoch),
                _ => None,
            })
            .collect();
        assert_eq!(epochs.len(), 6);
        assert_eq!(epochs.iter().filter(|&&e| e == 0).count(), 3);
        assert_eq!(epochs.iter().filter(|&&e| e == 1).count(), 3);
    }

    #[test]
    fn static_for_covers_iteration_space() {
        let sum = Arc::new(AtomicU64::new(0));
        let s2 = Arc::clone(&sum);
        with_proc(5, async move |proc| {
            let s3 = Arc::clone(&s2);
            proc.parallel(3, async move |ctx| {
                for i in ctx.for_static(100) {
                    s3.fetch_add(i, Ordering::SeqCst);
                }
                Ok(())
            })
            .await
            .unwrap();
        });
        assert_eq!(sum.load(Ordering::SeqCst), 4950);
    }

    #[test]
    fn dynamic_for_covers_iteration_space() {
        let sum = Arc::new(AtomicU64::new(0));
        let s2 = Arc::clone(&sum);
        with_proc(6, async move |proc| {
            let s3 = Arc::clone(&s2);
            proc.parallel(4, async move |ctx| {
                for chunk in ctx.for_dynamic(57, 5) {
                    for i in chunk {
                        s3.fetch_add(i, Ordering::SeqCst);
                    }
                }
                Ok(())
            })
            .await
            .unwrap();
        });
        assert_eq!(sum.load(Ordering::SeqCst), (0..57).sum::<u64>());
    }

    #[test]
    fn sections_each_run_once() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = Rc::clone(&log);
        with_proc(7, async move |proc| {
            proc.parallel(2, async move |ctx| {
                ctx.sections(3, async |ix| {
                    // A section may suspend like any other part of a body.
                    ctx.yield_now().await?;
                    l2.borrow_mut().push(["a", "b", "c"][ix]);
                    Ok(())
                })
                .await
            })
            .await
            .unwrap();
        });
        let mut l = log.borrow().clone();
        l.sort_unstable();
        assert_eq!(l, vec!["a", "b", "c"]);
    }

    #[test]
    fn team_reduction() {
        with_proc(8, async |proc| {
            proc.parallel(4, async |ctx| {
                let r = ctx
                    .reduce((ctx.tid().index() + 1) as f64, |a, b| a + b)
                    .await?;
                assert_eq!(r, 10.0);
                Ok(())
            })
            .await
            .unwrap();
        });
    }

    #[test]
    fn sequential_events_have_no_region() {
        let trace = with_proc(9, async |proc| {
            proc.emit_seq(
                None,
                EventKind::Access {
                    loc: home_trace::MemLoc::Var(proc.collector().intern_var("g")),
                    kind: home_trace::AccessKind::Write,
                },
            );
        });
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.events()[0].region, None);
        assert_eq!(trace.events()[0].tid, Tid(0));
    }

    #[test]
    fn region_ids_are_unique_per_process() {
        let trace = with_proc(10, async |proc| {
            for _ in 0..3 {
                proc.parallel(2, async |_ctx| Ok(())).await.unwrap();
            }
        });
        let regions: std::collections::HashSet<_> = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Fork { region, .. } => Some(region),
                _ => None,
            })
            .collect();
        assert_eq!(regions.len(), 3);
    }

    #[test]
    fn event_cost_advances_virtual_time() {
        let rt = Runtime::new(SchedConfig::deterministic(11));
        let (collector, _sink) = Collector::in_memory();
        let costs = OmpCosts {
            event: home_sched::SimTime::from_nanos(100),
            ..OmpCosts::zero()
        };
        let proc = OmpProc::with_costs(rt.clone(), Rank(0), collector, costs);
        rt.spawn("rank0", async move {
            proc.parallel(1, async |ctx| {
                ctx.write_var("x", None);
                ctx.write_var("x", None);
                Ok(())
            })
            .await
            .unwrap();
        });
        rt.run().unwrap();
        // Fork + Join + 2 accesses = 4 recorded events × 100ns.
        assert_eq!(rt.makespan().as_nanos(), 400);
    }
}
