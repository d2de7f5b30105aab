//! Cross-crate integration tests of the simulated substrates through the
//! direct (non-DSL) API: MPI world + OpenMP runtime on the deterministic
//! scheduler, including randomized checks of messaging invariants driven by
//! a seeded in-repo ChaCha generator (the crates registry is unreachable,
//! so proptest is unavailable); every case is deterministic.

use home::mpi::{payload, MpiConfig, SrcSpec, TagSpec, World};
use home::omp::{OmpCosts, OmpProc};
use home::sched::{Runtime, SchedConfig};
use home::trace::{Collector, Rank, COMM_WORLD};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

fn rng_for(case: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0x51_4D50 + case)
}

/// Hybrid direct-API smoke test: each rank forks OpenMP threads which do
/// thread-distinct-tag self-exchanges, then all ranks allreduce.
#[test]
fn hybrid_direct_api_end_to_end() {
    let rt = Runtime::new(SchedConfig::deterministic(5));
    let world = World::new(rt.clone(), 3, MpiConfig::test());
    let (collector, sink) = Collector::in_memory();

    for r in 0..3u32 {
        let proc_mpi = world.process(r);
        let omp = OmpProc::with_costs(rt.clone(), Rank(r), collector.clone(), OmpCosts::zero());
        rt.spawn(format!("rank{r}"), async move {
            proc_mpi
                .init_thread(home::trace::ThreadLevel::Multiple)
                .await
                .unwrap();
            let p2 = proc_mpi.clone();
            omp.parallel(2, async move |ctx| {
                let tag = 500 + ctx.tid().0 as i32;
                p2.send(
                    p2.rank(),
                    tag,
                    COMM_WORLD,
                    payload(vec![ctx.tid().0 as f64]),
                )
                .await
                .map_err(|e| match e {
                    home::mpi::MpiError::Sched(s) => s,
                    other => panic!("{other}"),
                })?;
                let (data, _) = p2
                    .recv(SrcSpec::Rank(p2.rank()), TagSpec::Tag(tag), COMM_WORLD)
                    .await
                    .map_err(|e| match e {
                        home::mpi::MpiError::Sched(s) => s,
                        other => panic!("{other}"),
                    })?;
                assert_eq!(data[0], ctx.tid().0 as f64);
                Ok(())
            })
            .await
            .unwrap();
            let sum = proc_mpi
                .allreduce(
                    home::mpi::ReduceOp::Sum,
                    payload(vec![proc_mpi.rank() as f64]),
                    COMM_WORLD,
                )
                .await
                .unwrap();
            assert_eq!(sum[0], 3.0);
            proc_mpi.finalize().await.unwrap();
        });
    }
    rt.run().unwrap();
    let trace = sink.borrow_mut().drain();
    assert!(!trace.is_empty());
    assert_eq!(trace.ranks().len(), 3);
}

/// Determinism: two runs with the same seed produce identical traces.
#[test]
fn identical_seeds_identical_traces() {
    let run_once = |seed: u64| {
        let rt = Runtime::new(SchedConfig::deterministic(seed));
        let world = World::new(rt.clone(), 2, MpiConfig::test());
        let (collector, sink) = Collector::in_memory();
        for r in 0..2u32 {
            let p = world.process(r);
            let omp = OmpProc::with_costs(rt.clone(), Rank(r), collector.clone(), OmpCosts::zero());
            rt.spawn(format!("rank{r}"), async move {
                p.init_thread(home::trace::ThreadLevel::Multiple)
                    .await
                    .unwrap();
                omp.parallel(2, async move |ctx| {
                    ctx.write_var("x", Some(ctx.tid().0 as u64));
                    ctx.barrier().await?;
                    ctx.critical("c", async {}).await?;
                    Ok(())
                })
                .await
                .unwrap();
                p.finalize().await.unwrap();
            });
        }
        rt.run().unwrap();
        let trace = sink.borrow_mut().drain();
        trace
            .events()
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(run_once(99), run_once(99));
}

/// Per-channel FIFO: whatever tags/counts a sender uses, a receiver
/// draining one (src, tag) channel sees payloads in send order.
#[test]
fn messages_never_overtake_on_a_channel() {
    for case in 0..24 {
        let mut rng = rng_for(case);
        let counts: Vec<usize> = (0..rng.gen_range(1usize..8))
            .map(|_| rng.gen_range(1usize..5))
            .collect();
        let seed = rng.gen_range(0u64..50);
        let rt = Runtime::new(SchedConfig::deterministic(seed));
        let world = World::new(rt.clone(), 2, MpiConfig::test());
        let n = counts.len();
        {
            let p = world.process(0);
            let counts = counts.clone();
            rt.spawn("sender", async move {
                p.init_thread(home::trace::ThreadLevel::Multiple)
                    .await
                    .unwrap();
                for (i, c) in counts.iter().enumerate() {
                    p.send(1, 7, COMM_WORLD, payload(vec![i as f64; *c]))
                        .await
                        .unwrap();
                }
                p.finalize().await.unwrap();
            });
        }
        {
            let p = world.process(1);
            rt.spawn("receiver", async move {
                p.init_thread(home::trace::ThreadLevel::Multiple)
                    .await
                    .unwrap();
                for i in 0..n {
                    let (data, st) = p
                        .recv(SrcSpec::Rank(0), TagSpec::Tag(7), COMM_WORLD)
                        .await
                        .unwrap();
                    assert_eq!(data[0] as usize, i, "message overtook");
                    assert_eq!(st.count, data.len());
                }
                p.finalize().await.unwrap();
            });
        }
        rt.run().unwrap();
        assert_eq!(world.undelivered_messages(), 0, "case {case}");
    }
}

/// Collectives compute correct values for arbitrary contributions.
#[test]
fn allreduce_sum_matches_reference() {
    for case in 0..20 {
        let mut rng = rng_for(1_000 + case);
        let vals: Vec<i32> = (0..3).map(|_| rng.gen_range(-100i32..100)).collect();
        let seed = rng.gen_range(0u64..20);
        let rt = Runtime::new(SchedConfig::deterministic(seed));
        let world = World::new(rt.clone(), 3, MpiConfig::test());
        let expected: f64 = vals.iter().map(|&v| v as f64).sum();
        let vals = Arc::new(vals);
        for r in 0..3u32 {
            let p = world.process(r);
            let vals = Arc::clone(&vals);
            rt.spawn(format!("rank{r}"), async move {
                p.init_thread(home::trace::ThreadLevel::Multiple)
                    .await
                    .unwrap();
                let out = p
                    .allreduce(
                        home::mpi::ReduceOp::Sum,
                        payload(vec![vals[r as usize] as f64]),
                        COMM_WORLD,
                    )
                    .await
                    .unwrap();
                assert_eq!(out[0], expected);
                p.finalize().await.unwrap();
            });
        }
        rt.run().unwrap();
    }
}

/// A blocking wildcard receive always returns one of the actually-sent
/// envelopes, and every message is delivered exactly once.
#[test]
fn wildcard_matching_is_a_permutation() {
    for case in 0..30 {
        let mut rng = rng_for(2_000 + case);
        let tags: Vec<i32> = (0..rng.gen_range(2usize..6))
            .map(|_| rng.gen_range(0i32..5))
            .collect();
        let seed = rng.gen_range(0u64..30);
        let rt = Runtime::new(SchedConfig::deterministic(seed));
        let world = World::new(rt.clone(), 2, MpiConfig::test());
        let n = tags.len();
        {
            let p = world.process(0);
            let tags = tags.clone();
            rt.spawn("sender", async move {
                p.init_thread(home::trace::ThreadLevel::Multiple)
                    .await
                    .unwrap();
                for (i, t) in tags.iter().enumerate() {
                    p.send(1, *t, COMM_WORLD, payload(vec![i as f64]))
                        .await
                        .unwrap();
                }
                p.finalize().await.unwrap();
            });
        }
        let received = Rc::new(RefCell::new(Vec::new()));
        {
            let p = world.process(1);
            let received = Rc::clone(&received);
            rt.spawn("receiver", async move {
                p.init_thread(home::trace::ThreadLevel::Multiple)
                    .await
                    .unwrap();
                for _ in 0..n {
                    let (data, st) = p
                        .recv(SrcSpec::Any, TagSpec::Any, COMM_WORLD)
                        .await
                        .unwrap();
                    received.borrow_mut().push((data[0] as usize, st.tag));
                }
                p.finalize().await.unwrap();
            });
        }
        rt.run().unwrap();
        let mut got = received.borrow().clone();
        got.sort_unstable();
        let expected: Vec<(usize, i32)> = tags.iter().copied().enumerate().collect();
        assert_eq!(got, expected, "case {case}");
    }
}
