//! Library mode: checking a program written directly against the simulator
//! APIs — no DSL involved. This is the paper's future-work direction
//! ("extending HOME to handle not only MPI and OpenMP but also the other
//! ... programming models"): the dynamic phase and the rule matcher are
//! front-end agnostic; anything that emits the event model can be checked.
//!
//! ```text
//! cargo run --example library_mode
//! ```

use home::core::match_violations;
use home::mpi::{payload, MpiConfig, SrcSpec, TagSpec, World};
use home::omp::{OmpCosts, OmpProc};
use home::prelude::*;
use home::trace::{Collector, Rank, COMM_WORLD};

fn main() {
    let rt = Runtime::new(SchedConfig::deterministic(21));
    let world = World::new(rt.clone(), 2, MpiConfig::test());
    let (collector, sink) = Collector::in_memory();

    // Rank 0: plain sender (two same-tag messages).
    {
        let p = world.process(0);
        rt.spawn("rank0", async move {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            for _ in 0..2 {
                p.send(1, 42, COMM_WORLD, payload(vec![1.0])).await.unwrap();
            }
            p.finalize().await.unwrap();
        });
    }

    // Rank 1: two OpenMP threads both receive with tag 42 — the violation —
    // written directly in Rust with explicit wrapper emission (what the
    // interpreter does automatically for DSL programs).
    {
        let p = world.process(1);
        let omp = OmpProc::with_costs(rt.clone(), Rank(1), collector.clone(), OmpCosts::zero());
        rt.spawn("rank1", async move {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            let p2 = p.clone();
            omp.parallel(2, async move |ctx| {
                // HMPI_Recv: write the monitored variables, then call.
                let record = home::trace::MpiCallRecord {
                    kind: home::trace::MpiCallKind::Recv,
                    peer: Some(0),
                    tag: Some(42),
                    comm: COMM_WORLD,
                    request: None,
                    is_main_thread: p2.is_thread_main(),
                    thread_level: p2.thread_level(),
                };
                for var in [MonitoredVar::Src, MonitoredVar::Tag, MonitoredVar::Comm] {
                    ctx.emit(home::trace::EventKind::MonitoredWrite {
                        var,
                        call: record.clone(),
                    });
                }
                p2.recv(SrcSpec::Rank(0), TagSpec::Tag(42), COMM_WORLD)
                    .await
                    .map_err(|e| match e {
                        home::mpi::MpiError::Sched(s) => s,
                        other => panic!("{other}"),
                    })?;
                Ok(())
            })
            .await
            .unwrap();
            p.finalize().await.unwrap();
        });
    }

    rt.run().unwrap();

    // The same dynamic phase + rule matcher the DSL pipeline uses.
    let trace = sink.borrow_mut().drain();
    let (races, _) = detect_stream(&trace, &DetectorConfig::hybrid())
        .expect("trace straight from the collector is well-formed");
    let violations = match_violations(&trace, &races, &[]);

    println!("{} events, {} monitored races", trace.len(), races.len());
    for v in &violations {
        println!("VIOLATION: {v}");
    }
    assert!(
        violations
            .iter()
            .any(|v| v.kind == ViolationKind::ConcurrentRecv),
        "library-mode detection must find the same-tag receives"
    );
    println!("library-mode check complete: the analyses are front-end agnostic.");
}
