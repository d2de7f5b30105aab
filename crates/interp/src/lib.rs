//! # home-interp — executing hybrid programs on the simulators
//!
//! The interpreter plays the role Intel Pin plays in the paper: it runs a
//! hybrid program (as [`home_ir::Program`] IR) on the simulated MPI world
//! and OpenMP runtime, emitting instrumentation events — *selectively*,
//! under control of the static checklist, exactly as HOME's wrapper
//! replacement does, or exhaustively for the baseline tools.
//!
//! Entry point: [`run`] with a [`RunConfig`]; the result carries the
//! recorded [`home_trace::Trace`], the simulated makespan (the quantity the
//! paper's figures plot), any deadlock, and non-fatal MPI misuse incidents.
//!
//! The substrate the walk runs on lives here too, as three layers whose
//! modules sit side by side in this crate: the scheduler (`clock`, `deadlock`, `handle`, `policy`, `runtime`, `state`,
//! `vtid`), the MPI simulator (`collective`, `comm`, `msg`, `process`,
//! `reqs`, `world`) and the OpenMP runtime (`lock`, `proc`, `team`).
//! `config` holds every layer's knobs ([`RunConfig`], [`SchedConfig`],
//! [`MpiConfig`]) and `error` every layer's errors ([`SchedError`],
//! [`MpiError`]).
//!
//! ## The scheduler — deterministic virtual threads
//!
//! The substrate underneath the HOME checker's simulated MPI ranks and
//! OpenMP threads. Every concurrent entity in the simulation (an MPI rank,
//! an OpenMP worker inside a rank) is a *virtual thread*: a future that
//! this scheduler resumes one step at a time.
//!
//! ### Execution model
//!
//! * **Bodies are futures.** [`Runtime::spawn`] stores the thread's body —
//!   any `Future` — in the thread's slot. The body suspends only inside a
//!   scheduler primitive: [`Runtime::yield_now`],
//!   [`Runtime::block_current`], [`JoinHandle::wait`], or a future built
//!   from those (the MPI and OpenMP simulators' blocking calls). The
//!   compiler turns each body into a resumable state machine, so a virtual
//!   thread is plain data: no OS thread, no stack of its own.
//! * **One driver.** [`Runtime::run`] is the only loop, on the OS thread
//!   that calls it. It takes a *decision* — the [`SchedPolicy`] (seeded
//!   random, round-robin, earliest-virtual-clock-first, or PCT priorities)
//!   picks one runnable thread — resumes that thread until it next
//!   suspends or finishes, and decides again. A decision costs a return
//!   and a call; nothing sleeps, wakes or locks, and a run makes no system
//!   call of its own. A fixed seed reproduces the exact same interleaving,
//!   which is what lets the test suite reproduce schedule-dependent
//!   behaviour such as races that only manifest under some interleavings.
//! * **Run queue.** The runnable threads are kept in ascending id order.
//!   The order is part of the contract: a random draw indexes into the
//!   queue and every tie breaks toward its front, so the order decides
//!   which interleaving a `(seed, depth, pins)` token names.
//! * **One runtime, one OS thread.** A [`Runtime`] and everything its
//!   bodies share are `!Send`. Real concurrency is one runtime per OS
//!   thread (`--jobs` over seeds and exploration rounds); runtimes share
//!   nothing.
//!
//! The scheduler also maintains a **virtual clock** per thread (nanosecond
//! resolution). Simulated compute charges time with [`Runtime::advance_ns`],
//! message deliveries propagate clocks across threads, and the maximum
//! per-thread clock at the end of a run is the simulated makespan reported
//! by the benchmark harness.
//!
//! Finally, the scheduler performs **whole-system deadlock
//! detection**: if every live virtual thread is blocked, the run is
//! *poisoned* with [`SchedError::Deadlock`], carrying a report of who was
//! blocked on what, and every unfinished thread is resumed once more with
//! that error, in ascending id order, so each unwinds through `?` and
//! whatever it does on the way out (events it still emits, results it
//! returns) is as reproducible as the schedule before it. A step bound
//! ([`SchedConfig::max_steps`]) poisons the same way. This is how the
//! paper's Figure 2 case study (two threads per rank receiving with the
//! same tag) is caught deterministically. A panicking body is caught where
//! it was resumed and becomes `JoinError::Panicked`; the other threads
//! never notice.
//!
//! ### Example
//!
//! ```
//! use home_interp::{Runtime, SchedConfig};
//!
//! let rt = Runtime::new(SchedConfig::deterministic(42));
//! let h1 = rt.spawn("worker-0", {
//!     let rt = rt.clone();
//!     async move {
//!         rt.advance_ns(100);
//!         rt.yield_now().await?;
//!         Ok::<_, home_interp::SchedError>(1)
//!     }
//! });
//! let h2 = rt.spawn("worker-1", {
//!     let rt = rt.clone();
//!     async move { rt.advance_ns(250); 2 }
//! });
//! rt.run().unwrap();
//! assert_eq!(h1.join().unwrap().unwrap() + h2.join().unwrap(), 3);
//! assert_eq!(rt.makespan().as_nanos(), 250);
//! assert_eq!(rt.steps(), 3);
//! ```
//!
//! ## The MPI simulator
//!
//! A from-scratch MPI implementation over the scheduler's virtual threads,
//! built so the HOME checker can exercise real MPI *semantics* without a
//! cluster:
//!
//! * point-to-point messaging with envelope matching
//!   (`MPI_ANY_SOURCE`/`MPI_ANY_TAG` wildcards, per-channel non-overtaking);
//! * nonblocking operations (`Isend`/`Irecv`/`Wait`/`Test`/`Waitall`);
//! * probing (`Probe`/`Iprobe`);
//! * collectives (`Barrier`, `Bcast`, `Reduce`, `Allreduce`, `Gather`,
//!   `Scatter`, `Allgather`, `Alltoall`) via ordered per-communicator slots;
//! * communicator management (`Comm_dup`, `Comm_split`);
//! * the four `MPI_THREAD_*` support levels of `MPI_Init_thread`;
//! * a virtual-time network model (latency + bandwidth + per-call CPU cost).
//!
//! The simulator is deliberately *permissive*: misuse that real MPI leaves
//! undefined (concurrent collectives by threads of one process, shared
//! request completion, same-tag thread races) executes and produces its
//! observable consequences — mismatch errors, nondeterministic matching, or
//! deadlocks caught by the scheduler — so the checkers have something real
//! to detect.
//!
//! ## The OpenMP runtime
//!
//! Implements the OpenMP constructs the paper's programs use, over
//! the scheduler's virtual threads, with every synchronization operation
//! emitting [`home_trace`] events the dynamic analyses consume:
//!
//! * `parallel` regions ([`OmpProc::parallel`]) — the caller becomes the
//!   master (tid 0) and workers are forked as virtual threads;
//! * worksharing: static and dynamic `for` schedules, `sections`, `single`;
//! * synchronization: `barrier`, named `critical`, runtime locks
//!   (`OmpLock`), and team reductions;
//! * instrumented shared-variable writes (`write_var`) for the
//!   full-monitoring baseline (Intel-Thread-Checker-style).
//!
//! Construct costs ([`OmpCosts`]) are charged in virtual time so that
//! instrumentation overhead shows up in the simulated makespan — the
//! quantity Figures 4–7 of the paper compare across tools.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod config;
mod env;
mod error;
mod exec;

// The scheduler: the deterministic virtual-thread executor.
mod clock;
mod deadlock;
mod handle;
mod policy;
mod runtime;
mod state;
mod vtid;

// The MPI simulator.
mod collective;
mod comm;
mod msg;
mod process;
mod reqs;
mod world;

// The OpenMP runtime.
mod lock;
mod proc;
mod team;

pub use clock::SimTime;
pub use collective::ReduceOp;
pub use config::{Instrumentation, MpiConfig, RunConfig, SchedConfig, PRIORITY_BASE_MAX};
pub use deadlock::DeadlockInfo;
pub use error::{MpiError, SchedError};
pub use exec::{run, run_with_sink, MpiIncident, RunResult};
pub use handle::JoinHandle;
pub use msg::{payload, SrcSpec, TagSpec};
pub use policy::SchedPolicy;
pub use proc::{OmpCosts, OmpProc};
pub use runtime::Runtime;
pub use state::BlockReason;
pub use world::World;

pub(crate) use error::SchedResult;
pub(crate) use handle::JoinError;
pub(crate) use lock::OmpLock;
pub(crate) use msg::Payload;
pub(crate) use proc::{DynFor, OmpCtx};
pub(crate) use process::Process;
pub(crate) use vtid::Vtid;

#[cfg(test)]
mod tests {
    use super::*;
    use home_ir::parse;
    use home_static::analyze;
    use home_trace::{Collector, EventKind, MonitoredVar, Rank, Tid};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    fn run_src(src: &str, nprocs: usize, seed: u64) -> RunResult {
        let p = parse(src).unwrap();
        run(&p, &RunConfig::test(nprocs, seed))
    }

    #[test]
    fn sequential_program_runs_clean() {
        let r = run_src(
            r#"
            program seq {
                mpi_init_thread(multiple);
                int x = 3;
                x = x * 2 + 1;
                compute(x * 10);
                mpi_finalize();
            }
            "#,
            2,
            0,
        );
        assert!(r.clean(), "{:?} {:?}", r.deadlock, r.runtime_errors);
        assert!(r.mpi_errors.is_empty());
    }

    #[test]
    fn p2p_roundtrip_between_ranks() {
        let r = run_src(
            r#"
            program ring {
                mpi_init_thread(multiple);
                if (rank == 0) {
                    mpi_send(to: 1, tag: 9, count: 4);
                    mpi_recv(from: 1, tag: 10);
                }
                if (rank == 1) {
                    mpi_recv(from: 0, tag: 9);
                    mpi_send(to: 0, tag: 10, count: 4);
                }
                mpi_finalize();
            }
            "#,
            2,
            1,
        );
        assert!(r.clean());
        assert!(r.mpi_errors.is_empty());
    }

    #[test]
    fn parallel_region_uses_team_and_emits_monitored_writes() {
        let r = run_src(
            r#"
            program par {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) {
                    mpi_send(to: rank, tag: tid, count: 1);
                    mpi_recv(from: rank, tag: tid);
                }
                mpi_finalize();
            }
            "#,
            1,
            2,
        );
        assert!(r.clean());
        // 2 threads × 2 calls × 3 monitored vars, plus the finalize marker.
        let mw = r.trace.monitored_writes().count();
        assert_eq!(mw, 13);
        assert_eq!(r.trace.monitored_writes_of(MonitoredVar::Tag).count(), 4);
        let tags: Vec<i32> = r
            .trace
            .monitored_writes_of(MonitoredVar::Tag)
            .filter_map(|e| e.kind.mpi_call().and_then(|c| c.tag))
            .collect();
        assert!(tags.contains(&0) && tags.contains(&1));
    }

    #[test]
    fn selective_instrumentation_skips_sequential_calls() {
        let src = r#"
            program filter {
                mpi_init_thread(multiple);
                mpi_barrier();
                omp parallel num_threads(2) {
                    mpi_barrier();
                }
                mpi_finalize();
            }
        "#;
        let p = parse(src).unwrap();
        let checklist = Arc::new(analyze(&p).checklist.clone());
        let cfg = RunConfig::test(2, 3)
            .with_instrumentation(Instrumentation::home())
            .with_checklist(checklist);
        let r = run(&p, &cfg);
        // Only the in-region barrier is wrapped: one MonitoredWrite set per
        // rank per thread for collective+comm, nothing for the sequential
        // barrier or finalize.
        let collective_writes = r
            .trace
            .monitored_writes_of(MonitoredVar::Collective)
            .count();
        assert_eq!(collective_writes, 2 * 2, "2 ranks × 2 threads");
        assert_eq!(
            r.trace.monitored_writes_of(MonitoredVar::Finalize).count(),
            0
        );
    }

    #[test]
    fn per_site_checklist_shrinks_monitored_writes_but_not_mpi_calls() {
        let src = r#"
            program shrink {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) {
                    mpi_send(to: rank, tag: tid, count: 1);
                    mpi_recv(from: rank, tag: tid);
                    mpi_barrier();
                }
                mpi_finalize();
            }
        "#;
        let p = parse(src).unwrap();
        let checklist = analyze(&p).checklist;
        let run_with = |cl: home_static::Checklist, seed: u64| {
            let cfg = RunConfig::test(1, seed)
                .with_instrumentation(Instrumentation::home())
                .with_checklist(Arc::new(cl));
            run(&p, &cfg)
        };
        // Coarse: no per-site monitored sets, the full per-kind table.
        let mut stripped = checklist.clone();
        stripped.sites.iter_mut().for_each(|s| s.monitored = None);
        let per_site = run_with(checklist, 5);
        let coarse = run_with(stripped, 5);
        // Same sites wrapped either way.
        assert_eq!(
            per_site.trace.mpi_calls().count(),
            coarse.trace.mpi_calls().count()
        );
        // Coarse: p2p writes src+tag+comm, barrier writes collective+comm.
        // Per-site: p2p writes only tagtmp, barrier only collectivetmp.
        let mw_coarse = coarse.trace.monitored_writes().count();
        let mw_per_site = per_site.trace.monitored_writes().count();
        assert_eq!(
            mw_coarse,
            2 * (2 * 3 + 2),
            "2 threads × (2 p2p × 3 + collective × 2)"
        );
        assert_eq!(mw_per_site, 6, "2 threads × (2 p2p × 1 + collective × 1)");
        assert!(mw_per_site < mw_coarse);
        // The rule-bearing writes are untouched.
        assert_eq!(
            per_site
                .trace
                .monitored_writes_of(MonitoredVar::Tag)
                .count(),
            coarse.trace.monitored_writes_of(MonitoredVar::Tag).count()
        );
        assert_eq!(
            per_site
                .trace
                .monitored_writes_of(MonitoredVar::Collective)
                .count(),
            coarse
                .trace
                .monitored_writes_of(MonitoredVar::Collective)
                .count()
        );
    }

    #[test]
    fn unselective_tools_ignore_per_site_sets() {
        let src = r#"
            program unsel {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) { mpi_barrier(); }
                mpi_finalize();
            }
        "#;
        let p = parse(src).unwrap();
        let checklist = Arc::new(analyze(&p).checklist);
        // `RunConfig::test` wraps everything (selective = false): the
        // per-kind table applies even though the checklist carries
        // per-site sets.
        let r = run(&p, &RunConfig::test(1, 4).with_checklist(checklist));
        assert_eq!(
            r.trace.monitored_writes_of(MonitoredVar::Comm).count(),
            2,
            "collective wrapper still writes commtmp when unselective"
        );
        assert_eq!(
            r.trace.monitored_writes_of(MonitoredVar::Finalize).count(),
            1
        );
    }

    #[test]
    fn case_study_2_same_tag_runs_but_mixes_messages_across_threads() {
        // Paper Figure 2: both threads of each rank send/recv with the same
        // tag, so arrival messages are not differentiated per thread. The
        // message *count* balances, so the run completes — but which thread
        // receives which message is schedule-dependent (the concurrency
        // violation HOME flags on srctmp/tagtmp). We check the monitored
        // writes expose the shared-tag calls from both threads.
        let src = r#"
            program case2 {
                mpi_init_thread(multiple);
                shared int tag = 0;
                omp parallel num_threads(2) {
                    if (rank == 0) {
                        mpi_send(to: 1, tag: tag, count: 1);
                        mpi_recv(from: 1, tag: tag);
                    }
                    if (rank == 1) {
                        mpi_recv(from: 0, tag: tag);
                        mpi_send(to: 0, tag: tag, count: 1);
                    }
                }
                mpi_finalize();
            }
        "#;
        for seed in 0..10 {
            let r = run_src(src, 2, seed);
            assert!(r.deadlock.is_none(), "balanced exchange completes");
            // Both threads of each rank wrote tagtmp with the same tag 0.
            let mut per_rank_threads: std::collections::HashMap<
                Rank,
                std::collections::HashSet<home_trace::Tid>,
            > = Default::default();
            for e in r.trace.monitored_writes_of(MonitoredVar::Tag) {
                assert_eq!(e.kind.mpi_call().unwrap().tag, Some(0));
                per_rank_threads.entry(e.rank).or_default().insert(e.tid);
            }
            assert!(per_rank_threads.values().all(|t| t.len() == 2));
        }
    }

    #[test]
    fn unbalanced_same_tag_recv_deadlocks_and_is_reported() {
        // A genuinely stuck variant: rank 0 sends a single message while
        // both rank-1 threads block in recv with the same tag — one thread
        // can never be served. The scheduler's whole-system deadlock
        // detection must catch and describe it.
        let src = r#"
            program stuck {
                mpi_init_thread(multiple);
                if (rank == 0) {
                    mpi_send(to: 1, tag: 0, count: 1);
                    mpi_recv(from: 1, tag: 7);
                }
                if (rank == 1) {
                    omp parallel num_threads(2) {
                        mpi_recv(from: 0, tag: 0);
                    }
                    mpi_send(to: 0, tag: 7, count: 1);
                }
                mpi_finalize();
            }
        "#;
        for seed in 0..5 {
            let r = run_src(src, 2, seed);
            let d = r.deadlock.expect("must deadlock");
            assert!(
                d.involves("MPI_Wait") || d.involves("MPI_Recv") || d.involves("recv"),
                "deadlock report should mention the blocked receive: {d}"
            );
        }
    }

    #[test]
    fn thread_distinct_tags_fix_case_study_2() {
        let src = r#"
            program case2fixed {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) {
                    if (rank == 0) {
                        mpi_send(to: 1, tag: tid, count: 1);
                        mpi_recv(from: 1, tag: tid);
                    }
                    if (rank == 1) {
                        mpi_recv(from: 0, tag: tid);
                        mpi_send(to: 0, tag: tid, count: 1);
                    }
                }
                mpi_finalize();
            }
        "#;
        for seed in 0..30 {
            let r = run_src(src, 2, seed);
            assert!(r.deadlock.is_none(), "seed {seed} deadlocked");
        }
    }

    #[test]
    fn omp_for_distributes_iterations() {
        let r = run_src(
            r#"
            program loops {
                mpi_init_thread(multiple);
                shared int acc = 0;
                omp parallel num_threads(4) {
                    omp for i in 0..16 {
                        omp critical(sum) { acc = acc + i; }
                    }
                }
                mpi_finalize();
            }
            "#,
            1,
            5,
        );
        assert!(r.clean());
    }

    #[test]
    fn sections_and_single_and_master_run() {
        let r = run_src(
            r#"
            program ctor {
                mpi_init_thread(multiple);
                omp parallel num_threads(3) {
                    omp sections {
                        section { compute(5); }
                        section { compute(6); }
                    }
                    omp single { compute(7); }
                    omp master { compute(8); }
                    omp barrier;
                }
                mpi_finalize();
            }
            "#,
            1,
            6,
        );
        assert!(r.clean(), "{:?}", r.runtime_errors);
    }

    #[test]
    fn collectives_in_and_out_of_regions() {
        let r = run_src(
            r#"
            program colls {
                mpi_init_thread(multiple);
                mpi_bcast(root: 0, count: 8);
                mpi_allreduce(sum, count: 4);
                omp parallel num_threads(2) {
                    omp master { mpi_barrier(); }
                }
                mpi_reduce(max, root: 0, count: 2);
                mpi_finalize();
            }
            "#,
            4,
            7,
        );
        assert!(r.clean());
        assert!(r.mpi_errors.is_empty());
    }

    #[test]
    fn nonblocking_requests_roundtrip() {
        let r = run_src(
            r#"
            program nb {
                mpi_init_thread(multiple);
                if (rank == 0) {
                    mpi_isend(to: 1, tag: 3, count: 2, req: s);
                    mpi_wait(req: s);
                }
                if (rank == 1) {
                    mpi_irecv(from: 0, tag: 3, req: m);
                    mpi_wait(req: m);
                }
                mpi_finalize();
            }
            "#,
            2,
            8,
        );
        assert!(r.clean());
        assert!(r.mpi_errors.is_empty());
    }

    #[test]
    fn shared_request_double_wait_is_an_incident() {
        // Two threads wait on the same shared request: the second completion
        // is the paper's request violation — the simulator reports it as a
        // non-fatal incident and execution continues.
        let src = r#"
            program reqrace {
                mpi_init_thread(multiple);
                if (rank == 0) {
                    mpi_send(to: 1, tag: 0, count: 1);
                }
                if (rank == 1) {
                    mpi_irecv(from: 0, tag: 0, req: shared_r);
                    omp parallel num_threads(2) {
                        mpi_wait(req: shared_r);
                    }
                }
                mpi_finalize();
            }
        "#;
        let mut saw_consumed = false;
        for seed in 0..20 {
            let r = run_src(src, 2, seed);
            if r.mpi_errors
                .iter()
                .any(|i| i.error.contains("already completed"))
            {
                saw_consumed = true;
            }
            assert!(r.deadlock.is_none());
        }
        assert!(saw_consumed, "double-wait incident must be observed");
    }

    #[test]
    fn probe_then_recv_works() {
        let r = run_src(
            r#"
            program pr {
                mpi_init_thread(multiple);
                if (rank == 0) { mpi_send(to: 1, tag: 5, count: 1); }
                if (rank == 1) {
                    mpi_probe(from: 0, tag: 5);
                    mpi_recv(from: 0, tag: 5);
                }
                mpi_finalize();
            }
            "#,
            2,
            9,
        );
        assert!(r.clean());
    }

    #[test]
    fn base_instrumentation_records_nothing() {
        let p = parse(
            "program quiet { mpi_init_thread(multiple); omp parallel num_threads(2) { mpi_barrier(); } mpi_finalize(); }",
        )
        .unwrap();
        let cfg = RunConfig::test(2, 10).with_instrumentation(Instrumentation::base());
        let r = run(&p, &cfg);
        assert!(r.clean());
        assert_eq!(r.trace.len(), 0);
        assert_eq!(r.events_recorded, 0);
    }

    #[test]
    fn runtime_errors_are_reported() {
        let r = run_src(
            r#"
            program bad {
                mpi_init_thread(multiple);
                if (rank == 0) { nosuchvar = 3; }
                mpi_finalize();
            }
            "#,
            2,
            11,
        );
        assert!(!r.runtime_errors.is_empty());
    }

    #[test]
    fn deterministic_trace_for_fixed_seed() {
        let src = r#"
            program det {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) {
                    mpi_send(to: rank, tag: tid, count: 1);
                    mpi_recv(from: rank, tag: tid);
                }
                mpi_finalize();
            }
        "#;
        let r1 = run_src(src, 2, 42);
        let r2 = run_src(src, 2, 42);
        assert_eq!(r1.trace.len(), r2.trace.len());
        let k1: Vec<String> = r1.trace.events().iter().map(|e| e.to_string()).collect();
        let k2: Vec<String> = r2.trace.events().iter().map(|e| e.to_string()).collect();
        assert_eq!(k1, k2);
    }

    #[test]
    fn fork_and_join_events_present_per_rank() {
        let r = run_src(
            r#"
            program fj {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) { compute(1); }
                mpi_finalize();
            }
            "#,
            2,
            12,
        );
        for rank in [Rank(0), Rank(1)] {
            let forks = r
                .trace
                .by_rank(rank)
                .filter(|e| matches!(e.kind, EventKind::Fork { .. }))
                .count();
            let joins = r
                .trace
                .by_rank(rank)
                .filter(|e| matches!(e.kind, EventKind::JoinRegion { .. }))
                .count();
            assert_eq!((forks, joins), (1, 1));
        }
    }

    #[test]
    fn events_carry_source_locations() {
        let r = run_src(
            "program locs {\nmpi_init_thread(multiple);\nomp parallel num_threads(2) {\nmpi_barrier();\n}\nmpi_finalize();\n}",
            1,
            13,
        );
        let barrier_write = r
            .trace
            .monitored_writes_of(MonitoredVar::Collective)
            .next()
            .expect("instrumented barrier present");
        let loc = barrier_write.loc.as_ref().unwrap();
        assert_eq!(&*loc.file, "locs.hmp");
        assert_eq!(loc.line, 4);
    }

    // The OpenMP runtime on its own.

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
                    Ok::<_, crate::SchedError>(())
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
            event: crate::SimTime::from_nanos(100),
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
