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

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod config;
mod env;
mod exec;

pub use config::{Instrumentation, RunConfig};
pub use env::{Env, Slot};
pub use exec::{run, run_with_sink, ExecError, MpiIncident, RunResult};

#[cfg(test)]
mod tests {
    use super::*;
    use home_ir::parse;
    use home_static::analyze;
    use home_trace::{EventKind, MonitoredVar, Rank};
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
}
