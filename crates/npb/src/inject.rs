//! Violation injection (paper Section V: "we artificially implemented
//! several tricky errors inside of these benchmarks for the accuracy
//! testing").
//!
//! Each injection is a self-contained *episode* — a handful of statements
//! spliced into the correct benchmark — engineered to violate exactly one
//! thread-safety rule. Two special episodes reproduce the baselines'
//! documented failure modes:
//!
//! * *latent* episodes separate the racy calls by a long computation, so
//!   the race never manifests under time-faithful scheduling — HOME's
//!   lockset/HB analysis still predicts it, Marmot (manifest-only) misses
//!   it;
//! * the *benign critical* episode (BT only) serializes concurrent receives
//!   under `omp critical` — safe, but flagged by the `critical`-blind ITC
//!   model (its false positive).

use crate::gen::benchmark_body;
use crate::params::{Benchmark, Class};
use home_core::ViolationKind;
use home_ir::build::{compute, if_then, mpi, omp_critical, omp_parallel, recv, send};
use home_ir::{BinOp, Expr, IrThreadLevel, MpiStmt, Program, Stmt};

/// Label + expected kind + source-line range of one injected episode.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionInfo {
    /// The violation class this episode commits.
    pub kind: ViolationKind,
    /// Human-readable label (shows up in the accuracy table).
    pub label: String,
    /// Inclusive line range of the episode in the generated program.
    pub lines: (u32, u32),
}

/// A benchmark program with its injected violations.
#[derive(Debug, Clone)]
pub struct InjectedProgram {
    /// The program (correct benchmark + episodes).
    pub program: Program,
    /// What was injected, for accuracy scoring.
    pub injections: Vec<InjectionInfo>,
}

/// Which episodes a benchmark receives — chosen to reproduce the paper's
/// accuracy table (HOME 6/6/6, ITC 5/7/6, Marmot 5/6/5).
fn episode_plan(benchmark: Benchmark) -> (Vec<Episode>, bool) {
    use Episode::*;
    match benchmark {
        // LU carries the probe episode (latent): ITC cannot wrap probes
        // (miss → 5) and Marmot never sees it manifest (miss → 5).
        Benchmark::LuMz => (
            vec![
                InitFunneled,
                FinalizeWorker,
                RecvManifest { tag: 910 },
                Request,
                ProbeLatent,
                CollectivePar,
            ],
            false,
        ),
        // BT: all six manifest (Marmot 6), no probe (ITC detects 6) plus
        // the benign critical episode (ITC's false positive → 7).
        Benchmark::BtMz => (
            vec![
                InitFunneled,
                FinalizeWorker,
                RecvManifest { tag: 910 },
                RecvManifest { tag: 915 },
                Request,
                CollectivePar,
            ],
            true,
        ),
        // SP: one latent receive (Marmot misses → 5), no probe (ITC 6).
        Benchmark::SpMz => (
            vec![
                InitFunneled,
                FinalizeWorker,
                RecvManifest { tag: 910 },
                RecvLatent,
                Request,
                CollectivePar,
            ],
            false,
        ),
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Episode {
    InitFunneled,
    FinalizeWorker,
    RecvManifest { tag: i64 },
    RecvLatent,
    Request,
    ProbeLatent,
    CollectivePar,
}

impl Episode {
    fn kind(self) -> ViolationKind {
        match self {
            Episode::InitFunneled => ViolationKind::Initialization,
            Episode::FinalizeWorker => ViolationKind::Finalization,
            Episode::RecvManifest { .. } | Episode::RecvLatent => ViolationKind::ConcurrentRecv,
            Episode::Request => ViolationKind::ConcurrentRequest,
            Episode::ProbeLatent => ViolationKind::Probe,
            Episode::CollectivePar => ViolationKind::CollectiveCall,
        }
    }

    fn label(self) -> String {
        match self {
            Episode::InitFunneled => "funneled-init-with-worker-MPI".into(),
            Episode::FinalizeWorker => "finalize-on-worker-thread".into(),
            Episode::RecvManifest { tag } => format!("concurrent-recv-same-tag-{tag}"),
            Episode::RecvLatent => "concurrent-recv-latent".into(),
            Episode::Request => "shared-request-double-wait".into(),
            Episode::ProbeLatent => "concurrent-probe-latent".into(),
            Episode::CollectivePar => "parallel-collective".into(),
        }
    }

    /// The episode's statements. Episodes use tags ≥ 900 so they never
    /// interfere with the benchmark's halo tags.
    fn stmts(self) -> Vec<Stmt> {
        let rank0 = Expr::bin(BinOp::Eq, Expr::Rank, Expr::int(0));
        let rank1 = Expr::bin(BinOp::Eq, Expr::Rank, Expr::int(1));
        let tid0 = Expr::bin(BinOp::Eq, Expr::ThreadId, Expr::int(0));
        let tid1 = Expr::bin(BinOp::Eq, Expr::ThreadId, Expr::int(1));
        match self {
            // The init statement itself is emitted by `build_injected`;
            // this is the trigger region: every thread does a thread-
            // distinct self-exchange (legal under MULTIPLE, a violation
            // under FUNNELED).
            Episode::InitFunneled => vec![omp_parallel(
                Expr::int(0),
                vec![
                    send(
                        Expr::Rank,
                        Expr::bin(BinOp::Add, Expr::int(900), Expr::ThreadId),
                        Expr::int(1),
                    ),
                    recv(
                        Expr::Rank,
                        Expr::bin(BinOp::Add, Expr::int(900), Expr::ThreadId),
                    ),
                ],
            )],
            // Emitted in place of the final finalize.
            Episode::FinalizeWorker => vec![omp_parallel(
                Expr::int(0),
                vec![if_then(tid1, vec![mpi(MpiStmt::Finalize)])],
            )],
            Episode::RecvManifest { tag } => vec![
                if_then(
                    rank0,
                    vec![
                        send(Expr::int(1), Expr::int(tag), Expr::int(1)),
                        send(Expr::int(1), Expr::int(tag), Expr::int(1)),
                    ],
                ),
                if_then(
                    rank1,
                    vec![omp_parallel(
                        Expr::int(0),
                        vec![recv(Expr::int(0), Expr::int(tag))],
                    )],
                ),
            ],
            Episode::RecvLatent => vec![
                if_then(
                    rank0.clone(),
                    vec![
                        send(Expr::int(1), Expr::int(911), Expr::int(1)),
                        send(Expr::int(1), Expr::int(911), Expr::int(1)),
                    ],
                ),
                if_then(
                    rank1,
                    vec![omp_parallel(
                        Expr::int(0),
                        vec![
                            if_then(
                                tid0,
                                vec![
                                    recv(Expr::int(0), Expr::int(911)),
                                    send(Expr::int(0), Expr::int(912), Expr::int(1)),
                                ],
                            ),
                            if_then(
                                tid1,
                                vec![
                                    compute(Expr::int(500_000_000)),
                                    recv(Expr::int(0), Expr::int(911)),
                                ],
                            ),
                        ],
                    )],
                ),
                if_then(rank0, vec![recv(Expr::int(1), Expr::int(912))]),
            ],
            Episode::Request => vec![
                if_then(
                    rank0,
                    vec![send(Expr::int(1), Expr::int(920), Expr::int(1))],
                ),
                if_then(
                    rank1,
                    vec![
                        mpi(MpiStmt::Irecv {
                            src: Expr::int(0),
                            tag: Expr::int(920),
                            req: "rq920".into(),
                            comm: None,
                        }),
                        omp_parallel(
                            Expr::int(0),
                            vec![mpi(MpiStmt::Wait {
                                req: "rq920".into(),
                            })],
                        ),
                    ],
                ),
            ],
            Episode::ProbeLatent => vec![
                if_then(
                    rank0,
                    vec![send(Expr::int(1), Expr::int(930), Expr::int(1))],
                ),
                if_then(
                    rank1.clone(),
                    vec![omp_parallel(
                        Expr::int(0),
                        vec![
                            if_then(
                                tid0,
                                vec![
                                    mpi(MpiStmt::Probe {
                                        src: Expr::int(0),
                                        tag: Expr::int(930),
                                        comm: None,
                                    }),
                                    // A benign, differently-tagged call so
                                    // thread 0's probe has a visible end in
                                    // the observed schedule.
                                    mpi(MpiStmt::Iprobe {
                                        src: Expr::int(0),
                                        tag: Expr::int(931),
                                        comm: None,
                                    }),
                                ],
                            ),
                            if_then(
                                tid1,
                                vec![
                                    compute(Expr::int(500_000_000)),
                                    mpi(MpiStmt::Probe {
                                        src: Expr::int(0),
                                        tag: Expr::int(930),
                                        comm: None,
                                    }),
                                ],
                            ),
                        ],
                    )],
                ),
                if_then(rank1, vec![recv(Expr::int(0), Expr::int(930))]),
            ],
            Episode::CollectivePar => vec![omp_parallel(
                Expr::int(0),
                vec![mpi(MpiStmt::Barrier { comm: None })],
            )],
        }
    }
}

/// The benign ITC-false-positive episode (not a violation; not listed in
/// `injections`).
fn benign_critical_episode() -> Vec<Stmt> {
    let rank0 = Expr::bin(BinOp::Eq, Expr::Rank, Expr::int(0));
    let rank1 = Expr::bin(BinOp::Eq, Expr::Rank, Expr::int(1));
    vec![
        if_then(
            rank0,
            vec![
                send(Expr::int(1), Expr::int(940), Expr::int(1)),
                send(Expr::int(1), Expr::int(940), Expr::int(1)),
            ],
        ),
        if_then(
            rank1,
            vec![omp_parallel(
                Expr::int(0),
                vec![omp_critical(
                    "recv_cs",
                    vec![recv(Expr::int(0), Expr::int(940))],
                )],
            )],
        ),
    ]
}

/// Line range (min, max) covered by `stmts` after id/line assignment.
fn line_range(stmts: &[Stmt]) -> (u32, u32) {
    let mut min = u32::MAX;
    let mut max = 0;
    fn walk(stmts: &[Stmt], min: &mut u32, max: &mut u32) {
        for s in stmts {
            *min = (*min).min(s.line);
            *max = (*max).max(s.line);
            for b in s.kind.blocks() {
                walk(b, min, max);
            }
        }
    }
    walk(stmts, &mut min, &mut max);
    (min, max)
}

/// Build `benchmark` (at `class`) with its paper-table injection plan.
pub fn build_injected(benchmark: Benchmark, class: Class) -> InjectedProgram {
    let (episodes, with_benign) = episode_plan(benchmark);
    build_with_episodes(benchmark, class, &episodes, with_benign)
}

fn build_with_episodes(
    benchmark: Benchmark,
    class: Class,
    episodes: &[Episode],
    with_benign: bool,
) -> InjectedProgram {
    let init_level = if episodes.contains(&Episode::InitFunneled) {
        IrThreadLevel::Funneled
    } else {
        IrThreadLevel::Multiple
    };
    let finalize_replaced = episodes.contains(&Episode::FinalizeWorker);

    // Assemble top-level statements, remembering which body indices belong
    // to which episode.
    let mut body: Vec<Stmt> = vec![mpi(MpiStmt::InitThread {
        required: init_level,
    })];
    let mut episode_spans: Vec<(Episode, std::ops::Range<usize>)> = Vec::new();

    // The init trigger region goes right after init.
    if let Some(&ep) = episodes.iter().find(|e| matches!(e, Episode::InitFunneled)) {
        let stmts = ep.stmts();
        let start = body.len();
        body.extend(stmts);
        episode_spans.push((ep, start..body.len()));
    }

    body.extend(benchmark_body(benchmark, class));

    for &ep in episodes {
        if matches!(ep, Episode::InitFunneled | Episode::FinalizeWorker) {
            continue;
        }
        let stmts = ep.stmts();
        let start = body.len();
        body.extend(stmts);
        episode_spans.push((ep, start..body.len()));
    }

    if with_benign {
        body.extend(benign_critical_episode());
    }

    // Finalize (possibly the violating variant).
    if finalize_replaced {
        let ep = Episode::FinalizeWorker;
        let stmts = ep.stmts();
        let start = body.len();
        body.extend(stmts);
        episode_spans.push((ep, start..body.len()));
    } else {
        body.push(mpi(MpiStmt::Finalize));
    }

    let program = home_ir::build::finalize(
        &format!(
            "{}_{}_injected",
            benchmark.name().to_lowercase().replace('-', "_"),
            class
        ),
        body,
    );

    // Now that lines are assigned, record per-episode line ranges.
    let injections = episode_spans
        .into_iter()
        .map(|(ep, span)| InjectionInfo {
            kind: ep.kind(),
            label: ep.label(),
            lines: line_range(&program.body[span]),
        })
        .collect();

    InjectedProgram {
        program,
        injections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_have_six_injections() {
        for b in Benchmark::ALL {
            let ip = build_injected(b, Class::S);
            assert_eq!(ip.injections.len(), 6, "{b}");
        }
    }

    #[test]
    fn lu_has_probe_bt_and_sp_do_not() {
        let kinds = |b: Benchmark| {
            build_injected(b, Class::S)
                .injections
                .iter()
                .map(|i| i.kind)
                .collect::<Vec<_>>()
        };
        assert!(kinds(Benchmark::LuMz).contains(&ViolationKind::Probe));
        assert!(!kinds(Benchmark::BtMz).contains(&ViolationKind::Probe));
        assert!(!kinds(Benchmark::SpMz).contains(&ViolationKind::Probe));
        // BT has two receive injections.
        assert_eq!(
            kinds(Benchmark::BtMz)
                .iter()
                .filter(|k| **k == ViolationKind::ConcurrentRecv)
                .count(),
            2
        );
    }

    #[test]
    fn injected_programs_reparse() {
        for b in Benchmark::ALL {
            let ip = build_injected(b, Class::S);
            let printed = home_ir::print_program(&ip.program);
            home_ir::parse(&printed).expect("injected program must reparse");
        }
    }

    #[test]
    fn line_ranges_are_disjoint_and_nonempty() {
        for b in Benchmark::ALL {
            let ip = build_injected(b, Class::S);
            let mut ranges: Vec<(u32, u32)> = ip.injections.iter().map(|i| i.lines).collect();
            ranges.sort_unstable();
            for w in ranges.windows(2) {
                assert!(w[0].1 < w[1].0, "{b}: overlapping ranges {ranges:?}");
            }
            for (lo, hi) in ranges {
                assert!(lo > 0 && hi >= lo);
            }
        }
    }

    #[test]
    fn all_six_kinds_covered_in_lu() {
        let ip = build_injected(Benchmark::LuMz, Class::S);
        let mut kinds: Vec<ViolationKind> = ip.injections.iter().map(|i| i.kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 6, "LU exercises every violation class");
    }
}
