//! The static analysis procedure (paper Algorithm 1 plus precision hints).
//!
//! Walks the linearized CFG; between an `ompParallelBegin` and its matching
//! `ompParallelEnd`, every reachable MPI call node is marked for replacement
//! with an instrumented HMPI wrapper. Calls outside parallel regions are
//! *skipped* during instrumentation — the paper's central overhead
//! reduction, since thread-safety violations can only arise where multiple
//! threads exist.

use crate::abstract_eval::AbsEnv;
use crate::cfg::{Cfg, CfgNode, OmpRegionKind};
use crate::checklist::{Checklist, StaticCallSite, ALL_MONITORED};
use crate::deadlock::{self, StaticCandidate};
use crate::summary::Summaries;
use home_ir::{MpiStmt, NodeId, Program, StmtKind};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Classification of one parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionClass {
    /// No MPI calls inside — guaranteed free of *hybrid* violations, so the
    /// dynamic phase does not monitor it.
    ErrorFree,
    /// Contains MPI calls: candidate for runtime checking.
    PotentiallyErroneous,
}

/// Summary of one `omp parallel` region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionInfo {
    /// IR node of the `omp parallel` statement.
    pub node: NodeId,
    /// Source line.
    pub line: u32,
    /// MPI calls syntactically inside.
    pub mpi_calls: usize,
    /// Classification.
    pub class: RegionClass,
}

/// A typed note the static phase attaches to its stats instead of falling
/// back silently (e.g. defaulting the monitored set to [`ALL_MONITORED`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticNote {
    /// Sites are instrumented, but none maps to a recognized monitored-
    /// variable class: the global monitored set is genuinely empty, not an
    /// "instrument everything" default.
    NoRecognizedMpiKinds,
}

/// Aggregate statistics (reported by the tool and the benchmarks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticStats {
    /// All MPI call sites in the program.
    pub total_mpi_calls: usize,
    /// Sites selected for instrumentation.
    pub instrumented: usize,
    /// Sites skipped (outside hybrid regions or unreachable).
    pub skipped: usize,
    /// Sites in unreachable code.
    pub unreachable: usize,
    /// Parallel regions found.
    pub regions: usize,
    /// Regions classified error-free.
    pub error_free_regions: usize,
    /// Anomaly note, when the analysis hit a case that previously degraded
    /// silently.
    pub note: Option<StaticNote>,
}

/// Full output of the static phase.
#[derive(Debug, Clone)]
pub struct StaticReport {
    /// The instrumentation checklist.
    pub checklist: Checklist,
    /// Per-region summaries.
    pub regions: Vec<RegionInfo>,
    /// Aggregate statistics.
    pub stats: StaticStats,
    /// Static deadlock/violation candidates (see [`crate::deadlock`]).
    pub candidates: Vec<StaticCandidate>,
}

/// Run the static phase on `program`.
///
/// ```
/// let program = home_ir::parse(
///     "program p {
///          mpi_barrier();
///          omp parallel num_threads(2) { mpi_barrier(); }
///      }",
/// )
/// .unwrap();
/// let report = home_static::analyze(&program);
/// assert_eq!(report.stats.total_mpi_calls, 2);
/// assert_eq!(report.stats.instrumented, 1, "only the in-region call");
/// ```
pub fn analyze(program: &Program) -> StaticReport {
    let env = AbsEnv::of_program(program);

    // Map statement ids to their Stmt for argument inspection.
    let mut stmt_of: HashMap<NodeId, &home_ir::Stmt> = HashMap::new();
    program.visit(&mut |s| {
        stmt_of.insert(s.id, s);
    });

    // Interprocedural context: one bottom-up summary per function over the
    // call graph (locks held, MPI calls reachable, thread-context
    // sensitivity) — see [`crate::summary`].
    let summaries = Summaries::build(program);

    let empty_locks = BTreeSet::new();
    let mut sites = Vec::new();
    // Main body: Algorithm 1 over the linearized CFG.
    collect_sites(
        &Cfg::build_block(&program.body),
        &stmt_of,
        &env,
        BodyCtx {
            hybrid: false,
            reachable: true,
            multi: false,
            entry_locks: &empty_locks,
        },
        &mut sites,
    );
    // Each function body, with its interprocedural context as the base.
    for func in &program.functions {
        collect_sites(
            &Cfg::build_block(&func.body),
            &stmt_of,
            &env,
            BodyCtx {
                hybrid: summaries.hybrid(&func.name),
                reachable: summaries.reachable(&func.name),
                multi: summaries.multi(&func.name),
                entry_locks: summaries.entry_locks(&func.name),
            },
            &mut sites,
        );
    }

    // Which monitored variables does the instrumented call mix need
    // (global union, kept for the dynamic phase's setup and old
    // consumers), and per-site: which writes each wrapper must emit.
    let (monitored_vars, note) = needed_monitored(&sites);
    refine_site_monitored(&mut sites);

    // Region summaries from the AST (function bodies included via visit).
    // `call`s to (transitively) MPI-bearing functions count as MPI calls
    // for classification.
    let mut regions = Vec::new();
    program.visit(&mut |s| {
        if let StmtKind::OmpParallel { body, .. } = &s.kind {
            let mut mpi_calls = 0;
            fn count(stmts: &[home_ir::Stmt], summaries: &Summaries, n: &mut usize) {
                for s in stmts {
                    match &s.kind {
                        StmtKind::Mpi(_) => *n += 1,
                        StmtKind::Call { name } if summaries.mpi_bearing(name) => *n += 1,
                        _ => {}
                    }
                    for b in s.kind.blocks() {
                        count(b, summaries, n);
                    }
                }
            }
            count(body, &summaries, &mut mpi_calls);
            regions.push(RegionInfo {
                node: s.id,
                line: s.line,
                mpi_calls,
                class: if mpi_calls == 0 {
                    RegionClass::ErrorFree
                } else {
                    RegionClass::PotentiallyErroneous
                },
            });
        }
    });

    let candidates = deadlock::candidates(program, &sites, &summaries);

    let stats = StaticStats {
        total_mpi_calls: sites.len(),
        instrumented: sites.iter().filter(|s| s.instrument).count(),
        skipped: sites.iter().filter(|s| !s.instrument).count(),
        unreachable: sites.iter().filter(|s| !s.reachable).count(),
        regions: regions.len(),
        error_free_regions: regions
            .iter()
            .filter(|r| r.class == RegionClass::ErrorFree)
            .count(),
        note,
    };

    StaticReport {
        checklist: Checklist {
            sites,
            monitored_vars,
        },
        regions,
        stats,
        candidates,
    }
}

/// Interprocedural base context of one body: the facts the summaries
/// establish about every execution of it.
struct BodyCtx<'a> {
    /// Already in a parallel context when the body is entered.
    hybrid: bool,
    /// The body can execute at all (false for functions never called).
    reachable: bool,
    /// More than one thread per region instance can enter the body.
    multi: bool,
    /// Locks provably held on entry.
    entry_locks: &'a BTreeSet<String>,
}

/// Algorithm 1's linear CFG walk over one body, now tracking the full
/// lexical context per site: parallel-region depth, serializing-construct
/// depth (`master`/`single`/`sections`), and the critical-section stack —
/// combined with the interprocedural [`BodyCtx`] base.
fn collect_sites(
    cfg: &Cfg,
    stmt_of: &HashMap<NodeId, &home_ir::Stmt>,
    env: &AbsEnv,
    ctx: BodyCtx<'_>,
    sites: &mut Vec<StaticCallSite>,
) {
    let reachable = cfg.reachable();
    let mut depth: u32 = 0;
    let mut serialize_depth: u32 = 0;
    let mut lock_stack: Vec<&str> = Vec::new();
    let mut seen: BTreeSet<NodeId> = BTreeSet::new();
    for (ix, node) in cfg.linearized() {
        match node {
            CfgNode::OmpBegin(_, OmpRegionKind::Parallel) => depth += 1,
            CfgNode::OmpEnd(_, OmpRegionKind::Parallel) => depth -= 1,
            CfgNode::OmpBegin(
                _,
                OmpRegionKind::Master | OmpRegionKind::Single | OmpRegionKind::Sections,
            ) => serialize_depth += 1,
            CfgNode::OmpEnd(
                _,
                OmpRegionKind::Master | OmpRegionKind::Single | OmpRegionKind::Sections,
            ) => serialize_depth -= 1,
            CfgNode::OmpBegin(id, OmpRegionKind::Critical) => {
                if let StmtKind::OmpCritical { name, .. } = &stmt_of[id].kind {
                    lock_stack.push(name);
                }
            }
            CfgNode::OmpEnd(id, OmpRegionKind::Critical) => {
                if matches!(stmt_of[id].kind, StmtKind::OmpCritical { .. }) {
                    lock_stack.pop();
                }
            }
            CfgNode::Stmt(id) => {
                if seen.contains(id) {
                    continue; // if-join duplicates
                }
                let stmt = stmt_of[id];
                if let StmtKind::Mpi(call) = &stmt.kind {
                    seen.insert(*id);
                    let is_reachable = reachable[ix] && ctx.reachable;
                    let in_hybrid = depth > 0 || ctx.hybrid;
                    let mut must_locks: BTreeSet<&str> =
                        ctx.entry_locks.iter().map(String::as_str).collect();
                    must_locks.extend(lock_stack.iter());
                    let (tag, peer) = call_args(call);
                    sites.push(StaticCallSite {
                        node: *id,
                        line: stmt.line,
                        name: call.name().to_string(),
                        in_hybrid_region: in_hybrid,
                        reachable: is_reachable,
                        instrument: in_hybrid && is_reachable,
                        is_collective: call.is_collective(),
                        tag_thread_distinct: tag.map(|e| env.is_thread_distinct(e)),
                        peer_thread_distinct: peer.map(|e| env.is_thread_distinct(e)),
                        init_level: match call {
                            MpiStmt::Init => Some(home_ir::IrThreadLevel::Single),
                            MpiStmt::InitThread { required } => Some(*required),
                            _ => None,
                        },
                        monitored: None, // filled by `refine_site_monitored`
                        must_locks: must_locks.into_iter().map(str::to_string).collect(),
                        multi_thread: (depth > 0 || ctx.multi) && serialize_depth == 0,
                    });
                }
            }
            _ => {}
        }
    }
    debug_assert_eq!(depth, 0, "unbalanced parallel markers");
    debug_assert_eq!(serialize_depth, 0, "unbalanced serializing markers");
}

/// (tag expr, peer expr) of a call, when present.
fn call_args(call: &MpiStmt) -> (Option<&home_ir::Expr>, Option<&home_ir::Expr>) {
    match call {
        MpiStmt::Send { dest, tag, .. }
        | MpiStmt::Ssend { dest, tag, .. }
        | MpiStmt::Isend { dest, tag, .. } => (Some(tag), Some(dest)),
        MpiStmt::Recv { src, tag, .. }
        | MpiStmt::Irecv { src, tag, .. }
        | MpiStmt::Probe { src, tag, .. }
        | MpiStmt::Iprobe { src, tag, .. } => (Some(tag), Some(src)),
        _ => (None, None),
    }
}

/// The global monitored-variable union the dynamic phase sets up. A call
/// mix with zero recognized kinds produces an *empty* set plus a typed
/// [`StaticNote`] — never an "instrument everything" default.
fn needed_monitored(sites: &[StaticCallSite]) -> (Vec<String>, Option<StaticNote>) {
    let instrumented: Vec<&StaticCallSite> = sites.iter().filter(|s| s.instrument).collect();
    let mut vars = BTreeSet::new();
    for s in &instrumented {
        match s.name.as_str() {
            "mpi_send" | "mpi_ssend" | "mpi_recv" | "mpi_isend" | "mpi_irecv" | "mpi_probe"
            | "mpi_iprobe" => {
                vars.insert("srctmp");
                vars.insert("tagtmp");
                vars.insert("commtmp");
            }
            "mpi_wait" | "mpi_test" | "mpi_waitall" => {
                vars.insert("requesttmp");
            }
            "mpi_finalize" => {
                vars.insert("finalizetmp");
            }
            _ if s.is_collective => {
                vars.insert("collectivetmp");
                vars.insert("commtmp");
            }
            _ => {}
        }
    }
    let note = if vars.is_empty() && !instrumented.is_empty() {
        Some(StaticNote::NoRecognizedMpiKinds)
    } else {
        None
    };
    // Keep the paper's canonical order.
    let ordered = ALL_MONITORED
        .iter()
        .filter(|v| vars.contains(*v))
        .map(|v| v.to_string())
        .collect();
    (ordered, note)
}

/// The monitored variable whose write the rule engine actually *consumes*
/// for each call class. The coarse wrapper also writes `srctmp`/`commtmp`
/// on point-to-point calls and `commtmp` on collectives, but no rule ever
/// fires on a src/comm race (the envelope metadata rules need rides on the
/// call record attached to every write), and a src/comm race exists exactly
/// when the corresponding tag/collective race does — same wrapper pair,
/// same locksets, same clocks. Dropping them per-site loses no verdict.
fn rule_bearing_monitored(site: &StaticCallSite) -> &'static [&'static str] {
    match site.name.as_str() {
        "mpi_send" | "mpi_ssend" | "mpi_recv" | "mpi_isend" | "mpi_irecv" | "mpi_probe"
        | "mpi_iprobe" => &["tagtmp"],
        "mpi_wait" | "mpi_test" | "mpi_waitall" => &["requesttmp"],
        "mpi_finalize" => &["finalizetmp"],
        _ if site.is_collective => &["collectivetmp"],
        _ => &[],
    }
}

/// Compute each instrumented site's per-site monitored-write set: the
/// rule-bearing variables of its call class, minus those the lock model
/// proves race-free. A variable `v` is dropped at site `s` exactly when `s`
/// holds at least one lock and *every* instrumented site writing `v`
/// (including `s` itself) shares a must-held lock with `s` — the runtime
/// locksets then always intersect, so the detector could never report a
/// race on `v` involving `s`. `finalizetmp` is exempt: the finalization
/// rule consumes the write event directly, not just races over it.
fn refine_site_monitored(sites: &mut [StaticCallSite]) {
    let mut sharers: BTreeMap<&'static str, Vec<usize>> = BTreeMap::new();
    for (ix, site) in sites.iter().enumerate() {
        if site.instrument {
            for &v in rule_bearing_monitored(site) {
                sharers.entry(v).or_default().push(ix);
            }
        }
    }
    let must_locks: Vec<BTreeSet<&str>> = sites
        .iter()
        .map(|s| s.must_locks.iter().map(String::as_str).collect())
        .collect();
    let refined: Vec<Option<Vec<String>>> = sites
        .iter()
        .enumerate()
        .map(|(ix, site)| {
            if !site.instrument {
                return None;
            }
            let mine = &must_locks[ix];
            let keep: Vec<String> = rule_bearing_monitored(site)
                .iter()
                .filter(|&&v| {
                    v == "finalizetmp"
                        || mine.is_empty()
                        || sharers
                            .get(v)
                            .is_some_and(|xs| xs.iter().any(|&o| mine.is_disjoint(&must_locks[o])))
                })
                .map(|v| v.to_string())
                .collect();
            Some(keep)
        })
        .collect();
    for (site, monitored) in sites.iter_mut().zip(refined) {
        site.monitored = monitored;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use home_ir::parse;

    #[test]
    fn calls_outside_regions_are_skipped() {
        let p = parse(
            r#"
            program filter {
                mpi_init_thread(multiple);
                mpi_barrier();
                omp parallel num_threads(2) {
                    mpi_send(to: 1, tag: 0, count: 1);
                }
                mpi_finalize();
            }
            "#,
        )
        .unwrap();
        let r = analyze(&p);
        assert_eq!(r.stats.total_mpi_calls, 4);
        assert_eq!(r.stats.instrumented, 1);
        assert_eq!(r.stats.skipped, 3);
        let send = r
            .checklist
            .sites
            .iter()
            .find(|s| s.name == "mpi_send")
            .unwrap();
        assert!(send.instrument);
        assert!(send.in_hybrid_region);
        let bar = r
            .checklist
            .sites
            .iter()
            .find(|s| s.name == "mpi_barrier")
            .unwrap();
        assert!(!bar.instrument);
    }

    #[test]
    fn nested_constructs_inside_parallel_still_count() {
        let p = parse(
            r#"
            program nest {
                omp parallel {
                    if (rank == 0) {
                        omp critical(c) { mpi_recv(from: any, tag: any); }
                    }
                    omp sections {
                        section { mpi_send(to: 1, tag: 0, count: 1); }
                    }
                }
            }
            "#,
        )
        .unwrap();
        let r = analyze(&p);
        assert_eq!(r.stats.instrumented, 2);
    }

    #[test]
    fn region_classification() {
        let p = parse(
            r#"
            program regions {
                omp parallel { compute(100); }
                omp parallel { mpi_barrier(); }
            }
            "#,
        )
        .unwrap();
        let r = analyze(&p);
        assert_eq!(r.stats.regions, 2);
        assert_eq!(r.stats.error_free_regions, 1);
        assert_eq!(r.regions[0].class, RegionClass::ErrorFree);
        assert_eq!(r.regions[1].class, RegionClass::PotentiallyErroneous);
        assert_eq!(r.regions[1].mpi_calls, 1);
    }

    #[test]
    fn thread_distinct_tags_are_flagged() {
        let p = parse(
            r#"
            program tags {
                omp parallel {
                    mpi_send(to: 1, tag: tid, count: 1);
                    mpi_send(to: 1, tag: 7, count: 1);
                }
            }
            "#,
        )
        .unwrap();
        let r = analyze(&p);
        let tags: Vec<Option<bool>> = r
            .checklist
            .sites
            .iter()
            .map(|s| s.tag_thread_distinct)
            .collect();
        assert_eq!(tags, vec![Some(true), Some(false)]);
    }

    #[test]
    fn monitored_vars_follow_call_mix() {
        let p = parse(
            r#"
            program mix {
                omp parallel {
                    mpi_recv(from: any, tag: any);
                    mpi_wait(req: r);
                    mpi_barrier();
                    mpi_finalize();
                }
            }
            "#,
        )
        .unwrap();
        let r = analyze(&p);
        assert_eq!(
            r.checklist.monitored_vars,
            vec![
                "srctmp",
                "tagtmp",
                "commtmp",
                "requesttmp",
                "collectivetmp",
                "finalizetmp"
            ]
        );
    }

    #[test]
    fn p2p_only_program_needs_only_envelope_vars() {
        let p = parse("program p { omp parallel { mpi_send(to: 1, tag: 0, count: 1); } }").unwrap();
        let r = analyze(&p);
        assert_eq!(
            r.checklist.monitored_vars,
            vec!["srctmp", "tagtmp", "commtmp"]
        );
    }

    #[test]
    fn init_levels_are_recorded() {
        let p =
            parse("program i { mpi_init(); omp parallel { mpi_send(to: 1, tag: 0, count: 1); } }")
                .unwrap();
        let r = analyze(&p);
        let init = r
            .checklist
            .sites
            .iter()
            .find(|s| s.name == "mpi_init")
            .unwrap();
        assert_eq!(init.init_level, Some(home_ir::IrThreadLevel::Single));
    }

    #[test]
    fn zero_recognized_kinds_sets_a_note_not_a_fallback() {
        let p = parse("program z { omp parallel { mpi_init_thread(multiple); } }").unwrap();
        let r = analyze(&p);
        assert!(r.stats.instrumented > 0);
        assert!(r.checklist.monitored_vars.is_empty(), "no silent default");
        assert_eq!(r.stats.note, Some(StaticNote::NoRecognizedMpiKinds));
        // A recognized mix carries no note.
        let p = parse("program ok { omp parallel { mpi_barrier(); } }").unwrap();
        assert_eq!(analyze(&p).stats.note, None);
    }

    #[test]
    fn per_site_sets_shrink_to_rule_bearing_vars() {
        let p = parse(
            r#"
            program shrink {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) {
                    mpi_recv(from: 0, tag: 7);
                    mpi_barrier();
                }
                mpi_finalize();
            }
            "#,
        )
        .unwrap();
        let r = analyze(&p);
        let site = |name: &str| r.checklist.sites.iter().find(|s| s.name == name).unwrap();
        // Instrumented sites carry only the rule-bearing variable of their
        // class — strictly fewer than the coarse per-kind table.
        assert_eq!(
            site("mpi_recv").monitored.as_deref(),
            Some(&["tagtmp".to_string()][..])
        );
        assert_eq!(
            site("mpi_barrier").monitored.as_deref(),
            Some(&["collectivetmp".to_string()][..])
        );
        // Skipped sites stay coarse (they emit nothing anyway).
        assert_eq!(site("mpi_finalize").monitored, None);
        // The global union is unchanged by the refinement.
        assert_eq!(
            r.checklist.monitored_vars,
            vec!["srctmp", "tagtmp", "commtmp", "collectivetmp"]
        );
    }

    #[test]
    fn lock_serialized_sole_sharer_drops_its_var_but_finalize_never_drops() {
        let p = parse(
            r#"
            program locked {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) {
                    omp critical(net) { mpi_recv(from: 0, tag: 4); }
                    omp critical(fin) { mpi_finalize(); }
                }
            }
            "#,
        )
        .unwrap();
        let r = analyze(&p);
        let site = |name: &str| r.checklist.sites.iter().find(|s| s.name == name).unwrap();
        // The recv is the only tagtmp writer and every execution holds
        // `net`: its runtime locksets always intersect, so the write can
        // never race — drop it.
        assert_eq!(site("mpi_recv").monitored.as_deref(), Some(&[][..]));
        assert_eq!(site("mpi_recv").must_locks, vec!["net".to_string()]);
        // finalizetmp is consumed directly by the off-main-finalize rule,
        // not only via races: never dropped.
        assert_eq!(
            site("mpi_finalize").monitored.as_deref(),
            Some(&["finalizetmp".to_string()][..])
        );
    }

    #[test]
    fn shared_lock_discipline_drops_vars_at_all_sharers() {
        let p = parse(
            r#"
            program pair {
                omp parallel num_threads(2) {
                    omp critical(m) { mpi_send(to: 1, tag: 0, count: 1); }
                    omp critical(m) { mpi_recv(from: 0, tag: 0); }
                }
            }
            "#,
        )
        .unwrap();
        let r = analyze(&p);
        for s in r.checklist.sites.iter().filter(|s| s.instrument) {
            assert_eq!(s.monitored.as_deref(), Some(&[][..]), "{}", s.name);
        }
        // One unlocked sharer breaks the discipline for everyone.
        let p = parse(
            r#"
            program broken {
                omp parallel num_threads(2) {
                    omp critical(m) { mpi_send(to: 1, tag: 0, count: 1); }
                    mpi_recv(from: 0, tag: 0);
                }
            }
            "#,
        )
        .unwrap();
        let r = analyze(&p);
        for s in r.checklist.sites.iter().filter(|s| s.instrument) {
            assert_eq!(
                s.monitored.as_deref(),
                Some(&["tagtmp".to_string()][..]),
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn sites_carry_interprocedural_lock_and_thread_context() {
        let p = parse(
            r#"
            program ctx {
                fn fetch() { mpi_recv(from: 0, tag: 4); }
                mpi_init_thread(multiple);
                omp parallel num_threads(2) {
                    omp critical(net) { call fetch(); }
                    omp master { mpi_send(to: 1, tag: 0, count: 1); }
                }
                mpi_finalize();
            }
            "#,
        )
        .unwrap();
        let r = analyze(&p);
        let site = |name: &str| r.checklist.sites.iter().find(|s| s.name == name).unwrap();
        let recv = site("mpi_recv");
        assert!(recv.instrument, "hybrid context flows through the call");
        assert_eq!(
            recv.must_locks,
            vec!["net".to_string()],
            "entry locks flow in"
        );
        assert!(recv.multi_thread);
        let send = site("mpi_send");
        assert!(send.instrument);
        assert!(!send.multi_thread, "master serializes the site");
        assert!(!site("mpi_finalize").multi_thread, "outside the region");
    }

    #[test]
    fn empty_program_is_clean() {
        let p = parse("program e { }").unwrap();
        let r = analyze(&p);
        assert_eq!(r.stats.total_mpi_calls, 0);
        assert!(r.checklist.monitored_vars.is_empty());
        assert_eq!(r.stats.regions, 0);
    }
}
