//! The traced run: per-layer kernels timed in-process through the root
//! crate's public calls, the workload's op re-composed from those calls
//! under spans, and the account that sets the layers against the real CLI
//! op. Spans are recorded here, in the benchmark's own files, around the
//! calls into each layer; nothing inside `home` is instrumented.
//!
//! A layer the workload's op never enters reports 0 for its metrics (the
//! interpreter on `wide_replay`, HBT on `npb_check`, …): "no work" is the
//! prediction the bypass workloads exist to confirm.
//!
//! In-process surface used, and nothing else: `home::prelude::{parse,
//! analyze, run, check, CheckOptions, Instrumentation, DetectorConfig,
//! detect_stream}` (+ `corpus.rs`: `print_program`, `build_injected`,
//! `RunConfig`, `Benchmark`, `Class`), `home::npb::score`,
//! `home::stream::{HbtWriter, TraceIncident}`, `home::core::decode_trace`,
//! `home::serve::{analyze_sections, submit, stop, status}`,
//! `home::explore::{explore, ExploreOptions}`.

use crate::corpus::{self, Corpus, Recording, EXPLORE_PROCS, NPB_PROCS, THREADS};
use crate::stats::{median, quantile, sorted, Tracer};
use crate::sys;
use crate::workloads::{self, Ctx};
use home::core::decode_trace;
use home::explore::{explore, ExploreOptions};
use home::prelude::{
    analyze, check, detect_stream, parse, CheckOptions, DetectorConfig, Instrumentation,
};
use home::serve::analyze_sections;
use home::stream::HbtSection;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Samples per kernel at least and at most (the cap keeps the span file
/// small when a kernel takes microseconds); placement probes take
/// `PROBE_SAMPLES`.
const MIN_SAMPLES: usize = 5;
const MAX_SAMPLES: usize = 200;
const PROBE_SAMPLES: usize = 3;
/// Fewest account reps before the traced run may stop.
const MIN_REPS: usize = 3;

pub struct Traced {
    pub metrics: Metrics,
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
}

/// Time `f` under a root span called `name` until it has `MIN_SAMPLES`
/// samples and `budget_s` has passed, or `MAX_SAMPLES` samples. Returns
/// the median in milliseconds, at the reference CPU speed of the whole
/// sampling window, and the last value.
fn kernel<T>(
    t: &mut Tracer,
    name: &'static str,
    budget_s: f64,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut speed = sys::Speed::new();
    let start = Instant::now();
    let mut ms = Vec::new();
    loop {
        let begin = Instant::now();
        let value = t.span(name, None, |_, _| f());
        ms.push(begin.elapsed().as_secs_f64() * 1e3);
        let enough = ms.len() >= MIN_SAMPLES && start.elapsed().as_secs_f64() >= budget_s;
        if enough || ms.len() >= MAX_SAMPLES {
            return (median(&ms) * speed.factor(), value);
        }
    }
}

fn detector() -> DetectorConfig {
    let mut cfg = DetectorConfig::hybrid();
    cfg.jobs = 1;
    cfg
}

fn explore_options(ctx: &Ctx, k: usize) -> ExploreOptions {
    ExploreOptions {
        nprocs: EXPLORE_PROCS,
        threads_per_proc: THREADS,
        budget: ctx.sizes.explore_budget,
        jobs: 1,
        base_seed: workloads::explore_base_seed(ctx, k),
        detector: detector(),
        ..ExploreOptions::default()
    }
}

fn render_lines(outcome: &home::serve::TraceOutcome) -> String {
    outcome
        .violations
        .iter()
        .map(|v| format!("  - {v}\n"))
        .collect()
}

/// The oracle: `home::npb::score` of an in-process `check` against the
/// injector's own labels must read 6/6 detected and 0 false positives for
/// every program, and the checked-in expected files must name exactly the
/// `predicate on rankN` findings of those scored reports.
fn oracle_holds(ctx: &Ctx, workload: &str, corpus: &Corpus, nprocs: usize) -> bool {
    let key = |line: &str| line.split(": ").next().unwrap_or(line).to_string();
    let keys_of = |lines: Vec<String>| {
        let mut keys: Vec<String> = lines.iter().map(|l| key(l)).collect();
        keys.sort();
        keys
    };
    let options = CheckOptions::new(nprocs, THREADS)
        .with_seeds(vec![ctx.seed])
        .with_jobs(1);
    let per_program = workloads::groups(workload, corpus) > 1 || corpus.programs.len() == 1;
    let mut all = Vec::new();
    for prog in &corpus.programs {
        let report = check(&prog.injected.program, &options);
        let score = home::npb::score("HOME", &report, &prog.injected.injections);
        if score.injected != 6 || score.detected != 6 || score.false_positives != 0 {
            eprintln!("oracle: {} scored {score:?}", prog.name);
            return false;
        }
        let found = keys_of(report.violations.iter().map(|v| v.to_string()).collect());
        if per_program {
            let expected = corpus::load_expected(&ctx.root, workload, prog.name);
            if expected.map(keys_of) != Some(found) {
                eprintln!("oracle: expected/{workload}/{}.txt differs", prog.name);
                return false;
            }
        } else {
            all.extend(found);
        }
    }
    per_program
        || corpus::load_expected(&ctx.root, workload, "violations").map(keys_of)
            == Some(keys_of(all))
}

/// Median wall time (ms) of `PROBE_SAMPLES` CLI ops on program 0, for the
/// placement probes. Rep numbers continue from `k` so seeds stay fresh.
fn probe(
    ctx: &Ctx,
    workload: &str,
    corpus: &Corpus,
    k: &mut usize,
    extra: &[&str],
    failed: &mut u64,
) -> f64 {
    let groups = workloads::groups(workload, corpus);
    let mut ms = Vec::new();
    let mut speed = sys::Speed::new();
    for _ in 0..PROBE_SAMPLES {
        let op = workloads::cli_op(ctx, workload, corpus, *k * groups, extra);
        *failed += u64::from(!op.ok);
        ms.push(op.wall_s * 1e3 * speed.factor());
        *k += 1;
    }
    median(&ms)
}

/// The workload's op re-composed from public layer calls, one child span
/// per layer entered, all under a root span `op`. `k` numbers the op as
/// the CLI loop does, so both sides see the same scheduler seeds. Returns
/// `explore`'s coverage (analysed, deduplicated, violations), else zeros.
fn recomposed_op(
    t: &mut Tracer,
    ctx: &Ctx,
    workload: &str,
    corpus: &Corpus,
    k: usize,
) -> [usize; 3] {
    let prog = &corpus.programs[k % corpus.programs.len()];
    t.span("op", None, |t, op| {
        let sections = match workload {
            "npb_check" | "npb_record_replay" => {
                let Ok(parsed) = t.span("ir.parse", op, |_, _| parse(&prog.text)) else {
                    return [0; 3];
                };
                let checklist = t.span("static.analyze", op, |_, _| {
                    Arc::new(analyze(&parsed).checklist.clone())
                });
                let runs: Vec<(u64, Recording)> = workloads::op_seeds(ctx.seed, k)
                    .map(|seed| {
                        let cfg = corpus::run_config(NPB_PROCS, seed, Instrumentation::home())
                            .with_checklist(Arc::clone(&checklist));
                        let rec = t.span("interp.run", op, |_, _| corpus::record(&parsed, &cfg));
                        (seed, rec)
                    })
                    .collect();
                if workload == "npb_record_replay" {
                    let encoded = t.span("hbt.encode", op, |_, _| {
                        corpus::encode(runs.iter().map(|(seed, rec)| (*seed, rec)), true)
                    });
                    let Ok(encoded) = encoded else { return [0; 3] };
                    t.span("hbt.decode", op, |_, _| decode_trace(&encoded.bytes, 1))
                } else {
                    // `check` hands each run's trace to detection in memory.
                    Ok(runs
                        .into_iter()
                        .map(|(seed, rec)| HbtSection {
                            seed: Some(seed),
                            trace: rec.trace,
                            incidents: rec.incidents,
                        })
                        .collect())
                }
            }
            "wide_replay" => {
                let Some((file, _)) = &corpus.wide else {
                    return [0; 3];
                };
                let Ok(bytes) = t.span("io.read", op, |_, _| std::fs::read(file)) else {
                    return [0; 3];
                };
                t.span("hbt.decode", op, |_, _| decode_trace(&bytes, 1))
            }
            "serve_submit" => {
                let trace = &corpus.serve[k % corpus.serve.len()];
                t.span("hbt.decode", op, |_, _| decode_trace(&trace.bytes, 1))
            }
            _ => {
                let options = explore_options(ctx, k);
                let report = t.span("explore", op, |_, _| explore(&prog.parsed, &options));
                t.span("report.render", op, |_, _| {
                    black_box(report.render(&prog.file))
                });
                let c = &report.coverage;
                return [c.analyzed, c.deduped, report.violations.len()];
            }
        };
        let Ok(sections) = sections else {
            return [0; 3];
        };
        if let Ok(outcome) = t.span("session", op, |_, _| analyze_sections(&sections)) {
            t.span("report.render", op, |_, _| {
                black_box(render_lines(&outcome))
            });
        }
        [0; 3]
    })
}

pub fn traced(ctx: &Ctx, workload: &str, seconds: f64) -> Result<Traced, String> {
    let corpus = workloads::setup(ctx, workload)?;
    let mut t = Tracer::new();
    let mut m = Metrics::new();
    let enters_interp = matches!(workload, "npb_check" | "npb_record_replay" | "explore_lu_s");
    let enters_hbt = matches!(
        workload,
        "npb_record_replay" | "wide_replay" | "serve_submit"
    );
    let nprocs = if workload == "explore_lu_s" {
        EXPLORE_PROCS
    } else {
        NPB_PROCS
    };
    if !enters_interp {
        sys::pin_malloc_threshold();
    }
    let (mut attempted, mut failed) = (1u64, 0u64);
    failed += u64::from(!oracle_holds(ctx, workload, &corpus, nprocs));

    // Some twenty kernels share about a third of `seconds`; the account
    // loop at the end then runs for `seconds` itself.
    let budget = (seconds / 60.0).clamp(0.02, 0.5);

    // cli: the floor under every CLI op.
    let (spawn_ms, _) = kernel(&mut t, "cli.spawn", budget, || {
        sys::run_child(&ctx.home, &["help"]).code
    });
    m.insert("cli.spawn_ms", spawn_ms);

    // ir, static and interp, over the workload's programs. interp is one
    // run per program under no tool, HOME's selective profile and full
    // instrumentation: the paper's Fig. 7 overhead in wall clock.
    let programs = &corpus.programs;
    let mut home_ms = 0.0;
    let own: Vec<Recording>;
    let recordings: &[Recording] = if enters_interp {
        let source_bytes: usize = programs.iter().map(|p| p.text.len()).sum();
        let (parse_ms, _) = kernel(&mut t, "ir.parse", budget, || {
            programs.iter().filter(|p| parse(&p.text).is_ok()).count()
        });
        m.insert("ir.parse_ms", parse_ms);
        m.insert(
            "ir.parse_mb_per_s",
            source_bytes as f64 / 1e6 / (parse_ms / 1e3),
        );
        m.insert("ir.source_bytes", source_bytes as f64);
        let (analyze_ms, (sites, instrumented)) = kernel(&mut t, "static.analyze", budget, || {
            programs
                .iter()
                .map(|p| analyze(&p.parsed).stats)
                .fold((0, 0), |acc, s| {
                    (acc.0 + s.total_mpi_calls, acc.1 + s.instrumented)
                })
        });
        m.insert("static.analyze_ms", analyze_ms);
        m.insert("static.sites", sites as f64);
        m.insert("static.instrumented", instrumented as f64);

        let checklists: Vec<_> = programs
            .iter()
            .map(|p| Arc::new(analyze(&p.parsed).checklist.clone()))
            .collect();
        let run_all = |t: &mut Tracer, name: &'static str, instr: Instrumentation| {
            kernel(t, name, budget, || -> Vec<Recording> {
                programs
                    .iter()
                    .zip(&checklists)
                    .map(|(p, checklist)| {
                        let cfg = corpus::run_config(nprocs, ctx.seed, instr.clone())
                            .with_checklist(Arc::clone(checklist));
                        corpus::record(&p.parsed, &cfg)
                    })
                    .collect()
            })
        };
        let count = |recs: &[Recording]| recs.iter().map(|r| r.trace.len()).sum::<usize>() as f64;
        let (base_ms, _) = run_all(&mut t, "interp.base", Instrumentation::base());
        let (full_ms, full) = run_all(&mut t, "interp.full", Instrumentation::full());
        let (h_ms, home) = run_all(&mut t, "interp.home", Instrumentation::home());
        home_ms = h_ms;
        m.insert("interp.base_ms", base_ms);
        m.insert("interp.home_ms", h_ms);
        m.insert("interp.full_ms", full_ms);
        m.insert("interp.events_home", count(&home));
        m.insert("interp.events_full", count(&full));
        m.insert(
            "interp.us_per_event_full",
            (full_ms - base_ms) * 1e3 / count(&full).max(1.0),
        );
        m.insert("interp.home_over_base", h_ms / base_ms);
        m.insert("interp.full_over_base", full_ms / base_ms);
        m.insert(
            "static.event_reduction_pct",
            100.0 * (1.0 - count(&home) / count(&full).max(1.0)),
        );
        // Downstream layers see what the op itself records: HOME-profile runs.
        own = home;
        &own
    } else {
        &corpus.recordings
    };
    let events: u64 = recordings.iter().map(|r| r.trace.len() as u64).sum();
    let per_s = |ms: f64| events as f64 / (ms / 1e3);
    let v2 = corpus::encode(corpus::tiled(recordings, 1, 1), true)?;
    let v1 = corpus::encode(corpus::tiled(recordings, 1, 1), false)?;
    let sections = decode_trace(&v2.bytes, 1).map_err(|e| format!("decode: {e}"))?;

    // hbt: both directions of both formats, where the op touches traces.
    if enters_hbt {
        let encode = |compress| corpus::encode(corpus::tiled(recordings, 1, 1), compress).is_ok();
        let (ms, _) = kernel(&mut t, "hbt.encode_v1", budget, || encode(false));
        m.insert("hbt.encode_v1_ev_per_s", per_s(ms));
        let (ms, _) = kernel(&mut t, "hbt.encode_v2", budget, || encode(true));
        m.insert("hbt.encode_v2_ev_per_s", per_s(ms));
        let (ms, _) = kernel(&mut t, "hbt.decode_v1", budget, || {
            decode_trace(&v1.bytes, 1).is_ok()
        });
        m.insert("hbt.decode_v1_ev_per_s", per_s(ms));
        let (ms, _) = kernel(&mut t, "hbt.decode_v2", budget, || {
            decode_trace(&v2.bytes, 1).is_ok()
        });
        m.insert("hbt.decode_v2_ev_per_s", per_s(ms));
        m.insert(
            "hbt.bytes_per_event_v1",
            v1.bytes.len() as f64 / events as f64,
        );
        m.insert(
            "hbt.bytes_per_event_v2",
            v2.bytes.len() as f64 / events as f64,
        );
    }

    // detect + rules: the stream detector alone, then the whole session
    // (detector + rule engine); the rule engine is the difference.
    let (detect_ms, races) = kernel(&mut t, "detect.stream", budget, || {
        sections
            .iter()
            .map(|s| detect_stream(&s.trace, &detector()).map_or(0, |(races, _)| races.len()))
            .sum::<usize>()
    });
    let (session_ms, violations) = kernel(&mut t, "serve.analyze_sections", budget, || {
        analyze_sections(&sections).map_or(0, |o| o.violations.len())
    });
    m.insert("detect.stream_ev_per_s", per_s(detect_ms));
    m.insert("detect.races", races as f64);
    m.insert(
        "rules.session_ev_per_s",
        per_s((session_ms - detect_ms).max(1e-6)),
    );
    m.insert("rules.violations", violations as f64);
    m.insert("serve.analyze_sections_ev_per_s", per_s(session_ms));
    let detect_fraction = (detect_ms / session_ms).clamp(0.0, 1.0);

    // What one empty span costs, for `trace.overhead_pct`.
    const NOOPS: usize = 10_000;
    let (noops_ms, _) = kernel(&mut Tracer::new(), "noop", 0.0, || {
        let mut scratch = Tracer::new();
        for _ in 0..NOOPS {
            scratch.span("noop", None, |_, _| black_box(()));
        }
        scratch.spans.len()
    });

    // sched: where the kernel places the step-token threads. Program 0
    // only, few samples: informational, wide spread expected, never gated.
    let groups = workloads::groups(workload, &corpus);
    let mut k = 1; // rep 0 was the warm-up
    let pinned_to = sys::allowed_cpus();
    if workload == "serve_submit" {
        let mut fresh_p50 = |cpus: &[usize]| {
            sys::set_affinity(cpus);
            let mut speed = sys::Speed::new();
            let round = workloads::serve_round(ctx, &corpus);
            attempted += round.attempted;
            failed += round.failed;
            median(&round.fresh_ms) * speed.factor()
        };
        let unpinned = fresh_p50(&ctx.all_cpus);
        m.insert("sched.unpinned_ratio", unpinned / fresh_p50(&pinned_to));
    } else {
        let pinned = probe(
            ctx,
            workload,
            &corpus,
            &mut k,
            &["--jobs", "1"],
            &mut failed,
        );
        sys::set_affinity(&ctx.all_cpus);
        let unpinned = probe(
            ctx,
            workload,
            &corpus,
            &mut k,
            &["--jobs", "1"],
            &mut failed,
        );
        let default_jobs = probe(ctx, workload, &corpus, &mut k, &[], &mut failed);
        sys::set_affinity(&pinned_to);
        attempted += 3 * PROBE_SAMPLES as u64;
        m.insert("sched.unpinned_ratio", unpinned / pinned);
        m.insert("sched.default_jobs_ratio", default_jobs / pinned);
    }

    // The account: per rep, the real CLI op on every program, then the
    // same ops re-composed in-process under spans; both halves of a rep at
    // reference CPU speed, or an epoch change between them would read as
    // unattributed time.
    let mut speed = sys::Speed::new();
    let mut recomposed_scale = Vec::new();
    let mut cli_ms = Vec::new();
    let mut serve = workloads::Round::default();
    let mut coverage = [0; 3];
    let mut reps = 0;
    let started = Instant::now();
    while reps < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        t.rep = reps;
        if workload == "serve_submit" {
            let round = workloads::serve_round(ctx, &corpus);
            let scale = speed.factor();
            attempted += round.attempted;
            failed += round.failed;
            serve.skipped_known_runs = round.skipped_known_runs;
            serve
                .fresh_ms
                .extend(round.fresh_ms.iter().map(|ms| ms * scale));
            serve
                .cached_ms
                .extend(round.cached_ms.iter().map(|ms| ms * scale));
        } else {
            let ops = (0..groups).map(|g| {
                let op =
                    workloads::cli_op(ctx, workload, &corpus, k * groups + g, &["--jobs", "1"]);
                attempted += 1;
                failed += u64::from(!op.ok);
                op.wall_s * 1e3
            });
            let clocked: f64 = ops.sum();
            cli_ms.push(clocked * speed.factor());
        }
        for g in 0..groups {
            coverage = recomposed_op(&mut t, ctx, workload, &corpus, k * groups + g);
        }
        recomposed_scale.push(speed.factor());
        k += 1;
        reps += 1;
    }

    // Layer self times per rep, from the spans under `op`.
    let self_ms = t.self_ms_by_name("op", &recomposed_scale);
    let layer = |name: &str| self_ms.get(name).map_or(0.0, |v| median(v));
    let session = layer("session");
    // `explore` is one call from outside; the interpreter's part of it is
    // estimated as schedules x one short run, and taken out of it.
    let explore_all = layer("explore");
    let explore_interp = (ctx.sizes.explore_budget as f64 * home_ms).min(explore_all);
    let mut layers: Vec<(&'static str, &'static str, f64)> = vec![
        ("ir", "share.ir_pct", layer("ir.parse")),
        ("static", "share.static_pct", layer("static.analyze")),
        (
            "interp",
            "share.interp_pct",
            layer("interp.run") + explore_interp,
        ),
        (
            "hbt",
            "share.hbt_pct",
            layer("hbt.encode") + layer("hbt.decode"),
        ),
        ("detect", "share.detect_pct", session * detect_fraction),
        (
            "rules",
            "share.rules_pct",
            session * (1.0 - detect_fraction),
        ),
        ("report", "share.report_pct", layer("report.render")),
        ("explore", "share.explore_pct", explore_all - explore_interp),
        ("other", "share.other_pct", layer("op") + layer("io.read")),
    ];
    let layers_ms: f64 = layers.iter().map(|l| l.2).sum();

    // The parent: the CLI op (all programs of a rep), or the client-side
    // fresh-submit latency for the daemon.
    let fresh = sorted(&serve.fresh_ms);
    let cached = sorted(&serve.cached_ms);
    let (parent_ms, spawns) = match workload {
        "serve_submit" => (quantile(&fresh, 0.5), 0),
        "npb_record_replay" => (median(&cli_ms), 2 * groups),
        _ => (median(&cli_ms), groups),
    };
    let spawn_total = spawns as f64 * spawn_ms;
    let mut unattributed = parent_ms - spawn_total - layers_ms;
    if workload == "serve_submit" {
        // What the client waits for beyond decode + sessions is, seen from
        // outside, the daemon itself: socket ingest, gate, layout scan,
        // fleet lock. It is the serve layer by definition, so nothing is
        // left over to call unattributed.
        layers.push(("serve", "share.serve_pct", unattributed));
        m.insert("serve.submit_overhead_ms", unattributed);
        m.insert("serve.submit_fresh_ms_p95", quantile(&fresh, 0.95));
        m.insert("serve.submit_cached_ms_p50", quantile(&cached, 0.5));
        m.insert("serve.submit_cached_ms_p90", quantile(&cached, 0.9));
        m.insert("serve.skipped_known_runs", serve.skipped_known_runs as f64);
        unattributed = 0.0;
    }
    if workload == "explore_lu_s" {
        m.insert(
            "explore.us_per_schedule",
            explore_all * 1e3 / ctx.sizes.explore_budget as f64,
        );
        m.insert("explore.analyzed", coverage[0] as f64);
        m.insert("explore.deduplicated", coverage[1] as f64);
        m.insert("explore.violations", coverage[2] as f64);
    }
    if workload == "npb_check" {
        // `check` prints the full report, not just the violation lines.
        let options = CheckOptions::new(nprocs, THREADS)
            .with_seeds(vec![ctx.seed])
            .with_jobs(1);
        let report = check(&programs[0].parsed, &options);
        let (ms, bytes) = kernel(&mut t, "report.render", budget, || report.render().len());
        m.insert("report.render_ms", ms);
        m.insert("report.bytes", bytes as f64);
    } else {
        m.insert("report.render_ms", layer("report.render"));
    }

    println!("layer account of {workload}: parent {parent_ms:.3} ms, {reps} reps");
    layers.push(("spawn", "account.spawn_ms", spawn_total));
    layers.push(("unattrib", "account.unattributed_ms", unattributed));
    for (name, metric, ms) in &layers {
        let pct = 100.0 * ms / parent_ms;
        println!("  {name:<8} {ms:>12.3} ms {pct:>7.2} % of parent");
        m.insert(metric, if metric.ends_with("_pct") { pct } else { *ms });
    }
    let spans_per_rep = t
        .spans
        .iter()
        .filter(|s| s.rep == 0 && s.parent.is_some())
        .count();
    m.insert("account.parent_ms", parent_ms);
    m.insert("account.layers_ms", layers_ms);
    m.insert("account.unattributed_pct", 100.0 * unattributed / parent_ms);
    m.insert(
        "trace.overhead_pct",
        100.0 * (spans_per_rep as f64 * noops_ms / NOOPS as f64) / layers_ms.max(1e-9),
    );
    m.insert("trace.spans", t.spans.len() as f64);
    Ok(Traced {
        metrics: m,
        tracer: t,
        attempted,
        failed,
    })
}
