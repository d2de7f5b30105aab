//! The end-to-end side: every op drives the real `home` binary (or, for
//! `serve_submit`, a real `home serve` child through the library client)
//! and is checked against the oracle before its time counts.
//!
//! CLI surface used, and nothing else: `check F --procs --threads --seeds
//! --jobs 1`, `record F -o --compress --procs --threads --seeds`, `replay T
//! --jobs 1`, `serve --socket`, `explore F --budget --seed --jobs 1`.

use crate::corpus::{self, Corpus, Sizes, EXPLORE_PROCS, NPB_PROCS, THREADS};
use crate::stats::{geomean, median, summarize, Summary};
use crate::sys::{self, ChildRun};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "npb_check",
        "home check on the paper's injected NPB-MZ class-C programs (8 ranks x 2 threads): interp over sched/mpi/omp is ~97% of it; detector or reader work must show no change here",
    ),
    (
        "npb_record_replay",
        "home record --compress then replay on the same programs: the record->replay wait ROADMAP item 5 is gated on; adds HBT encode, file I/O and decode to the interpreter run",
    ),
    (
        "wide_replay",
        "home replay of a tiled full-instrumentation HBT v2 file: interpreter bypassed; hbt decode, stream detector and session rules do it all; set-up pays the encode side",
    ),
    (
        "serve_submit",
        "submit->verdict against a home serve child, 2 closed-loop clients, fresh traces mixed with cached resubmissions: socket ingest, gate, fleet lock, known-fingerprint fast path",
    ),
    (
        "explore_lu_s",
        "home explore on LU-MZ class S: hundreds of short runs (thread spawn/teardown, session set-up, fingerprinting) instead of one long one, so dearer start-up shows",
    ),
];

/// Closed-loop clients of `serve_submit` (the box's core count when the
/// benchmark was defined; fixed so runs on other boxes stay comparable).
const SERVE_CLIENTS: usize = 2;
/// A client resubmits the same bytes after every this-many fresh traces.
const RESUBMIT_EVERY: usize = 3;
/// Fewest ops per program before a run may stop.
const MIN_OPS: usize = 3;

/// Where things are. The process's working directory is `dir`, so every
/// file and the daemon socket are named relative to it (a Unix socket path
/// must stay under ~100 bytes, which an absolute checkout path may not).
pub struct Ctx {
    pub root: PathBuf,
    pub home: PathBuf,
    pub dir: PathBuf,
    pub seed: u64,
    pub sizes: Sizes,
    /// The CPUs this process was allowed before it pinned itself.
    pub all_cpus: Vec<usize>,
    /// Rewrite `benchmark/expected/` from what the tool prints instead of
    /// comparing against it (see README: the traced run validates the
    /// result against the injector's labels before it is checked in).
    pub bless: bool,
}

/// Outcome of one op: its wall time, the child's peak RSS, whether the
/// oracle accepted it.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    pub wall_s: f64,
    pub rss_mb: f64,
    pub ok: bool,
}

impl OpResult {
    fn of(run: &ChildRun, ok: bool) -> OpResult {
        OpResult {
            wall_s: run.wall_s,
            rss_mb: run.peak_rss_mb,
            ok,
        }
    }
}

/// What one run measured, before it is turned into metric values.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub setup_s: Summary,
    /// Per-op wall times (ms) at reference CPU speed (see `sys::Speed`);
    /// for `serve_submit`, fresh-submit latencies.
    pub op_ms: Summary,
    pub op_ms_value: f64,
    /// The same times as the clock read them, and the factors applied.
    pub op_ms_raw: Summary,
    pub speed_factor: Summary,
    pub work_per_s: f64,
    pub peak_rss_mb: Summary,
    pub attempted: u64,
    pub failed: u64,
}

impl Ctx {
    fn home(&self, args: &[&str]) -> ChildRun {
        sys::run_child(&self.home, args)
    }

    /// Compare `lines` with the checked-in oracle (or rewrite it when
    /// blessing). A missing or different file is a failed op.
    pub fn matches_expected(&self, workload: &str, name: &str, lines: &[String]) -> bool {
        if self.bless {
            let path = corpus::expected_path(&self.root, workload, name);
            let dir_ok = path
                .parent()
                .map(std::fs::create_dir_all)
                .is_some_and(|r| r.is_ok());
            return dir_ok && std::fs::write(&path, lines.join("\n") + "\n").is_ok();
        }
        corpus::load_expected(&self.root, workload, name).is_some_and(|e| e == lines)
    }
}

/// Scheduler seeds of op `k`: four fresh ones per op, disjoint between
/// `--seed` values. Rotating them inside a run makes the reported median a
/// median over interleavings rather than the cost of one.
pub fn op_seeds(seed: u64, k: usize) -> std::ops::Range<u64> {
    let first = seed * 1_000_000 + 4 * k as u64 + 1;
    first..first + 4
}

/// `home explore --seed` of op `k`: base schedules count up from it, so
/// every op gets a range of its own.
pub fn explore_base_seed(ctx: &Ctx, k: usize) -> u64 {
    ctx.seed * 10_000_000 + (k * ctx.sizes.explore_budget) as u64 + 1
}

fn check_op(
    ctx: &Ctx,
    workload: &str,
    file: &str,
    name: &str,
    seeds: &str,
    jobs: &[&str],
) -> OpResult {
    let procs = NPB_PROCS.to_string();
    let threads = THREADS.to_string();
    let mut args = vec![
        "check",
        file,
        "--procs",
        &procs,
        "--threads",
        &threads,
        "--seeds",
        seeds,
    ];
    args.extend_from_slice(jobs);
    let run = ctx.home(&args);
    let ok = run.code == 1
        && ctx.matches_expected(workload, name, &corpus::violation_lines(&run.stdout));
    OpResult::of(&run, ok)
}

fn record_replay_op(ctx: &Ctx, file: &str, name: &str, seeds: &str, jobs: &[&str]) -> OpResult {
    let procs = NPB_PROCS.to_string();
    let threads = THREADS.to_string();
    let rec = ctx.home(&[
        "record",
        file,
        "-o",
        "recorded.hbt",
        "--compress",
        "--procs",
        &procs,
        "--threads",
        &threads,
        "--seeds",
        seeds,
    ]);
    let mut replay = vec!["replay", "recorded.hbt"];
    replay.extend_from_slice(jobs);
    let rep = ctx.home(&replay);
    let written = corpus::number_after(&rec.stdout, "run(s), ");
    let ok = rec.code == 0
        && rep.code == 1
        && written.is_some()
        && written == corpus::number_after(&rep.stdout, "run(s), ")
        && ctx.matches_expected(
            "npb_record_replay",
            name,
            &corpus::violation_lines(&rep.stdout),
        );
    OpResult {
        wall_s: rec.wall_s + rep.wall_s,
        rss_mb: rec.peak_rss_mb.max(rep.peak_rss_mb),
        ok,
    }
}

fn replay_op(ctx: &Ctx, corpus: &Corpus, extra: &[&str]) -> OpResult {
    let Some((file, events)) = &corpus.wide else {
        return OpResult {
            wall_s: 0.0,
            rss_mb: 0.0,
            ok: false,
        };
    };
    let mut args = vec!["replay", file.as_str()];
    args.extend_from_slice(extra);
    let run = ctx.home(&args);
    let ok = run.code == 1
        && corpus::number_after(&run.stdout, "run(s), ") == Some(*events)
        && ctx.matches_expected(
            "wide_replay",
            "violations",
            &corpus::violation_lines(&run.stdout),
        );
    OpResult::of(&run, ok)
}

fn explore_op(ctx: &Ctx, corpus: &Corpus, k: usize, extra: &[&str]) -> OpResult {
    let budget = ctx.sizes.explore_budget;
    let base = explore_base_seed(ctx, k).to_string();
    let budget_s = budget.to_string();
    let procs = EXPLORE_PROCS.to_string();
    let threads = THREADS.to_string();
    let prog = &corpus.programs[0];
    let mut args = vec![
        "explore",
        prog.file.as_str(),
        "--budget",
        &budget_s,
        "--seed",
        &base,
        "--procs",
        &procs,
        "--threads",
        &threads,
    ];
    args.extend_from_slice(extra);
    let run = ctx.home(&args);
    let ok = run.code == 1
        && corpus::number_after(&run.stdout, "schedules: ") == Some(budget as u64)
        && corpus::number_after(&run.stdout, "deduplicated, ") == Some(0)
        && ctx.matches_expected(
            "explore_lu_s",
            prog.name,
            &corpus::violation_lines(&run.stdout),
        );
    OpResult::of(&run, ok)
}

/// Op `k` of a CLI workload, on program `k % programs` where there are
/// several. `extra` carries the `--jobs` form (`["--jobs", "1"]` for every
/// end-to-end op; the traced placement probes pass nothing).
pub fn cli_op(ctx: &Ctx, workload: &str, corpus: &Corpus, k: usize, extra: &[&str]) -> OpResult {
    let prog = &corpus.programs[k % corpus.programs.len()];
    let seeds: Vec<String> = op_seeds(ctx.seed, k).map(|s| s.to_string()).collect();
    let seeds = seeds.join(",");
    match workload {
        "npb_check" => check_op(ctx, workload, &prog.file, prog.name, &seeds, extra),
        "npb_record_replay" => record_replay_op(ctx, &prog.file, prog.name, &seeds, extra),
        "wide_replay" => replay_op(ctx, corpus, extra),
        _ => explore_op(ctx, corpus, k, extra),
    }
}

/// Ops that make one rep: one per program where the workload has several.
pub fn groups(workload: &str, corpus: &Corpus) -> usize {
    match workload {
        "npb_check" | "npb_record_replay" => corpus.programs.len(),
        _ => 1,
    }
}

/// Work units one op completes, the numerator of `work_per_s`: simulated
/// runs (npb), events replayed, schedules explored.
fn work_per_op(workload: &str, corpus: &Corpus, sizes: &Sizes) -> f64 {
    match workload {
        "wide_replay" => corpus
            .wide
            .as_ref()
            .map_or(0.0, |(_, events)| *events as f64),
        "explore_lu_s" => sizes.explore_budget as f64,
        _ => 4.0,
    }
}

/// One daemon lifetime of `serve_submit`.
#[derive(Debug, Default)]
pub struct Round {
    pub fresh_ms: Vec<f64>,
    pub cached_ms: Vec<f64>,
    /// First submission sent to last reply received, seconds.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub daemon_rss_mb: f64,
    pub skipped_known_runs: u64,
}

const SOCKET: &str = "serve.sock";

/// Start `home serve`, wait until it answers, run `body`, then stop and
/// reap it. Returns `body`'s value with the daemon's exit code and peak RSS.
pub fn with_daemon<T>(ctx: &Ctx, body: impl FnOnce(&Path) -> T) -> Result<(T, i32, f64), String> {
    let socket = Path::new(SOCKET);
    let _ = std::fs::remove_file(socket);
    let mut child = std::process::Command::new(&ctx.home)
        .args(["serve", "--socket", SOCKET])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start home serve: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while home::serve::status(socket).is_err() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let value = body(socket);
    // The daemon is still alive, so its own high-water mark can be read
    // exactly; `ru_maxrss` would floor at this process's (see `sys::reap`).
    let rss = sys::peak_rss_of(child.id());
    let stopped = home::serve::stop(socket);
    if stopped.is_err() {
        // Never leave a daemon behind: without a SHUTDOWN reply it would
        // outlive the benchmark and `wait4` below would block.
        let _ = child.kill();
    }
    let (code, _) = sys::reap(child.id());
    Ok((value, code, rss))
}

/// One client's share of a round: every `SERVE_CLIENTS`-th trace, fresh,
/// with a byte-identical resubmission after every third.
fn client(
    corpus: &Corpus,
    socket: &Path,
    me: usize,
    expected_ok: &(dyn Fn(&[String]) -> bool + Sync),
) -> Round {
    let mut out = Round::default();
    let mine = corpus.serve.iter().skip(me).step_by(SERVE_CLIENTS);
    for (n, trace) in mine.enumerate() {
        let start = Instant::now();
        let first = home::serve::submit(socket, &trace.bytes);
        out.fresh_ms.push(start.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        let fresh_ok = first.as_ref().is_ok_and(|r| {
            let lines = corpus::sorted_lines(r.violations.iter().map(String::as_str));
            r.ok && corpus::number_after(&r.raw, "\"events\":") == Some(trace.events)
                && expected_ok(&lines)
        });
        out.failed += u64::from(!fresh_ok);
        if n % RESUBMIT_EVERY == RESUBMIT_EVERY - 1 {
            let start = Instant::now();
            let again = home::serve::submit(socket, &trace.bytes);
            out.cached_ms.push(start.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            let same = matches!((&first, &again), (Ok(a), Ok(b)) if b.ok && a.raw == b.raw);
            out.failed += u64::from(!same);
        }
    }
    out
}

/// One round: a fresh daemon, `SERVE_CLIENTS` closed-loop clients over the
/// whole trace corpus, then STATUS and shutdown.
pub fn serve_round(ctx: &Ctx, corpus: &Corpus) -> Round {
    // Blessing happens once, on the first reply of client 0's first trace.
    let expected = corpus::load_expected(&ctx.root, "serve_submit", "violations");
    let expected_ok = |lines: &[String]| {
        if ctx.bless {
            ctx.matches_expected("serve_submit", "violations", lines)
        } else {
            expected.as_deref() == Some(lines)
        }
    };
    let sections_per_trace = corpus.recordings.len() as u64;
    let ran = with_daemon(ctx, |socket| {
        let start = Instant::now();
        let parts: Vec<Round> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..SERVE_CLIENTS)
                .map(|me| {
                    let expected_ok = &expected_ok;
                    s.spawn(move || client(corpus, socket, me, expected_ok))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let status = home::serve::status(socket);
        (parts, wall_s, status)
    });
    let mut round = Round::default();
    let Ok(((parts, wall_s, status), code, rss)) = ran else {
        round.attempted = 1;
        round.failed = 1;
        return round;
    };
    for p in parts {
        round.fresh_ms.extend(p.fresh_ms);
        round.cached_ms.extend(p.cached_ms);
        round.attempted += p.attempted;
        round.failed += p.failed;
    }
    round.wall_s = wall_s;
    round.daemon_rss_mb = rss;
    round.skipped_known_runs = status
        .as_ref()
        .ok()
        .and_then(|r| corpus::number_after(&r.raw, "\"skipped_known_runs\":"))
        .unwrap_or(0);
    // The daemon's own books must agree with what the clients sent: every
    // cached submission skipped all its sections, and it exited cleanly.
    let books_ok = code == 0
        && round.skipped_known_runs == round.cached_ms.len() as u64 * sections_per_trace
        && status.is_ok_and(|r| {
            corpus::number_after(&r.raw, "\"submissions\":") == Some(round.attempted)
        });
    if !books_ok {
        round.attempted += 1;
        round.failed += 1;
    }
    round
}

/// Build the corpus and run one discarded warm-up rep: everything a run
/// does before its first timed op (the `cargo build` excluded).
pub fn setup(ctx: &Ctx, workload: &str) -> Result<Corpus, String> {
    let corpus = corpus::build(workload, ctx.seed, &ctx.sizes, &ctx.dir)?;
    if workload == "serve_submit" {
        serve_round(ctx, &corpus);
    } else {
        for g in 0..groups(workload, &corpus) {
            cli_op(ctx, workload, &corpus, g, &["--jobs", "1"]);
        }
    }
    Ok(corpus)
}

/// Set up `sizes.setups` times (the last corpus is the one measured) and
/// return it with the set-up times.
pub fn timed_setup(ctx: &Ctx, workload: &str) -> Result<(Corpus, Summary), String> {
    let mut times = Vec::new();
    let mut corpus = None;
    let mut speed = sys::Speed::new();
    for _ in 0..ctx.sizes.setups.max(1) {
        // Free the previous corpus first: a child's `ru_maxrss` cannot read
        // lower than this process's own high-water mark (see `sys::reap`).
        drop(corpus.take());
        let start = Instant::now();
        corpus = Some(setup(ctx, workload)?);
        let raw_s = start.elapsed().as_secs_f64();
        times.push(raw_s * speed.factor());
    }
    corpus
        .map(|c| (c, summarize(&times)))
        .ok_or_else(|| "no set-up ran".to_string())
}

/// The untraced closed loop: ops until `seconds` have passed.
pub fn measure(ctx: &Ctx, workload: &str, seconds: f64) -> Result<Measured, String> {
    let (corpus, setup_s) = timed_setup(ctx, workload)?;
    let mut m = Measured {
        setup_s,
        ..Measured::default()
    };
    let start = Instant::now();
    let (mut rss, mut raw, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    let mut speed = sys::Speed::new();
    if workload == "serve_submit" {
        let (mut fresh, mut wall_s) = (Vec::new(), 0.0);
        while start.elapsed().as_secs_f64() < seconds || rss.len() < MIN_OPS {
            let round = serve_round(ctx, &corpus);
            let factor = speed.factor();
            m.attempted += round.attempted;
            m.failed += round.failed;
            wall_s += round.wall_s * factor;
            fresh.extend(round.fresh_ms.iter().map(|ms| ms * factor));
            raw.extend(round.fresh_ms);
            factors.push(factor);
            rss.push(round.daemon_rss_mb);
        }
        m.op_ms = summarize(&fresh);
        m.op_ms_value = m.op_ms.median;
        m.work_per_s = m.attempted as f64 / wall_s;
    } else {
        let groups = groups(workload, &corpus);
        let mut walls: Vec<Vec<f64>> = vec![Vec::new(); groups];
        // Warm-up used ops 0..groups; timed ops continue the numbering. A
        // run stops only at a rep boundary so every program weighs the same.
        let mut k = groups;
        while start.elapsed().as_secs_f64() < seconds || walls[0].len() < MIN_OPS {
            for wall in walls.iter_mut() {
                let op = cli_op(ctx, workload, &corpus, k, &["--jobs", "1"]);
                let factor = speed.factor();
                m.attempted += 1;
                m.failed += u64::from(!op.ok);
                wall.push(op.wall_s * 1e3 * factor);
                raw.push(op.wall_s * 1e3);
                factors.push(factor);
                rss.push(op.rss_mb);
                k += 1;
            }
        }
        let all: Vec<f64> = walls.iter().flatten().copied().collect();
        m.op_ms = summarize(&all);
        // Geometric mean over programs of each program's median.
        m.op_ms_value = geomean(&walls.iter().map(|w| median(w)).collect::<Vec<_>>());
        m.work_per_s = all.len() as f64 * work_per_op(workload, &corpus, &ctx.sizes)
            / (all.iter().sum::<f64>() / 1e3);
    }
    m.op_ms_raw = summarize(&raw);
    m.speed_factor = summarize(&factors);
    m.peak_rss_mb = summarize(&rss);
    Ok(m)
}
