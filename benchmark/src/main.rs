//! `homebench` — the repo's end-to-end and per-layer benchmark.
//!
//! One invocation runs one workload (or all of them) either untraced,
//! printing every end-to-end metric, or traced, printing every per-layer
//! metric; the last line of standard output is one JSON object. See
//! `benchmark/README.md` for the workloads, the metrics and the protocol.

mod corpus;
mod layers;
mod stats;
mod sys;
mod workloads;

use corpus::Sizes;
use stats::{json_num, Summary};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Ctx, WORKLOADS};

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
const RUN_SECONDS: u64 = 18;

/// End-to-end metrics: name, unit, better, bound. Every workload reports
/// every one; what `op_ms` and `work_per_s` mean per workload is in the
/// README.
const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_ms", "ms", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
];

/// Per-layer metrics: name, unit, better. Layer = crate or module name.
/// Counts carry a direction only because the format wants one.
const PER_LAYER: [(&str, &str, &str); 57] = [
    ("cli.spawn_ms", "ms", "lower"),
    ("ir.parse_ms", "ms", "lower"),
    ("ir.parse_mb_per_s", "MB/s", "higher"),
    ("ir.source_bytes", "B", "lower"),
    ("static.analyze_ms", "ms", "lower"),
    ("static.sites", "count", "lower"),
    ("static.instrumented", "count", "lower"),
    ("static.event_reduction_pct", "%", "higher"),
    ("interp.base_ms", "ms", "lower"),
    ("interp.home_ms", "ms", "lower"),
    ("interp.full_ms", "ms", "lower"),
    ("interp.events_home", "count", "lower"),
    ("interp.events_full", "count", "lower"),
    ("interp.us_per_event_full", "us", "lower"),
    ("interp.home_over_base", "ratio", "lower"),
    ("interp.full_over_base", "ratio", "lower"),
    ("sched.unpinned_ratio", "ratio", "lower"),
    ("sched.default_jobs_ratio", "ratio", "lower"),
    ("hbt.encode_v1_ev_per_s", "1/s", "higher"),
    ("hbt.encode_v2_ev_per_s", "1/s", "higher"),
    ("hbt.decode_v1_ev_per_s", "1/s", "higher"),
    ("hbt.decode_v2_ev_per_s", "1/s", "higher"),
    ("hbt.bytes_per_event_v1", "B", "lower"),
    ("hbt.bytes_per_event_v2", "B", "lower"),
    ("detect.stream_ev_per_s", "1/s", "higher"),
    ("detect.races", "count", "higher"),
    ("rules.session_ev_per_s", "1/s", "higher"),
    ("rules.violations", "count", "higher"),
    ("report.render_ms", "ms", "lower"),
    ("report.bytes", "B", "lower"),
    ("serve.analyze_sections_ev_per_s", "1/s", "higher"),
    ("serve.submit_overhead_ms", "ms", "lower"),
    ("serve.submit_fresh_ms_p95", "ms", "lower"),
    ("serve.submit_cached_ms_p50", "ms", "lower"),
    ("serve.submit_cached_ms_p90", "ms", "lower"),
    ("serve.skipped_known_runs", "count", "higher"),
    ("explore.us_per_schedule", "us", "lower"),
    ("explore.analyzed", "count", "higher"),
    ("explore.deduplicated", "count", "higher"),
    ("explore.violations", "count", "higher"),
    ("share.ir_pct", "%", "lower"),
    ("share.static_pct", "%", "lower"),
    ("share.interp_pct", "%", "lower"),
    ("share.hbt_pct", "%", "lower"),
    ("share.detect_pct", "%", "lower"),
    ("share.rules_pct", "%", "lower"),
    ("share.report_pct", "%", "lower"),
    ("share.explore_pct", "%", "lower"),
    ("share.serve_pct", "%", "lower"),
    ("share.other_pct", "%", "lower"),
    ("account.parent_ms", "ms", "lower"),
    ("account.layers_ms", "ms", "lower"),
    ("account.spawn_ms", "ms", "lower"),
    ("account.unattributed_ms", "ms", "lower"),
    ("account.unattributed_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    selfcheck: bool,
    bless: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        selfcheck: false,
        bless: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed: expected an unsigned integer")?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds: expected a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds: expected 0 < seconds <= 600".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: expected 0 or 1".into()),
                }
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--bless" => args.bless = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// `BENCHMARK.json`, generated from the tables above so the file and the
/// program cannot name different metrics.
fn manifest() -> String {
    let join = |items: Vec<String>| items.join(",\n    ");
    let workloads = join(
        WORKLOADS
            .iter()
            .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect(),
    );
    let end_to_end = join(
        END_TO_END
            .iter()
            .map(|(name, unit, better, bound)| {
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}")
            })
            .collect(),
    );
    let per_layer = join(
        PER_LAYER
            .iter()
            .map(|(name, unit, better)| {
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {workloads}\n  ],\n  \"end_to_end\": [\n    {end_to_end}\n  ],\n  \"per_layer\": [\n    {per_layer}\n  ]\n}}\n"
    )
}

/// Build `home` in release mode and return the binary's absolute path.
/// Runs from the checkout root, so a relative `CARGO_TARGET_DIR` means the
/// same directory here as for the `cargo run` that started this program.
fn build_home(root: &Path) -> Result<(PathBuf, PathBuf), String> {
    let status = std::process::Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "home",
        ])
        .current_dir(root)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("cargo build --release --bin home failed".into());
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let home = target.join("release/home");
    if home.is_file() {
        Ok((home, target))
    } else {
        Err(format!("{} was not built", home.display()))
    }
}

struct Env {
    nproc: usize,
    commit: String,
    unix_time: u64,
}

/// One finished run, ready to print and to append to the history.
struct RunOutput {
    workload: &'static str,
    pinned: bool,
    attempted: u64,
    failed: u64,
    /// Metric name, value, and the sample summary behind it where one exists.
    metrics: Vec<(&'static str, f64, Option<Summary>)>,
    /// Beside the metrics, for the reader and the history only: the op
    /// times as the clock read them and the CPU-speed factors applied.
    notes: Vec<(&'static str, Summary)>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

impl RunOutput {
    /// The contract's result line.
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, _)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_num(*value),
                    unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One line of `benchmark/results/history.jsonl`.
    fn history_line(&self, env: &Env, ctx: &Ctx, trace: bool, seconds: f64) -> String {
        let quartiles = |s: &Summary| {
            format!(
                "\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}",
                json_num(s.median),
                json_num(s.q1),
                json_num(s.q3),
                s.n
            )
        };
        let mut metrics = String::new();
        for (i, (name, value, summary)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(metrics, "\"{name}\": {{\"value\": {}", json_num(*value));
            if let Some(s) = summary {
                let _ = write!(metrics, ", {}", quartiles(s));
            }
            metrics.push('}');
        }
        for (name, s) in &self.notes {
            let _ = write!(metrics, ", \"{name}\": {{{}}}", quartiles(s));
        }
        let cpus: Vec<String> = ctx.all_cpus.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"commit\": \"{}\", \"unix_time\": {}, \"nproc\": {}, \"allowed_cpus\": [{}], \"pinned\": {}, \"driver_hwm_mb\": {}, \"quick\": {}, \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"workload\": \"{}\", \"ops\": {}, \"ops_failed\": {}, \"metrics\": {{{metrics}}}}}",
            env.commit,
            env.unix_time,
            env.nproc,
            cpus.join(", "),
            self.pinned,
            json_num(sys::peak_rss_of("self")),
            ctx.sizes.quick,
            trace,
            ctx.seed,
            json_num(seconds),
            self.workload,
            self.attempted,
            self.failed,
        )
    }
}

/// Run one workload once, print its table, append it to the history.
fn run_one(
    ctx: &Ctx,
    env: &Env,
    workload: &'static str,
    trace: bool,
    seconds: f64,
) -> Result<RunOutput, String> {
    // Noise protocol: the driver pins itself to one CPU before it starts
    // anything, so every child (the daemon too) and every in-process
    // interpreter thread inherits the mask. The last allowed CPU is used:
    // CPU 0 takes the interrupts.
    let pinned = ctx
        .all_cpus
        .last()
        .is_some_and(|&cpu| sys::set_affinity(&[cpu]));

    let mut out = RunOutput {
        workload,
        pinned,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    if trace {
        let traced = layers::traced(ctx, workload, seconds)?;
        out.attempted = traced.attempted;
        out.failed = traced.failed;
        let metrics = &traced.metrics;
        if let Some(stray) = metrics
            .keys()
            .find(|k| !PER_LAYER.iter().any(|m| m.0 == **k))
        {
            return Err(format!("metric `{stray}` is not declared in PER_LAYER"));
        }
        // A layer the op never enters did no work: 0.
        out.metrics = PER_LAYER
            .iter()
            .map(|(name, _, _)| (*name, metrics.get(name).copied().unwrap_or(0.0), None))
            .collect();
        let spans = ctx
            .root
            .join(format!("benchmark/results/trace-{workload}.json"));
        std::fs::write(&spans, traced.tracer.to_json(workload))
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
    } else {
        let m = workloads::measure(ctx, workload, seconds)?;
        out.attempted = m.attempted;
        out.failed = m.failed;
        out.metrics = vec![
            ("setup_s", m.setup_s.median, Some(m.setup_s)),
            ("op_ms", m.op_ms_value, Some(m.op_ms)),
            ("work_per_s", m.work_per_s, None),
            ("peak_rss_mb", m.peak_rss_mb.median, Some(m.peak_rss_mb)),
        ];
        out.notes = vec![
            ("op_ms_as_clocked", m.op_ms_raw),
            ("cpu_speed_factor", m.speed_factor),
        ];
    }

    println!(
        "{workload}: seed {} {} nproc {} pinned {pinned} ops {} ops_failed {}{}",
        ctx.seed,
        if trace { "traced" } else { "untraced" },
        env.nproc,
        out.attempted,
        out.failed,
        if ctx.sizes.quick {
            " QUICK (not comparable with full runs)"
        } else {
            ""
        },
    );
    for (name, value, summary) in &out.metrics {
        match summary {
            Some(s) => println!(
                "  {name:<34} {value:>16.4} {:<6} q1 {:.4} q3 {:.4} n {}",
                unit_of(name),
                s.q1,
                s.q3,
                s.n
            ),
            None => println!("  {name:<34} {value:>16.4} {}", unit_of(name)),
        }
    }
    for (name, s) in &out.notes {
        println!(
            "  ({name:<32} {:>16.4}        q1 {:.4} q3 {:.4} n {})",
            s.median, s.q1, s.q3, s.n
        );
    }
    let history = ctx.root.join("benchmark/results/history.jsonl");
    let line = out.history_line(env, ctx, trace, seconds) + "\n";
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()))
        .map_err(|e| format!("append {}: {e}", history.display()))?;
    Ok(out)
}

/// `value` of metric `name` in a result line.
fn value_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// `--selfcheck`: set B against set A (one result line per workload),
/// every end-to-end metric of every workload within its own bound.
fn compare_sets(workloads: &[&str], a: &[String], b: &[String]) -> bool {
    let mut ok = true;
    println!("selfcheck: set B against set A");
    for ((workload, line_a), line_b) in workloads.iter().zip(a).zip(b) {
        for (name, _, _, bound) in END_TO_END {
            let (Some(va), Some(vb)) = (value_in(line_a, name), value_in(line_b, name)) else {
                continue;
            };
            let diff = (vb - va).abs() / va.abs().max(f64::MIN_POSITIVE);
            let verdict = if diff <= bound { "ok" } else { "OUT OF BOUND" };
            ok &= diff <= bound;
            println!(
                "  {workload:<18} {name:<12} A {va:>14.4} B {vb:>14.4} diff {:>6.2}% bound {:>4.0}% {verdict}",
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    ok
}

/// Several runs in one invocation (`--workload all`, `--selfcheck`): each
/// is a fresh `homebench --workload W` process, exactly what the driver
/// starts, so no run inherits another's heap, page cache of spans or
/// high-water mark (which would floor every later `peak_rss_mb`).
fn run_many(args: &Args, chosen: &[&str]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut sets: Vec<Vec<String>> = Vec::new();
    let mut ok = true;
    for _ in 0..if args.selfcheck { 2 } else { 1 } {
        let mut set = Vec::new();
        for &workload in chosen {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }]);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            for (on, flag) in [(args.quick, "--quick"), (args.bless, "--bless")] {
                if on {
                    cmd.arg(flag);
                }
            }
            let out = cmd
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            let line = stdout.lines().last().unwrap_or_default().to_string();
            ok &= out.status.success() && line.contains("\"correct\": true");
            set.push(line);
        }
        sets.push(set);
    }
    if let [a, b] = &sets[..] {
        ok &= compare_sets(chosen, a, b);
    }
    Ok(ok)
}

fn run(args: &Args) -> Result<bool, String> {
    let chosen: Vec<&'static str> = WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| args.workload == "all" || args.workload == *name)
        .collect();
    let workload = match chosen[..] {
        [only] if !args.selfcheck => only,
        _ => return run_many(args, &chosen),
    };

    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    if !root.join("Cargo.toml").is_file() || !root.join("benchmark/Cargo.toml").is_file() {
        return Err(
            "run from the repository root (Cargo.toml and benchmark/ must be there)".into(),
        );
    }
    let (home, target) = build_home(&root)?;
    let dir = target.join(format!("homebench-work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::fs::create_dir_all(root.join("benchmark/results"))
        .map_err(|e| format!("create results: {e}"))?;
    std::env::set_current_dir(&dir).map_err(|e| format!("enter {}: {e}", dir.display()))?;

    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(&root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let env = Env {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        commit,
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
    };
    let ctx = Ctx {
        root,
        home,
        dir: dir.clone(),
        seed: args.seed,
        sizes: if args.quick {
            Sizes::quick()
        } else {
            Sizes::full()
        },
        all_cpus: sys::allowed_cpus(),
        bless: args.bless,
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 2.0 } else { RUN_SECONDS as f64 });

    let result = run_one(&ctx, &env, workload, args.trace, seconds).map(|out| {
        // The last line of standard output: the contract's result.
        println!("{}", out.result_line());
        out.failed == 0
    });
    let _ = std::env::set_current_dir(&ctx.root);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("homebench: {e}");
            eprintln!("usage: homebench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--selfcheck] [--bless] [--manifest]");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        // A run whose ops failed still printed its result (`correct:
        // false`); only --selfcheck turns a bad comparison into a bad exit.
        Ok(ok) if ok || !args.selfcheck => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("homebench: {e}");
            ExitCode::from(2)
        }
    }
}
