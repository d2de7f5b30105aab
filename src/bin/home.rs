//! `home` — the command-line front end of the checker.
//!
//! ```text
//! home check   <file.hmp> [--procs N] [--threads N] [--seeds a,b,c] [--jobs N] [--faithful]
//!                          [--fail-seed a,b] [--pct-depth D] [--pins thread:prio,...]
//! home explore <file.hmp> [--budget N] [--strategy pct|random|directed|all] [--depth D]
//!                          [--procs N] [--threads N] [--jobs N] [--seed S]
//! home watch   <file.hmp> [--procs N] [--threads N] [--seeds a,b,c] [--faithful]
//!                          [--fail-seed a,b] [--flush every|seed|end]
//! home static  <file.hmp> [--json]
//! home run     <file.hmp> [--procs N] [--threads N] [--seed S] [--tool base|home|marmot|itc]
//!                          [--trace-out trace.json]
//! home record  <file.hmp> -o trace.hbt [--procs N] [--threads N] [--seeds a,b,c] [--faithful]
//!                          [--compress]
//! home replay  <trace.hbt|-> [--jobs N] [--run SEED]
//! home analyze <trace.json|trace.hbt|-> [--jobs N]
//! home serve   --socket path.sock [--max-sessions N] [--status|--stop]
//! home submit  <trace.hbt> --socket path.sock [--json]
//! home fmt     <file.hmp>
//! home help
//! ```
//!
//! * `check`   — the full HOME pipeline; exits nonzero if violations found.
//! * `explore` — guided schedule-space search over one program: PCT priority
//!   schedules, race-directed rescheduling of suspects, and DPOR-lite
//!   fingerprint dedup; every finding carries a token `check` reproduces.
//! * `watch`   — live mode: the same pipeline, but each violation is
//!   printed the moment its evidence is complete, while the simulation is
//!   still running. Same verdicts and exit codes as `check`.
//! * `static`  — compile-time phase only: per-site instrumentation decisions,
//!   per-site monitored-variable sets, and static deadlock/violation
//!   candidates (`--json` dumps the full report; exit 1 on candidates).
//! * `run`     — execute once on the simulators and report timing/events;
//!   `--trace-out` dumps the recorded event trace as JSON.
//! * `record`  — run the check seeds, streaming every event into a compact
//!   binary HBT trace file instead of detecting.
//! * `replay`  — offline detection over a recorded HBT trace; same verdicts
//!   and exit codes as `check` on the same program/seeds (deadlocks excepted:
//!   a deadlocked run has no terminal event to replay). `--run SEED` seeks
//!   straight to one recorded run via the v2 index and replays only it.
//! * `analyze` — offline mode: run the dynamic phase + rule matching over a
//!   previously dumped trace (the paper's offline analysis). Accepts JSON or
//!   HBT, auto-detected by magic bytes; `-` reads from stdin.
//! * `serve`   — multi-tenant collector daemon on a Unix socket: accepts
//!   many concurrent HBT streams, analyzes each with the same engine as
//!   `replay`, aggregates verdicts across runs. `--status` prints the
//!   fleet report of a running daemon; `--stop` shuts it down.
//! * `submit`  — send a recorded HBT trace to a running daemon and print
//!   its verdict; same exit codes as `replay` on the same trace.
//! * `fmt`     — parse and reprint in canonical form.
//! * `help`    — print the command and option reference.

// The CLI never panics on user input: every failure is a diagnostic plus a
// documented exit code (0 clean, 1 findings, 2 usage/input, 3 partial).
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

use home::baselines::Tool;
use home::prelude::*;
use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set after the first failed stdout write (typically `EPIPE` from a
/// downstream consumer like `| head` exiting early). Further output is
/// suppressed — a bare `println!` would panic — and the process still
/// exits with the verdict it computed; a single stderr note marks the cut.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Write one stdout record, EPIPE-safe. Every CLI stdout write goes
/// through here: a closed pipe can never panic the checker or make it
/// misreport its exit code.
fn emit(args: std::fmt::Arguments<'_>, newline: bool) {
    use std::io::Write;
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let result = out
        .write_fmt(args)
        .and_then(|()| {
            if newline {
                out.write_all(b"\n")
            } else {
                Ok(())
            }
        })
        .and_then(|()| out.flush());
    if result.is_err() && !STDOUT_CLOSED.swap(true, Ordering::Relaxed) {
        eprintln!("home: standard output closed; suppressing further output (exit code still reflects the verdict)");
    }
}

macro_rules! oprintln {
    () => { emit(format_args!(""), true) };
    ($($arg:tt)*) => { emit(format_args!($($arg)*), true) };
}

macro_rules! oprint {
    ($($arg:tt)*) => { emit(format_args!($($arg)*), false) };
}

const USAGE: &str =
    "usage: home <check|explore|watch|serve|static|run|record|replay|analyze|submit|fmt|help> [<file>] [options]";

fn print_help() {
    oprintln!("home — detect thread-safety violations in hybrid OpenMP/MPI programs");
    oprintln!();
    oprintln!("{USAGE}");
    oprintln!();
    oprintln!("commands:");
    oprintln!("  check   <file.hmp>   full pipeline: static analysis, multi-seed simulation,");
    oprintln!("                       race detection, violation matching; exit 1 on findings");
    oprintln!("  explore <file.hmp>   guided schedule-space search: PCT priority schedules,");
    oprintln!("                       race-directed rescheduling, fingerprint dedup; each");
    oprintln!("                       finding carries a token `check` reproduces");
    oprintln!("  watch   <file.hmp>   live mode: the same pipeline, printing each violation");
    oprintln!("                       the moment its evidence is complete, while the");
    oprintln!("                       simulation runs; same exit codes");
    oprintln!("  static  <file.hmp>   compile-time phase only: per-site instrumentation");
    oprintln!("                       decisions, per-site monitored-variable sets, and static");
    oprintln!("                       deadlock/violation candidates; --json dumps the full");
    oprintln!("                       report; exit 1 when candidates are found");
    oprintln!("  run     <file.hmp>   one simulated execution; report timing and events");
    oprintln!("  record  <file.hmp>   run the check seeds and stream every event into a");
    oprintln!("                       compact binary HBT trace (-o trace.hbt)");
    oprintln!("  replay  <trace.hbt>  offline detection over a recorded trace; same");
    oprintln!("                       verdicts and exit codes as `check`");
    oprintln!("  analyze <trace>      offline dynamic phase over a previously dumped trace;");
    oprintln!("                       JSON or HBT auto-detected, `-` reads stdin");
    oprintln!("  serve                collector daemon on a Unix socket: ingest many HBT");
    oprintln!("                       streams concurrently, aggregate verdicts across runs");
    oprintln!("  submit  <trace.hbt>  send a recorded trace to a running daemon and print");
    oprintln!("                       its verdict; same exit codes as replay");
    oprintln!("  fmt     <file.hmp>   parse and reprint in canonical form");
    oprintln!("  help                 print this reference");
    oprintln!();
    oprintln!("check options:");
    oprintln!("  --procs N       MPI processes to simulate (default 2)");
    oprintln!("  --threads N     OpenMP threads per process (default 2)");
    oprintln!("  --seeds a,b,c   scheduler seeds to explore (default 1,2,3,4)");
    oprintln!("  --jobs N        worker threads for the seed fan-out;");
    oprintln!("                  1 = serial, default = available parallelism.");
    oprintln!("                  The report is identical for every value.");
    oprintln!("  --faithful      time-faithful scheduling instead of randomized");
    oprintln!("  --fail-seed a,b inject a deliberate failure into the listed seeds");
    oprintln!("                  (fault-isolation testing; the other seeds still run");
    oprintln!("                  and the partial report exits with code 3)");
    oprintln!("  --pct-depth D   schedule under PCT priorities with D change points");
    oprintln!("                  (reproduces `explore` pct findings; implies the");
    oprintln!("                  priority scheduler, incompatible with --faithful)");
    oprintln!("  --pins t:p,...  pin named scheduler threads to fixed priorities");
    oprintln!("                  (reproduces `explore` directed findings)");
    oprintln!();
    oprintln!("explore options:");
    oprintln!("  --budget N      total schedules to attempt (default 64); deduplicated");
    oprintln!("                  and failed schedules count against the budget");
    oprintln!("  --strategy S    pct | random | directed | all (default all):");
    oprintln!("                  pct = PCT priority schedules; random = seeded uniform");
    oprintln!("                  baseline; directed = random plus race-directed flips");
    oprintln!("                  of every suspect; all = pct plus directed flips");
    oprintln!("  --depth D       PCT priority-change points per schedule (default 3)");
    oprintln!("  --seed S        first base-schedule seed (default 1)");
    oprintln!("  --procs N / --threads N / --jobs N   as in check; the report is");
    oprintln!("                  byte-identical for every --jobs value");
    oprintln!();
    oprintln!("watch options:");
    oprintln!("  --procs N / --threads N / --seeds a,b,c / --faithful / --fail-seed a,b");
    oprintln!("                  as in check (seeds run serially so the live output");
    oprintln!("                  order is deterministic)");
    oprintln!("  --flush P       when to print: `every` (default) prints each violation");
    oprintln!("                  as it fires plus a per-seed summary line; `seed` prints");
    oprintln!("                  each seed's deduplicated findings when that seed ends;");
    oprintln!("                  `end` prints only the final report, like check");
    oprintln!();
    oprintln!("record options:");
    oprintln!("  -o trace.hbt    output path for the binary trace (required)");
    oprintln!("  --compress      write HBT v2: per-section LZ-compressed frames plus a");
    oprintln!("                  seek index, enabling parallel `replay --jobs N` decode");
    oprintln!("  --procs N / --threads N / --seeds a,b,c / --faithful   as in check");
    oprintln!();
    oprintln!("replay / analyze options:");
    oprintln!("  --jobs N        decode workers for seek-indexed (v2) traces;");
    oprintln!("                  default = available parallelism. The verdict is");
    oprintln!("                  identical for every value; v1 traces and stdin");
    oprintln!("                  pipes decode serially regardless");
    oprintln!("  --run SEED      (replay only) seek to the one recorded run with this");
    oprintln!("                  scheduler seed via the v2 index and replay only its");
    oprintln!("                  frames; a miss lists the seeds the trace does hold");
    oprintln!();
    oprintln!("run options:");
    oprintln!("  --procs N / --threads N   as above");
    oprintln!("  --seed S                  scheduler seed (default 7)");
    oprintln!("  --tool base|home|marmot|itc  instrumentation profile (default base)");
    oprintln!("  --trace-out trace.json    dump the recorded event trace as JSON");
    oprintln!();
    oprintln!("serve options:");
    oprintln!("  --socket path.sock  Unix socket to listen on (required)");
    oprintln!("  --max-sessions N    concurrent ingest sessions before new streams");
    oprintln!("                      block on the backpressure gate (default 64)");
    oprintln!("  --status            print a running daemon's JSON fleet report and exit");
    oprintln!("  --stop              shut a running daemon down and exit");
    oprintln!();
    oprintln!("submit options:");
    oprintln!("  --socket path.sock  the daemon's Unix socket (required)");
    oprintln!("  --json              print the daemon's raw JSON reply instead of text");
    oprintln!();
    oprintln!("exit codes: 0 clean, 1 violations or deadlock found, 2 usage or input error,");
    oprintln!("            3 partial results (one or more seeds failed; see the report)");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(
        args.first().map(String::as_str),
        Some("help") | Some("--help") | Some("-h")
    ) {
        print_help();
        return ExitCode::SUCCESS;
    }
    // `serve` takes no file argument; route it before the <cmd> <file>
    // extraction below.
    if args.first().map(String::as_str) == Some("serve") {
        return cmd_serve(&args);
    }
    let (cmd, file) = match (args.first(), args.get(1)) {
        (Some(c), Some(f)) if !f.starts_with("--") => (c.as_str(), f.as_str()),
        _ => {
            eprintln!("{USAGE}");
            eprintln!("run `home help` for details");
            return ExitCode::from(2);
        }
    };

    // Trace-consuming commands read raw bytes (HBT is binary and `-` means
    // stdin), so they branch off before the program-source path.
    if cmd == "analyze" {
        return cmd_analyze(file, &args);
    }
    if cmd == "replay" {
        return cmd_replay(file, &args);
    }
    if cmd == "submit" {
        return cmd_submit(file, &args);
    }

    let source = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("home: cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let program = match parse(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("home: {file}: {e}");
            return ExitCode::from(2);
        }
    };

    match cmd {
        "check" => cmd_check(&program, &args),
        "explore" => cmd_explore(&program, file, &args),
        "watch" => cmd_watch(&program, &args),
        "static" => cmd_static(&program, &args),
        "run" => cmd_run(&program, &args),
        "record" => cmd_record(&program, &args),
        "fmt" => {
            oprint!("{}", print_program(&program));
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("home: unknown command `{other}`");
            ExitCode::from(2)
        }
    }
}

/// A trace argument opened for reading. A file is read whole, so its HBT
/// records decode in place and its sections can fan out over `--jobs`;
/// `-` peeks only standard input's magic bytes, so an HBT pipe streams
/// through the reader's chunked buffer with bounded memory instead of
/// being buffered whole.
enum TraceInput {
    File(Vec<u8>),
    Stdin { prefix: Vec<u8> },
}

impl TraceInput {
    fn open(file: &str) -> Result<TraceInput, String> {
        if file == "-" {
            // Peek just enough of stdin to classify the format. A pipe
            // shorter than the magic is classified by what it has.
            let mut prefix = vec![0u8; home::stream::HBT_MAGIC.len()];
            let mut filled = 0;
            while filled < prefix.len() {
                match std::io::Read::read(&mut std::io::stdin().lock(), &mut prefix[filled..]) {
                    Ok(0) => break,
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(format!("cannot read stdin: {e}")),
                }
            }
            prefix.truncate(filled);
            Ok(TraceInput::Stdin { prefix })
        } else {
            std::fs::read(file)
                .map(TraceInput::File)
                .map_err(|e| format!("cannot read {file}: {e}"))
        }
    }

    fn is_hbt(&self) -> bool {
        match self {
            TraceInput::File(bytes) => home::stream::is_hbt(bytes),
            TraceInput::Stdin { prefix } => home::stream::is_hbt(prefix),
        }
    }

    /// Analyze the trace with the shared session-driven verdict path.
    /// Files go through [`home::serve::analyze_trace`]: sections
    /// fan out across `jobs` workers, each decoding one frame at a time.
    /// Stdin streams record-at-a-time through
    /// [`home::serve::analyze_stream`] — same verdict, `jobs` irrelevant
    /// because a pipe cannot seek. Memory is bounded either way.
    fn analyze_hbt(&self, jobs: usize) -> Result<home::serve::TraceOutcome, HomeError> {
        match self {
            TraceInput::File(bytes) => home::serve::analyze_trace(bytes, jobs),
            TraceInput::Stdin { prefix } => {
                let rest = std::io::stdin().lock();
                home::serve::analyze_stream(std::io::Read::chain(
                    std::io::Cursor::new(prefix.clone()),
                    rest,
                ))
            }
        }
    }

    /// The remaining input as one buffer (JSON traces and `submit`, which
    /// forwards raw bytes). Only here does stdin get slurped.
    fn read_all(&self) -> Result<std::borrow::Cow<'_, [u8]>, String> {
        match self {
            TraceInput::File(bytes) => Ok(std::borrow::Cow::Borrowed(bytes)),
            TraceInput::Stdin { prefix } => {
                let mut buf = prefix.clone();
                std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut buf)
                    .map_err(|e| format!("cannot read stdin: {e}"))?;
                Ok(std::borrow::Cow::Owned(buf))
            }
        }
    }
}

/// Parse `--jobs` for the trace-consuming commands (replay/analyze):
/// workers the trace's sections fan out over, default = available
/// parallelism. The verdict is identical for every value.
fn trace_jobs(args: &[String]) -> Result<usize, String> {
    let jobs = usize_flag(args, "--jobs", home::core::default_jobs())?;
    if jobs == 0 {
        return Err("invalid value `0` for --jobs: expected at least 1".into());
    }
    Ok(jobs)
}

/// Render a combined trace verdict (`replay`/`analyze` over HBT input)
/// and map it to the documented exit code.
fn print_outcome(label: &str, outcome: &home::serve::TraceOutcome) -> ExitCode {
    oprintln!(
        "{label}: {} run(s), {} events, {} monitored race(s), {} violation(s)",
        outcome.sections.len(),
        outcome.events,
        outcome.races,
        outcome.violations.len()
    );
    if outcome.unclassified > 0 {
        oprintln!(
            "warning: {} monitored race(s) lacked MPI call metadata and were not classified",
            outcome.unclassified
        );
    }
    for v in &outcome.violations {
        oprintln!("  - {v}");
    }
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Value of `name`, if the flag is present. A flag at the end of the
/// argument list with no value following it is an error, not a silent miss.
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.as_str())),
            None => Err(format!("missing value for {name}")),
        },
    }
}

/// Parse `name`'s value as an unsigned integer, defaulting when absent.
/// An unparseable value is an error (exit 2), never a silent default.
fn usize_flag(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match flag_value(args, name)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| {
            format!("invalid value `{v}` for {name}: expected a non-negative integer")
        }),
    }
}

/// Print a usage error and yield exit code 2.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("home: {message}");
    eprintln!("run `home help` for details");
    ExitCode::from(2)
}

/// Parse a comma-separated seed list (`--seeds` / `--fail-seed`).
fn parse_seed_list(value: &str, flag: &str) -> Result<Vec<u64>, String> {
    let mut seeds = Vec::new();
    for part in value.split(',') {
        let part = part.trim();
        seeds.push(part.parse::<u64>().map_err(|_| {
            format!("invalid seed `{part}` in {flag}: expected a comma-separated list of integers")
        })?);
    }
    if seeds.is_empty() {
        return Err(format!("{flag} needs a comma-separated list of integers"));
    }
    Ok(seeds)
}

/// Parse `--pins thread:priority,...` (the directed-reschedule pins an
/// `explore` token prints). Names are scheduler thread names (`rank0`,
/// `rank1.r4.t1`); priorities may be negative.
fn parse_pins(value: &str) -> Result<Vec<(String, i64)>, String> {
    let mut pins = Vec::new();
    for part in value.split(',') {
        let part = part.trim();
        let (name, prio) = match part.rsplit_once(':') {
            Some(split) => split,
            None => {
                return Err(format!(
                    "invalid pin `{part}` in --pins: expected thread:priority"
                ))
            }
        };
        if name.is_empty() {
            return Err(format!("invalid pin `{part}` in --pins: empty thread name"));
        }
        let prio: i64 = prio
            .parse()
            .map_err(|_| format!("invalid priority `{prio}` in --pins: expected an integer"))?;
        pins.push((name.to_string(), prio));
    }
    Ok(pins)
}

fn cmd_check(program: &Program, args: &[String]) -> ExitCode {
    let parsed = (|| -> Result<CheckOptions, String> {
        let mut options = CheckOptions::new(
            usize_flag(args, "--procs", 2)?,
            usize_flag(args, "--threads", 2)?,
        );
        if let Some(seeds) = flag_value(args, "--seeds")? {
            options.seeds = parse_seed_list(seeds, "--seeds")?;
        }
        let jobs = usize_flag(args, "--jobs", home::core::default_jobs())?;
        if jobs == 0 {
            return Err("invalid value `0` for --jobs: expected at least 1".into());
        }
        options = options.with_jobs(jobs);
        if args.iter().any(|a| a == "--faithful") {
            options.sched_policy = SchedPolicy::EarliestClockFirst;
        }
        // Priority-schedule reproduction flags (the tokens `explore`
        // prints): --pct-depth replays a PCT schedule, --pins a directed
        // flip. Either selects the priority scheduler outright.
        let pct_depth = match flag_value(args, "--pct-depth")? {
            None => None,
            Some(v) => Some(v.parse::<u8>().map_err(|_| {
                format!("invalid value `{v}` for --pct-depth: expected an integer in 0..=255")
            })?),
        };
        let pins = match flag_value(args, "--pins")? {
            None => Vec::new(),
            Some(v) => parse_pins(v)?,
        };
        if (pct_depth.is_some() || !pins.is_empty()) && args.iter().any(|a| a == "--faithful") {
            return Err(
                "--pct-depth/--pins select the priority scheduler and cannot combine with --faithful"
                    .into(),
            );
        }
        if let Some(depth) = pct_depth {
            options.sched_policy = SchedPolicy::Priority { depth };
        } else if !pins.is_empty() {
            options.sched_policy = SchedPolicy::Priority { depth: 0 };
        }
        options.priority_pins = pins;
        if let Some(fails) = flag_value(args, "--fail-seed")? {
            options.inject_panic_seeds = parse_seed_list(fails, "--fail-seed")?;
        }
        Ok(options)
    })();
    let options = match parsed {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let report = check(program, &options);
    oprint!("{}", report.render());
    // Exit-code precedence: usage errors returned 2 above; partial results
    // (a failed seed) trump a violation verdict because the verdict is
    // incomplete; then 1 for findings, 0 for a clean full run.
    if report.partial {
        ExitCode::from(3)
    } else if report.violations.is_empty() && report.deadlocks.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_explore(program: &Program, file: &str, args: &[String]) -> ExitCode {
    let parsed = (|| -> Result<ExploreOptions, String> {
        let defaults = ExploreOptions::default();
        let budget = usize_flag(args, "--budget", defaults.budget)?;
        if budget == 0 {
            return Err("invalid value `0` for --budget: expected at least 1".into());
        }
        let strategy = match flag_value(args, "--strategy")? {
            None => defaults.strategy,
            Some(s) => Strategy::parse(s).ok_or_else(|| {
                format!("unknown strategy `{s}`: expected `pct`, `random`, `directed`, or `all`")
            })?,
        };
        let depth = usize_flag(args, "--depth", defaults.depth as usize)?;
        let depth = u8::try_from(depth)
            .map_err(|_| format!("invalid value `{depth}` for --depth: expected 0..=255"))?;
        let jobs = usize_flag(args, "--jobs", home::core::default_jobs())?;
        if jobs == 0 {
            return Err("invalid value `0` for --jobs: expected at least 1".into());
        }
        let base_seed = match flag_value(args, "--seed")? {
            None => defaults.base_seed,
            Some(v) => v.parse().map_err(|_| {
                format!("invalid value `{v}` for --seed: expected an unsigned integer")
            })?,
        };
        Ok(ExploreOptions {
            nprocs: usize_flag(args, "--procs", defaults.nprocs)?,
            threads_per_proc: usize_flag(args, "--threads", defaults.threads_per_proc)?,
            budget,
            strategy,
            depth,
            jobs,
            base_seed,
            detector: defaults.detector,
        })
    })();
    let options = match parsed {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let report = home::explore::explore(program, &options);
    oprint!("{}", report.render(file));
    // Same exit-code precedence as `check`: partial trumps findings.
    if report.partial {
        ExitCode::from(3)
    } else if report.found_anything() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// When `watch` prints (the `--flush` policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushPolicy {
    /// Print each violation the moment it fires, plus a per-seed summary.
    Every,
    /// Print each seed's deduplicated findings when that seed finishes.
    Seed,
    /// Print only the final report, like `check`.
    End,
}

/// Live renderer behind `home watch`: a [`ViolationSink`] printing each
/// emission with seed/rank/thread provenance. `watch` forces `--jobs 1`,
/// so seeds run serially and the output order is deterministic.
struct WatchRenderer {
    policy: FlushPolicy,
}

impl ViolationSink for WatchRenderer {
    fn violation(&self, v: &EmittedViolation) {
        if self.policy == FlushPolicy::Every {
            // oprintln! flushes and latches EPIPE; a closed pipe can
            // neither panic the run nor silently drop the verdict.
            oprintln!("{v}");
        }
    }

    fn seed_finished(
        &self,
        seed: u64,
        status: &home::core::SeedStatus,
        violations: &[home::core::Violation],
    ) {
        if self.policy == FlushPolicy::End {
            return;
        }
        if self.policy == FlushPolicy::Seed {
            for v in violations {
                oprintln!("[seed {seed}] {v}");
            }
        }
        match status {
            home::core::SeedStatus::Ok {
                events,
                races,
                violations,
            } => oprintln!(
                "watch: seed {seed} finished ({events} events, {races} race(s), {violations} violation(s))"
            ),
            home::core::SeedStatus::Failed { error } => {
                oprintln!("watch: seed {seed} FAILED: {error}")
            }
        }
    }
}

fn cmd_watch(program: &Program, args: &[String]) -> ExitCode {
    let parsed = (|| -> Result<(CheckOptions, FlushPolicy), String> {
        let mut options = CheckOptions::new(
            usize_flag(args, "--procs", 2)?,
            usize_flag(args, "--threads", 2)?,
        );
        if let Some(seeds) = flag_value(args, "--seeds")? {
            options.seeds = parse_seed_list(seeds, "--seeds")?;
        }
        if args.iter().any(|a| a == "--faithful") {
            options.sched_policy = SchedPolicy::EarliestClockFirst;
        }
        if let Some(fails) = flag_value(args, "--fail-seed")? {
            options.inject_panic_seeds = parse_seed_list(fails, "--fail-seed")?;
        }
        // Seeds run serially so emissions arrive in seed order. A `--jobs`
        // request other than 1 is rejected loudly instead of silently
        // overridden: the user asked for parallelism watch cannot deliver.
        match usize_flag(args, "--jobs", 1)? {
            1 => {}
            n => {
                return Err(format!(
                    "watch runs seeds serially so live output is deterministic; \
                     --jobs {n} is not supported (use `check --jobs {n}` for a \
                     parallel batch verdict)"
                ))
            }
        }
        options = options.with_jobs(1);
        let policy = match flag_value(args, "--flush")? {
            None | Some("every") => FlushPolicy::Every,
            Some("seed") => FlushPolicy::Seed,
            Some("end") => FlushPolicy::End,
            Some(other) => {
                return Err(format!(
                    "unknown flush policy `{other}`: expected `every`, `seed`, or `end`"
                ))
            }
        };
        Ok((options, policy))
    })();
    let (options, policy) = match parsed {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let report = check_with_sink(
        program,
        &options,
        std::sync::Arc::new(WatchRenderer { policy }),
    );
    if policy == FlushPolicy::End {
        oprint!("{}", report.render());
    } else {
        oprintln!(
            "watch: done — {} violation(s), {} deadlock(s) across {} seed(s){}",
            report.violations.len(),
            report.deadlocks.len(),
            options.seeds.len(),
            if report.partial {
                " (PARTIAL: one or more seeds failed)"
            } else {
                ""
            }
        );
    }
    // Same exit-code precedence as `check`: partial trumps findings.
    if report.partial {
        ExitCode::from(3)
    } else if report.violations.is_empty() && report.deadlocks.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_static(program: &Program, args: &[String]) -> ExitCode {
    let report = analyze(program);
    if args.iter().any(|a| a == "--json") {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => oprintln!("{json}"),
            Err(e) => {
                eprintln!("home: cannot encode static report: {e}");
                return ExitCode::from(2);
            }
        }
        return if report.candidates.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    oprintln!(
        "{} MPI call sites, {} instrumented, {} skipped, {} unreachable",
        report.stats.total_mpi_calls,
        report.stats.instrumented,
        report.stats.skipped,
        report.stats.unreachable
    );
    oprintln!(
        "{} parallel region(s), {} error-free",
        report.stats.regions,
        report.stats.error_free_regions
    );
    for site in &report.checklist.sites {
        let marks = [
            site.instrument.then_some("instrument"),
            site.in_hybrid_region.then_some("hybrid"),
            (!site.reachable).then_some("unreachable"),
            (site.tag_thread_distinct == Some(true)).then_some("tag=f(tid)"),
            site.is_collective.then_some("collective"),
        ]
        .into_iter()
        .flatten()
        .collect::<Vec<_>>()
        .join(", ");
        oprintln!("  line {:>3}  {:<16} [{marks}]", site.line, site.name);
    }
    if !report.checklist.monitored_vars.is_empty() {
        oprintln!(
            "monitored variables: {}",
            report.checklist.monitored_vars.join(", ")
        );
    }
    if let Some(note) = report.stats.note {
        oprintln!("note: {note:?}");
    }
    if report.candidates.is_empty() {
        ExitCode::SUCCESS
    } else {
        oprintln!("{} static candidate(s):", report.candidates.len());
        for c in &report.candidates {
            oprintln!(
                "  line {:>3}  {}: {}",
                c.line,
                c.kind.label(),
                c.description
            );
            if let Some(hint) = &c.violation_hint {
                oprintln!("            would report {hint} if reproduced");
            }
        }
        ExitCode::FAILURE
    }
}

/// One line naming the input and, when the parser knows it, the byte offset
/// of the problem — greppable and stable for scripting.
fn print_trace_error(file: &str, e: &HomeError) {
    match e.byte_offset() {
        Some(off) => eprintln!("home: {file}: byte {off}: {e}"),
        None => eprintln!("home: {file}: {e}"),
    }
}

fn cmd_replay(file: &str, args: &[String]) -> ExitCode {
    let jobs = match trace_jobs(args) {
        Ok(j) => j,
        Err(e) => return usage_error(&e),
    };
    let run_seed = match flag_value(args, "--run") {
        Ok(None) => None,
        Ok(Some(v)) => match v.parse::<u64>() {
            Ok(s) => Some(s),
            Err(_) => {
                return usage_error(&format!(
                    "invalid value `{v}` for --run: expected a scheduler seed (unsigned integer)"
                ))
            }
        },
        Err(e) => return usage_error(&e),
    };
    let input = match TraceInput::open(file) {
        Ok(input) => input,
        Err(e) => {
            eprintln!("home: {e}");
            return ExitCode::from(2);
        }
    };
    if !input.is_hbt() {
        eprintln!("home: {file}: not an HBT trace (bad magic); produce one with `home record`");
        return ExitCode::from(2);
    }
    // --run SEED: seek straight to one recorded section via the v2 index
    // and inflate only its frames. Needs a file — a pipe cannot seek.
    if let Some(seed) = run_seed {
        let bytes = match &input {
            TraceInput::File(bytes) => bytes,
            TraceInput::Stdin { .. } => {
                return usage_error(
                    "--run needs a seekable trace file; a stdin pipe cannot seek \
                     (save the trace to a file and replay that)",
                )
            }
        };
        return match home::serve::analyze_trace_run(bytes, seed, jobs) {
            Ok(o) => print_outcome(&format!("replay (run {seed})"), &o),
            Err(e) => {
                print_trace_error(file, &e);
                ExitCode::from(2)
            }
        };
    }
    // Session-driven detection shared with `analyze` and the serve daemon:
    // verdict-identical to check for every `--jobs` value.
    let outcome = match input.analyze_hbt(jobs) {
        Ok(o) => o,
        Err(e) => {
            print_trace_error(file, &e);
            return ExitCode::from(2);
        }
    };
    print_outcome("replay", &outcome)
}

fn cmd_analyze(file: &str, args: &[String]) -> ExitCode {
    let jobs = match trace_jobs(args) {
        Ok(j) => j,
        Err(e) => return usage_error(&e),
    };
    let input = match TraceInput::open(file) {
        Ok(input) => input,
        Err(e) => {
            eprintln!("home: {e}");
            return ExitCode::from(2);
        }
    };
    // Format auto-detection: HBT traces start with the 0x89 "HBT" magic,
    // which can never open a JSON document.
    if input.is_hbt() {
        let outcome = match input.analyze_hbt(jobs) {
            Ok(o) => o,
            Err(e) => {
                print_trace_error(file, &e);
                return ExitCode::from(2);
            }
        };
        return print_outcome("offline analysis", &outcome);
    }
    // JSON traces are documents, not streams: buffer and parse whole.
    let bytes = match input.read_all() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("home: {e}");
            return ExitCode::from(2);
        }
    };
    let trace_json = match std::str::from_utf8(&bytes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("home: {file}: not valid UTF-8 JSON (and not HBT): {e}");
            return ExitCode::from(2);
        }
    };
    let trace = match home::trace::Trace::from_json(trace_json) {
        Ok(t) => t,
        Err(e) => {
            print_trace_error(file, &e);
            return ExitCode::from(2);
        }
    };
    // Structurally inconsistent traces (parseable JSON, impossible events)
    // surface as typed detector errors, same diagnostic shape as above.
    let outcome = match home::core::analyze_run(0, &DetectorConfig::hybrid(), &trace, &[]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("home: {file}: {e}");
            return ExitCode::from(2);
        }
    };
    oprintln!(
        "offline analysis: {} events, {} monitored race(s), {} violation(s)",
        trace.len(),
        outcome.races.len(),
        outcome.violations.len()
    );
    if !outcome.unclassified.is_empty() {
        oprintln!(
            "warning: {} monitored race(s) lacked MPI call metadata and were not classified",
            outcome.unclassified.len()
        );
    }
    for v in &outcome.violations {
        oprintln!("  - {v}");
    }
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let parsed = (|| -> Result<(std::path::PathBuf, usize), String> {
        let socket = flag_value(args, "--socket")?
            .ok_or_else(|| "serve needs a socket path: --socket path.sock".to_string())?
            .into();
        let max = usize_flag(args, "--max-sessions", 64)?;
        if max == 0 {
            return Err("invalid value `0` for --max-sessions: expected at least 1".into());
        }
        Ok((socket, max))
    })();
    let (socket, max_sessions) = match parsed {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if args.iter().any(|a| a == "--status") {
        return match home::serve::status(&socket) {
            Ok(reply) => {
                oprintln!("{}", reply.raw);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("home: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.iter().any(|a| a == "--stop") {
        return match home::serve::stop(&socket) {
            Ok(_) => {
                oprintln!("serve: daemon at {} stopping", socket.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("home: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut config = home::serve::ServeConfig::new(&socket);
    config.max_sessions = max_sessions;
    let server = match home::serve::Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("home: cannot bind {}: {e}", socket.display());
            return ExitCode::from(2);
        }
    };
    oprintln!(
        "serve: listening on {} (max {max_sessions} concurrent sessions)",
        socket.display()
    );
    match server.run() {
        Ok(()) => {
            oprintln!("serve: stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("home: serve failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_submit(file: &str, args: &[String]) -> ExitCode {
    let socket: std::path::PathBuf = match flag_value(args, "--socket") {
        Ok(Some(s)) => s.into(),
        Ok(None) => return usage_error("submit needs the daemon socket: --socket path.sock"),
        Err(e) => return usage_error(&e),
    };
    let input = match TraceInput::open(file) {
        Ok(input) => input,
        Err(e) => {
            eprintln!("home: {e}");
            return ExitCode::from(2);
        }
    };
    if !input.is_hbt() {
        eprintln!("home: {file}: not an HBT trace (bad magic); produce one with `home record`");
        return ExitCode::from(2);
    }
    // `submit` forwards the raw bytes over the socket, so stdin is the one
    // place it still buffers.
    let bytes = match input.read_all() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("home: {e}");
            return ExitCode::from(2);
        }
    };
    match home::serve::submit(&socket, &bytes) {
        Ok(reply) if reply.ok => {
            if args.iter().any(|a| a == "--json") {
                oprintln!("{}", reply.raw);
            } else {
                oprintln!(
                    "submit: {} run(s), {} violation(s)",
                    reply.runs,
                    reply.violations.len()
                );
                for v in &reply.violations {
                    oprintln!("  - {v}");
                }
            }
            if reply.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(reply) => {
            eprintln!(
                "home: {file}: daemon rejected the trace: {}",
                reply.error.as_deref().unwrap_or("unknown error")
            );
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("home: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_run(program: &Program, args: &[String]) -> ExitCode {
    let parsed = (|| -> Result<(usize, usize, usize, Tool), String> {
        let nprocs = usize_flag(args, "--procs", 2)?;
        let threads = usize_flag(args, "--threads", 2)?;
        let seed = usize_flag(args, "--seed", 7)?;
        let tool = match flag_value(args, "--tool")?.unwrap_or("base") {
            "base" => Tool::Base,
            "home" => Tool::Home,
            "marmot" => Tool::Marmot,
            "itc" => Tool::Itc,
            other => return Err(format!("unknown tool `{other}`")),
        };
        Ok((nprocs, threads, seed, tool))
    })();
    let (nprocs, threads, seed, tool) = match parsed {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let checklist = std::sync::Arc::new(analyze(program).checklist.clone());
    let mut cfg = RunConfig::cluster(nprocs, seed as u64)
        .with_instrumentation(tool.instrumentation_scaled(nprocs))
        .with_checklist(checklist);
    cfg.threads_per_proc = threads;
    let result = run(program, &cfg);
    oprintln!(
        "tool={} procs={nprocs} threads={} simulated time {}  events {}",
        result.tool,
        cfg.threads_per_proc,
        result.makespan,
        result.events_recorded
    );
    for i in &result.mpi_errors {
        oprintln!(
            "incident: rank {} line {} {}: {}",
            i.rank,
            i.line,
            i.call,
            i.error
        );
    }
    for (r, e) in &result.runtime_errors {
        oprintln!("runtime error: rank {r}: {e}");
    }
    match flag_value(args, "--trace-out") {
        Ok(Some(path)) => match std::fs::write(path, result.trace.to_json()) {
            Ok(()) => oprintln!("trace written to {path}"),
            Err(e) => {
                eprintln!("home: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        },
        Ok(None) => {}
        Err(e) => return usage_error(&e),
    }
    match &result.deadlock {
        Some(d) => {
            oprintln!("DEADLOCK: {d}");
            ExitCode::FAILURE
        }
        None => ExitCode::SUCCESS,
    }
}

/// Trace sink that streams every recorded event straight into an HBT writer.
/// I/O failures are stashed (the sink trait cannot propagate errors) and
/// surfaced once at the end; after the first failure the sink goes quiet.
/// The writer is an `Option` so that `cmd_record` can take it out to finish
/// it: the tasks of a deadlocked seed stay parked sharing the sink.
struct RecordSink<W: std::io::Write> {
    writer: Option<home::stream::HbtWriter<W>>,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> RecordSink<W> {
    fn with_writer(
        &mut self,
        f: impl FnOnce(&mut home::stream::HbtWriter<W>) -> std::io::Result<()>,
    ) {
        if let (None, Some(w)) = (&self.error, &mut self.writer) {
            self.error = f(w).err();
        }
    }
}

impl<W: std::io::Write> home::trace::TraceSink for RecordSink<W> {
    fn record(&mut self, event: home::trace::Event) {
        self.with_writer(|w| w.write_event(&event));
    }
}

/// Parsed `record` flags.
struct RecordArgs {
    out: String,
    procs: usize,
    threads: usize,
    seeds: Vec<u64>,
    policy: SchedPolicy,
    compress: bool,
}

fn cmd_record(program: &Program, args: &[String]) -> ExitCode {
    let parsed = (|| -> Result<RecordArgs, String> {
        let out = flag_value(args, "-o")?
            .ok_or_else(|| "record needs an output path: -o trace.hbt".to_string())?
            .to_string();
        let procs = usize_flag(args, "--procs", 2)?;
        let threads = usize_flag(args, "--threads", 2)?;
        let seeds = match flag_value(args, "--seeds")? {
            Some(s) => parse_seed_list(s, "--seeds")?,
            None => vec![1, 2, 3, 4],
        };
        let policy = if args.iter().any(|a| a == "--faithful") {
            SchedPolicy::EarliestClockFirst
        } else {
            SchedPolicy::Random
        };
        let compress = args.iter().any(|a| a == "--compress");
        Ok(RecordArgs {
            out,
            procs,
            threads,
            seeds,
            policy,
            compress,
        })
    })();
    let RecordArgs {
        out,
        procs,
        threads,
        seeds,
        policy,
        compress,
    } = match parsed {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };

    let file = match std::fs::File::create(&out) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("home: cannot create {out}: {e}");
            return ExitCode::from(2);
        }
    };
    // --compress writes HBT v2: per-section LZ frames plus a seek index,
    // so `replay --jobs N` can decode sections in parallel.
    let buffered = std::io::BufWriter::new(file);
    let writer = if compress {
        home::stream::HbtWriter::new_compressed(buffered)
    } else {
        home::stream::HbtWriter::new(buffered)
    };
    let writer = match writer {
        Ok(w) => w,
        Err(e) => {
            eprintln!("home: cannot write {out}: {e}");
            return ExitCode::from(2);
        }
    };
    let sink = Rc::new(RefCell::new(RecordSink {
        writer: Some(writer),
        error: None,
    }));

    // Same pipeline setup as `check`, so a recorded trace replays to the
    // same verdicts: HOME instrumentation, static checklist, test topology.
    let checklist = std::sync::Arc::new(analyze(program).checklist.clone());
    let mut total_events = 0u64;
    let mut total_incidents = 0usize;
    for &seed in &seeds {
        sink.borrow_mut().with_writer(|w| w.begin_run(seed));
        let mut cfg = RunConfig::test(procs, seed)
            .with_instrumentation(Instrumentation::home())
            .with_checklist(std::sync::Arc::clone(&checklist));
        cfg.threads_per_proc = threads;
        cfg.sched.policy = policy;
        let result = run_with_sink(program, &cfg, sink.clone());
        total_events += result.events_recorded;
        total_incidents += result.mpi_errors.len();
        for i in &result.mpi_errors {
            let incident = home::stream::TraceIncident {
                rank: i.rank,
                line: i.line,
                call: i.call.clone(),
                error: i.error.clone(),
            };
            sink.borrow_mut()
                .with_writer(|w| w.write_incident(&incident));
        }
        if let Some(d) = &result.deadlock {
            eprintln!(
                "warning: seed {seed} deadlocked ({d}); replay cannot reproduce the deadlock verdict"
            );
        }
    }

    let mut sink = sink.borrow_mut();
    let finish_result = match sink.writer.take() {
        Some(w) => w.finish().map(|_| ()),
        None => Ok(()),
    };
    if let Some(e) = sink.error.take().or(finish_result.err()) {
        eprintln!("home: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    oprintln!(
        "recorded {} run(s), {total_events} events, {total_incidents} incident(s) to {out}",
        seeds.len()
    );
    ExitCode::SUCCESS
}
