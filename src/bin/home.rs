//! `home` — the command-line front end of the checker.
//!
//! `home help` prints every command with its argument and its flags. That
//! text, the usage line and every usage error come from one table,
//! [`COMMANDS`]: an invocation is parsed once against its command's row,
//! and a flag the command does not take, a repeated flag or a stray
//! argument is an error, never ignored.

// The CLI never panics on user input: every failure is a diagnostic plus a
// documented exit code (0 clean, 1 findings, 2 usage/input, 3 partial).
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use home::interp::ThreadName;
use home::npb::Tool;
use home::prelude::*;
use home::trace::json::Json;
use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;
use std::str::FromStr;
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

/// One flag: its spelling, the name of its value (`None` for a switch) and
/// its line in `home help`.
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
}

const PROCS: Flag = Flag {
    name: "--procs",
    value: Some("N"),
    help: "MPI processes to simulate (default 2)",
};
const THREADS: Flag = Flag {
    name: "--threads",
    value: Some("N"),
    help: "OpenMP threads per process (default 2)",
};
const SEEDS: Flag = Flag {
    name: "--seeds",
    value: Some("a,b,c"),
    help: "scheduler seeds, one run each (default 1,2,3,4)",
};
const JOBS: Flag = Flag {
    name: "--jobs",
    value: Some("N"),
    help: "worker threads (default: available parallelism; watch takes only 1); \
           the output is identical for every value",
};
const FAITHFUL: Flag = Flag {
    name: "--faithful",
    value: None,
    help: "time-faithful scheduling instead of randomized",
};
const FAIL_SEED: Flag = Flag {
    name: "--fail-seed",
    value: Some("a,b"),
    help: "inject a failure into the listed seeds; the others still run and the partial \
           report exits 3",
};
const PCT_DEPTH: Flag = Flag {
    name: "--pct-depth",
    value: Some("D"),
    help: "PCT priority schedule with D change points (reproduces an `explore` token)",
};
const PINS: Flag = Flag {
    name: "--pins",
    value: Some("t:p,..."),
    help: "pin scheduler threads to fixed priorities (reproduces an `explore` token)",
};
const BUDGET: Flag = Flag {
    name: "--budget",
    value: Some("N"),
    help: "schedules to attempt, duplicates and failures included (default 64)",
};
const STRATEGY: Flag = Flag {
    name: "--strategy",
    value: Some("S"),
    help: "pct, random, directed or all = pct plus race-directed flips (default all)",
};
const DEPTH: Flag = Flag {
    name: "--depth",
    value: Some("D"),
    help: "PCT priority-change points per schedule (default 3)",
};
const SEED: Flag = Flag {
    name: "--seed",
    value: Some("S"),
    help: "scheduler seed of `run` (default 7); first base seed of `explore` (default 1)",
};
const FLUSH: Flag = Flag {
    name: "--flush",
    value: Some("P"),
    help: "every = each violation as it fires (default), seed = at each seed's end, \
           end = only the final report",
};
const JSON: Flag = Flag {
    name: "--json",
    value: None,
    help: "print JSON instead of text",
};
const TOOL: Flag = Flag {
    name: "--tool",
    value: Some("T"),
    help: "instrumentation profile: base, home, marmot or itc (default base)",
};
const OUT: Flag = Flag {
    name: "-o",
    value: Some("trace.hbt"),
    help: "output path for the binary trace (required)",
};
const COMPRESS: Flag = Flag {
    name: "--compress",
    value: None,
    help: "accepted and ignored: `record` always writes HBT v2",
};
const RUN: Flag = Flag {
    name: "--run",
    value: Some("SEED"),
    help: "replay only the recorded run with this seed",
};
const SOCKET: Flag = Flag {
    name: "--socket",
    value: Some("path.sock"),
    help: "the daemon's Unix socket (required)",
};
const MAX_SESSIONS: Flag = Flag {
    name: "--max-sessions",
    value: Some("N"),
    help: "concurrent ingest sessions before new streams wait (default 64)",
};
const STATUS: Flag = Flag {
    name: "--status",
    value: None,
    help: "print a running daemon's JSON fleet report and exit",
};
const STOP: Flag = Flag {
    name: "--stop",
    value: None,
    help: "shut a running daemon down and exit",
};

/// One command: its name, its positional argument, its line in `home
/// help`, the flags it takes, and what runs it.
struct Command {
    name: &'static str,
    arg: Option<&'static str>,
    summary: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Outcome,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "check",
        arg: Some("<file.hmp>"),
        summary: "full pipeline: static analysis, multi-seed simulation, race detection, \
                  violation matching; exit 1 on findings",
        flags: &[
            PROCS, THREADS, SEEDS, JOBS, FAITHFUL, FAIL_SEED, PCT_DEPTH, PINS,
        ],
        run: cmd_check,
    },
    Command {
        name: "explore",
        arg: Some("<file.hmp>"),
        summary: "guided schedule search (PCT priorities, race-directed flips, fingerprint \
                  dedup); each finding prints the `check` line that reproduces it",
        flags: &[BUDGET, STRATEGY, DEPTH, SEED, PROCS, THREADS, JOBS],
        run: cmd_explore,
    },
    Command {
        name: "watch",
        arg: Some("<file.hmp>"),
        summary: "check that prints each violation the moment its evidence is complete; \
                  same exit codes",
        flags: &[PROCS, THREADS, SEEDS, JOBS, FAITHFUL, FAIL_SEED, FLUSH],
        run: cmd_watch,
    },
    Command {
        name: "serve",
        arg: None,
        summary: "collector daemon on a Unix socket: ingest many HBT streams at once and \
                  aggregate verdicts across runs",
        flags: &[SOCKET, MAX_SESSIONS, STATUS, STOP],
        run: cmd_serve,
    },
    Command {
        name: "static",
        arg: Some("<file.hmp>"),
        summary: "compile-time phase only: per-site instrumentation, monitored variables \
                  and static candidates; exit 1 on candidates",
        flags: &[JSON],
        run: cmd_static,
    },
    Command {
        name: "run",
        arg: Some("<file.hmp>"),
        summary: "one simulated execution; report timing and events",
        flags: &[PROCS, THREADS, SEED, TOOL],
        run: cmd_run,
    },
    Command {
        name: "record",
        arg: Some("<file.hmp>"),
        summary: "run the check seeds and stream every event into a binary HBT trace",
        flags: &[OUT, PROCS, THREADS, SEEDS, FAITHFUL, COMPRESS],
        run: cmd_record,
    },
    Command {
        name: "replay",
        arg: Some("<trace.hbt|->"),
        summary: "offline detection over a recorded trace (`-` reads stdin); same verdicts \
                  and exit codes as `check`, deadlocks excepted",
        flags: &[JOBS, RUN],
        run: cmd_replay,
    },
    Command {
        name: "submit",
        arg: Some("<trace.hbt|->"),
        summary: "send a recorded trace to a running daemon and print its verdict; same \
                  exit codes as `replay`",
        flags: &[SOCKET, JSON],
        run: cmd_submit,
    },
    Command {
        name: "fmt",
        arg: Some("<file.hmp>"),
        summary: "parse and reprint in canonical form",
        flags: &[],
        run: cmd_fmt,
    },
    Command {
        name: "help",
        arg: None,
        summary: "print this reference",
        flags: &[],
        run: cmd_help,
    },
];

/// What a command ends in: its exit code, or the complete stderr text of a
/// failure that exits 2.
type Outcome = Result<ExitCode, String>;

/// The stderr text of a usage error.
fn usage(message: &str) -> String {
    format!("home: {message}\nrun `home help` for details\n")
}

/// The stderr text of an input error (unreadable or malformed input).
fn input_error(message: impl std::fmt::Display) -> String {
    format!("home: {message}\n")
}

fn usage_line() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    format!("usage: home <{}> [<file>] [options]", names.join("|"))
}

/// One parsed invocation: its command, its positional argument and every
/// flag given, with its value.
struct Args {
    command: &'static Command,
    file: Option<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

/// Parse `argv` against [`COMMANDS`]. A flag's value is the next argument
/// unless that one is a `--` flag itself.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let bare_usage = || format!("{}\nrun `home help` for details\n", usage_line());
    let name = match argv.first().map(String::as_str) {
        None => return Err(bare_usage()),
        Some("--help" | "-h") => "help",
        Some(name) => name,
    };
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        return Err(input_error(if name == "analyze" {
            "unknown command `analyze`: offline analysis of a recorded trace is `home replay`"
                .to_string()
        } else {
            format!("unknown command `{name}`")
        }));
    };
    let mut args = Args {
        command,
        file: None,
        flags: Vec::new(),
    };
    let mut rest = argv[1..].iter();
    while let Some(arg) = rest.next() {
        if arg.len() > 1 && arg.starts_with('-') {
            let Some(flag) = command.flags.iter().find(|f| f.name == arg) else {
                return Err(usage(&format!("{name} does not take {arg}")));
            };
            if args.flags.iter().any(|(given, _)| *given == flag.name) {
                return Err(usage(&format!("{arg} is given more than once")));
            }
            let value = match flag.value.map(|_| rest.next()) {
                None => None,
                Some(Some(value)) if !value.starts_with("--") => Some(value.clone()),
                // A flag that ends the line or is followed by another flag.
                Some(_) => return Err(usage(&format!("missing value for {arg}"))),
            };
            args.flags.push((flag.name, value));
        } else if command.arg.is_some() && args.file.is_none() {
            args.file = Some(arg.clone());
        } else {
            return Err(usage(&format!("unexpected argument `{arg}`")));
        }
    }
    if command.arg.is_some() && args.file.is_none() {
        return Err(bare_usage());
    }
    Ok(args)
}

impl Args {
    /// The positional argument (present whenever the command takes one).
    fn file(&self) -> &str {
        self.file.as_deref().unwrap_or_default()
    }

    fn has(&self, flag: &Flag) -> bool {
        self.flags.iter().any(|(given, _)| *given == flag.name)
    }

    fn value(&self, flag: &Flag) -> Option<&str> {
        self.flags
            .iter()
            .find(|(given, _)| *given == flag.name)
            .and_then(|(_, value)| value.as_deref())
    }

    /// The value of a required flag; its absence names what is missing.
    fn required(&self, flag: &Flag, what: &str) -> Result<&str, String> {
        self.value(flag).ok_or_else(|| {
            usage(&format!(
                "{} needs {what}: {} {}",
                self.command.name,
                flag.name,
                flag.value.unwrap_or_default()
            ))
        })
    }

    /// The value parsed as a `T`; `expected` names what a good value is.
    fn parse<T: FromStr>(&self, flag: &Flag, expected: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse().map_err(|_| {
                    usage(&format!(
                        "invalid value `{v}` for {}: expected {expected}",
                        flag.name
                    ))
                })
            })
            .transpose()
    }

    /// A count: an integer of at least 1, `default` when absent.
    fn count(&self, flag: &Flag, default: usize) -> Result<usize, String> {
        self.count_or_else(flag, || default)
    }

    /// [`Args::count`] whose default is worked out only when the flag is
    /// absent (`--jobs`: the machine's parallelism is a probe).
    fn count_or_else(&self, flag: &Flag, default: impl FnOnce() -> usize) -> Result<usize, String> {
        match self.parse(flag, "a non-negative integer")? {
            Some(0) => Err(usage(&format!(
                "invalid value `0` for {}: expected at least 1",
                flag.name
            ))),
            n => Ok(n.unwrap_or_else(default)),
        }
    }

    /// A comma-separated list of seeds.
    fn seeds(&self, flag: &Flag) -> Result<Option<Vec<u64>>, String> {
        self.value(flag)
            .map(|list| {
                list.split(',')
                    .map(|part| {
                        let part = part.trim();
                        part.parse().map_err(|_| {
                            usage(&format!(
                                "invalid seed `{part}` in {}: expected a comma-separated list \
                                 of integers",
                                flag.name
                            ))
                        })
                    })
                    .collect()
            })
            .transpose()
    }

    /// The value looked up in `choices`; `Err` holds a value that is none
    /// of them.
    fn choice<T: Copy>(&self, flag: &Flag, choices: &[(&str, T)]) -> Result<Option<T>, &str> {
        self.value(flag)
            .map(|v| {
                choices
                    .iter()
                    .find(|(name, _)| *name == v)
                    .map(|&(_, choice)| choice)
                    .ok_or(v)
            })
            .transpose()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| (args.command.run)(&args)) {
        Ok(code) => code,
        Err(stderr) => {
            eprint!("{stderr}");
            ExitCode::from(2)
        }
    }
}

fn cmd_help(_: &Args) -> Outcome {
    oprintln!("home — detect thread-safety violations in hybrid OpenMP/MPI programs");
    oprintln!();
    oprintln!("{}", usage_line());
    for command in COMMANDS {
        oprintln!();
        match command.arg {
            Some(arg) => oprintln!("home {} {arg}", command.name),
            None => oprintln!("home {}", command.name),
        }
        oprintln!("    {}", command.summary);
        for flag in command.flags {
            let spelled = match flag.value {
                Some(value) => format!("{} {value}", flag.name),
                None => flag.name.to_string(),
            };
            oprintln!("    {spelled:<18}  {}", flag.help);
        }
    }
    oprintln!();
    oprintln!("exit codes: 0 clean, 1 violations or deadlock found, 2 usage or input error,");
    oprintln!("            3 partial results (one or more seeds failed; see the report)");
    Ok(ExitCode::SUCCESS)
}

/// The exit code of a verdict. A partial verdict (some seed failed) is
/// incomplete, so it exits 3 whatever it found; then 1 for findings, 0 for
/// a clean full run.
fn verdict(partial: bool, found: bool) -> ExitCode {
    if partial {
        ExitCode::from(3)
    } else if found {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The program named by the positional argument, read and parsed.
fn program(args: &Args) -> Result<Program, String> {
    let file = args.file();
    let source = std::fs::read_to_string(file)
        .map_err(|e| input_error(format!("cannot read {file}: {e}")))?;
    parse(&source).map_err(|e| input_error(format!("{file}: {e}")))
}

/// The options `check`, `watch` and `record` share: the shape of the run,
/// its seeds, its scheduler and the seeds to fail on purpose.
fn check_options(args: &Args) -> Result<CheckOptions, String> {
    let mut options = CheckOptions::new(args.count(&PROCS, 2)?, args.count(&THREADS, 2)?);
    if let Some(seeds) = args.seeds(&SEEDS)? {
        options.seeds = seeds;
    }
    if args.has(&FAITHFUL) {
        options.sched_policy = SchedPolicy::EarliestClockFirst;
    }
    if let Some(fails) = args.seeds(&FAIL_SEED)? {
        options.inject_panic_seeds = fails;
    }
    Ok(options)
}

/// Parse `--pins thread:priority,...` (the directed-reschedule pins an
/// `explore` token prints). Names are scheduler thread names (`rank0`,
/// `rank1.r4.t1`); priorities may be negative.
fn parse_pins(value: &str) -> Result<Vec<(ThreadName, i64)>, String> {
    let invalid = |what: &str, why: &str| usage(&format!("invalid {what} in {}: {why}", PINS.name));
    value
        .split(',')
        .map(|part| {
            let part = part.trim();
            let (name, prio) = part
                .rsplit_once(':')
                .ok_or_else(|| invalid(&format!("pin `{part}`"), "expected thread:priority"))?;
            if name.is_empty() {
                return Err(invalid(&format!("pin `{part}`"), "empty thread name"));
            }
            let prio = prio
                .parse()
                .map_err(|_| invalid(&format!("priority `{prio}`"), "expected an integer"))?;
            Ok((ThreadName::from(name), prio))
        })
        .collect()
}

fn cmd_check(args: &Args) -> Outcome {
    let mut options =
        check_options(args)?.with_jobs(args.count_or_else(&JOBS, home::core::default_jobs)?);
    // Priority-schedule reproduction flags (the tokens `explore` prints):
    // --pct-depth replays a PCT schedule, --pins a directed flip. Either
    // selects the priority scheduler outright.
    let pct_depth = args.parse::<u8>(&PCT_DEPTH, "an integer in 0..=255")?;
    let pins = match args.value(&PINS) {
        Some(v) => parse_pins(v)?,
        None => Vec::new(),
    };
    if (pct_depth.is_some() || !pins.is_empty()) && args.has(&FAITHFUL) {
        return Err(usage(&format!(
            "{}/{} select the priority scheduler and cannot combine with {}",
            PCT_DEPTH.name, PINS.name, FAITHFUL.name
        )));
    }
    if let Some(depth) = pct_depth {
        options.sched_policy = SchedPolicy::Priority { depth };
    } else if !pins.is_empty() {
        options.sched_policy = SchedPolicy::Priority { depth: 0 };
    }
    options.priority_pins = pins;
    let report = check(&program(args)?, &options);
    oprint!("{}", report.render());
    Ok(verdict(
        report.partial,
        !report.violations.is_empty() || !report.deadlocks.is_empty(),
    ))
}

fn cmd_explore(args: &Args) -> Outcome {
    let defaults = ExploreOptions::default();
    let strategy = match args.value(&STRATEGY) {
        None => defaults.strategy,
        Some(s) => Strategy::parse(s).ok_or_else(|| {
            usage(&format!(
                "unknown strategy `{s}`: expected `pct`, `random`, `directed`, or `all`"
            ))
        })?,
    };
    let depth = args
        .parse(&DEPTH, "a non-negative integer")?
        .unwrap_or(usize::from(defaults.depth));
    let depth = u8::try_from(depth).map_err(|_| {
        usage(&format!(
            "invalid value `{depth}` for {}: expected 0..=255",
            DEPTH.name
        ))
    })?;
    let options = ExploreOptions {
        nprocs: args.count(&PROCS, defaults.nprocs)?,
        threads_per_proc: args.count(&THREADS, defaults.threads_per_proc)?,
        budget: args.count(&BUDGET, defaults.budget)?,
        strategy,
        depth,
        jobs: args.count_or_else(&JOBS, home::core::default_jobs)?,
        base_seed: args
            .parse(&SEED, "an unsigned integer")?
            .unwrap_or(defaults.base_seed),
        detector: defaults.detector,
    };
    let report = home::core::explore(&program(args)?, &options);
    oprint!("{}", report.render(args.file()));
    Ok(verdict(report.partial, report.found_anything()))
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

fn cmd_watch(args: &Args) -> Outcome {
    let options = check_options(args)?;
    // Seeds run serially so emissions arrive in seed order. A `--jobs`
    // request other than 1 is rejected loudly instead of silently
    // overridden: the user asked for parallelism watch cannot deliver.
    if let Some(n) = args.parse::<usize>(&JOBS, "a non-negative integer")? {
        if n != 1 {
            return Err(usage(&format!(
                "watch runs seeds serially so live output is deterministic; \
                 {jobs} {n} is not supported (use `check {jobs} {n}` for a \
                 parallel batch verdict)",
                jobs = JOBS.name
            )));
        }
    }
    let options = options.with_jobs(1);
    let policy = args
        .choice(
            &FLUSH,
            &[
                ("every", FlushPolicy::Every),
                ("seed", FlushPolicy::Seed),
                ("end", FlushPolicy::End),
            ],
        )
        .map_err(|v| {
            usage(&format!(
                "unknown flush policy `{v}`: expected `every`, `seed`, or `end`"
            ))
        })?
        .unwrap_or(FlushPolicy::Every);
    let report = check_with_sink(
        &program(args)?,
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
    Ok(verdict(
        report.partial,
        !report.violations.is_empty() || !report.deadlocks.is_empty(),
    ))
}

/// `static --json`: every field of the report in declaration order, an
/// enum by its variant name, `None` as `null`.
fn static_json(report: &home::static_analysis::StaticReport) -> Json {
    // A unit variant's `Debug` text is its name.
    fn variant(value: impl std::fmt::Debug) -> Json {
        Json::Str(format!("{value:?}"))
    }
    let names = |names: &[String]| names.iter().map(String::as_str).collect::<Json>();
    let sites = report.checklist.sites.iter().map(|site| {
        Json::object([
            ("node", site.node.0.into()),
            ("line", site.line.into()),
            ("name", site.name.as_str().into()),
            ("in_hybrid_region", site.in_hybrid_region.into()),
            ("reachable", site.reachable.into()),
            ("instrument", site.instrument.into()),
            ("is_collective", site.is_collective.into()),
            ("tag_thread_distinct", site.tag_thread_distinct.into()),
            ("peer_thread_distinct", site.peer_thread_distinct.into()),
            ("init_level", site.init_level.map(variant).into()),
            ("monitored", site.monitored.as_deref().map(names).into()),
            ("must_locks", names(&site.must_locks)),
            ("multi_thread", site.multi_thread.into()),
        ])
    });
    let regions = report.regions.iter().map(|region| {
        Json::object([
            ("node", region.node.0.into()),
            ("line", region.line.into()),
            ("mpi_calls", region.mpi_calls.into()),
            ("class", variant(region.class)),
        ])
    });
    let stats = &report.stats;
    let candidates = report.candidates.iter().map(|candidate| {
        Json::object([
            ("kind", variant(candidate.kind)),
            ("line", candidate.line.into()),
            ("site", candidate.site.as_str().into()),
            ("description", candidate.description.as_str().into()),
            ("violation_hint", candidate.violation_hint.as_deref().into()),
        ])
    });
    Json::object([
        (
            "checklist",
            Json::object([
                ("sites", sites.collect()),
                ("monitored_vars", names(&report.checklist.monitored_vars)),
            ]),
        ),
        ("regions", regions.collect()),
        (
            "stats",
            Json::object([
                ("total_mpi_calls", stats.total_mpi_calls.into()),
                ("instrumented", stats.instrumented.into()),
                ("skipped", stats.skipped.into()),
                ("unreachable", stats.unreachable.into()),
                ("regions", stats.regions.into()),
                ("error_free_regions", stats.error_free_regions.into()),
                ("note", stats.note.map(variant).into()),
            ]),
        ),
        ("candidates", candidates.collect()),
    ])
}

fn cmd_static(args: &Args) -> Outcome {
    let report = analyze(&program(args)?);
    if args.has(&JSON) {
        oprintln!("{:#}", static_json(&report));
        return Ok(verdict(false, !report.candidates.is_empty()));
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
    if !report.candidates.is_empty() {
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
    }
    Ok(verdict(false, !report.candidates.is_empty()))
}

fn cmd_run(args: &Args) -> Outcome {
    let nprocs = args.count(&PROCS, 2)?;
    let threads = args.count(&THREADS, 2)?;
    let seed = args.parse(&SEED, "a non-negative integer")?.unwrap_or(7);
    let tool = args
        .choice(
            &TOOL,
            &[
                ("base", Tool::Base),
                ("home", Tool::Home),
                ("marmot", Tool::Marmot),
                ("itc", Tool::Itc),
            ],
        )
        .map_err(|v| usage(&format!("unknown tool `{v}`")))?
        .unwrap_or(Tool::Base);
    let program = program(args)?;
    let checklist = std::sync::Arc::new(analyze(&program).checklist.clone());
    let mut cfg = RunConfig::cluster(nprocs, seed)
        .with_instrumentation(tool.instrumentation_scaled(nprocs))
        .with_checklist(checklist);
    cfg.threads_per_proc = threads;
    let result = run(&program, &cfg);
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
    if let Some(d) = &result.deadlock {
        oprintln!("DEADLOCK: {d}");
    }
    Ok(verdict(false, result.deadlock.is_some()))
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

fn cmd_record(args: &Args) -> Outcome {
    let out = args.required(&OUT, "an output path")?;
    let options = check_options(args)?;
    // Every seed runs the same copy.
    let program = std::sync::Arc::new(program(args)?);
    let cannot_write = |e: std::io::Error| input_error(format!("cannot write {out}: {e}"));
    let file =
        std::fs::File::create(out).map_err(|e| input_error(format!("cannot create {out}: {e}")))?;
    // HBT v2: per-section LZ frames plus a seek index, so `replay --jobs N`
    // can decode sections in parallel and `replay --run` can seek to one.
    let writer = home::stream::HbtWriter::new_compressed(std::io::BufWriter::new(file))
        .map_err(cannot_write)?;
    let sink = Rc::new(RefCell::new(RecordSink {
        writer: Some(writer),
        error: None,
    }));

    // `check`'s run configuration, so a recorded trace replays to the same
    // verdicts.
    let checklist = std::sync::Arc::new(analyze(&program).checklist.clone());
    let mut total_events = 0u64;
    let mut total_incidents = 0usize;
    for &seed in &options.seeds {
        sink.borrow_mut().with_writer(|w| w.begin_run(seed));
        let result = run_with_sink(
            &program,
            &options.run_config(seed, &checklist),
            sink.clone(),
        );
        total_events += result.events_recorded;
        total_incidents += result.mpi_errors.len();
        for incident in &result.mpi_errors {
            sink.borrow_mut()
                .with_writer(|w| w.write_incident(incident));
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
        return Err(cannot_write(e));
    }
    oprintln!(
        "recorded {} run(s), {total_events} events, {total_incidents} incident(s) to {out}",
        options.seeds.len()
    );
    Ok(ExitCode::SUCCESS)
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
    /// Open `file` (`-` for stdin) and check that it starts like an HBT
    /// trace.
    fn open_hbt(file: &str) -> Result<TraceInput, String> {
        let input = if file == "-" {
            // Peek just enough of stdin to classify the format. A pipe
            // shorter than the magic is classified by what it has.
            let mut prefix = vec![0u8; home::stream::HBT_MAGIC.len()];
            let mut filled = 0;
            while filled < prefix.len() {
                match std::io::Read::read(&mut std::io::stdin().lock(), &mut prefix[filled..]) {
                    Ok(0) => break,
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(input_error(format!("cannot read stdin: {e}"))),
                }
            }
            prefix.truncate(filled);
            TraceInput::Stdin { prefix }
        } else {
            std::fs::read(file)
                .map(TraceInput::File)
                .map_err(|e| input_error(format!("cannot read {file}: {e}")))?
        };
        let head = match &input {
            TraceInput::File(bytes) => bytes,
            TraceInput::Stdin { prefix } => prefix,
        };
        if !home::stream::is_hbt(head) {
            return Err(input_error(format!(
                "{file}: not an HBT trace (bad magic); produce one with `home record`"
            )));
        }
        Ok(input)
    }

    /// Analyze the trace with the shared session-driven verdict path.
    /// Files go through [`home::serve::analyze_trace`]: sections
    /// fan out across `jobs` workers, each feeding its session a chunk of
    /// decoded events at a time.
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

    /// The remaining input as one buffer (`submit` forwards raw bytes).
    /// Only here does stdin get slurped.
    fn read_all(&self) -> Result<std::borrow::Cow<'_, [u8]>, String> {
        match self {
            TraceInput::File(bytes) => Ok(std::borrow::Cow::Borrowed(bytes)),
            TraceInput::Stdin { prefix } => {
                let mut buf = prefix.clone();
                std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut buf)
                    .map_err(|e| input_error(format!("cannot read stdin: {e}")))?;
                Ok(std::borrow::Cow::Owned(buf))
            }
        }
    }
}

/// One line naming the input and, when the parser knows it, the byte offset
/// of the problem — greppable and stable for scripting.
fn trace_error(file: &str, e: &HomeError) -> String {
    match e.byte_offset() {
        Some(off) => input_error(format!("{file}: byte {off}: {e}")),
        None => input_error(format!("{file}: {e}")),
    }
}

fn cmd_replay(args: &Args) -> Outcome {
    let jobs = args.count_or_else(&JOBS, home::core::default_jobs)?;
    let run_seed = args.parse::<u64>(&RUN, "a scheduler seed (unsigned integer)")?;
    let file = args.file();
    let input = TraceInput::open_hbt(file)?;
    // Session-driven detection shared with the serve daemon: verdict-
    // identical to check for every `--jobs` value. --run SEED seeks straight
    // to one recorded section via the v2 index and inflates only its
    // frames, so it needs a file: a pipe cannot seek.
    let (label, outcome) = match (run_seed, &input) {
        (None, _) => ("replay".to_string(), input.analyze_hbt(jobs)),
        (Some(seed), TraceInput::File(bytes)) => (
            format!("replay (run {seed})"),
            home::serve::analyze_trace_run(bytes, seed, jobs),
        ),
        (Some(_), TraceInput::Stdin { .. }) => {
            return Err(usage(&format!(
                "{} needs a seekable trace file; a stdin pipe cannot seek \
                 (save the trace to a file and replay that)",
                RUN.name
            )))
        }
    };
    let outcome = outcome.map_err(|e| trace_error(file, &e))?;
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
    Ok(verdict(false, !outcome.violations.is_empty()))
}

fn cmd_serve(args: &Args) -> Outcome {
    let socket = std::path::PathBuf::from(args.required(&SOCKET, "a socket path")?);
    let max_sessions = args.count(&MAX_SESSIONS, 64)?;
    if args.has(&STATUS) {
        let reply = home::serve::status(&socket).map_err(input_error)?;
        oprintln!("{}", reply.raw);
        return Ok(ExitCode::SUCCESS);
    }
    if args.has(&STOP) {
        home::serve::stop(&socket).map_err(input_error)?;
        oprintln!("serve: daemon at {} stopping", socket.display());
        return Ok(ExitCode::SUCCESS);
    }
    let mut config = home::serve::ServeConfig::new(&socket);
    config.max_sessions = max_sessions;
    let server = home::serve::Server::bind(config)
        .map_err(|e| input_error(format!("cannot bind {}: {e}", socket.display())))?;
    oprintln!(
        "serve: listening on {} (max {max_sessions} concurrent sessions)",
        socket.display()
    );
    server
        .run()
        .map_err(|e| input_error(format!("serve failed: {e}")))?;
    oprintln!("serve: stopped");
    Ok(ExitCode::SUCCESS)
}

fn cmd_submit(args: &Args) -> Outcome {
    let socket = std::path::PathBuf::from(args.required(&SOCKET, "the daemon socket")?);
    let file = args.file();
    // `submit` forwards the raw bytes over the socket, so stdin is the one
    // place it still buffers.
    let input = TraceInput::open_hbt(file)?;
    let bytes = input.read_all()?;
    let reply = home::serve::submit(&socket, &bytes).map_err(input_error)?;
    if !reply.ok {
        return Err(input_error(format!(
            "{file}: daemon rejected the trace: {}",
            reply.error.as_deref().unwrap_or("unknown error")
        )));
    }
    if args.has(&JSON) {
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
    Ok(verdict(false, !reply.violations.is_empty()))
}

fn cmd_fmt(args: &Args) -> Outcome {
    oprint!("{}", print_program(&program(args)?));
    Ok(ExitCode::SUCCESS)
}
