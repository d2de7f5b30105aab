//! Every input the workloads consume, built from `--seed` into the work
//! directory, plus the checked-in oracle (`benchmark/expected/`).
//!
//! The NPB-MZ programs themselves are fixed by the generator; the seed
//! decides the scheduler seeds of every recorded or checked run, so two
//! seeds give different interleavings, event orders and trace bytes over
//! the same six injected episodes per program.

use home::prelude::{
    build_injected, parse, print_program, run, Benchmark, Class, Instrumentation, Program,
    RunConfig,
};
use home::stream::{HbtWriter, TraceIncident};
use std::path::{Path, PathBuf};

/// Ranks × threads of every class-C run, as in the paper's evaluation.
pub const NPB_PROCS: usize = 8;
/// Ranks of the class-S exploration runs (`home explore` defaults).
pub const EXPLORE_PROCS: usize = 2;
pub const THREADS: usize = 2;

/// Input sizes. `quick` is for smoke runs only: its numbers are never
/// comparable with full runs and every output line is flagged.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub quick: bool,
    /// Copies of the three recordings tiled into `wide.hbt`.
    pub tiles: usize,
    /// Distinct traces one `serve_submit` round submits.
    pub serve_traces: usize,
    /// `home explore --budget`.
    pub explore_budget: usize,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setups: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            quick: false,
            tiles: 32,
            serve_traces: 24,
            explore_budget: 512,
            setups: 3,
        }
    }

    pub fn quick() -> Sizes {
        Sizes {
            quick: true,
            tiles: 2,
            serve_traces: 6,
            explore_budget: 64,
            setups: 1,
        }
    }
}

/// One program: the generator's AST with its injection labels (what the
/// oracle scores against) and the printed source the CLI and the `ir`
/// layer read.
pub struct Prog {
    pub name: &'static str,
    pub file: String,
    pub text: String,
    pub parsed: Program,
    pub injected: home::npb::InjectedProgram,
}

/// One full-instrumentation run, ready to be written as an HBT section.
pub struct Recording {
    pub trace: home::trace::Trace,
    pub incidents: Vec<TraceIncident>,
}

/// An HBT byte stream and the number of events written into it.
pub struct TraceBytes {
    pub bytes: Vec<u8>,
    pub events: u64,
}

#[derive(Default)]
pub struct Corpus {
    pub programs: Vec<Prog>,
    pub recordings: Vec<Recording>,
    /// `wide_replay`: the tiled file's name in the work directory and the
    /// events written into it (the bytes live only in the file, so the
    /// driver stays small).
    pub wide: Option<(String, u64)>,
    /// `serve_submit`: distinct traces with globally unique run seeds.
    pub serve: Vec<TraceBytes>,
}

/// Generate, print and write the injected programs of `class`.
pub fn programs(benchmarks: &[Benchmark], class: Class, dir: &Path) -> Result<Vec<Prog>, String> {
    benchmarks
        .iter()
        .map(|&b| {
            let injected = build_injected(b, class);
            let text = print_program(&injected.program);
            let file = format!("{}.hmp", b.name());
            std::fs::write(dir.join(&file), &text).map_err(|e| format!("write {file}: {e}"))?;
            let parsed = parse(&text).map_err(|e| format!("{file} does not re-parse: {e}"))?;
            Ok(Prog {
                name: b.name(),
                file,
                text,
                parsed,
                injected,
            })
        })
        .collect()
}

/// The run configuration `home check`/`record` use (`RunConfig::test`,
/// random scheduling) with the given instrumentation; selective profiles
/// additionally need `.with_checklist(..)`.
pub fn run_config(nprocs: usize, seed: u64, instrumentation: Instrumentation) -> RunConfig {
    let mut cfg = RunConfig::test(nprocs, seed).with_instrumentation(instrumentation);
    cfg.threads_per_proc = THREADS;
    cfg
}

/// Run `program` once and keep what an HBT section holds: the recorded events
/// and the runtime incidents.
pub fn record(program: &Program, cfg: &RunConfig) -> Recording {
    let result = run(program, cfg);
    let incidents = result
        .mpi_errors
        .iter()
        .map(|i| TraceIncident {
            rank: i.rank,
            line: i.line,
            call: i.call.clone(),
            error: i.error.clone(),
        })
        .collect();
    Recording {
        trace: result.trace,
        incidents,
    }
}

/// One full-instrumentation class-C run of `prog` under scheduler seed `seed`.
pub fn record_full(prog: &Prog, seed: u64) -> Recording {
    record(
        &prog.parsed,
        &run_config(NPB_PROCS, seed, Instrumentation::full()),
    )
}

/// Write `sections` (run seed, recording) as one HBT stream: v2 (LZ
/// frames + seek index) when `compress`, v1 otherwise.
pub fn encode<'a>(
    sections: impl IntoIterator<Item = (u64, &'a Recording)>,
    compress: bool,
) -> Result<TraceBytes, String> {
    let io = |e: std::io::Error| format!("HBT encode: {e}");
    let mut writer = if compress {
        HbtWriter::new_compressed(Vec::new())
    } else {
        HbtWriter::new(Vec::new())
    }
    .map_err(io)?;
    let mut events = 0u64;
    for (seed, rec) in sections {
        writer.begin_run(seed).map_err(io)?;
        for e in rec.trace.events() {
            writer.write_event(e).map_err(io)?;
        }
        for i in &rec.incidents {
            writer.write_incident(i).map_err(io)?;
        }
        events += rec.trace.len() as u64;
    }
    Ok(TraceBytes {
        bytes: writer.finish().map_err(io)?,
        events,
    })
}

/// `recordings` repeated `copies` times, each section under its own run
/// seed counting up from `first_seed`.
pub fn tiled(
    recordings: &[Recording],
    copies: usize,
    first_seed: u64,
) -> impl Iterator<Item = (u64, &Recording)> {
    (0..copies * recordings.len())
        .map(move |i| (first_seed + i as u64, &recordings[i % recordings.len()]))
}

/// Build the inputs of `workload` from `seed` into `dir`.
pub fn build(workload: &str, seed: u64, sizes: &Sizes, dir: &Path) -> Result<Corpus, String> {
    let mut corpus = Corpus::default();
    if workload == "explore_lu_s" {
        corpus.programs = programs(&[Benchmark::LuMz], Class::S, dir)?;
        return Ok(corpus);
    }
    corpus.programs = programs(&Benchmark::ALL, Class::C, dir)?;
    match workload {
        "wide_replay" => {
            corpus.recordings = corpus
                .programs
                .iter()
                .map(|p| record_full(p, seed))
                .collect();
            let wide = encode(tiled(&corpus.recordings, sizes.tiles, 1), true)?;
            let file = "wide.hbt".to_string();
            std::fs::write(dir.join(&file), &wide.bytes)
                .map_err(|e| format!("write {file}: {e}"))?;
            corpus.wide = Some((file, wide.events));
        }
        "serve_submit" => {
            corpus.recordings = corpus
                .programs
                .iter()
                .map(|p| record_full(p, seed))
                .collect();
            let per_trace = corpus.recordings.len() as u64;
            for t in 0..sizes.serve_traces as u64 {
                // The daemon keys its known-run cache by run seed and rejects
                // a seed that returns with other bytes, so seeds are unique
                // across the whole corpus.
                corpus.serve.push(encode(
                    tiled(&corpus.recordings, 1, 1 + t * per_trace),
                    true,
                )?);
            }
        }
        _ => {}
    }
    Ok(corpus)
}

/// `benchmark/expected/<workload>/<name>.txt`.
pub fn expected_path(root: &Path, workload: &str, name: &str) -> PathBuf {
    root.join("benchmark/expected")
        .join(workload)
        .join(format!("{name}.txt"))
}

/// One violation line as the oracle compares it: without the schedule
/// provenance `explore` appends (it names the finding seed, which the
/// benchmark varies on purpose) and with request handles masked (`req357`
/// → `req#`: the handle's number depends on the interleaving — about one
/// op in two hundred sees its neighbour — the finding does not).
pub fn normalize(line: &str) -> String {
    let line = line.split(" [found by ").next().unwrap_or(line);
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(" req") {
        let (head, tail) = rest.split_at(at + 4);
        out.push_str(head);
        let digits = tail.chars().take_while(char::is_ascii_digit).count();
        if digits > 0 {
            out.push('#');
        }
        rest = &tail[digits..];
    }
    out + rest
}

/// The sorted, normalized violation lines among `lines`; a report's are
/// the ones behind a `  - ` bullet.
pub fn sorted_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    let mut lines: Vec<String> = lines.into_iter().map(normalize).collect();
    lines.sort();
    lines
}

/// The sorted, normalized `  - ` violation lines of a CLI report.
pub fn violation_lines(report: &str) -> Vec<String> {
    sorted_lines(report.lines().filter_map(|l| l.strip_prefix("  - ")))
}

/// The checked-in expected lines, or `None` when the file is missing (every
/// op that needs it then counts as failed).
pub fn load_expected(root: &Path, workload: &str, name: &str) -> Option<Vec<String>> {
    let text = std::fs::read_to_string(expected_path(root, workload, name)).ok()?;
    Some(text.lines().map(str::to_string).collect())
}

/// The first unsigned integer that follows `key` in `text` (`"events":`
/// in a daemon reply, `run(s), ` in a CLI summary line).
pub fn number_after(text: &str, key: &str) -> Option<u64> {
    let rest = &text[text.find(key)? + key.len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}
