//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p home-bench --bin report -- all
//! cargo run --release -p home-bench --bin report -- accuracy
//! cargo run --release -p home-bench --bin report -- figure4 [--class A]
//! cargo run --release -p home-bench --bin report -- figure7
//! cargo run --release -p home-bench --bin report -- ablation-selective
//! cargo run --release -p home-bench --bin report -- ablation-detectors
//! ```
//!
//! Output is paper-shaped text tables; `--json <path>` additionally dumps
//! the raw series for external plotting.

#![forbid(unsafe_code)]

use home_baselines::{run_tool, Tool};
use home_bench::{figure_sweep, overhead_from_points, PerfPoint, PROC_COUNTS};
use home_core::{check, CheckOptions};
use home_interp::{run, Instrumentation, RunConfig};
use home_npb::{accuracy_options, accuracy_row, build_injected, generate, Benchmark, Class};
use home_static::analyze;
use home_stream::DetectorConfig;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let class = parse_class(&args).unwrap_or(Class::C);
    let json_path = parse_json(&args);

    let mut json_blobs: Vec<(String, serde_json::Value)> = Vec::new();

    match cmd {
        "accuracy" => accuracy(&mut json_blobs),
        "figure4" => figure(Benchmark::LuMz, class, 4, &mut json_blobs),
        "figure5" => figure(Benchmark::BtMz, class, 5, &mut json_blobs),
        "figure6" => figure(Benchmark::SpMz, class, 6, &mut json_blobs),
        "figure7" => figure7(class, &mut json_blobs),
        "ablation-selective" => ablation_selective(class),
        "ablation-detectors" => ablation_detectors(),
        "ablation-seeds" => ablation_seeds(),
        "all" => {
            accuracy(&mut json_blobs);
            figure(Benchmark::LuMz, class, 4, &mut json_blobs);
            figure(Benchmark::BtMz, class, 5, &mut json_blobs);
            figure(Benchmark::SpMz, class, 6, &mut json_blobs);
            figure7(class, &mut json_blobs);
            ablation_selective(class);
            ablation_detectors();
            ablation_seeds();
        }
        other => {
            eprintln!("unknown command `{other}`; see module docs");
            std::process::exit(2);
        }
    }

    if let Some(path) = json_path {
        let map: serde_json::Map<String, serde_json::Value> = json_blobs.into_iter().collect();
        std::fs::write(&path, serde_json::to_string_pretty(&map).unwrap())
            .unwrap_or_else(|e| eprintln!("failed to write {path}: {e}"));
        println!("\nraw series written to {path}");
    }
}

fn parse_class(args: &[String]) -> Option<Class> {
    let ix = args.iter().position(|a| a == "--class")?;
    match args.get(ix + 1).map(String::as_str) {
        Some("S") => Some(Class::S),
        Some("W") => Some(Class::W),
        Some("A") => Some(Class::A),
        Some("B") => Some(Class::B),
        Some("C") => Some(Class::C),
        _ => None,
    }
}

fn parse_json(args: &[String]) -> Option<String> {
    let ix = args.iter().position(|a| a == "--json")?;
    args.get(ix + 1).cloned()
}

/// The detection-accuracy table (paper Section V-B).
fn accuracy(json: &mut Vec<(String, serde_json::Value)>) {
    println!("== Detection accuracy (paper Table: injected-violation reports) ==");
    println!(
        "{:<16} {:>6} {:>6} {:>8}",
        "Benchmarks", "HOME", "ITC", "Marmot"
    );
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let row = accuracy_row(b, Class::S, 2);
        let get = |name: &str| {
            row.scores
                .iter()
                .find(|s| s.tool == name)
                .map(|s| s.reported())
                .unwrap_or(0)
        };
        println!(
            "{:<16} {:>6} {:>6} {:>8}",
            format!("{} ({})", row.benchmark, row.injected),
            get("HOME"),
            get("ITC"),
            get("MARMOT")
        );
        rows.push(row);
    }
    println!("(paper: LU 6/5/5, BT 6/7/6, SP 6/6/5 — ITC's 7 includes one false positive)\n");
    json.push(("accuracy".to_string(), serde_json::to_value(&rows).unwrap()));
}

/// Figures 4–6: execution time vs process count for one benchmark.
fn figure(
    benchmark: Benchmark,
    class: Class,
    number: u32,
    json: &mut Vec<(String, serde_json::Value)>,
) {
    println!(
        "== Figure {number}: {} class {class} execution time (simulated seconds) ==",
        benchmark.name()
    );
    let points = figure_sweep(benchmark, class, &PROC_COUNTS);
    print_time_table(&points);
    println!();
    json.push((
        format!("figure{number}"),
        serde_json::to_value(&points).unwrap(),
    ));
}

fn print_time_table(points: &[PerfPoint]) {
    print!("{:<8}", "procs");
    for tool in Tool::ALL {
        print!("{:>12}", tool.label());
    }
    println!();
    for &np in &PROC_COUNTS {
        print!("{np:<8}");
        for tool in Tool::ALL {
            let p = points
                .iter()
                .find(|p| p.nprocs == np && p.tool == tool.label());
            match p {
                Some(p) => print!("{:>12.3}", p.seconds),
                None => print!("{:>12}", "-"),
            }
        }
        println!();
    }
}

/// Figure 7: average overhead percentage across the three benchmarks.
fn figure7(class: Class, json: &mut Vec<(String, serde_json::Value)>) {
    println!("== Figure 7: average overhead vs process count (class {class}) ==");
    let mut all_points = Vec::new();
    for b in Benchmark::ALL {
        all_points.extend(figure_sweep(b, class, &PROC_COUNTS));
    }
    let overheads = overhead_from_points(&all_points);
    print!("{:<8}", "procs");
    for tool in ["HOME", "MARMOT", "ITC"] {
        print!("{tool:>12}");
    }
    println!();
    for &np in &PROC_COUNTS {
        print!("{np:<8}");
        for tool in ["HOME", "MARMOT", "ITC"] {
            let p = overheads.iter().find(|o| o.nprocs == np && o.tool == tool);
            match p {
                Some(o) => print!("{:>11.1}%", o.percent),
                None => print!("{:>12}", "-"),
            }
        }
        println!();
    }
    println!("(paper: HOME 16–45%, Marmot 15–56%, ITC up to ~200%)\n");
    json.push((
        "figure7".to_string(),
        serde_json::to_value(&overheads).unwrap(),
    ));
}

/// Ablation: HOME's two instrumentation reductions —
/// (a) wrapping only checklist-selected call sites instead of every MPI
///     call, and
/// (b) monitoring only the six monitored variables instead of every shared
///     memory access (the "systematic instrumentation" the paper avoids).
fn ablation_selective(class: Class) {
    println!("== Ablation: selective vs full instrumentation (HOME, class {class}) ==");
    println!(
        "{:<6} {:>13} {:>11} {:>13} {:>11} {:>14} {:>12}",
        "procs",
        "selective(s)",
        "sel evts",
        "all-calls(s)",
        "all evts",
        "all-access(s)",
        "access evts"
    );
    for &np in &[2usize, 8, 32] {
        let program = generate(Benchmark::BtMz, class);
        let checklist = Arc::new(analyze(&program).checklist.clone());
        let run_with = |instr: Instrumentation| {
            let cfg = RunConfig::cluster(np, 7)
                .with_instrumentation(instr)
                .with_checklist(Arc::clone(&checklist));
            let r = run(&program, &cfg);
            (r.makespan.as_secs_f64(), r.events_recorded)
        };
        let (sel_t, sel_e) = run_with(Instrumentation::home());
        let (full_t, full_e) = run_with(Instrumentation::home_unselective());
        // Systematic instrumentation: record every shared access as well,
        // at the same per-event cost as HOME's wrapper stores.
        let all_access = Instrumentation {
            name: "home-all-access".into(),
            filter: home_trace::EventFilter::ALL,
            selective: false,
            ..Instrumentation::home()
        };
        let (aa_t, aa_e) = run_with(all_access);
        println!(
            "{np:<6} {sel_t:>13.3} {sel_e:>11} {full_t:>13.3} {full_e:>11} {aa_t:>14.3} {aa_e:>12}"
        );
    }
    println!();
}

/// Ablation: schedule exploration — how many random schedules each tool
/// needs before its report stabilizes. HOME's lockset/HB prediction finds
/// the latent race in the very first schedule; manifest-only Marmot only
/// reports it when a schedule happens to overlap the calls.
fn ablation_seeds() {
    println!("== Ablation: detections vs explored schedules (injected SP-MZ, class S) ==");
    let ip = build_injected(Benchmark::SpMz, Class::S);
    println!("{:<10} {:>8} {:>8}", "schedules", "HOME", "MARMOT");
    for k in [1usize, 2, 4, 8] {
        let seeds: Vec<u64> = (0..k as u64).collect();
        let mut row = Vec::new();
        for tool in [Tool::Home, Tool::Marmot] {
            // Random interleavings (not time-faithful) — the exploration
            // regime where manifestation is a matter of luck.
            let mut opts = CheckOptions::new(2, 2).with_seeds(seeds.clone());
            opts.sched_policy = home_sched::SchedPolicy::Random;
            let report = run_tool(tool, &ip.program, &opts);
            let score = home_npb::score(tool.label(), &report, &ip.injections);
            row.push(score.detected);
        }
        println!("{k:<10} {:>7}/6 {:>7}/6", row[0], row[1]);
    }
    println!("(HOME is schedule-insensitive; Marmot converges only as schedules accumulate)\n");
}

/// Ablation: lockset-only vs HB-only vs the hybrid detector on the
/// injected LU benchmark.
fn ablation_detectors() {
    println!("== Ablation: detector modes on injected LU-MZ (class S) ==");
    let ip = build_injected(Benchmark::LuMz, Class::S);
    let options = accuracy_options(2);
    for (name, detector) in [
        ("hybrid (paper)", DetectorConfig::hybrid()),
        ("lockset-only", DetectorConfig::lockset_only()),
        ("hb-only", DetectorConfig::hb_only()),
    ] {
        let mut opts = options.clone();
        opts.detector = detector.clone();
        let report = check(&ip.program, &opts);
        let score = home_npb::score("HOME", &report, &ip.injections);
        println!(
            "{:<16} detected {}/{}  false-positives {}  raw races {}",
            name,
            score.detected,
            score.injected,
            score.false_positives,
            report.races.len()
        );
    }
    // Also show Marmot/ITC raw runs for context.
    for tool in [Tool::Itc, Tool::Marmot] {
        let report = run_tool(tool, &ip.program, &options);
        let score = home_npb::score(tool.label(), &report, &ip.injections);
        println!(
            "{:<16} detected {}/{}  false-positives {}",
            tool.label(),
            score.detected,
            score.injected,
            score.false_positives
        );
    }
    println!();
}
