//! End-to-end HOME pipeline on a small DSL program.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Walks through the paper's workflow explicitly: static analysis →
//! instrumented execution → dynamic concurrency detection → violation
//! matching — then prints each stage's output.

use home::prelude::*;
use std::sync::Arc;

const SOURCE: &str = r#"
program quickstart {
    mpi_init_thread(multiple);

    // Sequential MPI: provably outside any parallel region, so the static
    // phase never instruments it.
    mpi_barrier();

    omp parallel num_threads(2) {
        // Correct: thread-distinct tags differentiate the messages.
        mpi_send(to: rank, tag: 100 + tid, count: 1);
        mpi_recv(from: rank, tag: 100 + tid);

        // Violation: both threads receive with the same tag — the MPI
        // standard requires arrival messages to be differentiated.
        if (rank == 1) {
            mpi_recv(from: 0, tag: 7);
        }
    }
    if (rank == 0) {
        mpi_send(to: 1, tag: 7, count: 1);
        mpi_send(to: 1, tag: 7, count: 1);
    }

    mpi_finalize();
}
"#;

fn main() {
    let program = parse(SOURCE).expect("valid DSL");

    // 1. Static phase: CFG walk, hybrid-region marking, checklist.
    let static_report = analyze(&program);
    println!("--- static phase ---");
    println!(
        "{} MPI call sites; {} instrumented, {} skipped",
        static_report.stats.total_mpi_calls,
        static_report.stats.instrumented,
        static_report.stats.skipped
    );
    for site in &static_report.checklist.sites {
        println!(
            "  line {:>2} {:<14} in-region={} instrument={}",
            site.line, site.name, site.in_hybrid_region, site.instrument
        );
    }

    // 2. Instrumented execution on the simulated substrates.
    let cfg = RunConfig::test(2, 42)
        .with_instrumentation(Instrumentation::home())
        .with_checklist(Arc::new(static_report.checklist.clone()));
    let result = run(&program, &cfg);
    println!("\n--- instrumented run ---");
    println!(
        "{} events recorded, simulated makespan {}",
        result.events_recorded, result.makespan
    );

    // 3. Dynamic phase: lockset + happens-before over monitored variables.
    let (races, _) = detect_stream(&result.trace, &DetectorConfig::hybrid())
        .expect("trace straight from the interpreter is well-formed");
    println!("\n--- dynamic phase: {} monitored race(s) ---", races.len());
    for race in &races {
        println!("  {race}");
    }

    // 4. The whole pipeline in one call (multiple seeds, merged report).
    println!("\n--- HOME report ---");
    let report = check(&program, &CheckOptions::default());
    print!("{}", report.render());

    assert!(report.has(ViolationKind::ConcurrentRecv));
}
