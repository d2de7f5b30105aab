//! Integration tests for the paper's two case studies (Figures 1 and 2),
//! exercised through the public facade.

use home::prelude::*;

const FIGURE_1: &str = r#"
program case1 {
    mpi_init();
    omp parallel num_threads(2) {
        omp sections {
            section { if (rank == 0) { mpi_send(to: 1, tag: 0, count: 1); } }
            section { if (rank == 1) { mpi_recv(from: 0, tag: 0); } }
        }
    }
    mpi_finalize();
}
"#;

const FIGURE_2: &str = r#"
program case2 {
    mpi_init_thread(multiple);
    shared int tag = 0;
    omp parallel num_threads(2) {
        if (rank == 0) {
            mpi_send(to: 1, tag: tag, count: 1);
            mpi_recv(from: 1, tag: tag);
        }
        if (rank == 1) {
            mpi_recv(from: 0, tag: tag);
            mpi_send(to: 0, tag: tag, count: 1);
        }
    }
    mpi_finalize();
}
"#;

#[test]
fn figure_1_initialization_violation_detected() {
    let report = check(&parse(FIGURE_1).unwrap(), &CheckOptions::default());
    assert!(
        report.has(ViolationKind::Initialization),
        "{}",
        report.render()
    );
    // The report points into the program.
    let v = &report.of_kind(ViolationKind::Initialization)[0];
    assert!(v.locations.iter().all(|l| &*l.file == "case1.hmp"));
}

#[test]
fn figure_1_fixed_with_thread_multiple() {
    let fixed = FIGURE_1.replace("mpi_init();", "mpi_init_thread(multiple);");
    let report = check(&parse(&fixed).unwrap(), &CheckOptions::default());
    assert!(
        !report.has(ViolationKind::Initialization),
        "{}",
        report.render()
    );
}

#[test]
fn figure_2_concurrent_recv_violation_detected() {
    let report = check(&parse(FIGURE_2).unwrap(), &CheckOptions::default());
    assert!(
        report.has(ViolationKind::ConcurrentRecv),
        "{}",
        report.render()
    );
}

#[test]
fn figure_2_fix_thread_id_tags_is_clean() {
    let fixed = FIGURE_2
        .replace("tag: tag", "tag: tid")
        .replace("shared int tag = 0;", "");
    let report = check(&parse(&fixed).unwrap(), &CheckOptions::default());
    assert!(report.violations.is_empty(), "{}", report.render());
    assert!(report.deadlocks.is_empty());
}

#[test]
fn figure_2_detection_is_predictive_not_schedule_dependent() {
    // HOME flags the violation under every seed, even seeds where the
    // dangerous matching never manifests — the lockset/HB point of the
    // paper.
    for seed in 0..10 {
        let report = check(
            &parse(FIGURE_2).unwrap(),
            &CheckOptions::default().with_seeds(vec![seed]),
        );
        assert!(
            report.has(ViolationKind::ConcurrentRecv),
            "seed {seed}: {}",
            report.render()
        );
    }
}

#[test]
fn unbalanced_recv_deadlock_is_diagnosed() {
    // A same-tag variant that genuinely sticks: one message, two receivers.
    let src = r#"
        program stuck {
            mpi_init_thread(multiple);
            if (rank == 0) { mpi_send(to: 1, tag: 0, count: 1); }
            if (rank == 1) {
                omp parallel num_threads(2) {
                    mpi_recv(from: 0, tag: 0);
                }
            }
            mpi_finalize();
        }
    "#;
    let report = check(&parse(src).unwrap(), &CheckOptions::default());
    assert!(!report.deadlocks.is_empty(), "must deadlock");
    let (_, info) = &report.deadlocks[0];
    assert!(info.involves("recv") || info.involves("MPI"), "{info}");
    // And the underlying same-tag violation is still reported from the
    // events recorded before the deadlock.
    assert!(
        report.has(ViolationKind::ConcurrentRecv),
        "{}",
        report.render()
    );
}
