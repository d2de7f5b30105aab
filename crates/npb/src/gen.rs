//! Generators for the correct (violation-free) NPB-MZ-style hybrid
//! programs.
//!
//! Structure per time step, mirroring the multi-zone benchmarks: for each
//! directional phase, a parallel region where the master thread exchanges
//! halo data with ring neighbours, an implicit-barrier worksharing loop
//! performs the per-row solves, and (LU only) a critical section
//! accumulates the residual; every few steps the ranks allreduce the
//! residual *outside* the parallel region — which is exactly the call
//! HOME's static filter proves it never needs to instrument.

use crate::params::{Benchmark, Class, SizeParams};
use home_ir::build::{
    assign, compute_rw, if_then, mpi, omp_barrier, omp_critical, omp_for, omp_master, omp_parallel,
    recv, send, seq_for, shared_decl,
};
use home_ir::{BinOp, Expr, IrReduceOp, IrThreadLevel, MpiStmt, Stmt};

/// Tag base for phase `p`'s halo messages.
fn phase_tag(phase: usize) -> i64 {
    10 + phase as i64
}

/// `rank > 0`
fn has_left() -> Expr {
    Expr::bin(BinOp::Gt, Expr::Rank, Expr::int(0))
}

/// `rank < size - 1`
fn has_right() -> Expr {
    Expr::bin(
        BinOp::Lt,
        Expr::Rank,
        Expr::bin(BinOp::Sub, Expr::Size, Expr::int(1)),
    )
}

/// One directional phase: exchange + compute inside a parallel region.
fn phase_region(benchmark: Benchmark, phase: usize, p: &SizeParams) -> Stmt {
    let tag = Expr::int(phase_tag(phase));
    let msg = Expr::int(p.msg_words as i64);
    let left = Expr::bin(BinOp::Sub, Expr::Rank, Expr::int(1));
    let right = Expr::bin(BinOp::Add, Expr::Rank, Expr::int(1));

    let mut region = vec![
        // Halo exchange, funneled through the master thread (the correct
        // hybrid idiom): eager sends both ways, then receives.
        omp_master(vec![
            if_then(
                has_right(),
                vec![send(right.clone(), tag.clone(), msg.clone())],
            ),
            if_then(
                has_left(),
                vec![send(left.clone(), tag.clone(), msg.clone())],
            ),
            if_then(has_left(), vec![recv(left, tag.clone())]),
            if_then(has_right(), vec![recv(right, tag)]),
        ]),
        omp_barrier(),
        // Per-row solves; the worksharing loop carries an implicit barrier.
        // Strong scaling: this rank's share of the global rows.
        omp_for(
            "i",
            Expr::int(0),
            Expr::bin(
                BinOp::Div,
                Expr::bin(
                    BinOp::Sub,
                    Expr::bin(BinOp::Add, Expr::int(p.rows as i64), Expr::Size),
                    Expr::int(1),
                ),
                Expr::Size,
            ),
            vec![compute_rw(
                Expr::int(p.flops_per_row as i64),
                &["u"],
                &["rsd"],
            )],
        ),
    ];

    // LU accumulates the sweep residual under a critical section.
    if benchmark == Benchmark::LuMz && phase == 1 {
        region.push(omp_critical(
            "residual",
            vec![assign(
                "res",
                Expr::bin(BinOp::Add, Expr::var("res"), Expr::int(1)),
            )],
        ));
    }

    omp_parallel(Expr::int(0), region)
}

/// The body of one time step.
fn step_body(benchmark: Benchmark, p: &SizeParams) -> Vec<Stmt> {
    let mut body: Vec<Stmt> = (0..benchmark.phases())
        .map(|ph| phase_region(benchmark, ph, p))
        .collect();
    // Periodic residual allreduce, outside the parallel regions (so the
    // static phase skips it).
    body.push(if_then(
        Expr::bin(
            BinOp::Eq,
            Expr::bin(
                BinOp::Mod,
                Expr::var("step"),
                Expr::int(p.allreduce_every as i64),
            ),
            Expr::int(0),
        ),
        vec![mpi(MpiStmt::Allreduce {
            op: IrReduceOp::Sum,
            count: Expr::int(4),
            comm: None,
        })],
    ));
    body
}

/// Generate the *correct* benchmark body (everything between init and
/// finalize). Exposed separately so the injection layer can splice
/// episodes around it.
pub(crate) fn benchmark_body(benchmark: Benchmark, class: Class) -> Vec<Stmt> {
    let p = SizeParams::of(benchmark, class);
    vec![
        shared_decl("res", Expr::int(0)),
        seq_for(
            "step",
            Expr::int(0),
            Expr::int(p.steps as i64),
            step_body(benchmark, &p),
        ),
    ]
}

/// Generate the complete correct program (init → body → finalize).
pub fn generate(benchmark: Benchmark, class: Class) -> home_ir::Program {
    let mut body = vec![mpi(MpiStmt::InitThread {
        required: IrThreadLevel::Multiple,
    })];
    body.extend(benchmark_body(benchmark, class));
    body.push(mpi(MpiStmt::Finalize));
    home_ir::build::finalize(
        &format!(
            "{}_{}",
            benchmark.name().to_lowercase().replace('-', "_"),
            class
        ),
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use home_core::{check, CheckOptions};
    use home_static::analyze;

    #[test]
    fn generated_programs_parse_print_roundtrip() {
        for b in Benchmark::ALL {
            let p = generate(b, Class::S);
            let printed = home_ir::print_program(&p);
            let reparsed = home_ir::parse(&printed).expect("generated program must reparse");
            assert_eq!(reparsed.stmt_count(), p.stmt_count(), "{b}");
        }
    }

    #[test]
    fn static_phase_skips_the_sequential_allreduce() {
        let p = generate(Benchmark::BtMz, Class::S);
        let r = analyze(&p);
        // In-region halo calls are instrumented; the step-loop allreduce,
        // init, and finalize are skipped.
        assert!(r.stats.instrumented > 0);
        assert!(r.stats.skipped >= 3, "{:?}", r.stats);
        let allreduce = r
            .checklist
            .sites
            .iter()
            .find(|s| s.name == "mpi_allreduce")
            .expect("allreduce site present");
        assert!(!allreduce.instrument);
    }

    #[test]
    fn correct_benchmarks_are_violation_free() {
        for b in Benchmark::ALL {
            let p = generate(b, Class::S);
            let report = check(&p, &CheckOptions::new(2, 2).with_seeds(vec![1, 2]));
            assert!(report.violations.is_empty(), "{b}: {}", report.render());
            assert!(report.deadlocks.is_empty(), "{b} deadlocked");
        }
    }

    #[test]
    fn lu_has_two_phases_bt_three() {
        let lu = generate(Benchmark::LuMz, Class::S);
        let bt = generate(Benchmark::BtMz, Class::S);
        let count_regions = |p: &home_ir::Program| {
            let mut n = 0;
            p.visit(&mut |s| {
                if matches!(s.kind, home_ir::StmtKind::OmpParallel { .. }) {
                    n += 1;
                }
            });
            n
        };
        assert_eq!(count_regions(&lu), 2);
        assert_eq!(count_regions(&bt), 3);
    }
}
