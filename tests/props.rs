//! Randomized property tests over the core data structures and the language
//! front-end. Uses a seeded in-repo ChaCha generator (the crates registry is
//! unreachable, so proptest is unavailable); every case is deterministic and
//! the failing seed is part of the assertion message.

use home::ir::build as b;
use home::ir::{parse, print_program, BinOp, Expr, IrReduceOp, MpiStmt, Stmt};
use home::trace::{LockId, LockSet, VectorClock};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn rng_for(case: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0xC0DE_0000 + case)
}

// ---- vector clock laws -----------------------------------------------------

fn gen_vc(rng: &mut ChaCha8Rng) -> VectorClock {
    let mut vc = VectorClock::new();
    for i in 0..rng.gen_range(0usize..6) {
        vc.set(i, rng.gen_range(0u64..20));
    }
    vc
}

#[test]
fn vc_join_is_commutative() {
    for case in 0..256 {
        let mut rng = rng_for(case);
        let (a, c) = (gen_vc(&mut rng), gen_vc(&mut rng));
        let mut ac = a.clone();
        ac.join(&c);
        let mut ca = c.clone();
        ca.join(&a);
        assert_eq!(
            ac.partial_cmp_vc(&ca),
            Some(std::cmp::Ordering::Equal),
            "case {case}: {a:?} ⊔ {c:?}"
        );
    }
}

#[test]
fn vc_join_is_upper_bound() {
    for case in 0..256 {
        let mut rng = rng_for(case);
        let (a, c) = (gen_vc(&mut rng), gen_vc(&mut rng));
        let mut j = a.clone();
        j.join(&c);
        assert!(a.leq(&j) && c.leq(&j), "case {case}: {a:?} ⊔ {c:?} = {j:?}");
    }
}

#[test]
fn vc_join_is_idempotent() {
    for case in 0..256 {
        let mut rng = rng_for(case);
        let a = gen_vc(&mut rng);
        let mut j = a.clone();
        j.join(&a);
        assert!(j.leq(&a) && a.leq(&j), "case {case}: {a:?}");
    }
}

#[test]
fn vc_leq_is_a_partial_order() {
    for case in 0..256 {
        let mut rng = rng_for(case);
        let (a, c, d) = (gen_vc(&mut rng), gen_vc(&mut rng), gen_vc(&mut rng));
        // Reflexive.
        assert!(a.leq(&a), "case {case}");
        // Antisymmetric (up to equality of components).
        if a.leq(&c) && c.leq(&a) {
            assert_eq!(
                a.partial_cmp_vc(&c),
                Some(std::cmp::Ordering::Equal),
                "case {case}"
            );
        }
        // Transitive.
        if a.leq(&c) && c.leq(&d) {
            assert!(a.leq(&d), "case {case}");
        }
    }
}

#[test]
fn vc_tick_strictly_increases() {
    for case in 0..256 {
        let mut rng = rng_for(case);
        let before = gen_vc(&mut rng);
        let slot = rng.gen_range(0usize..8);
        let mut after = before.clone();
        after.tick(slot);
        assert!(before.happens_before(&after), "case {case}: slot {slot}");
    }
}

#[test]
fn vc_concurrent_is_symmetric_and_irreflexive() {
    for case in 0..256 {
        let mut rng = rng_for(case);
        let (a, c) = (gen_vc(&mut rng), gen_vc(&mut rng));
        assert_eq!(a.concurrent_with(&c), c.concurrent_with(&a), "case {case}");
        assert!(!a.concurrent_with(&a), "case {case}");
    }
}

// ---- lockset laws ----------------------------------------------------------

fn gen_lockset(rng: &mut ChaCha8Rng) -> LockSet {
    let mut set = LockSet::new();
    for _ in 0..rng.gen_range(0usize..6) {
        set.insert(LockId(rng.gen_range(0u32..12)));
    }
    set
}

#[test]
fn lockset_intersect_commutes() {
    for case in 0..256 {
        let mut rng = rng_for(case);
        let (a, c) = (gen_lockset(&mut rng), gen_lockset(&mut rng));
        assert_eq!(a.intersect(&c), c.intersect(&a), "case {case}");
    }
}

#[test]
fn lockset_intersection_is_subset() {
    for case in 0..256 {
        let mut rng = rng_for(case);
        let (a, c) = (gen_lockset(&mut rng), gen_lockset(&mut rng));
        let i = a.intersect(&c);
        for l in i.iter() {
            assert!(a.contains(l) && c.contains(l), "case {case}: {l:?}");
        }
        assert_eq!(i.is_empty(), a.disjoint(&c), "case {case}");
    }
}

#[test]
fn lockset_insert_remove_roundtrip() {
    for case in 0..256 {
        let mut rng = rng_for(case);
        let a = gen_lockset(&mut rng);
        let lock = LockId(rng.gen_range(0u32..12));
        let had = a.contains(lock);
        let mut m = a.clone();
        m.insert(lock);
        assert!(m.contains(lock), "case {case}");
        m.remove(lock);
        assert!(!m.contains(lock), "case {case}");
        if !had {
            assert_eq!(m, a, "case {case}");
        }
    }
}

// ---- epoch-adaptive clock ↔ dense reference equivalence ---------------------
//
// `VectorClock` keeps single-writer clocks as a `(slot, value)` epoch and
// promotes to a dense vector only when a second component appears. These
// tests drive the adaptive clock and a dense-only reference model through
// identical random operation sequences and demand observational equality,
// so no epoch fast path can drift from the dense semantics.

/// Dense-only reference model: a plain `Vec<u64>`, no representation tricks.
#[derive(Clone, Debug, Default)]
struct DenseRef {
    entries: Vec<u64>,
}

impl DenseRef {
    fn get(&self, slot: usize) -> u64 {
        self.entries.get(slot).copied().unwrap_or(0)
    }

    fn set(&mut self, slot: usize, value: u64) {
        if self.entries.len() <= slot {
            self.entries.resize(slot + 1, 0);
        }
        self.entries[slot] = value;
    }

    fn tick(&mut self, slot: usize) -> u64 {
        let v = self.get(slot) + 1;
        self.set(slot, v);
        v
    }

    fn join(&mut self, other: &DenseRef) {
        for (i, &v) in other.entries.iter().enumerate() {
            if v > self.get(i) {
                self.set(i, v);
            }
        }
    }

    fn leq(&self, other: &DenseRef) -> bool {
        self.entries
            .iter()
            .enumerate()
            .all(|(i, &v)| v <= other.get(i))
    }
}

/// Apply one random mutation to both representations. Few operations per
/// clock keeps a healthy share of cases in the epoch (≤1 nonzero slot)
/// regime, where the fast paths live.
fn mutate_both(rng: &mut ChaCha8Rng, vc: &mut VectorClock, dense: &mut DenseRef) {
    match rng.gen_range(0u32..4) {
        0 => {
            let (slot, v) = (rng.gen_range(0usize..6), rng.gen_range(0u64..20));
            vc.set(slot, v);
            dense.set(slot, v);
        }
        1 => {
            let slot = rng.gen_range(0usize..6);
            assert_eq!(vc.tick(slot), dense.tick(slot), "tick return");
        }
        2 => {
            // Join a random singleton (the common cross-clock flow shape).
            let (slot, v) = (rng.gen_range(0usize..6), rng.gen_range(0u64..20));
            let mut other = VectorClock::new();
            other.set(slot, v);
            let mut other_dense = DenseRef::default();
            other_dense.set(slot, v);
            vc.join(&other);
            dense.join(&other_dense);
        }
        _ => {
            let ops = rng.gen_range(0usize..4);
            let (a, b) = gen_pair(rng, ops);
            vc.join(&a);
            dense.join(&b);
        }
    }
}

/// Generate an adaptive clock and its dense shadow via `ops` random
/// mutations applied to both.
fn gen_pair(rng: &mut ChaCha8Rng, ops: usize) -> (VectorClock, DenseRef) {
    let mut vc = VectorClock::new();
    let mut dense = DenseRef::default();
    for _ in 0..ops {
        mutate_both(rng, &mut vc, &mut dense);
    }
    (vc, dense)
}

#[test]
fn adaptive_clock_matches_dense_reference_componentwise() {
    for case in 0..512 {
        let mut rng = rng_for(case);
        let ops = rng.gen_range(0usize..8);
        let (vc, dense) = gen_pair(&mut rng, ops);
        for slot in 0..8 {
            assert_eq!(
                vc.get(slot),
                dense.get(slot),
                "case {case}: slot {slot} of {vc:?} vs {dense:?}"
            );
        }
        assert_eq!(
            vc.iter_nonzero().count(),
            dense.entries.iter().filter(|&&v| v > 0).count(),
            "case {case}: nonzero count of {vc:?}"
        );
    }
}

#[test]
fn adaptive_clock_orderings_match_dense_reference() {
    for case in 0..512 {
        let mut rng = rng_for(case);
        let a_ops = rng.gen_range(0usize..6);
        let b_ops = rng.gen_range(0usize..6);
        let (a, a_dense) = gen_pair(&mut rng, a_ops);
        let (b, b_dense) = gen_pair(&mut rng, b_ops);
        let leq = a_dense.leq(&b_dense);
        let geq = b_dense.leq(&a_dense);
        assert_eq!(a.leq(&b), leq, "case {case}: {a:?} ≤ {b:?}");
        assert_eq!(b.leq(&a), geq, "case {case}: {b:?} ≤ {a:?}");
        assert_eq!(
            a.concurrent_with(&b),
            !leq && !geq,
            "case {case}: {a:?} ∥ {b:?}"
        );
        assert_eq!(
            a.happens_before(&b),
            leq && !geq,
            "case {case}: {a:?} → {b:?}"
        );
        assert_eq!(a == b, leq && geq, "case {case}: {a:?} == {b:?}");
    }
}

#[test]
fn adaptive_clock_join_matches_dense_reference() {
    for case in 0..512 {
        let mut rng = rng_for(case);
        let a_ops = rng.gen_range(0usize..6);
        let b_ops = rng.gen_range(0usize..6);
        let (mut a, mut a_dense) = gen_pair(&mut rng, a_ops);
        let (b, b_dense) = gen_pair(&mut rng, b_ops);
        a.join(&b);
        a_dense.join(&b_dense);
        for slot in 0..8 {
            assert_eq!(
                a.get(slot),
                a_dense.get(slot),
                "case {case}: join slot {slot}"
            );
        }
    }
}

// ---- lockset interning table ------------------------------------------------

#[test]
fn lockset_table_ids_are_stable_and_faithful() {
    use home::trace::{LocksetId, LocksetTable};
    for case in 0..256 {
        let mut rng = rng_for(case);
        let mut table = LocksetTable::new();
        let mut ids: Vec<LocksetId> = vec![LocksetTable::EMPTY];
        let mut sets: Vec<LockSet> = vec![LockSet::new()];
        for _ in 0..rng.gen_range(1usize..24) {
            let pick = rng.gen_range(0usize..ids.len());
            let lock = LockId(rng.gen_range(0u32..8));
            let (id, set) = if rng.gen_bool(0.5) {
                let mut set = sets[pick].clone();
                set.insert(lock);
                (table.with_insert(ids[pick], lock), set)
            } else {
                let mut set = sets[pick].clone();
                set.remove(lock);
                (table.with_remove(ids[pick], lock), set)
            };
            // The id must resolve to exactly the set the reference built.
            assert_eq!(table.get(id), &set, "case {case}");
            // Re-interning the same set must return the same id.
            assert_eq!(table.intern(set.clone()), id, "case {case}: unstable id");
            ids.push(id);
            sets.push(set);
        }
        // Distinct sets must have distinct ids (hash-consing is injective).
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                assert_eq!(
                    ids[i] == ids[j],
                    sets[i] == sets[j],
                    "case {case}: ids {i},{j}"
                );
            }
        }
    }
}

#[test]
fn lockset_table_disjointness_cache_matches_set_semantics() {
    use home::trace::LocksetTable;
    for case in 0..256 {
        let mut rng = rng_for(case);
        let mut table = LocksetTable::new();
        let ids: Vec<_> = (0..rng.gen_range(2usize..8))
            .map(|_| table.intern(gen_lockset(&mut rng)))
            .collect();
        // Query every pair twice (second hit exercises the memo cache) and
        // in both orders (the cache key is symmetric).
        for _ in 0..2 {
            for &a in &ids {
                for &b in &ids {
                    let expected = table.get(a).clone().disjoint(table.get(b));
                    assert_eq!(table.disjoint(a, b), expected, "case {case}: {a:?},{b:?}");
                    assert_eq!(table.disjoint(b, a), expected, "case {case}: symmetric");
                }
            }
        }
    }
}

// ---- DSL parse ∘ print round-trip -------------------------------------------

fn gen_name(rng: &mut ChaCha8Rng) -> String {
    // Lowercase identifiers that cannot collide with DSL keywords.
    format!("v{}", rng.gen_range(0u32..40))
}

fn gen_expr(rng: &mut ChaCha8Rng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.4) {
        return match rng.gen_range(0u32..7) {
            0 => Expr::Int(rng.gen_range(0i64..100)),
            1 => Expr::Rank,
            2 => Expr::Size,
            3 => Expr::ThreadId,
            4 => Expr::NumThreads,
            5 => Expr::Any,
            _ => Expr::Var(gen_name(rng)),
        };
    }
    match rng.gen_range(0u32..6) {
        0 => Expr::bin(
            BinOp::Add,
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1),
        ),
        1 => Expr::bin(
            BinOp::Mul,
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1),
        ),
        2 => Expr::bin(
            BinOp::Eq,
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1),
        ),
        3 => Expr::bin(
            BinOp::Lt,
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1),
        ),
        4 => Expr::Neg(Box::new(gen_expr(rng, depth - 1))),
        _ => Expr::Not(Box::new(gen_expr(rng, depth - 1))),
    }
}

fn gen_block(rng: &mut ChaCha8Rng, depth: usize, max_len: usize) -> Vec<Stmt> {
    let len = rng.gen_range(1usize..max_len.max(2));
    (0..len).map(|_| gen_stmt(rng, depth)).collect()
}

fn gen_stmt(rng: &mut ChaCha8Rng, depth: usize) -> Stmt {
    if depth == 0 || rng.gen_bool(0.5) {
        return match rng.gen_range(0u32..9) {
            0 => b::decl(&gen_name(rng), gen_expr(rng, 2)),
            1 => b::shared_decl(&gen_name(rng), gen_expr(rng, 2)),
            2 => b::compute(gen_expr(rng, 2)),
            3 => b::send(gen_expr(rng, 1), gen_expr(rng, 1), gen_expr(rng, 1)),
            4 => b::recv(gen_expr(rng, 1), gen_expr(rng, 1)),
            5 => b::mpi(MpiStmt::Barrier { comm: None }),
            6 => b::mpi(MpiStmt::Allreduce {
                op: IrReduceOp::Max,
                count: gen_expr(rng, 1),
                comm: None,
            }),
            7 => b::mpi(MpiStmt::Probe {
                src: gen_expr(rng, 1),
                tag: gen_expr(rng, 1),
                comm: None,
            }),
            _ => b::omp_barrier(),
        };
    }
    match rng.gen_range(0u32..9) {
        0 => b::if_then(gen_expr(rng, 2), gen_block(rng, depth - 1, 4)),
        1 => b::if_else(
            gen_expr(rng, 2),
            gen_block(rng, depth - 1, 4),
            gen_block(rng, depth - 1, 3),
        ),
        2 => b::seq_for(
            &gen_name(rng),
            gen_expr(rng, 1),
            gen_expr(rng, 1),
            gen_block(rng, depth - 1, 4),
        ),
        3 => b::omp_parallel(gen_expr(rng, 1), gen_block(rng, depth - 1, 4)),
        4 => b::omp_for(
            &gen_name(rng),
            gen_expr(rng, 1),
            gen_expr(rng, 1),
            gen_block(rng, depth - 1, 4),
        ),
        5 => b::omp_single(gen_block(rng, depth - 1, 4)),
        6 => b::omp_master(gen_block(rng, depth - 1, 4)),
        7 => b::omp_critical(&gen_name(rng), gen_block(rng, depth - 1, 4)),
        _ => {
            let sections = (0..rng.gen_range(1usize..3))
                .map(|_| gen_block(rng, depth - 1, 3))
                .collect();
            b::omp_sections(sections)
        }
    }
}

/// print ∘ parse ∘ print is the identity on printed form (canonical printer
/// is a fixpoint), and parse succeeds on everything the builder can produce.
#[test]
fn printed_programs_reparse_and_print_identically() {
    for case in 0..64 {
        let mut rng = rng_for(1_000 + case);
        let body = gen_block(&mut rng, 3, 6);
        let program = home::ir::build::finalize("prop", body);
        let printed = print_program(&program);
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("case {case}: printed program must parse: {e}\n{printed}"));
        assert_eq!(reparsed.stmt_count(), program.stmt_count(), "case {case}");
        let printed2 = print_program(&reparsed);
        assert_eq!(printed, printed2, "case {case}");
    }
}

// ---- static analysis invariants ---------------------------------------------

/// Algorithm 1's marking is exactly "syntactically inside an omp parallel
/// region": instrumented ⇒ in-region, and outside-region reachable calls are
/// never instrumented.
#[test]
fn checklist_instruments_only_hybrid_sites() {
    for case in 0..64 {
        let mut rng = rng_for(2_000 + case);
        let body = gen_block(&mut rng, 3, 6);
        let program = home::ir::build::finalize("prop", body);
        let report = home::static_analysis::analyze(&program);
        for site in &report.checklist.sites {
            if site.instrument {
                assert!(site.in_hybrid_region && site.reachable, "case {case}");
            }
            if !site.in_hybrid_region {
                assert!(!site.instrument, "case {case}");
            }
        }
        assert_eq!(
            report.stats.instrumented + report.stats.skipped,
            report.stats.total_mpi_calls,
            "case {case}"
        );
    }
}
