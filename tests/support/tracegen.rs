//! Seeded ChaCha trace generators for the detector's property tests (the
//! crates registry is unreachable, so proptest is unavailable); every case
//! is a pure function of its seed. `tests/metamorphic.rs` uses the
//! one-region generator, `tests/detector_oracle.rs` the multi-region one.

// Each test binary that includes this file uses its own half of it.
#![allow(dead_code)]

use home::trace::{
    AccessKind, BarrierId, Event, EventKind, LockId, MemLoc, Rank, RegionId, SrcLoc, Tid, Trace,
    VarId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

pub fn rng_for(case: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0x4D45_5441 + case)
}

/// A tiny op language for the threads of a region.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Write(u32),
    Read(u32),
    Locked(u32, u32), // (lock, var): acquire; write var; release
}

fn gen_op(rng: &mut ChaCha8Rng) -> Op {
    match rng.gen_range(0u32..3) {
        0 => Op::Write(rng.gen_range(0u32..4)),
        1 => Op::Read(rng.gen_range(0u32..4)),
        _ => Op::Locked(rng.gen_range(0u32..2), rng.gen_range(0u32..4)),
    }
}

/// Random `(thread, op)` pairs for two threads; the pair order is the
/// global interleaving.
pub fn gen_ops(rng: &mut ChaCha8Rng) -> Vec<(u8, Op)> {
    let len = rng.gen_range(1usize..12);
    (0..len)
        .map(|_| (rng.gen_range(0u8..2), gen_op(rng)))
        .collect()
}

/// One rank's events in recording order. Sequence numbers count up within
/// the rank until [`interleave`] renumbers them.
struct Emitter {
    rank: u32,
    /// Give accesses a line per (kind, variable) — a "call site" that
    /// repeats, so the detector's dedupe has something to merge — instead
    /// of a line per event.
    sites: bool,
    events: Vec<Event>,
    /// Next barrier epoch of each region.
    epochs: BTreeMap<u64, u64>,
}

impl Emitter {
    fn new(rank: u32, sites: bool) -> Emitter {
        Emitter {
            rank,
            sites,
            events: Vec::new(),
            epochs: BTreeMap::new(),
        }
    }

    fn push(&mut self, tid: u32, region: Option<u64>, kind: EventKind) {
        let seq = self.events.len() as u64;
        let line = match (self.sites, &kind) {
            (true, EventKind::Access { loc, kind }) => {
                let var = match loc {
                    MemLoc::Var(v) => v.0,
                    _ => 0,
                };
                10 * (1 + *kind as u32) + var
            }
            (true, _) => 1,
            (false, _) => seq as u32 + 1,
        };
        self.events.push(Event {
            seq,
            rank: Rank(self.rank),
            tid: Tid(tid),
            region: region.map(RegionId),
            time_ns: seq,
            loc: Some(SrcLoc::new("m.hmp", line)),
            kind,
        });
    }

    fn access(&mut self, tid: u32, region: Option<u64>, var: u32, kind: AccessKind) {
        let loc = MemLoc::Var(VarId(var));
        self.push(tid, region, EventKind::Access { loc, kind });
    }

    fn op(&mut self, tid: u32, region: Option<u64>, op: Op) {
        match op {
            Op::Write(v) => self.access(tid, region, v, AccessKind::Write),
            Op::Read(v) => self.access(tid, region, v, AccessKind::Read),
            Op::Locked(l, v) => {
                self.push(tid, region, EventKind::Acquire { lock: LockId(l) });
                self.access(tid, region, v, AccessKind::Write);
                self.push(tid, region, EventKind::Release { lock: LockId(l) });
            }
        }
    }

    /// Every thread of the team passes the barrier (recording order: all
    /// arrivals precede all departures, which emitting the whole team's
    /// events together satisfies).
    fn barrier(&mut self, region: u64, team: u32) {
        let epoch = self.epochs.entry(region).or_insert(0);
        let kind = EventKind::Barrier {
            barrier: BarrierId(region as u32),
            epoch: *epoch,
        };
        *epoch += 1;
        for tid in 0..team {
            self.push(tid, Some(region), kind.clone());
        }
    }

    fn fork(&mut self, by: (u32, Option<u64>), region: u64, nthreads: u32) {
        let region = RegionId(region);
        self.push(by.0, by.1, EventKind::Fork { region, nthreads });
    }

    fn join(&mut self, by: (u32, Option<u64>), region: u64) {
        let region = RegionId(region);
        self.push(by.0, by.1, EventKind::JoinRegion { region });
    }
}

/// Build a one-region, two-thread trace from the op sequence; `barrier_at`
/// optionally inserts a team barrier after the i-th op.
pub fn build_trace(ops: &[(u8, Op)], barrier_at: Option<usize>) -> Trace {
    let mut em = Emitter::new(0, false);
    em.fork((0, None), 0, 2);
    for (i, &(t, op)) in ops.iter().enumerate() {
        em.op(t as u32, Some(0), op);
        if barrier_at == Some(i) {
            em.barrier(0, 2);
        }
    }
    em.join((0, None), 0);
    Trace::from_events(em.events)
}

/// One step of a region's schedule: `(region, team width, what)`.
type Step = (u64, u32, StepKind);

#[derive(Clone, Copy)]
enum StepKind {
    Op(u32, Op),
    Barrier,
    /// Fork / join of this step's region by the hosting rank's `forker`.
    Fork,
    Join,
}

fn gen_steps(rng: &mut ChaCha8Rng, region: u64, team: u32, max: usize) -> Vec<Step> {
    (0..rng.gen_range(1usize..max))
        .map(|_| {
            let kind = if rng.gen_bool(0.15) {
                StepKind::Barrier
            } else {
                StepKind::Op(rng.gen_range(0u32..team), gen_op(rng))
            };
            (region, team, kind)
        })
        .collect()
}

/// A random interleaving of `lists` that keeps each list's own order.
fn interleave<T>(rng: &mut ChaCha8Rng, lists: Vec<Vec<T>>) -> Vec<T> {
    let mut queues: Vec<std::vec::IntoIter<T>> = lists.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::new();
    while !queues.is_empty() {
        let pick = rng.gen_range(0usize..queues.len());
        match queues[pick].next() {
            Some(item) => out.push(item),
            None => drop(queues.swap_remove(pick)),
        }
    }
    out
}

/// One rank: spine accesses around one to three sequential regions of two
/// or three threads, one of which has a second region live inside it —
/// *nested* (forked and joined by one of its threads) or *overlapping*
/// (forked and joined by the spine while the outer region runs). The outer
/// region's remaining steps interleave with the inner region's.
fn gen_rank(rng: &mut ChaCha8Rng, rank: u32) -> Vec<Event> {
    let mut em = Emitter::new(rank, true);
    let spine = (0, None);
    let regions = rng.gen_range(1u64..4);
    let host = rng.gen_range(0u64..regions);
    let inner = regions; // an id no outer region uses
    for outer in 0..regions {
        if rng.gen_bool(0.5) {
            em.op(0, None, gen_op(rng));
        }
        let team = rng.gen_range(2u32..4);
        em.fork(spine, outer, team);
        let mut schedule = gen_steps(rng, outer, team, 10);
        let mut forker = spine;
        if outer == host {
            if rng.gen_bool(0.5) {
                forker = (rng.gen_range(0u32..team), Some(outer));
            }
            let rest = schedule.split_off(rng.gen_range(0usize..schedule.len() + 1));
            let inner_team = rng.gen_range(1u32..3);
            let mut inner_steps = gen_steps(rng, inner, inner_team, 6);
            inner_steps.push((inner, inner_team, StepKind::Join));
            schedule.push((inner, inner_team, StepKind::Fork));
            schedule.extend(interleave(rng, vec![rest, inner_steps]));
        }
        for (region, team, kind) in schedule {
            match kind {
                StepKind::Op(tid, op) => em.op(tid, Some(region), op),
                StepKind::Barrier => em.barrier(region, team),
                StepKind::Fork => em.fork(forker, region, team),
                StepKind::Join => em.join(forker, region),
            }
        }
        em.join(spine, outer);
    }
    if rng.gen_bool(0.5) {
        em.op(0, None, gen_op(rng));
    }
    em.events
}

/// One or two ranks of [`gen_rank`], interleaved at random (each rank's
/// order kept) and numbered in the interleaved order.
pub fn gen_regions_trace(rng: &mut ChaCha8Rng) -> Trace {
    let nranks = rng.gen_range(1u32..3);
    let ranks = (0..nranks).map(|rank| gen_rank(rng, rank)).collect();
    let mut events = interleave(rng, ranks);
    for (seq, e) in events.iter_mut().enumerate() {
        e.seq = seq as u64;
        e.time_ns = e.seq;
    }
    Trace::from_events(events)
}
