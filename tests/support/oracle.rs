//! A deliberately naïve reference for the race detector: a full vector clock
//! per event, plain `BTreeSet` locksets, an O(n²) scan over every pair of
//! accesses to a location within a rank. No epochs, interning, retirement,
//! history cap or dedupe — nothing production does to be fast or bounded —
//! so the two can only agree by computing the same happens-before order and
//! the same locksets. It shares the detector's *specification* (which events
//! are edges; the spine and every region master are one physical thread) and
//! none of its code. Only for well-formed traces, as the runtime records
//! them: per rank a region's fork precedes its threads' events, which precede
//! its join, and a team's barrier events of one epoch sit together.
//!
//! A reported race carries both accesses as the events recorded them: each
//! side's [`RaceAccess`] is built from its own event, here at the access.

use home::stream::{DetectorMode, Race, RaceAccess};
use home::trace::{AccessKind, BarrierId, EventKind, LockId, MemLoc, Rank, RegionId, Tid, Trace};
use std::collections::{BTreeMap, BTreeSet};

type Seg = (Option<RegionId>, Tid);
type Clock = BTreeMap<Seg, u64>;
/// One racing pair: `(rank, location, first.seq, second.seq)`.
pub type Pair = (Rank, MemLoc, u64, u64);

fn join(into: &mut Clock, from: &Clock) {
    for (seg, &n) in from {
        let slot = into.entry(*seg).or_insert(0);
        *slot = (*slot).max(n);
    }
}

fn leq(a: &Clock, b: &Clock) -> bool {
    a.iter().all(|(seg, n)| b.get(seg).is_some_and(|m| n <= m))
}

struct Access {
    seg: Seg,
    access: RaceAccess,
    clock: Clock,
    locks: BTreeSet<LockId>,
}

#[derive(Default)]
struct RankState {
    clocks: BTreeMap<Seg, Clock>,
    locks: BTreeMap<Seg, BTreeSet<LockId>>,
    fork_clock: BTreeMap<RegionId, Clock>,
    release_clock: BTreeMap<LockId, Clock>,
    barrier_clock: BTreeMap<(RegionId, BarrierId, u64), Clock>,
    accesses: BTreeMap<MemLoc, Vec<Access>>,
}

impl RankState {
    /// The segment's clock; a new one starts from its region's fork clock.
    fn clock(&mut self, seg: Seg) -> &mut Clock {
        let forked = seg.0.and_then(|r| self.fork_clock.get(&r)).cloned();
        let clock = self.clocks.entry(seg).or_insert(forked.unwrap_or_default());
        clock.entry(seg).or_insert(1);
        clock
    }

    fn tick(&mut self, seg: Seg) {
        *self.clock(seg).entry(seg).or_insert(0) += 1;
    }

    /// Everything the threads of `region` seen so far have done.
    fn region_clock(&self, region: RegionId) -> Clock {
        let mut all = Clock::new();
        for (_, clock) in self.clocks.iter().filter(|(seg, _)| seg.0 == Some(region)) {
            join(&mut all, clock);
        }
        all
    }
}

/// Every race of `trace` under `mode`, keyed by its pair.
pub fn races(trace: &Trace, mode: DetectorMode, ignore_locks: bool) -> BTreeMap<Pair, Race> {
    let mut found = BTreeMap::new();
    for &rank in trace.ranks() {
        let mut st = RankState::default();
        for e in trace.by_rank(rank) {
            let seg: Seg = (e.region, e.tid);
            match &e.kind {
                EventKind::Fork { region, .. } => {
                    let at_fork = st.clock(seg).clone();
                    st.fork_clock.insert(*region, at_fork);
                    st.tick(seg);
                }
                EventKind::JoinRegion { region } => {
                    let theirs = st.region_clock(*region);
                    join(st.clock(seg), &theirs);
                    st.tick(seg);
                }
                // The first arrival fixes the epoch's clock: the team is waiting.
                EventKind::Barrier { barrier, epoch } => {
                    let Some(region) = e.region else { continue };
                    let team = st.region_clock(region);
                    let key = (region, *barrier, *epoch);
                    let all = st.barrier_clock.entry(key).or_insert(team).clone();
                    join(st.clock(seg), &all);
                    st.tick(seg);
                }
                EventKind::Acquire { .. } | EventKind::Release { .. } if ignore_locks => {}
                EventKind::Acquire { lock } => {
                    if let Some(released) = st.release_clock.get(lock).cloned() {
                        join(st.clock(seg), &released);
                    }
                    st.locks.entry(seg).or_default().insert(*lock);
                    st.tick(seg);
                }
                EventKind::Release { lock } => {
                    st.locks.entry(seg).or_default().remove(lock);
                    let at_release = st.clock(seg).clone();
                    st.release_clock.insert(*lock, at_release);
                    st.tick(seg);
                }
                kind => {
                    st.tick(seg);
                    if let Some((loc, kind)) = kind.access() {
                        let access = Access {
                            seg,
                            access: RaceAccess {
                                seq: e.seq,
                                tid: e.tid,
                                region: e.region,
                                kind,
                                loc: e.loc.clone(),
                                mpi: e.kind.mpi_call().cloned(),
                            },
                            clock: st.clock(seg).clone(),
                            locks: st.locks.get(&seg).cloned().unwrap_or_default(),
                        };
                        st.accesses.entry(loc).or_default().push(access);
                    }
                }
            }
        }
        for (loc, accesses) in &st.accesses {
            for (j, b) in accesses.iter().enumerate() {
                for a in &accesses[..j] {
                    // The spine and every region master (tid 0) are one thread.
                    let one_thread = a.seg == b.seg || (a.seg.1 == Tid(0) && b.seg.1 == Tid(0));
                    let both_read =
                        a.access.kind == AccessKind::Read && b.access.kind == AccessKind::Read;
                    let concurrent = !leq(&a.clock, &b.clock) && !leq(&b.clock, &a.clock);
                    let disjoint = a.locks.is_disjoint(&b.locks);
                    let flagged = match mode {
                        DetectorMode::Hybrid => concurrent && disjoint,
                        DetectorMode::LocksetOnly => disjoint,
                        DetectorMode::HappensBeforeOnly => concurrent,
                    };
                    if flagged && !one_thread && !both_read {
                        let race = Race {
                            rank,
                            loc: *loc,
                            first: a.access.clone(),
                            second: b.access.clone(),
                        };
                        found.insert((rank, *loc, a.access.seq, b.access.seq), race);
                    }
                }
            }
        }
    }
    found
}
