//! The race detector: Eraser-style locksets combined with vector-clock
//! happens-before, per the paper's Section IV-D, maintained online.
//!
//! [`StreamDetector`] consumes events in recording order: its one owner (a
//! `home-core` `Session`) feeds it through `&mut self`, an event at a time
//! from a live simulation or a decoded frame at a time from a recording,
//! passes the race sink with each call, and calls `finish` once. It
//! reconstructs the happens-before partial order
//! from synchronization events (region fork/join, barriers with epochs,
//! lock release→acquire) and simultaneously maintains per-thread
//! locksets. Depending on [`DetectorMode`], a conflicting access pair
//! (same location, different logical threads, at least one write) is
//! reported when it is HB-concurrent, lockset-disjoint, or both (the
//! paper's hybrid — fewer false positives than either alone).
//!
//! Correctness of the single pass relies on two recording-order facts
//! guaranteed by the runtime: (1) all pre-barrier events of every
//! participant have smaller sequence numbers than every barrier event of
//! that epoch, and (2) a region's fork event precedes all events of the
//! region's threads, whose events in turn precede the join event.
//!
//! How it stays online and bounded:
//!
//! - **No look-ahead.** Region membership is accumulated in first-seen
//!   order, and a barrier epoch's participants are *synthesized* from the
//!   region's `Fork` event as threads `0..nthreads`. The runtime's barrier
//!   releases only when the full team arrives, so the synthesized set is
//!   the set that took part on every recorded trace; joining is
//!   commutative and a never-seen participant contributes a fresh
//!   singleton clock.
//! - **Epoch-based retirement (pruning).** When a region joins, every
//!   vector clock, lockset, and access-history record of its segments is
//!   dead weight: the join folds the segments' final clocks into the
//!   master spine, so every later access happens-after every retired
//!   record and can never be HB-concurrent with one. The detector drops
//!   them, bounding live state by the *widest* region instead of the
//!   whole trace. Retirement is disabled in `LocksetOnly` mode, which has
//!   no happens-before edges to make it sound.
//! - **Per-rank state.** Ranks share nothing (the analysis is
//!   per-process), so each has its own state, in one map looked up once
//!   per run of same-rank events.
//!
//! `tests/detector_oracle.rs` checks the verdicts against a deliberately
//! naïve reference (full vector clock per event, O(n²) pair scan) that
//! shares none of this machinery.

use crate::races::{Race, RaceAccess};
use crate::RaceSink;
use home_trace::{
    AccessKind, BarrierId, Event, EventKind, FxHashMap, FxHashSet, HomeError, LockId, LocksetId,
    LocksetTable, MemLoc, MpiCallRecord, Rank, RegionId, SrcLoc, Tid, Trace, VectorClock,
};
use std::sync::Arc;
use std::time::Instant;

/// Which predicate flags a conflicting access pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorMode {
    /// Lockset-disjoint **and** HB-concurrent (the paper's combination).
    Hybrid,
    /// Lockset-disjoint only (classic Eraser — over-reports across
    /// fork/join and barriers).
    LocksetOnly,
    /// HB-concurrent only (pure happens-before — misses nothing it sees but
    /// depends entirely on sync edges).
    HappensBeforeOnly,
}

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Flagging predicate.
    pub mode: DetectorMode,
    /// Per-location access-history cap (bounds the O(n²) pair check; the
    /// earliest accesses are kept since later duplicates rarely add
    /// distinct pairs).
    pub history_cap: usize,
    /// Ignore lock acquire/release events entirely (used to model the
    /// Intel-Thread-Checker baseline's blindness to `omp critical`).
    pub ignore_locks: bool,
    /// Report at most one race per (location, thread-pair) — keeps reports
    /// readable; disable for exhaustive counting.
    pub dedupe_pairs: bool,
    /// Inert. The detector reads nothing from it (replay runs sections in
    /// parallel, each on a detector of its own); the field survives only
    /// because `benchmark/src/layers.rs` assigns it, and goes with the
    /// next `benchmark` change.
    pub jobs: usize,
}

impl DetectorConfig {
    /// The paper's hybrid configuration.
    pub fn hybrid() -> Self {
        DetectorConfig {
            mode: DetectorMode::Hybrid,
            history_cap: 512,
            ignore_locks: false,
            dedupe_pairs: true,
            jobs: 1,
        }
    }

    /// Lockset-only (ablation).
    pub fn lockset_only() -> Self {
        DetectorConfig {
            mode: DetectorMode::LocksetOnly,
            ..DetectorConfig::hybrid()
        }
    }

    /// HB-only (ablation).
    pub fn hb_only() -> Self {
        DetectorConfig {
            mode: DetectorMode::HappensBeforeOnly,
            ..DetectorConfig::hybrid()
        }
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig::hybrid()
    }
}

/// A logical thread segment: the sequential master spine is
/// `(None, Tid(0))`; each thread of a region instance is `(Some(r), t)`.
/// Packed into one integer ([`seg_key`]: the region plus one, zero for the
/// spine, above the thread id), as a location is ([`loc_key`]), because the
/// per-access map lookups hash and compare these keys: as integers that is
/// a few inlined instructions, as the tuple and enum out-of-line calls.
type SegKey = u128;

fn seg_key(region: Option<RegionId>, tid: Tid) -> SegKey {
    region.map_or(0, |r| u128::from(r.0) + 1) << 32 | u128::from(tid.0)
}

fn seg_region(seg: SegKey) -> Option<RegionId> {
    (seg >> 32).checked_sub(1).map(|r| RegionId(r as u64))
}

/// A [`MemLoc`] as one integer: the variant above the variable above the
/// element index.
fn loc_key(loc: MemLoc) -> u128 {
    match loc {
        MemLoc::Monitored(v) => v as u128,
        MemLoc::Var(v) => 1 << 96 | u128::from(v.0),
        MemLoc::Elem(v, i) => 2 << 96 | u128::from(v.0) << 64 | u128::from(i),
    }
}

/// Statistics from one streaming detection run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamStats {
    /// Events consumed.
    pub events: u64,
    /// Sum over ranks of the peak number of simultaneously live segments
    /// (segments whose vector clocks were resident). With pruning this
    /// stays proportional to the widest region, not the trace length.
    pub peak_live_segments: usize,
    /// Total distinct segments ever observed across ranks.
    pub total_segments: usize,
    /// Segments retired (clocks dropped) by region-join pruning.
    pub retired_segments: usize,
    /// Of those, segments retired while at least one *other* region was
    /// still live — the per-segment reachability check proved their records
    /// unreachable without waiting for the overlap to end.
    pub retired_while_overlapping: usize,
    /// True if some location's access history hit the configured cap.
    pub history_overflow: bool,
    /// Consumption throughput, measured from the first event to
    /// [`StreamDetector::finish`].
    pub events_per_sec: f64,
}

/// One remembered access, stored FastTrack-style.
///
/// Instead of a full vector-clock snapshot, a record keeps only its
/// segment's *epoch* — `(slot, clock)`, the segment's own component at the
/// access. That is enough to decide HB-concurrency against any later
/// access exactly, because the detector's clocks obey two invariants:
///
/// 1. A slot's component only ever increases at its owning segment's
///    `tick`; every cross-clock flow (fork snapshot, release→acquire,
///    barrier join, region join, lazy fork inheritance) joins *full*
///    snapshots of whole clocks. Hence any clock `C` with
///    `C[slot] ≥ clock` has absorbed a snapshot of the owning segment
///    taken at-or-after the access, so `C ≥` the access's full clock.
///    Therefore `prev ≤ cur ⟺ prev.clock ≤ cur[prev.slot]`.
/// 2. The later access's own component was freshly ticked, so no earlier
///    record's clock can dominate it: `cur ≤ prev` is never true.
///
/// Together: `concurrent(prev, cur) ⟺ prev.clock > cur[prev.slot]` — an
/// O(1) comparison with no per-access clock clone. Locksets are interned
/// ids in the rank's [`LocksetTable`] for the same reason.
///
/// Beyond the epoch and lockset a record keeps only what the pair check and
/// a later report read: `tid` and `region` (the same-thread test and the
/// dedupe key; the never-reused `slot` already names the segment), the
/// kind, and the event's sequence number, line, monitored-write call and
/// source file — the file as an id into the rank's [`FileTable`], so a
/// record costs no refcount traffic. The [`RaceAccess`] of a reported race's
/// earlier side is rebuilt from these fields only when the race is found;
/// the later side is the event in hand.
struct AccessRecord {
    slot: usize,
    clock: u64,
    seq: u64,
    lockset: LocksetId,
    tid: Tid,
    line: u32,
    file: FileId,
    region: Option<RegionId>,
    kind: AccessKind,
    mpi: Option<MpiCallRecord>,
}

/// Index of a name in a [`FileTable`]; [`NO_FILE`] for an event without a
/// source location.
type FileId = u32;
const NO_FILE: FileId = FileId::MAX;

/// The source-file names of one rank's live history records, each held
/// once with a count of the records naming it. A slot whose count drops to
/// zero gives its name up and is reused, so the table holds only names live
/// records use. Almost every access names the file the previous one did:
/// [`FileTable::acquire`] compares that name's pointer first and falls back
/// to a lookup by content.
#[derive(Default)]
struct FileTable {
    /// Per id: the name (`None` while the slot is free) and its live records.
    slots: Vec<(Option<Arc<str>>, u32)>,
    ids: FxHashMap<Arc<str>, FileId>,
    free: Vec<FileId>,
    /// The id the last `acquire` handed out.
    last: FileId,
}

impl FileTable {
    /// The id of `file`, counted for one more live record.
    fn acquire(&mut self, file: &Arc<str>) -> FileId {
        match self.slots.get_mut(self.last as usize) {
            Some((Some(name), n)) if Arc::ptr_eq(name, file) => *n += 1,
            _ => {
                let (next, free) = (self.slots.len() as FileId, &mut self.free);
                let id = *self
                    .ids
                    .entry(Arc::clone(file))
                    .or_insert_with(|| free.pop().unwrap_or(next));
                if id == next {
                    self.slots.push((None, 0));
                }
                // Hold this pointer: it is the one the next access compares.
                if let Some(slot) = self.slots.get_mut(id as usize) {
                    *slot = (Some(Arc::clone(file)), slot.1 + 1);
                }
                self.last = id;
            }
        }
        self.last
    }

    fn name(&self, id: FileId) -> Option<Arc<str>> {
        self.slots.get(id as usize)?.0.clone()
    }

    /// One live record naming `id` (`NO_FILE` included) is gone.
    fn release(&mut self, id: FileId) {
        if let Some((name, n)) = self.slots.get_mut(id as usize) {
            *n -= 1;
            if *n == 0 {
                if let Some(name) = name.take() {
                    self.ids.remove(&name);
                }
                self.free.push(id);
            }
        }
    }
}

/// Per-location access history. `pushed` counts records ever pushed and is
/// never decremented by pruning, so cap/overflow decisions do not depend
/// on when segments retire.
#[derive(Default)]
struct LocHistory {
    records: Vec<AccessRecord>,
    pushed: usize,
}

/// All per-segment analysis state, held in one map entry so the hot path
/// pays one hash lookup per event instead of one per parallel map.
struct SegState {
    /// The segment's clock slot (unique per segment, never reused — even
    /// across retirement, so remembered epochs can never alias another
    /// segment's component).
    slot: usize,
    vc: VectorClock,
    lockset: LocksetId,
}

/// A joined segment awaiting retirement. Only the final `(slot, clock)`
/// epoch is kept (the vector clock is already dropped): a later sweep
/// retires the segment's history records once every possible future access
/// provably happens-after this epoch.
struct PendingSeg {
    slot: usize,
    clock: u64,
}

/// All mutable analysis state of one rank.
#[derive(Default)]
struct RankStream {
    segs: FxHashMap<SegKey, SegState>,
    /// Next clock slot to assign (monotone, never reused).
    next_slot: usize,
    lockset_table: LocksetTable,
    release_vc: FxHashMap<LockId, VectorClock>,
    fork_vc: FxHashMap<RegionId, VectorClock>,
    barrier_join: FxHashMap<(RegionId, BarrierId, u64), VectorClock>,
    /// Team width announced by each region's `Fork` event; source of the
    /// synthesized barrier participant set.
    region_nthreads: FxHashMap<RegionId, u32>,
    /// Segments seen per region so far, in first-seen order.
    region_threads: FxHashMap<RegionId, Vec<SegKey>>,
    /// The segment of this rank's previous event, already in its region's
    /// roster (`None` once a roster may have lost it).
    rostered: Option<SegKey>,
    history: FxHashMap<u128, LocHistory>,
    files: FileTable,
    history_overflow: bool,
    reported: FxHashSet<(MemLoc, SegKey, SegKey, u32, u32)>,
    races: Vec<Race>,
    last_seq: Option<u64>,
    peak_live: usize,
    retired: usize,
    /// Joined segments whose history records are not yet provably
    /// unreachable (another region was live at join time).
    pending: Vec<PendingSeg>,
    /// Clocks of retired regions (segment, fork and barrier clocks), handed
    /// to the next region's so a region costs no clock allocations once the
    /// first has retired. Never more than were live at once.
    spare_clocks: Vec<VectorClock>,
    /// A sweep's live regions (with whether their team is complete) and
    /// the slots it retires; kept for their capacity.
    region_scratch: Vec<(RegionId, bool)>,
    retired_scratch: Vec<usize>,
    retired_overlapping: usize,
}

impl RankStream {
    /// The segment's state, created on first sight ([`seg_state`]).
    fn seg_mut(&mut self, seg: SegKey) -> &mut SegState {
        let (segs, next_slot) = (&mut self.segs, &mut self.next_slot);
        seg_state(segs, next_slot, &self.fork_vc, &mut self.spare_clocks, seg)
    }

    /// Advance the segment's clock one local step.
    fn advance(&mut self, seg: SegKey) {
        let state = self.seg_mut(seg);
        state.vc.tick(state.slot);
    }

    /// Consume one event of this rank.
    fn on_event(
        &mut self,
        rank: Rank,
        e: &Event,
        config: &DetectorConfig,
        sink: &mut Option<&mut dyn RaceSink>,
    ) -> Result<(), HomeError> {
        if let Some(prev) = self.last_seq {
            if e.seq < prev {
                return Err(HomeError::corrupt_trace(format!(
                    "out-of-order event stream on {rank}: seq {} after seq {prev}",
                    e.seq
                )));
            }
        }
        self.last_seq = Some(e.seq);

        let seg = seg_key(e.region, e.tid);
        if self.rostered != Some(seg) {
            if let Some(region) = e.region {
                let v = self.region_threads.entry(region).or_default();
                if !v.contains(&seg) {
                    v.push(seg);
                }
            }
            self.rostered = Some(seg);
        }

        match &e.kind {
            EventKind::Fork { region, nthreads } => {
                self.region_nthreads.insert(*region, *nthreads);
                let mut vc = self.spare_clocks.pop().unwrap_or_default();
                vc.clone_from(&self.seg_mut(seg).vc);
                self.fork_vc.insert(*region, vc);
                self.advance(seg);
            }
            EventKind::JoinRegion { region } => {
                // A join must refer to a region the stream knows about —
                // either its fork was recorded or some thread ran in it.
                // Anything else is a hand-built/corrupted trace.
                if !self.fork_vc.contains_key(region) && !self.region_threads.contains_key(region) {
                    return Err(HomeError::corrupt_trace(format!(
                        "join event at seq {} on {rank} references unknown segment {region} \
                         (no fork recorded and no thread events)",
                        e.seq
                    )));
                }
                // Detach the spine state so the sibling clocks can be
                // borrowed in place instead of cloned.
                self.seg_mut(seg);
                if let Some(mut state) = self.segs.remove(&seg) {
                    for s in self.region_threads.get(region).into_iter().flatten() {
                        if let Some(j) = self.segs.get(s) {
                            state.vc.join(&j.vc);
                        }
                    }
                    self.segs.insert(seg, state);
                }
                self.advance(seg);
                // The join folded the region's final clocks into the spine,
                // so its segments are candidates for retirement. With no
                // other region live they retire in this very sweep; under
                // overlapping/nested regions they wait in `pending` until
                // the per-segment reachability check proves every possible
                // future access happens-after their final epoch.
                if config.mode != DetectorMode::LocksetOnly {
                    self.begin_retire(*region);
                    self.sweep_retired();
                }
            }
            EventKind::Barrier { barrier, epoch } => {
                if let Some(region) = e.region {
                    let key = (region, *barrier, *epoch);
                    if !self.barrier_join.contains_key(&key) {
                        // First arrival processed: the runtime emits
                        // barrier events only after the whole team
                        // arrived, so every participant's pre-barrier
                        // events are already folded into its clock and
                        // the epoch join is computable now, from borrowed
                        // participant clocks. The team is synthesized from
                        // the fork's width; a trace missing the fork
                        // (hand-built) falls back to the threads seen so
                        // far.
                        let mut join = self.spare_clocks.pop().unwrap_or_default();
                        join.clear();
                        match self.region_nthreads.get(&region).copied() {
                            Some(n) => {
                                for t in 0..n {
                                    join.join(&self.seg_mut(seg_key(Some(region), Tid(t))).vc);
                                }
                            }
                            None => {
                                let seen = self.region_threads.get(&region).cloned();
                                for p in seen.unwrap_or_default() {
                                    join.join(&self.seg_mut(p).vc);
                                }
                            }
                        }
                        self.barrier_join.insert(key, join);
                    }
                    self.seg_mut(seg);
                    let RankStream {
                        segs, barrier_join, ..
                    } = self;
                    if let (Some(join), Some(state)) = (barrier_join.get(&key), segs.get_mut(&seg))
                    {
                        state.vc.join(join);
                    }
                    self.advance(seg);
                    // Barriers fold whole-team clocks, the strongest
                    // ordering edge inside a region — the natural moment a
                    // pending segment from an overlapped region becomes
                    // provably unreachable.
                    self.sweep_retired();
                }
            }
            EventKind::Acquire { lock } => {
                if !config.ignore_locks {
                    self.seg_mut(seg);
                    let RankStream {
                        segs,
                        release_vc,
                        lockset_table,
                        ..
                    } = self;
                    if let Some(state) = segs.get_mut(&seg) {
                        if let Some(rvc) = release_vc.get(lock) {
                            state.vc.join(rvc);
                        }
                        state.lockset = lockset_table.with_insert(state.lockset, *lock);
                        state.vc.tick(state.slot);
                    }
                }
            }
            EventKind::Release { lock } => {
                if !config.ignore_locks {
                    self.seg_mut(seg);
                    let RankStream {
                        segs,
                        release_vc,
                        lockset_table,
                        ..
                    } = self;
                    if let Some(state) = segs.get_mut(&seg) {
                        state.lockset = lockset_table.with_remove(state.lockset, *lock);
                        release_vc.entry(*lock).or_default().clone_from(&state.vc);
                        state.vc.tick(state.slot);
                    }
                }
            }
            kind => match kind.access() {
                Some((loc, akind)) => self.on_access(rank, e, loc, akind, config, sink),
                // MpiCall / MpiInit entries advance program order only.
                None => self.advance(seg),
            },
        }
        self.peak_live = self.peak_live.max(self.segs.len());
        Ok(())
    }

    /// Begin retiring a joined region: drop its bookkeeping (fork clock,
    /// barrier joins, team roster) and move its segments' final epochs to
    /// the pending list. The vector clocks and locksets are freed here —
    /// only the scalar `(slot, clock)` epoch survives, which is all
    /// [`RankStream::sweep_retired`] needs to decide reachability, and all
    /// the race check needs to test remembered records (slots are never
    /// reused, so the epochs stay exact).
    fn begin_retire(&mut self, region: RegionId) {
        let mut keys: Vec<SegKey> = self.region_threads.remove(&region).unwrap_or_default();
        self.rostered = None;
        if let Some(n) = self.region_nthreads.remove(&region) {
            for t in 0..n {
                let seg = seg_key(Some(region), Tid(t));
                if !keys.contains(&seg) {
                    keys.push(seg);
                }
            }
        }
        let spare = &mut self.spare_clocks;
        spare.extend(self.fork_vc.remove(&region));
        self.barrier_join.retain(|(r, _, _), join| {
            let keep = *r != region;
            if !keep {
                spare.push(std::mem::take(join));
            }
            keep
        });
        for seg in keys {
            if let Some(state) = self.segs.remove(&seg) {
                self.pending.push(PendingSeg {
                    slot: state.slot,
                    clock: state.vc.get(state.slot),
                });
                spare.push(state.vc);
            }
        }
    }

    /// Per-segment reachability sweep: a pending segment retires once every
    /// possible future access happens-after its final epoch `(slot, clock)`
    /// — at which point no future access can be HB-concurrent with any of
    /// its remembered records, and they can be dropped.
    ///
    /// "Every possible future access" decomposes into (a) accesses by
    /// currently live segments, covered iff each live clock dominates the
    /// epoch (new regions they fork later inherit a dominating clock
    /// transitively), and (b) first accesses of live regions' *not yet
    /// materialized* team members, whose initial clock is the region's fork
    /// clock — covered iff that fork clock dominates the epoch, or the team
    /// is already fully materialized (fork width known and every member
    /// seen), leaving no such future member.
    ///
    /// With no region live this fires immediately for every pending segment
    /// (the join fold makes the spine dominate), reproducing the old
    /// serial-region behaviour; under overlap it is the reachability check
    /// that replaces the old "never retire" pessimism.
    fn sweep_retired(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let materialized =
            |r: &RegionId| match (self.region_nthreads.get(r), self.region_threads.get(r)) {
                (Some(&n), Some(seen)) => (0..n).all(|t| seen.contains(&seg_key(Some(*r), Tid(t)))),
                _ => false,
            };
        // Into scratch lists kept across sweeps: a sweep runs at every join
        // and every barrier while anything is pending, so it must not
        // allocate. A live region may be listed more than once; that only
        // repeats a test below.
        let mut live_regions = std::mem::take(&mut self.region_scratch);
        live_regions.clear();
        let regions = self.fork_vc.keys().chain(self.region_nthreads.keys());
        let regions = regions.chain(self.region_threads.keys());
        live_regions.extend(regions.map(|r| (*r, materialized(r))));
        let overlapping = !live_regions.is_empty();

        let mut pending = std::mem::take(&mut self.pending);
        let mut retired_now = std::mem::take(&mut self.retired_scratch);
        retired_now.clear();
        pending.retain(|p| {
            let live_segs_dominate = self.segs.values().all(|t| t.vc.get(p.slot) >= p.clock);
            let future_members_dominate = live_regions.iter().all(|(r, materialized)| {
                *materialized
                    || self
                        .fork_vc
                        .get(r)
                        .is_some_and(|f| f.get(p.slot) >= p.clock)
            });
            let retire = live_segs_dominate && future_members_dominate;
            if retire {
                retired_now.push(p.slot);
            }
            !retire
        });
        self.pending = pending;
        if !retired_now.is_empty() {
            self.retired += retired_now.len();
            if overlapping {
                self.retired_overlapping += retired_now.len();
            }
            retired_now.sort_unstable();
            let files = &mut self.files;
            for h in self.history.values_mut() {
                h.records.retain(|r| {
                    let keep = retired_now.binary_search(&r.slot).is_err();
                    if !keep {
                        files.release(r.file);
                    }
                    keep
                });
            }
        }
        self.region_scratch = live_regions;
        self.retired_scratch = retired_now;
    }

    /// The access arm: advance the segment's clock, check the access
    /// against the location's history, and remember it while the history
    /// is under its cap.
    fn on_access(
        &mut self,
        rank: Rank,
        e: &Event,
        loc: MemLoc,
        kind: AccessKind,
        config: &DetectorConfig,
        sink: &mut Option<&mut dyn RaceSink>,
    ) {
        let seg = seg_key(e.region, e.tid);
        let (segs, next_slot) = (&mut self.segs, &mut self.next_slot);
        let state = seg_state(segs, next_slot, &self.fork_vc, &mut self.spare_clocks, seg);
        let (files, locksets) = (&mut self.files, &mut self.lockset_table);
        let clock = state.vc.tick(state.slot);
        let line = e.loc.as_ref().map_or(0, |l| l.line);
        let entry = self.history.entry(loc_key(loc)).or_default();
        for prev in entry.records.iter() {
            // Segments of the same physical thread: the spine (None, 0) and
            // any region-master segment (Some(_), 0) share tid 0 of this
            // process and are ordered by fork/join edges anyway; explicit
            // exclusion guards the lockset-only mode.
            if prev.tid == e.tid && (e.tid == Tid(0) || prev.region == e.region) {
                continue;
            }
            if prev.kind == AccessKind::Read && kind == AccessKind::Read {
                continue;
            }
            // The FastTrack epoch check (see [`AccessRecord`]): `prev` is
            // HB-concurrent with the current access iff its own clock
            // component exceeds the current clock's entry for its slot.
            let hb_concurrent = || prev.clock > state.vc.get(prev.slot);
            let is_race = match config.mode {
                DetectorMode::Hybrid => {
                    hb_concurrent() && locksets.disjoint(prev.lockset, state.lockset)
                }
                DetectorMode::LocksetOnly => locksets.disjoint(prev.lockset, state.lockset),
                DetectorMode::HappensBeforeOnly => hb_concurrent(),
            };
            if is_race {
                // Dedupe per (location, segment pair, call-site pair):
                // repeated executions of one racy pair report once, but
                // distinct racy call sites each get their own report.
                let prev_seg = seg_key(prev.region, prev.tid);
                let key = (
                    loc,
                    prev_seg.min(seg),
                    prev_seg.max(seg),
                    prev.line.min(line),
                    prev.line.max(line),
                );
                if config.dedupe_pairs && !self.reported.insert(key) {
                    continue;
                }
                let race = Race {
                    rank,
                    loc,
                    first: RaceAccess {
                        seq: prev.seq,
                        tid: prev.tid,
                        region: prev.region,
                        kind: prev.kind,
                        loc: files.name(prev.file).map(|f| SrcLoc::new(f, prev.line)),
                        mpi: prev.mpi.clone(),
                    },
                    second: RaceAccess {
                        seq: e.seq,
                        tid: e.tid,
                        region: e.region,
                        kind,
                        loc: e.loc.clone(),
                        mpi: e.kind.mpi_call().cloned(),
                    },
                };
                if let Some(sink) = sink {
                    sink.on_race(&race);
                }
                self.races.push(race);
            }
        }
        if entry.pushed < config.history_cap {
            entry.records.push(AccessRecord {
                slot: state.slot,
                clock,
                seq: e.seq,
                lockset: state.lockset,
                tid: e.tid,
                line,
                file: e.loc.as_ref().map_or(NO_FILE, |l| files.acquire(&l.file)),
                region: e.region,
                kind,
                mpi: e.kind.mpi_call().cloned(),
            });
            entry.pushed += 1;
        } else {
            self.history_overflow = true;
        }
    }
}

/// The segment's state, lazily initialized on first sight (region threads
/// inherit the fork clock when one was recorded, and the fresh clock counts
/// one local step). Unknown segment ids — possible in hand-built or
/// corrupted traces — therefore get a fresh clock instead of a lookup
/// failure. It borrows only what it needs, so the access arm can hold the
/// state while it reads and extends the location's history.
fn seg_state<'a>(
    segs: &'a mut FxHashMap<SegKey, SegState>,
    next_slot: &mut usize,
    fork_vc: &FxHashMap<RegionId, VectorClock>,
    spare_clocks: &mut Vec<VectorClock>,
    seg: SegKey,
) -> &'a mut SegState {
    segs.entry(seg).or_insert_with(|| {
        let slot = *next_slot;
        *next_slot += 1;
        let mut vc = spare_clocks.pop().unwrap_or_default();
        match seg_region(seg).and_then(|region| fork_vc.get(&region)) {
            Some(fork_vc) => vc.clone_from(fork_vc),
            None => vc.clear(),
        }
        vc.tick(slot);
        SegState {
            slot,
            vc,
            lockset: LocksetTable::EMPTY,
        }
    })
}

/// The online detector. Feed it events (in recording order per rank) via
/// [`StreamDetector::consume_batch`], then call [`StreamDetector::finish`]
/// once to collect races and statistics.
pub struct StreamDetector {
    config: DetectorConfig,
    ranks: FxHashMap<Rank, RankStream>,
    events: u64,
    /// The first structural error; nothing is consumed once it is set.
    error: Option<HomeError>,
    /// When the first event arrived.
    start: Option<Instant>,
}

impl StreamDetector {
    /// Create a detector with the given configuration (`config.jobs` is
    /// ignored).
    pub fn new(config: DetectorConfig) -> Self {
        StreamDetector {
            config,
            ranks: FxHashMap::default(),
            events: 0,
            error: None,
            start: None,
        }
    }

    /// Consume a batch of events, looking the rank's state up once per run
    /// of same-rank events (a recording interleaves its ranks finely: runs
    /// are a few events long). Each race goes to `sink` the moment it is
    /// discovered, and is still returned by [`StreamDetector::finish`].
    /// Infallible at the call site; the first structural error (corrupt
    /// stream) is stashed and surfaced by `finish`, and all further events
    /// are ignored. How a stream is cut into batches changes nothing:
    /// per-rank event order is preserved, and on a structural error the
    /// events up to and including the failing one are counted, none after.
    pub fn consume_batch(&mut self, events: &[Event], mut sink: Option<&mut dyn RaceSink>) {
        if events.is_empty() || self.error.is_some() {
            return;
        }
        self.start.get_or_insert_with(Instant::now);
        'batch: for run in events.chunk_by(|a, b| a.rank == b.rank) {
            let rank = run[0].rank;
            let st = self.ranks.entry(rank).or_default();
            for e in run {
                self.events += 1;
                if let Err(err) = st.on_event(rank, e, &self.config, &mut sink) {
                    self.error = Some(err);
                    break 'batch;
                }
            }
        }
    }

    /// Finalize: drain all rank states and return the races (each rank's in
    /// discovery order, ranks concatenated in ascending order) plus run
    /// statistics. Call once; a second call sees an empty detector.
    pub fn finish(&mut self) -> Result<(Vec<Race>, StreamStats), HomeError> {
        if let Some(err) = self.error.take() {
            return Err(err);
        }
        let elapsed = self.start.map(|t| t.elapsed()).unwrap_or_default();
        let mut per_rank: Vec<(Rank, RankStream)> = self.ranks.drain().collect();
        per_rank.sort_by_key(|(rank, _)| *rank);
        let mut races = Vec::new();
        let mut stats = StreamStats {
            events: self.events,
            ..StreamStats::default()
        };
        for (_, st) in per_rank {
            races.extend(st.races);
            stats.peak_live_segments += st.peak_live;
            stats.total_segments += st.next_slot;
            stats.retired_segments += st.retired;
            stats.retired_while_overlapping += st.retired_overlapping;
            stats.history_overflow |= st.history_overflow;
        }
        let secs = elapsed.as_secs_f64();
        stats.events_per_sec = if secs > 0.0 {
            stats.events as f64 / secs
        } else {
            0.0
        };
        Ok((races, stats))
    }
}

/// Run the detector over an already-materialized trace, fed as one batch.
///
/// Structurally inconsistent input — e.g. a join event referencing a
/// region no fork ever announced, which a hand-built or corrupted trace
/// can contain — yields [`HomeError::CorruptTrace`], never a panic.
///
/// ```
/// use home_stream::{detect_stream, DetectorConfig};
/// use home_trace::{AccessKind, Event, EventKind, MemLoc, Rank, RegionId, Tid, Trace, VarId};
///
/// // Two threads of one region write the same variable, unsynchronized.
/// let write = |seq, tid| Event {
///     seq,
///     rank: Rank(0),
///     tid: Tid(tid),
///     region: Some(RegionId(0)),
///     time_ns: seq,
///     loc: None,
///     kind: EventKind::Access { loc: MemLoc::Var(VarId(0)), kind: AccessKind::Write },
/// };
/// let trace = Trace::from_events(vec![write(0, 0), write(1, 1)]);
/// let (races, _) = detect_stream(&trace, &DetectorConfig::hybrid()).unwrap();
/// assert_eq!(races.len(), 1);
/// ```
pub fn detect_stream(
    trace: &Trace,
    config: &DetectorConfig,
) -> Result<(Vec<Race>, StreamStats), HomeError> {
    let mut detector = StreamDetector::new(config.clone());
    detector.consume_batch(trace.events(), None);
    detector.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use home_trace::{MonitoredVar, MpiCallKind, MpiCallRecord, SrcLoc, VarId};

    /// Tiny trace builder for handcrafted scenarios: sequence numbers count
    /// up, and every event sits on its own source line unless
    /// [`TB::write_at`] fixes one.
    struct TB {
        events: Vec<Event>,
    }

    impl TB {
        fn new() -> TB {
            TB { events: Vec::new() }
        }

        fn ev_at(
            &mut self,
            tid: u32,
            region: Option<u64>,
            line: u32,
            kind: EventKind,
        ) -> &mut Self {
            let seq = self.events.len() as u64;
            self.events.push(Event {
                seq,
                rank: Rank(0),
                tid: Tid(tid),
                region: region.map(RegionId),
                time_ns: seq,
                loc: Some(SrcLoc::new("t.hmp", line)),
                kind,
            });
            self
        }

        fn ev(&mut self, tid: u32, region: Option<u64>, kind: EventKind) -> &mut Self {
            let line = self.events.len() as u32 + 1;
            self.ev_at(tid, region, line, kind)
        }

        fn access(var: u32, kind: AccessKind) -> EventKind {
            EventKind::Access {
                loc: MemLoc::Var(VarId(var)),
                kind,
            }
        }

        fn write(&mut self, tid: u32, region: Option<u64>, var: u32) -> &mut Self {
            self.ev(tid, region, TB::access(var, AccessKind::Write))
        }

        /// A write whose event carries a fixed source line (same call site
        /// across repetitions).
        fn write_at(&mut self, tid: u32, region: Option<u64>, var: u32, line: u32) -> &mut Self {
            self.ev_at(tid, region, line, TB::access(var, AccessKind::Write))
        }

        fn read(&mut self, tid: u32, region: Option<u64>, var: u32) -> &mut Self {
            self.ev(tid, region, TB::access(var, AccessKind::Read))
        }

        fn fork(&mut self, region: u64, n: u32) -> &mut Self {
            self.ev(
                0,
                None,
                EventKind::Fork {
                    region: RegionId(region),
                    nthreads: n,
                },
            )
        }

        fn join(&mut self, region: u64) -> &mut Self {
            self.ev(
                0,
                None,
                EventKind::JoinRegion {
                    region: RegionId(region),
                },
            )
        }

        fn acquire(&mut self, tid: u32, region: Option<u64>, lock: u32) -> &mut Self {
            self.ev(tid, region, EventKind::Acquire { lock: LockId(lock) })
        }

        fn release(&mut self, tid: u32, region: Option<u64>, lock: u32) -> &mut Self {
            self.ev(tid, region, EventKind::Release { lock: LockId(lock) })
        }

        /// `tid` takes `lock`, writes `var`, releases.
        fn locked_write(&mut self, tid: u32, region: u64, lock: u32, var: u32) -> &mut Self {
            self.acquire(tid, Some(region), lock)
                .write(tid, Some(region), var)
                .release(tid, Some(region), lock)
        }

        fn barrier(&mut self, tid: u32, region: u64, epoch: u64) -> &mut Self {
            self.ev(
                tid,
                Some(region),
                EventKind::Barrier {
                    barrier: BarrierId(region as u32),
                    epoch,
                },
            )
        }

        fn trace(&self) -> Trace {
            Trace::from_events(self.events.clone())
        }

        fn detect(&self, config: &DetectorConfig) -> (Vec<Race>, StreamStats) {
            detect_stream(&self.trace(), config).unwrap()
        }

        fn hybrid(&self) -> Vec<Race> {
            self.detect(&DetectorConfig::hybrid()).0
        }
    }

    #[test]
    fn unsynchronized_concurrent_writes_race() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(0, Some(0), 7)
            .write(1, Some(0), 7)
            .join(0);
        let (races, stats) = tb.detect(&DetectorConfig::hybrid());
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].loc, MemLoc::Var(VarId(7)));
        assert_eq!((races[0].first.seq, races[0].second.seq), (1, 2));
        assert_eq!(stats.events, 4);
        assert!(stats.retired_segments >= 2, "{stats:?}");
    }

    #[test]
    fn read_read_is_not_a_race() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .read(0, Some(0), 7)
            .read(1, Some(0), 7)
            .join(0);
        assert!(tb.hybrid().is_empty());
    }

    #[test]
    fn write_read_is_a_race() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(0, Some(0), 7)
            .read(1, Some(0), 7)
            .join(0);
        assert_eq!(tb.hybrid().len(), 1);
    }

    #[test]
    fn different_locations_do_not_race() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(0, Some(0), 7)
            .write(1, Some(0), 8)
            .join(0);
        assert!(tb.hybrid().is_empty());
    }

    #[test]
    fn common_lock_prevents_race() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .locked_write(0, 0, 1, 7)
            .locked_write(1, 0, 1, 7)
            .join(0);
        assert!(tb.hybrid().is_empty());
    }

    #[test]
    fn disjoint_locks_still_race() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .locked_write(0, 0, 1, 7)
            .locked_write(1, 0, 2, 7)
            .join(0);
        assert_eq!(tb.hybrid().len(), 1);
    }

    #[test]
    fn fork_join_orders_spine_accesses() {
        // Spine writes before fork and after join must not race with the
        // region's writes.
        let mut tb = TB::new();
        tb.write(0, None, 7)
            .fork(0, 2)
            .write(1, Some(0), 7)
            .join(0)
            .write(0, None, 7);
        assert!(tb.hybrid().is_empty());
    }

    #[test]
    fn barrier_separates_phases() {
        // t0 writes before the barrier, t1 writes after: ordered.
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(0, Some(0), 7)
            .barrier(0, 0, 0)
            .barrier(1, 0, 0)
            .write(1, Some(0), 7)
            .join(0);
        assert!(tb.hybrid().is_empty());
    }

    #[test]
    fn writes_within_same_barrier_phase_race() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .barrier(0, 0, 0)
            .barrier(1, 0, 0)
            .write(0, Some(0), 7)
            .write(1, Some(0), 7)
            .join(0);
        assert_eq!(tb.hybrid().len(), 1);
    }

    #[test]
    fn lockset_only_overreports_across_barrier() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(0, Some(0), 7)
            .barrier(0, 0, 0)
            .barrier(1, 0, 0)
            .write(1, Some(0), 7)
            .join(0);
        assert!(tb.hybrid().is_empty());
        assert_eq!(tb.detect(&DetectorConfig::lockset_only()).0.len(), 1);
    }

    #[test]
    fn hb_only_flags_lock_protected_unordered_writes_the_same_as_lock_edges_allow() {
        // With release→acquire edges, lock-protected writes are ordered, so
        // HB-only agrees with hybrid here.
        let mut tb = TB::new();
        tb.fork(0, 2)
            .locked_write(0, 0, 1, 7)
            .locked_write(1, 0, 1, 7)
            .join(0);
        assert!(tb.detect(&DetectorConfig::hb_only()).0.is_empty());
    }

    #[test]
    fn ignore_locks_reintroduces_critical_race() {
        // The ITC model: blind to omp critical → reports a false positive.
        let mut tb = TB::new();
        tb.fork(0, 2)
            .locked_write(0, 0, 1, 7)
            .locked_write(1, 0, 1, 7)
            .join(0);
        let cfg = DetectorConfig {
            ignore_locks: true,
            ..DetectorConfig::hybrid()
        };
        assert_eq!(
            tb.detect(&cfg).0.len(),
            1,
            "critical-blind detector flags it"
        );
    }

    #[test]
    fn monitored_writes_race_and_carry_mpi_records() {
        let recv = || EventKind::MonitoredWrite {
            var: MonitoredVar::Tag,
            call: MpiCallRecord {
                kind: MpiCallKind::Recv,
                peer: Some(0),
                tag: Some(0),
                comm: home_trace::COMM_WORLD,
                request: None,
                is_main_thread: false,
                thread_level: Some(home_trace::ThreadLevel::Multiple),
            },
        };
        let mut tb = TB::new();
        tb.fork(0, 2)
            .ev(0, Some(0), recv())
            .ev(1, Some(0), recv())
            .join(0);
        let races = tb.hybrid();
        assert_eq!(races.len(), 1);
        assert!(races[0].is_monitored());
        assert_eq!(races[0].loc, MemLoc::Monitored(MonitoredVar::Tag));
    }

    #[test]
    fn races_in_different_regions_are_separated_by_spine() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(1, Some(0), 7)
            .join(0)
            .fork(1, 2)
            .write(1, Some(1), 7)
            .join(1);
        assert!(tb.hybrid().is_empty());
    }

    #[test]
    fn dedupe_reports_one_race_per_call_site_pair() {
        // The same two call sites (fixed lines) race repeatedly: one report.
        let mut tb = TB::new();
        tb.fork(0, 2);
        for _ in 0..5 {
            tb.write_at(0, Some(0), 7, 100).write_at(1, Some(0), 7, 200);
        }
        tb.join(0);
        assert_eq!(tb.hybrid().len(), 1);
        let cfg = DetectorConfig {
            dedupe_pairs: false,
            ..DetectorConfig::hybrid()
        };
        assert!(tb.detect(&cfg).0.len() > 1);
    }

    #[test]
    fn distinct_call_sites_each_report() {
        // Two independent racy pairs at different lines in one region must
        // both be reported (regression: an earlier dedupe keyed only on the
        // thread pair and shadowed the second site).
        let mut tb = TB::new();
        tb.fork(0, 2);
        tb.write_at(0, Some(0), 7, 10).write_at(1, Some(0), 7, 10);
        tb.write_at(0, Some(0), 7, 20).write_at(1, Some(0), 7, 20);
        tb.join(0);
        let races = tb.hybrid();
        let mut lines: Vec<u32> = races
            .iter()
            .flat_map(|r| [&r.first, &r.second])
            .filter_map(|a| a.loc.as_ref().map(|l| l.line))
            .collect();
        lines.sort_unstable();
        lines.dedup();
        assert!(lines.contains(&10) && lines.contains(&20), "{races:?}");
    }

    #[test]
    fn history_cap_overflow_is_reported_not_silent() {
        let mut tb = TB::new();
        tb.fork(0, 2);
        for _ in 0..20 {
            tb.write(0, Some(0), 7);
        }
        tb.join(0);
        let tight = DetectorConfig {
            history_cap: 4,
            ..DetectorConfig::hybrid()
        };
        let (_, stats) = tb.detect(&tight);
        assert!(stats.history_overflow, "cap of 4 must overflow");
        let (_, stats) = tb.detect(&DetectorConfig::hybrid());
        assert!(!stats.history_overflow);
        assert_eq!(stats.events, 22);
    }

    #[test]
    fn join_of_unknown_segment_is_a_typed_error_not_a_panic() {
        // A hand-built (or corrupted) trace whose join event references a
        // region that was never forked and has no thread events: the
        // detector must degrade to a CorruptTrace error.
        let mut tb = TB::new();
        tb.write(0, None, 7).join(42);
        let err = detect_stream(&tb.trace(), &DetectorConfig::hybrid()).unwrap_err();
        assert_eq!(err.category(), "corrupt-trace");
        assert!(err.to_string().contains("unknown segment"), "{err}");
        assert!(err.to_string().contains("region42"), "{err}");
    }

    #[test]
    fn join_of_forked_empty_region_is_fine() {
        // Fork immediately followed by join (no thread events) is a legal
        // recording of an empty region — not corruption.
        let mut tb = TB::new();
        tb.fork(3, 2).join(3);
        assert!(tb.hybrid().is_empty());
    }

    #[test]
    fn ranks_are_analyzed_independently() {
        // Same variable written by threads of *different ranks* — not a
        // shared-memory race.
        let mut tb = TB::new();
        tb.write(0, Some(0), 7).write(0, Some(0), 7);
        tb.events[1].rank = Rank(1);
        assert!(tb.hybrid().is_empty());
    }

    #[test]
    fn pruning_keeps_live_below_total_across_regions() {
        let mut tb = TB::new();
        for r in 0..4u64 {
            tb.fork(r, 2)
                .write(0, Some(r), r as u32)
                .write(1, Some(r), r as u32)
                .join(r);
        }
        let (races, stats) = tb.detect(&DetectorConfig::hybrid());
        assert_eq!(races.len(), 4, "one race per region: {races:?}");
        assert!(stats.peak_live_segments < stats.total_segments, "{stats:?}");
        assert_eq!(stats.retired_segments, 8, "{stats:?}");
    }

    #[test]
    fn no_pruning_in_lockset_only_mode() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(0, Some(0), 7)
            .write(1, Some(0), 7)
            .join(0);
        let (_, stats) = tb.detect(&DetectorConfig::lockset_only());
        assert_eq!(stats.retired_segments, 0);
    }

    /// The reachability sweep retires a region joined *while another region
    /// is still live*, once lock-release edges and a barrier make every
    /// live clock dominate its final epoch — the case a "no other region
    /// live" guard could never retire.
    #[test]
    fn overlapping_region_retires_via_reachability_sweep() {
        let mut tb = TB::new();
        tb.fork(1, 2)
            .write(0, Some(1), 10)
            .write(1, Some(1), 10) // race inside R1
            .fork(2, 1) // spine forks R2 while R1 is live
            .write(0, Some(2), 20)
            .join(2) // R2 joins under overlap -> pending, not retired
            // Publish the spine's post-join clock (which covers R2) to both
            // R1 workers through a lock-release chain...
            .acquire(0, None, 9)
            .release(0, None, 9)
            .acquire(0, Some(1), 9)
            .release(0, Some(1), 9)
            .acquire(1, Some(1), 9)
            .release(1, Some(1), 9)
            // ...and let the barrier's sweep observe full domination.
            .barrier(0, 1, 0)
            .barrier(1, 1, 0)
            .write(0, Some(1), 30)
            .write(1, Some(1), 30) // post-barrier race, still detected
            .join(1);
        let (races, stats) = tb.detect(&DetectorConfig::hybrid());
        let pairs: Vec<(u64, u64)> = races.iter().map(|r| (r.first.seq, r.second.seq)).collect();
        assert_eq!(pairs, [(1, 2), (14, 15)], "{races:?}");
        assert_eq!(stats.retired_while_overlapping, 1, "{stats:?}");
        assert_eq!(stats.retired_segments, 3, "{stats:?}");
    }

    /// A region joined under overlap stays pending while a live segment's
    /// clock does not dominate it (no ordering edge was recorded).
    #[test]
    fn unreachable_overlap_is_not_retired() {
        let mut tb = TB::new();
        tb.fork(1, 2)
            .write(0, Some(1), 10)
            .write(1, Some(1), 10)
            .fork(2, 1)
            .write(0, Some(2), 20)
            .join(2) // R1 workers never see R2's clock
            .join(1);
        let (_, stats) = tb.detect(&DetectorConfig::hybrid());
        assert_eq!(stats.retired_while_overlapping, 0, "{stats:?}");
        // R1's own segments still retire at its (non-overlapped) join; the
        // R2 segment is sweepable then too, since R1's bookkeeping is gone.
        assert!(stats.retired_segments >= 2, "{stats:?}");
    }

    #[test]
    fn race_sink_sees_each_race_at_discovery_time() {
        struct Collect(Vec<Race>);
        impl RaceSink for Collect {
            fn on_race(&mut self, race: &Race) {
                self.0.push(race.clone());
            }
        }
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(0, Some(0), 7)
            .write(1, Some(0), 7)
            .join(0);
        let mut sink = Collect(Vec::new());
        let mut d = StreamDetector::new(DetectorConfig::hybrid());
        d.consume_batch(&tb.events[..2], Some(&mut sink));
        assert!(sink.0.is_empty(), "no race after one access");
        d.consume_batch(&tb.events[2..3], Some(&mut sink));
        assert_eq!(sink.0.len(), 1, "race reported before finish");
        d.consume_batch(&tb.events[3..4], Some(&mut sink));
        let (races, _) = d.finish().unwrap();
        assert_eq!(sink.0, races);
    }

    #[test]
    fn out_of_order_stream_is_a_typed_error() {
        let mut tb = TB::new();
        tb.write(0, None, 1).write(0, None, 1);
        tb.events[0].seq = 5;
        tb.events[1].seq = 3;
        // Fed directly: `Trace::from_events` would sort the stream.
        let mut d = StreamDetector::new(DetectorConfig::hybrid());
        d.consume_batch(&tb.events, None);
        let err = d.finish().unwrap_err();
        assert!(matches!(err, HomeError::CorruptTrace { .. }), "{err:?}");
    }

    #[test]
    fn first_structural_error_ends_the_count_and_is_returned_once() {
        // Two faults: a join of a region nobody forked at index 1, another
        // at index 3, fed in two batches.
        let mut tb = TB::new();
        tb.write(0, None, 1).join(42).write(0, None, 1).join(43);
        let mut d = StreamDetector::new(DetectorConfig::hybrid());
        d.consume_batch(&tb.events[..3], None);
        assert_eq!(d.events, 2, "up to and including the failing event");
        d.consume_batch(&tb.events[3..], None);
        assert_eq!(d.events, 2, "a batch after the failure is ignored");
        let err = d.finish().unwrap_err();
        assert!(err.to_string().contains("region42"), "{err}");
        let (races, stats) = d.finish().unwrap();
        assert!(races.is_empty(), "the error was handed out once");
        assert_eq!(stats.events, 2);
    }

    /// The packed keys are injective over every field's whole range, and a
    /// segment's region comes back out of its key.
    #[test]
    fn packed_keys_are_injective_at_the_extremes() {
        let regions = [
            None,
            Some(RegionId(0)),
            Some(RegionId(1)),
            Some(RegionId(u64::MAX)),
        ];
        let tids = [Tid(0), Tid(1), Tid(u32::MAX)];
        let mut segs = std::collections::BTreeSet::new();
        for region in regions {
            for tid in tids {
                let key = seg_key(region, tid);
                assert_eq!(seg_region(key), region);
                assert!(segs.insert(key), "{region:?} {tid:?}");
            }
        }
        let mut locs: Vec<MemLoc> = MonitoredVar::ALL
            .iter()
            .map(|&v| MemLoc::Monitored(v))
            .collect();
        for var in [0, 1, u32::MAX] {
            locs.push(MemLoc::Var(VarId(var)));
            for index in [0, 1, u64::MAX] {
                locs.push(MemLoc::Elem(VarId(var), index));
            }
        }
        let keys: std::collections::BTreeSet<u128> = locs.iter().map(|&l| loc_key(l)).collect();
        assert_eq!(keys.len(), locs.len());
    }
}
