//! Matching concurrency results against the six thread-safety rules
//! (paper Section III-A) — incrementally.
//!
//! The matcher is a single online state machine, [`RuleEngine`]: feed it
//! trace events ([`RuleEngine::observe_event`]), race candidates as the
//! detector discovers them ([`RuleEngine::observe_race`]), and runtime
//! incidents ([`RuleEngine::observe_incident`]), and it emits each typed
//! [`Violation`] the moment its evidence is complete — a concurrent-recv
//! race classifies on arrival, an off-main-thread `MPI_Finalize` on the
//! monitored write itself. Rules whose verdict depends on whole-run
//! evidence (the `MPI_THREAD_SINGLE` arm reports the *total* region call
//! count) emit from [`RuleEngine::finish`].
//!
//! **Canonical order.** Online emission order is temporal and interleaved;
//! the batch report is rule-major. Every emission therefore carries an
//! [`EmitOrder`] key — its position in the batch evaluation order — and
//! `finish` re-evaluates every rule over the accumulated evidence,
//! emitting only keys not already emitted live. The union of live and
//! finish emissions, sorted by key and deduplicated first-wins, is exactly
//! the batch violation list; `finish` computes that list directly, so the
//! reported [`RuleOutcome`] never depends on what was emitted early.
//!
//! The batch entry point [`match_rules`] is a thin wrapper: observe the
//! trace, the races (in the detector's rank-major order), the incidents,
//! then `finish`.

use crate::report::{EmitOrder, EmittedViolation, Violation, ViolationKind};
use home_interp::MpiIncident;
use home_stream::{Race, RaceAccess};
use home_trace::{
    Event, EventKind, MemLoc, MonitoredVar, MpiCallRecord, Rank, SrcLoc, ThreadLevel, Tid, Trace,
};
use std::collections::{BTreeMap, BTreeSet};

/// Rule indices of the [`EmitOrder`] key, in the paper's rule order.
const RULE_INIT: u8 = 0;
const RULE_FINALIZE: u8 = 1;
const RULE_RECV: u8 = 2;
const RULE_REQUEST: u8 = 3;
const RULE_PROBE: u8 = 4;
const RULE_COLLECTIVE: u8 = 5;

/// What one rule-matching pass produced: the classified violations plus
/// the races the rules could *not* classify (monitored-variable races whose
/// accesses lack MPI call metadata — possible with hand-built or corrupted
/// offline traces). Unclassifiable races are reported, not unwrapped: they
/// surface in the report as degraded diagnostics instead of a panic.
#[derive(Debug, Clone, Default)]
pub struct RuleOutcome {
    /// Concrete violations, matched and deduplicated.
    pub violations: Vec<Violation>,
    /// Monitored-variable races the rules had to skip because one or both
    /// accesses carry no MPI call record.
    pub unclassified: Vec<Race>,
}

/// Result of [`RuleEngine::finish`]: the emissions not already produced
/// live, plus the canonical outcome for the report.
#[derive(Debug, Clone, Default)]
pub struct RuleFinish {
    /// Violations whose evidence completed only at end-of-run (or that
    /// were never eligible for early emission), in canonical order, with
    /// [`EmittedViolation::live`] false. Together with the live emissions
    /// this covers every [`EmitOrder`] key exactly once.
    pub remaining: Vec<EmittedViolation>,
    /// The canonical (batch-identical) outcome.
    pub outcome: RuleOutcome,
}

/// Match rules over one run's evidence, returning only the violations.
///
/// Convenience wrapper over [`match_rules`] for callers that do not care
/// about unclassifiable races.
pub fn match_violations(
    trace: &Trace,
    races: &[Race],
    incidents: &[MpiIncident],
) -> Vec<Violation> {
    match_rules(trace, races, incidents).violations
}

/// Match rules over one run's evidence (the batch entry point).
///
/// A thin wrapper over [`RuleEngine`]: the whole trace, race list, and
/// incident list are observed in order, then [`RuleEngine::finish`]
/// produces the outcome. Races on monitored variables whose accesses lack
/// MPI metadata cannot be matched against any rule; they are collected
/// into [`RuleOutcome::unclassified`] rather than panicking mid-pipeline.
pub fn match_rules(trace: &Trace, races: &[Race], incidents: &[MpiIncident]) -> RuleOutcome {
    let mut engine = RuleEngine::new();
    for e in trace.events() {
        engine.observe_event(e);
    }
    for race in races {
        engine.observe_race(race);
    }
    for incident in incidents {
        engine.observe_incident(incident);
    }
    engine.finish().outcome
}

/// The incremental rule matcher: per-rule state machines over the evidence
/// of one run, emitting typed violations as soon as each is decidable.
///
/// Ordered maps throughout: rules iterate these, and violation order must
/// be deterministic (it is part of the rendered report). Observing a
/// trace's events in sequence order accumulates evidence identical to
/// batch-gathering the materialized trace, so [`RuleEngine::finish`] is
/// order-for-order identical to [`match_rules`] over that trace.
#[derive(Debug, Clone, Default)]
pub struct RuleEngine {
    /// Scheduler seed stamped onto emissions (provenance only).
    seed: u64,
    /// Thread level each rank initialized with.
    init_levels: BTreeMap<Rank, ThreadLevel>,
    /// Ranks that forked a multi-thread parallel region.
    multi_threaded: BTreeSet<Rank>,
    /// Instrumented MPI calls inside parallel regions (rank, record, loc,
    /// issuing thread), in event order.
    region_calls: Vec<(Rank, MpiCallRecord, Option<SrcLoc>, Tid)>,
    /// Finalize monitored writes (rank, record, loc, issuing thread).
    finalizes: Vec<(Rank, MpiCallRecord, Option<SrcLoc>, Tid)>,
    /// Races observed so far as (rank, per-rank discovery index, race).
    /// Per-rank arrival order is the detector's per-rank discovery order,
    /// so the indices do not depend on how the events were fed.
    races: Vec<(Rank, u64, Race)>,
    /// Next per-rank race index.
    race_counts: BTreeMap<Rank, u64>,
    /// Runtime incidents observed so far, in arrival order.
    incidents: Vec<MpiIncident>,
    /// Keys already emitted (live); `finish` suppresses these.
    emitted: BTreeSet<EmitOrder>,
}

impl RuleEngine {
    /// An empty engine (seed provenance 0).
    pub fn new() -> RuleEngine {
        RuleEngine::default()
    }

    /// An empty engine stamping `seed` onto every emission.
    pub fn for_seed(seed: u64) -> RuleEngine {
        RuleEngine {
            seed,
            ..RuleEngine::default()
        }
    }

    /// Fold one trace event into the evidence, returning any violations
    /// this event just made decidable.
    pub fn observe_event(&mut self, e: &Event) -> Vec<EmittedViolation> {
        let mut fresh = Vec::new();
        match &e.kind {
            EventKind::MpiInit { level, .. } => {
                let level = *self.init_levels.entry(e.rank).or_insert(*level);
                // Evidence for this rank may already have arrived (offline
                // traces can order init late); re-check its init rule now.
                fresh.extend(self.live_init_emission(e.rank, level));
            }
            EventKind::Fork { nthreads, .. } if *nthreads > 1 => {
                self.multi_threaded.insert(e.rank);
            }
            EventKind::MpiCall { call } if e.region.is_some() => {
                self.region_calls
                    .push((e.rank, call.clone(), e.loc.clone(), e.tid));
                if let Some(&level) = self.init_levels.get(&e.rank) {
                    fresh.extend(self.live_init_emission(e.rank, level));
                }
            }
            EventKind::MonitoredWrite { var, call } if *var == MonitoredVar::Finalize => {
                let idx = self.finalizes.len() as u64;
                self.finalizes
                    .push((e.rank, call.clone(), e.loc.clone(), e.tid));
                if !call.is_main_thread {
                    fresh.push(self.finalize_off_main(idx, e.rank, e.loc.clone(), e.tid));
                }
            }
            _ => {}
        }
        self.take_new(fresh)
    }

    /// True when [`RuleEngine::observe_event`] would ignore `e` entirely:
    /// no evidence folded, nothing emitted — plain access/sync events, the
    /// overwhelming majority of a monitored stream.
    fn event_is_inert(e: &Event) -> bool {
        match &e.kind {
            EventKind::MpiInit { .. } => false,
            EventKind::Fork { nthreads, .. } => *nthreads <= 1,
            EventKind::MpiCall { .. } => e.region.is_none(),
            EventKind::MonitoredWrite { var, .. } => *var != MonitoredVar::Finalize,
            _ => true,
        }
    }

    /// Fold a batch of trace events, skipping inert ones without the
    /// per-event match. Byte-identical to calling
    /// [`RuleEngine::observe_event`] per event in order.
    pub fn observe_batch(&mut self, events: &[Event]) -> Vec<EmittedViolation> {
        let mut out = Vec::new();
        for e in events {
            if RuleEngine::event_is_inert(e) {
                continue;
            }
            out.extend(self.observe_event(e));
        }
        out
    }

    /// Fold one race candidate into the evidence, returning any violations
    /// it just made decidable. Races must arrive in per-rank discovery
    /// order (any interleaving across ranks is fine).
    pub fn observe_race(&mut self, race: &Race) -> Vec<EmittedViolation> {
        let counter = self.race_counts.entry(race.rank).or_insert(0);
        let idx = *counter;
        *counter += 1;
        self.races.push((race.rank, idx, race.clone()));

        let mut fresh = self.race_emissions(race.rank, idx, race);
        // A monitored race can complete the Serialized initialization arm.
        if let Some(&level) = self.init_levels.get(&race.rank) {
            fresh.extend(self.live_init_emission(race.rank, level));
        }
        self.take_new(fresh)
    }

    /// Fold one runtime incident into the evidence, returning any
    /// violations it implies (calls after finalize, collective mismatch).
    pub fn observe_incident(&mut self, incident: &MpiIncident) -> Vec<EmittedViolation> {
        let idx = self.incidents.len() as u64;
        self.incidents.push(incident.clone());
        let mut fresh = Vec::new();
        if incident.error.contains("after MPI_Finalize") {
            fresh.push(self.finalize_incident(idx, incident));
        }
        if incident.error.contains("collective mismatch") {
            fresh.push(self.collective_incident(idx, incident));
        }
        self.take_new(fresh)
    }

    /// End of run: evaluate every rule over the full evidence. Returns the
    /// emissions not already produced live plus the canonical outcome.
    pub fn finish(&mut self) -> RuleFinish {
        let all = self.eval_all();
        let remaining: Vec<EmittedViolation> = all
            .iter()
            .filter(|e| !self.emitted.contains(&e.order))
            .cloned()
            .collect();
        for e in &remaining {
            self.emitted.insert(e.order);
        }

        // Unclassifiable monitored races, in the batch (rank-major) order.
        let mut unmatched: Vec<&(Rank, u64, Race)> = self
            .races
            .iter()
            .filter(|(_, _, r)| matches!(r.loc, MemLoc::Monitored(_)) && !r.is_monitored())
            .collect();
        unmatched.sort_by_key(|(rank, idx, _)| (*rank, *idx));
        let unclassified = unmatched.into_iter().map(|(_, _, r)| r.clone()).collect();

        RuleFinish {
            outcome: RuleOutcome {
                violations: dedupe(all.into_iter().map(|e| e.violation).collect()),
                unclassified,
            },
            remaining,
        }
    }

    /// The full batch evaluation over the accumulated evidence, sorted by
    /// canonical key (live flag false; callers flip it for live paths).
    fn eval_all(&self) -> Vec<EmittedViolation> {
        let mut out = Vec::new();
        for (&rank, &level) in &self.init_levels {
            out.extend(self.init_emission(rank, level, true));
        }
        for (idx, (rank, call, loc, tid)) in self.finalizes.iter().enumerate() {
            if !call.is_main_thread {
                out.push(self.finalize_off_main(idx as u64, *rank, loc.clone(), *tid));
            }
        }
        for (idx, incident) in self.incidents.iter().enumerate() {
            if incident.error.contains("after MPI_Finalize") {
                out.push(self.finalize_incident(idx as u64, incident));
            }
        }
        for (rank, idx, race) in &self.races {
            out.extend(self.race_emissions(*rank, *idx, race));
        }
        for (idx, incident) in self.incidents.iter().enumerate() {
            if incident.error.contains("collective mismatch") {
                out.push(self.collective_incident(idx as u64, incident));
            }
        }
        out.sort_by_key(|e| e.order);
        out
    }

    /// Keep only candidates not yet emitted, mark them emitted, and flag
    /// them live.
    fn take_new(&mut self, candidates: Vec<EmittedViolation>) -> Vec<EmittedViolation> {
        candidates
            .into_iter()
            .filter(|e| self.emitted.insert(e.order))
            .map(|mut e| {
                e.live = true;
                e
            })
            .collect()
    }

    fn emission(
        &self,
        order: EmitOrder,
        threads: Vec<Tid>,
        violation: Violation,
    ) -> EmittedViolation {
        EmittedViolation {
            seed: self.seed,
            order,
            live: false,
            threads,
            violation,
        }
    }

    fn init_order(rank: Rank) -> EmitOrder {
        EmitOrder::new(RULE_INIT, 0, rank.0 as u64, 0)
    }

    /// [`RuleEngine::init_emission`] on the live path. A rank's rule fires
    /// once, but every later region call and race of that rank asks again;
    /// once the key is out, `take_new` would drop the answer, so it is not
    /// built (it costs a description and two vectors each time).
    fn live_init_emission(&self, rank: Rank, level: ThreadLevel) -> Option<EmittedViolation> {
        if self.emitted.contains(&RuleEngine::init_order(rank)) {
            return None;
        }
        self.init_emission(rank, level, false)
    }

    /// The initialization rule for one rank. The Single arm reports the
    /// final region call count, so it is decidable only `at_finish`; the
    /// Serialized and Funneled arms fire on their first piece of evidence.
    /// The evidence is recomputed from accumulated state (first matching
    /// call / first monitored race), never from "the event at hand", so a
    /// live emission is byte-identical to the finish-time evaluation.
    fn init_emission(
        &self,
        rank: Rank,
        level: ThreadLevel,
        at_finish: bool,
    ) -> Option<EmittedViolation> {
        let order = RuleEngine::init_order(rank);
        match level {
            ThreadLevel::Single => {
                // MPI_THREAD_SINGLE but an OpenMP parallel region issues
                // MPI calls.
                if !at_finish {
                    return None;
                }
                let calls: Vec<&(Rank, MpiCallRecord, Option<SrcLoc>, Tid)> = self
                    .region_calls
                    .iter()
                    .filter(|(r, _, _, _)| *r == rank)
                    .collect();
                if !self.multi_threaded.contains(&rank) || calls.is_empty() {
                    return None;
                }
                let mut locs: Vec<SrcLoc> =
                    calls.iter().filter_map(|(_, _, l, _)| l.clone()).collect();
                locs.sort();
                locs.dedup();
                Some(self.emission(
                    order,
                    Vec::new(),
                    Violation {
                        kind: ViolationKind::Initialization,
                        rank,
                        description: format!(
                            "process initialized with {level} but {} MPI call(s) execute inside an OpenMP parallel region",
                            calls.len()
                        ),
                        locations: locs,
                    },
                ))
            }
            ThreadLevel::Serialized => {
                // Any concurrent monitored-variable race on this rank means
                // two threads were inside MPI at the same time.
                let first = self
                    .races
                    .iter()
                    .find(|(r, _, race)| *r == rank && race.is_monitored())
                    .map(|(_, _, race)| race)?;
                Some(self.emission(
                    order,
                    vec![first.first.tid, first.second.tid],
                    Violation {
                        kind: ViolationKind::Initialization,
                        rank,
                        description: format!(
                            "{level} allows only one thread in MPI at a time, but concurrent MPI calls were detected on {}",
                            first.loc
                        ),
                        locations: locations(&[&first.first, &first.second]),
                    },
                ))
            }
            ThreadLevel::Funneled => {
                // Only the main thread may call MPI.
                let (_, call, loc, tid) = self
                    .region_calls
                    .iter()
                    .find(|(r, c, _, _)| *r == rank && !c.is_main_thread)?;
                Some(self.emission(
                    order,
                    vec![*tid],
                    Violation {
                        kind: ViolationKind::Initialization,
                        rank,
                        description: format!(
                            "{level} restricts MPI to the main thread, but {} was issued by a worker thread",
                            call.kind
                        ),
                        locations: loc.clone().into_iter().collect(),
                    },
                ))
            }
            ThreadLevel::Multiple => None,
        }
    }

    /// Finalization rule (a): Finalize issued off the main thread.
    fn finalize_off_main(
        &self,
        idx: u64,
        rank: Rank,
        loc: Option<SrcLoc>,
        tid: Tid,
    ) -> EmittedViolation {
        self.emission(
            EmitOrder::new(RULE_FINALIZE, 0, idx, 0),
            vec![tid],
            Violation {
                kind: ViolationKind::Finalization,
                rank,
                description: "MPI_Finalize must be called by the main thread".into(),
                locations: loc.into_iter().collect(),
            },
        )
    }

    /// Finalization rule (b): MPI communication attempted after finalize
    /// (the simulator reports those calls as incidents).
    fn finalize_incident(&self, idx: u64, incident: &MpiIncident) -> EmittedViolation {
        self.emission(
            EmitOrder::new(RULE_FINALIZE, 1, idx, 0),
            Vec::new(),
            Violation {
                kind: ViolationKind::Finalization,
                rank: Rank(incident.rank),
                description: format!("{} issued after MPI_Finalize", incident.call),
                locations: vec![SrcLoc::new("", incident.line)],
            },
        )
    }

    /// Collective rule, incident stage: slot corruption the simulator
    /// actually observed — supporting evidence.
    fn collective_incident(&self, idx: u64, incident: &MpiIncident) -> EmittedViolation {
        self.emission(
            EmitOrder::new(RULE_COLLECTIVE, 1, idx, 0),
            Vec::new(),
            Violation {
                kind: ViolationKind::CollectiveCall,
                rank: Rank(incident.rank),
                description: format!("collective slot corruption observed: {}", incident.error),
                locations: vec![SrcLoc::new("", incident.line)],
            },
        )
    }

    /// Every per-race rule applied to one race: finalize (c), concurrent
    /// recv, concurrent request, probe, collective. Each race is decidable
    /// in isolation, so these fire the moment the detector reports it.
    fn race_emissions(&self, rank: Rank, idx: u64, race: &Race) -> Vec<EmittedViolation> {
        let mut out = Vec::new();
        if !race.is_monitored() {
            return out;
        }
        let MemLoc::Monitored(var) = race.loc else {
            return out;
        };
        let threads = vec![race.first.tid, race.second.tid];
        let locs = || locations(&[&race.first, &race.second]);
        let order = |rule: u8| EmitOrder::new(rule, 0, rank.0 as u64, idx);
        match var {
            // Finalization rule (c): Finalize concurrent with other MPI
            // activity (race on finalizetmp).
            MonitoredVar::Finalize => {
                out.push(self.emission(
                    EmitOrder::new(RULE_FINALIZE, 2, rank.0 as u64, idx),
                    threads,
                    Violation {
                        kind: ViolationKind::Finalization,
                        rank,
                        description: "concurrent MPI_Finalize calls from multiple threads".into(),
                        locations: locs(),
                    },
                ));
            }
            MonitoredVar::Tag => {
                let Some((a, b)) = race.mpi_pair() else {
                    return out;
                };
                if a.kind.is_recv() && b.kind.is_recv() && envelope_collides(a, b) {
                    out.push(self.emission(
                        order(RULE_RECV),
                        threads.clone(),
                        Violation {
                            kind: ViolationKind::ConcurrentRecv,
                            rank,
                            description: format!(
                                "concurrent {} and {} with undistinguished envelope (tag {:?}, peer {:?}, {}) — message matching order is undefined",
                                a.kind, b.kind, a.tag, a.peer, a.comm
                            ),
                            locations: locs(),
                        },
                    ));
                }
                let probe_pair = (a.kind.is_probe() && (b.kind.is_probe() || b.kind.is_recv()))
                    || (b.kind.is_probe() && (a.kind.is_probe() || a.kind.is_recv()));
                if probe_pair && envelope_collides(a, b) {
                    out.push(self.emission(
                        order(RULE_PROBE),
                        threads,
                        Violation {
                            kind: ViolationKind::Probe,
                            rank,
                            description: format!(
                                "concurrent {} and {} with the same source/tag on {} — the probed message may be stolen",
                                a.kind, b.kind, a.comm
                            ),
                            locations: locs(),
                        },
                    ));
                }
            }
            MonitoredVar::Request => {
                let Some((a, b)) = race.mpi_pair() else {
                    return out;
                };
                if let (true, true, Some(request)) =
                    (a.kind.is_completion(), b.kind.is_completion(), a.request)
                {
                    if Some(request) == b.request {
                        out.push(self.emission(
                            order(RULE_REQUEST),
                            threads,
                            Violation {
                                kind: ViolationKind::ConcurrentRequest,
                                rank,
                                description: format!(
                                    "{} and {} concurrently completing the same request {request}",
                                    a.kind, b.kind
                                ),
                                locations: locs(),
                            },
                        ));
                    }
                }
            }
            MonitoredVar::Collective => {
                let Some((a, b)) = race.mpi_pair() else {
                    return out;
                };
                if a.kind.is_collective() && b.kind.is_collective() && a.comm == b.comm {
                    out.push(self.emission(
                        order(RULE_COLLECTIVE),
                        threads,
                        Violation {
                            kind: ViolationKind::CollectiveCall,
                            rank,
                            description: format!(
                                "{} and {} concurrently on {} from threads of one process",
                                a.kind, b.kind, a.comm
                            ),
                            locations: locs(),
                        },
                    ));
                }
            }
            _ => {}
        }
        out
    }
}

fn locations(accesses: &[&RaceAccess]) -> Vec<SrcLoc> {
    let mut locs: Vec<SrcLoc> = accesses.iter().filter_map(|a| a.loc.clone()).collect();
    locs.sort();
    locs.dedup();
    locs
}

/// Envelope collision: the messages the two calls handle are not
/// differentiated — tags equal or either side a wildcard, same for peers,
/// and the same communicator.
fn envelope_collides(a: &MpiCallRecord, b: &MpiCallRecord) -> bool {
    let field = |x: Option<i32>, y: Option<i32>| match (x, y) {
        (Some(x), Some(y)) => x == y || x < 0 || y < 0,
        // Calls without the argument do not differentiate on it.
        _ => true,
    };
    a.comm == b.comm && field(a.tag, b.tag) && field(a.peer, b.peer)
}

fn dedupe(violations: Vec<Violation>) -> Vec<Violation> {
    let mut seen: BTreeSet<(ViolationKind, Rank, Vec<SrcLoc>)> = BTreeSet::new();
    let mut out = Vec::new();
    for v in violations {
        let key = (v.kind, v.rank, v.locations.clone());
        if seen.insert(key) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use home_trace::{AccessKind, MpiCallKind, Tid, COMM_WORLD};

    fn record(kind: MpiCallKind, tag: Option<i32>, main: bool) -> MpiCallRecord {
        MpiCallRecord {
            kind,
            peer: Some(0),
            tag,
            comm: COMM_WORLD,
            request: None,
            is_main_thread: main,
            thread_level: Some(ThreadLevel::Multiple),
        }
    }

    #[test]
    fn envelope_collision_logic() {
        let a = record(MpiCallKind::Recv, Some(0), false);
        let b = record(MpiCallKind::Recv, Some(0), false);
        assert!(envelope_collides(&a, &b));
        let c = record(MpiCallKind::Recv, Some(1), false);
        assert!(!envelope_collides(&a, &c), "distinct tags differentiate");
        let any = record(MpiCallKind::Recv, Some(-1), false);
        assert!(envelope_collides(&a, &any), "wildcard collides with all");
        let mut other_comm = record(MpiCallKind::Recv, Some(0), false);
        other_comm.comm = home_trace::CommId(1);
        assert!(!envelope_collides(&a, &other_comm));
    }

    #[test]
    fn non_mpi_monitored_race_is_unclassified_not_a_panic() {
        // A hand-built race on a monitored variable whose accesses carry no
        // MPI call records (possible with corrupted or synthetic offline
        // traces). Every rule must skip it; match_rules reports it as
        // unclassified instead of unwrapping.
        let access = |seq| RaceAccess {
            seq,
            tid: Tid(seq as u32),
            region: None,
            kind: AccessKind::Write,
            loc: None,
            mpi: None,
        };
        let race = Race {
            rank: Rank(0),
            loc: MemLoc::Monitored(MonitoredVar::Tag),
            first: access(1),
            second: access(2),
        };
        let outcome = match_rules(&Trace::default(), std::slice::from_ref(&race), &[]);
        assert!(outcome.violations.is_empty());
        assert_eq!(outcome.unclassified.len(), 1);
        assert_eq!(outcome.unclassified[0], race);

        // The convenience wrapper drops the unclassified set silently.
        let vs = match_violations(&Trace::default(), &[race], &[]);
        assert!(vs.is_empty());
    }

    #[test]
    fn dedupe_removes_identical_violations() {
        let v = Violation {
            kind: ViolationKind::Probe,
            rank: Rank(0),
            description: "x".into(),
            locations: vec![SrcLoc::new("a", 1)],
        };
        let out = dedupe(vec![v.clone(), v.clone()]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn late_init_still_matches_the_first_worker_call() {
        // Offline traces may order MPI_Init after region calls. The eager
        // Funneled emission must then report the *first* worker-thread
        // call (what the batch evaluation reports), not the most recent.
        let call = |tag| EventKind::MpiCall {
            call: record(MpiCallKind::Send, Some(tag), false),
        };
        let mk = |seq, kind| Event {
            seq,
            rank: Rank(0),
            tid: Tid(1),
            region: Some(home_trace::RegionId(0)),
            time_ns: seq,
            loc: Some(SrcLoc::new("x.hmp", seq as u32)),
            kind,
        };
        let mut engine = RuleEngine::new();
        assert!(engine.observe_event(&mk(1, call(1))).is_empty());
        assert!(engine.observe_event(&mk(2, call(2))).is_empty());
        let init = Event {
            kind: EventKind::MpiInit {
                level: ThreadLevel::Funneled,
                requested_by_init_thread: true,
            },
            ..mk(3, call(0))
        };
        let live = engine.observe_event(&init);
        assert_eq!(live.len(), 1, "{live:?}");
        assert!(live[0].live);
        assert_eq!(
            live[0].violation.locations,
            vec![SrcLoc::new("x.hmp", 1)],
            "must report the first worker call"
        );
        let fin = engine.finish();
        assert!(fin.remaining.is_empty(), "{:?}", fin.remaining);
        assert_eq!(fin.outcome.violations.len(), 1);
        assert_eq!(fin.outcome.violations[0], live[0].violation);
    }
}
