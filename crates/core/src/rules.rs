//! Matching concurrency results against the six thread-safety rules
//! (paper Section III-A) — incrementally.
//!
//! The matcher is a single online state machine, `RuleEngine`, inside
//! every [`Session`](crate::Session): it folds trace events a batch at a
//! time, race candidates as the detector discovers them (the engine is the
//! detector's [`RaceSink`]) and runtime incidents, and builds each typed
//! [`Violation`] the moment its evidence is complete — a concurrent-recv
//! race classifies on arrival, an off-main-thread `MPI_Finalize` on the
//! monitored write itself. Rules whose verdict depends on whole-run
//! evidence (the `MPI_THREAD_SINGLE` arm reports the *total* region call
//! count) are decided by the engine's `finish`.
//!
//! **Canonical order.** Arrival order is temporal and interleaved; the
//! batch report is rule-major. Every violation therefore carries an
//! [`EmitOrder`] key — its position in the batch evaluation order. Each is
//! built once, when its evidence completes, and kept; `finish` adds the
//! ones only the whole run decides. The union, sorted by key and
//! deduplicated first-wins, is exactly the batch violation list, each
//! violation keyed by the smallest key of its identity
//! ([`KeyedViolation`]): a violation is built from the accumulated evidence
//! (the first matching call, the first monitored race), never from the
//! event at hand, so it is byte for byte what an evaluation at the end of
//! the run would build, and how the evidence was fed cannot move the
//! reported [`RuleOutcome`].
//!
//! The batch entry point [`match_rules`] is a thin wrapper: observe the
//! trace, the races (in the detector's rank-major order), the incidents,
//! then `finish`.

use crate::report::{EmitOrder, KeyedViolation, Violation, ViolationKind};
use home_stream::{Race, RaceAccess, RaceSink};
use home_trace::FxHashSet;
use home_trace::{
    Event, EventKind, MemLoc, MonitoredVar, MpiCallRecord, Rank, SrcLoc, ThreadLevel, Trace,
    TraceIncident,
};

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
    /// Concrete violations, matched and deduplicated, in canonical order,
    /// each with the key it was kept under.
    pub violations: Vec<KeyedViolation>,
    /// Monitored-variable races the rules had to skip because one or both
    /// accesses carry no MPI call record.
    pub unclassified: Vec<Race>,
}

/// Match rules over one run's evidence (the batch entry point).
///
/// A thin wrapper over the engine a [`Session`](crate::Session) drives:
/// the whole trace, race list, and incident list are observed in order,
/// then the end-of-run evaluation produces the outcome. Races on monitored
/// variables whose accesses lack MPI metadata cannot be matched against
/// any rule; they are collected into [`RuleOutcome::unclassified`] rather
/// than panicking mid-pipeline.
pub fn match_rules(trace: &Trace, races: &[Race], incidents: &[TraceIncident]) -> RuleOutcome {
    let mut engine = RuleEngine::new();
    engine.observe_batch(trace.events());
    for race in races {
        engine.on_race(race);
    }
    for incident in incidents {
        engine.on_incident(incident);
    }
    engine.finish()
}

/// The incremental rule matcher: per-rule state machines over the evidence
/// of one run, building typed violations as soon as each is decidable.
///
/// Per-rank evidence is kept in lists ascending by rank: rules iterate
/// them, and violation order must be deterministic (it is part of the
/// rendered report). Every collection keeps its capacity across
/// [`RuleEngine::restart`], so an engine reused run after run (`home
/// explore`'s sessions) allocates only for what a run adds beyond the
/// widest before it. Observing a
/// trace's events in sequence order accumulates evidence identical to
/// batch-gathering the materialized trace, so [`RuleEngine::finish`] is
/// order-for-order identical to [`match_rules`] over that trace.
#[derive(Debug, Clone, Default)]
pub(crate) struct RuleEngine {
    /// Thread level each rank initialized with, ascending by rank.
    init_levels: Vec<(Rank, ThreadLevel)>,
    /// Ranks that forked a multi-thread parallel region, ascending.
    multi_threaded: Vec<Rank>,
    /// Instrumented MPI calls inside parallel regions (rank, record, loc),
    /// in event order.
    region_calls: Vec<(Rank, MpiCallRecord, Option<SrcLoc>)>,
    /// Finalize monitored writes observed so far: the next one's index.
    finalizes: u64,
    /// Races observed so far as (rank, per-rank discovery index, race).
    /// Per-rank arrival order is the detector's per-rank discovery order,
    /// so the indices do not depend on how the events were fed.
    races: Vec<(Rank, u64, Race)>,
    /// Next per-rank race index, ascending by rank.
    race_counts: Vec<(Rank, u64)>,
    /// Runtime incidents observed so far: the next one's index.
    incidents: u64,
    /// Keys already kept; `finish` suppresses these.
    emitted: FxHashSet<EmitOrder>,
    /// Every violation kept so far, each built once, as its evidence
    /// completed.
    built: Vec<KeyedViolation>,
}

/// The value `rank` maps to in a list ascending by rank, inserted as
/// `init` when absent.
fn rank_entry<T>(list: &mut Vec<(Rank, T)>, rank: Rank, init: T) -> &mut T {
    let at = match list.binary_search_by_key(&rank, |(r, _)| *r) {
        Ok(at) => at,
        Err(at) => {
            list.insert(at, (rank, init));
            at
        }
    };
    &mut list[at].1
}

/// The value `rank` maps to in a list ascending by rank.
fn rank_get<T: Copy>(list: &[(Rank, T)], rank: Rank) -> Option<T> {
    let at = list.binary_search_by_key(&rank, |(r, _)| *r).ok()?;
    Some(list[at].1)
}

impl RuleEngine {
    /// An empty engine.
    pub(crate) fn new() -> RuleEngine {
        RuleEngine::default()
    }

    /// Empty the engine for another run, keeping the capacity of every
    /// collection: nothing of the earlier run's evidence or violations
    /// survives.
    pub(crate) fn restart(&mut self) {
        self.init_levels.clear();
        self.multi_threaded.clear();
        self.region_calls.clear();
        self.finalizes = 0;
        self.races.clear();
        self.race_counts.clear();
        self.incidents = 0;
        self.emitted.clear();
        self.built.clear();
    }

    /// Fold one trace event into the evidence. What it makes decidable goes
    /// to `built` and awaits [`RuleEngine::keep_new`].
    fn fold_event(&mut self, e: &Event) {
        match &e.kind {
            EventKind::MpiInit { level, .. } => {
                let level = *rank_entry(&mut self.init_levels, e.rank, *level);
                // Evidence for this rank may already have arrived (offline
                // traces can order init late); re-check its init rule now.
                self.early_init_emission(e.rank, level);
            }
            EventKind::Fork { nthreads, .. } if *nthreads > 1 => {
                if let Err(at) = self.multi_threaded.binary_search(&e.rank) {
                    self.multi_threaded.insert(at, e.rank);
                }
            }
            EventKind::MpiCall { call } if e.region.is_some() => {
                self.region_calls
                    .push((e.rank, call.clone(), e.loc.clone()));
                if let Some(level) = rank_get(&self.init_levels, e.rank) {
                    self.early_init_emission(e.rank, level);
                }
            }
            EventKind::MonitoredWrite { var, call } if *var == MonitoredVar::Finalize => {
                let idx = self.finalizes;
                self.finalizes += 1;
                if !call.is_main_thread {
                    let v = RuleEngine::finalize_off_main(idx, e.rank, e.loc.clone());
                    self.built.push(v);
                }
            }
            _ => {}
        }
    }

    /// True when [`RuleEngine::fold_event`] would ignore `e` entirely:
    /// no evidence folded, nothing built — plain access/sync events, the
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

    /// Fold a batch of trace events in order, skipping inert ones without
    /// the per-event match.
    pub(crate) fn observe_batch(&mut self, events: &[Event]) {
        for e in events {
            if RuleEngine::event_is_inert(e) {
                continue;
            }
            let at = self.built.len();
            self.fold_event(e);
            self.keep_new(at);
        }
    }

    /// Fold one runtime incident into the evidence (calls after finalize,
    /// collective mismatch).
    pub(crate) fn on_incident(&mut self, incident: &TraceIncident) {
        let idx = self.incidents;
        self.incidents += 1;
        let from = self.built.len();
        if incident.error.contains("after MPI_Finalize") {
            self.built
                .push(RuleEngine::finalize_incident(idx, incident));
        }
        if incident.error.contains("collective mismatch") {
            self.built
                .push(RuleEngine::collective_incident(idx, incident));
        }
        self.keep_new(from);
    }

    /// End of run: evaluate the one rule arm only the whole run decides
    /// (`MPI_THREAD_SINGLE`'s, which reports the total region call count)
    /// and return the canonical outcome, each violation keyed by the
    /// smallest key of its identity. Every other rule was decided, and
    /// kept, the moment its evidence arrived. Call once.
    pub(crate) fn finish(&mut self) -> RuleOutcome {
        let mut built = std::mem::take(&mut self.built);
        for &(rank, level) in &self.init_levels {
            if !self.emitted.contains(&RuleEngine::init_order(rank)) {
                built.extend(self.init_emission(rank, level, true));
            }
        }
        // Keys are unique (`emitted` admits each once), so this is the
        // batch evaluation order, and the first of an identity holds its
        // smallest key.
        built.sort_unstable_by_key(|k| k.order);
        // Moved out element by element: `built` keeps its capacity for the
        // next run.
        let mut violations = Vec::with_capacity(built.len());
        violations.append(&mut built);
        let violations = dedupe(violations);
        self.built = built;

        // Unclassifiable monitored races, in the batch (rank-major) order.
        let mut unmatched: Vec<&(Rank, u64, Race)> = self
            .races
            .iter()
            .filter(|(_, _, r)| matches!(r.loc, MemLoc::Monitored(_)) && !r.is_monitored())
            .collect();
        unmatched.sort_by_key(|(rank, idx, _)| (*rank, *idx));
        let unclassified = unmatched.into_iter().map(|(_, _, r)| r.clone()).collect();

        RuleOutcome {
            violations,
            unclassified,
        }
    }

    /// Keep the violations built since `from` whose key is new.
    fn keep_new(&mut self, from: usize) {
        let mut kept = from;
        for i in from..self.built.len() {
            if self.emitted.insert(self.built[i].order) {
                self.built.swap(kept, i);
                kept += 1;
            }
        }
        self.built.truncate(kept);
    }

    fn init_order(rank: Rank) -> EmitOrder {
        EmitOrder::new(RULE_INIT, 0, rank.0 as u64, 0)
    }

    /// [`RuleEngine::init_emission`] as evidence arrives, into `built`. A
    /// rank's rule fires once, but every later region call and race of
    /// that rank asks again; once the key is kept, `keep_new` would drop
    /// the answer, so it is not built (it costs a description and a vector
    /// each time).
    fn early_init_emission(&mut self, rank: Rank, level: ThreadLevel) {
        if self.emitted.contains(&RuleEngine::init_order(rank)) {
            return;
        }
        if let Some(v) = self.init_emission(rank, level, false) {
            self.built.push(v);
        }
    }

    /// The initialization rule for one rank. The Single arm reports the
    /// final region call count, so it is decidable only `at_finish`; the
    /// Serialized and Funneled arms fire on their first piece of evidence.
    /// The evidence is recomputed from accumulated state (first matching
    /// call / first monitored race), never from "the event at hand", so an
    /// early build is byte-identical to the finish-time evaluation.
    fn init_emission(
        &self,
        rank: Rank,
        level: ThreadLevel,
        at_finish: bool,
    ) -> Option<KeyedViolation> {
        let order = RuleEngine::init_order(rank);
        match level {
            ThreadLevel::Single => {
                // MPI_THREAD_SINGLE but an OpenMP parallel region issues
                // MPI calls.
                if !at_finish {
                    return None;
                }
                let calls: Vec<&(Rank, MpiCallRecord, Option<SrcLoc>)> = self
                    .region_calls
                    .iter()
                    .filter(|(r, _, _)| *r == rank)
                    .collect();
                if self.multi_threaded.binary_search(&rank).is_err() || calls.is_empty() {
                    return None;
                }
                let mut locs: Vec<SrcLoc> =
                    calls.iter().filter_map(|(_, _, l)| l.clone()).collect();
                locs.sort();
                locs.dedup();
                Some(keyed(
                    order,
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
                Some(keyed(
                    order,
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
                let (_, call, loc) = self
                    .region_calls
                    .iter()
                    .find(|(r, c, _)| *r == rank && !c.is_main_thread)?;
                Some(keyed(
                    order,
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
    fn finalize_off_main(idx: u64, rank: Rank, loc: Option<SrcLoc>) -> KeyedViolation {
        keyed(
            EmitOrder::new(RULE_FINALIZE, 0, idx, 0),
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
    fn finalize_incident(idx: u64, incident: &TraceIncident) -> KeyedViolation {
        keyed(
            EmitOrder::new(RULE_FINALIZE, 1, idx, 0),
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
    fn collective_incident(idx: u64, incident: &TraceIncident) -> KeyedViolation {
        keyed(
            EmitOrder::new(RULE_COLLECTIVE, 1, idx, 0),
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
    fn race_emissions(rank: Rank, idx: u64, race: &Race, out: &mut Vec<KeyedViolation>) {
        if !race.is_monitored() {
            return;
        }
        let MemLoc::Monitored(var) = race.loc else {
            return;
        };
        // Built only for a race a rule classifies: most races match none.
        let locs = || locations(&[&race.first, &race.second]);
        let order = |rule: u8| EmitOrder::new(rule, 0, rank.0 as u64, idx);
        match var {
            // Finalization rule (c): Finalize concurrent with other MPI
            // activity (race on finalizetmp).
            MonitoredVar::Finalize => {
                out.push(keyed(
                    EmitOrder::new(RULE_FINALIZE, 2, rank.0 as u64, idx),
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
                    return;
                };
                if a.kind.is_recv() && b.kind.is_recv() && envelope_collides(a, b) {
                    out.push(keyed(
                        order(RULE_RECV),
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
                    out.push(keyed(
                        order(RULE_PROBE),
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
                    return;
                };
                if let (true, true, Some(request)) =
                    (a.kind.is_completion(), b.kind.is_completion(), a.request)
                {
                    if Some(request) == b.request {
                        out.push(keyed(
                            order(RULE_REQUEST),
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
                    return;
                };
                if a.kind.is_collective() && b.kind.is_collective() && a.comm == b.comm {
                    out.push(keyed(
                        order(RULE_COLLECTIVE),
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
    }
}

/// The engine is the detector's way back into a session while the session
/// feeds it: each race is observed the moment it is found, and what it
/// completes is kept with the rest of the run's violations.
impl RaceSink for RuleEngine {
    fn on_race(&mut self, race: &Race) {
        let counter = rank_entry(&mut self.race_counts, race.rank, 0);
        let idx = *counter;
        *counter += 1;
        self.races.push((race.rank, idx, race.clone()));

        let from = self.built.len();
        RuleEngine::race_emissions(race.rank, idx, race, &mut self.built);
        // A monitored race can complete the Serialized initialization arm.
        if let Some(level) = rank_get(&self.init_levels, race.rank) {
            self.early_init_emission(race.rank, level);
        }
        self.keep_new(from);
    }
}

/// A violation under its [`EmitOrder`] key.
fn keyed(order: EmitOrder, violation: Violation) -> KeyedViolation {
    KeyedViolation { order, violation }
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

fn dedupe(mut violations: Vec<KeyedViolation>) -> Vec<KeyedViolation> {
    let mut seen = FxHashSet::default();
    let keep: Vec<bool> = violations
        .iter()
        .map(|k| {
            let v = &k.violation;
            seen.insert((v.kind, v.rank, v.locations.as_slice()))
        })
        .collect();
    drop(seen);
    let mut keep = keep.into_iter();
    violations.retain(|_| keep.next().unwrap_or(true));
    violations
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
    }

    #[test]
    fn dedupe_removes_identical_violations() {
        let v = KeyedViolation {
            order: EmitOrder::new(RULE_PROBE, 0, 0, 0),
            violation: Violation {
                kind: ViolationKind::Probe,
                rank: Rank(0),
                description: "x".into(),
                locations: vec![SrcLoc::new("a", 1)],
            },
        };
        let later = KeyedViolation {
            order: EmitOrder::new(RULE_PROBE, 0, 0, 1),
            ..v.clone()
        };
        let out = dedupe(vec![v.clone(), later]);
        assert_eq!(out, vec![v]);
    }

    #[test]
    fn late_init_still_matches_the_first_worker_call() {
        // Offline traces may order MPI_Init after region calls. The early
        // Funneled build must then report the *first* worker-thread
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
        engine.observe_batch(&[mk(1, call(1)), mk(2, call(2))]);
        assert!(engine.built.is_empty(), "{:?}", engine.built);
        let init = Event {
            kind: EventKind::MpiInit {
                level: ThreadLevel::Funneled,
                requested_by_init_thread: true,
            },
            ..mk(3, call(0))
        };
        engine.observe_batch(&[init]);
        assert_eq!(engine.built.len(), 1, "{:?}", engine.built);
        let early = engine.built[0].clone();
        assert_eq!(
            early.violation.locations,
            vec![SrcLoc::new("x.hmp", 1)],
            "must report the first worker call"
        );
        assert_eq!(engine.finish().violations, vec![early]);
    }
}
