//! The per-seed engine lifecycle as a standalone, independently drivable
//! object.
//!
//! [`check_with_sink`](crate::check_with_sink) runs one
//! simulate→detect→classify chain per scheduler seed. Everything after
//! "simulate" — the incremental [`RuleEngine`], the online
//! [`StreamDetector`], and the live [`ViolationSink`] tee — is the same
//! machinery whether the events come from a live simulation, a replayed
//! HBT recording, a socket, or a trace held in memory ([`analyze_run`]).
//! [`Session`] packages that machinery behind a four-step lifecycle:
//!
//! 1. **open** — [`Session::streaming`]: events flow through the online
//!    detector, races classify the moment they are discovered.
//! 2. **feed** — [`Session::feed_event`] (live, one event per
//!    `TraceSink::record`), [`Session::feed_batch`] (replay, one batch per
//!    decoded frame), [`Session::feed_incident`], any number of times,
//!    from any thread (all methods take `&self`).
//! 3. **drain** — every violation whose evidence completes is forwarded to
//!    the [`ViolationSink`] immediately, while feeding continues.
//! 4. **finish** — [`Session::finish`] runs the end-of-run evaluation and
//!    returns the canonical [`SessionOutcome`]; call it exactly once.
//!
//! The check pipeline drives one `Session` per seed; `home serve` opens
//! one per HBT trace section arriving on a connection; `home replay` and
//! `home analyze` open one per recorded section; `home explore` and the
//! ITC baseline model run one over each materialized trace.

use crate::report::EmittedViolation;
use crate::rules::{RuleEngine, RuleOutcome};
use crate::sink::{NullViolationSink, ViolationSink};
use home_interp::MpiIncident;
use home_stream::{DetectorConfig, Race, RaceSink, StreamDetector};
use home_trace::{Event, HomeError, Trace, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One seed's rule engine plus the violation sink its emissions go to.
///
/// The tap sits at the junction of the online pipeline: trace events and
/// runtime incidents are fed in directly, races arrive through the
/// [`RaceSink`] callback from the streaming detector, and every emission
/// the engine produces is forwarded to the [`ViolationSink`] immediately.
///
/// Lock order: the engine mutex is only ever taken *inside* a tap call and
/// released before the call returns, while the detector's lock is held
/// *across* the `RaceSink` callback — the tap never calls back into the
/// detector, so the two locks nest in one fixed order (detector → engine)
/// and cannot deadlock.
struct EngineTap {
    engine: Mutex<RuleEngine>,
    out: Arc<dyn ViolationSink>,
}

impl EngineTap {
    fn new(seed: u64, out: Arc<dyn ViolationSink>) -> EngineTap {
        EngineTap {
            engine: Mutex::new(RuleEngine::for_seed(seed)),
            out,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RuleEngine> {
        self.engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn observe_event(&self, e: &Event) {
        let fresh = self.lock().observe_event(e);
        self.forward(&fresh);
    }

    /// Observe a batch of events with one lock acquisition — or none at
    /// all when every event in the batch is inert (the common case for
    /// monitored access/sync streams).
    fn observe_batch(&self, events: &[Event]) {
        if events.iter().all(RuleEngine::event_is_inert) {
            return;
        }
        let fresh = self.lock().observe_batch(events);
        self.forward(&fresh);
    }

    fn observe_incident(&self, incident: &MpiIncident) {
        let fresh = self.lock().observe_incident(incident);
        self.forward(&fresh);
    }

    /// End-of-run: run the batch-equivalent evaluation, forward whatever
    /// was not already emitted live, and return the canonical outcome.
    fn finish(&self) -> RuleOutcome {
        let fin = self.lock().finish();
        self.forward(&fin.remaining);
        fin.outcome
    }

    fn forward(&self, emissions: &[EmittedViolation]) {
        for v in emissions {
            self.out.violation(v);
        }
    }
}

impl RaceSink for EngineTap {
    fn on_race(&self, race: &Race) {
        let fresh = self.lock().observe_race(race);
        self.forward(&fresh);
    }
}

/// Everything one finished session produced.
#[derive(Debug, Clone, Default)]
pub struct SessionOutcome {
    /// The seed the session was opened with (provenance, not behavior).
    pub seed: u64,
    /// Events fed through [`Session::feed_event`].
    pub events: u64,
    /// Races: the detector's result list (each rank's in discovery order,
    /// ranks ascending).
    pub races: Vec<Race>,
    /// Classified violations in canonical rule order, deduplicated within
    /// the run.
    pub violations: Vec<crate::report::Violation>,
    /// Monitored races the rules could not classify (missing MPI call
    /// metadata on one side).
    pub unclassified: Vec<Race>,
}

/// A reusable per-run detection + classification engine: open it, feed it
/// evidence, let it drain violations into a sink, finish it. See the
/// module docs for the lifecycle.
pub struct Session {
    seed: u64,
    tap: Arc<EngineTap>,
    detector: StreamDetector,
    events: AtomicU64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("seed", &self.seed)
            .field("events", &self.events.load(Ordering::Relaxed))
            .finish()
    }
}

impl Session {
    /// Open a streaming session: events are classified *and* race-detected
    /// online. Races discovered by the detector re-enter the rule engine
    /// through its race callback, so violations whose evidence is a race
    /// also fire mid-run.
    pub fn streaming(seed: u64, detector: DetectorConfig, sink: Arc<dyn ViolationSink>) -> Session {
        let tap = Arc::new(EngineTap::new(seed, sink));
        let race_tap = Arc::clone(&tap) as Arc<dyn RaceSink>;
        Session {
            seed,
            tap,
            detector: StreamDetector::with_race_sink(detector, race_tap),
            events: AtomicU64::new(0),
        }
    }

    /// The seed this session stamps onto emissions.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Events fed so far.
    pub fn events_fed(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Feed one event: the rule engine observes it first (and releases its
    /// lock), then the online detector consumes it — the detector's race
    /// callback re-enters the engine, so this order is load-bearing.
    pub fn feed_event(&self, e: &Event) {
        self.events.fetch_add(1, Ordering::Relaxed);
        self.tap.observe_event(e);
        self.detector.consume(e);
    }

    /// Feed a batch of events through the amortized path: the rule engine
    /// observes the whole batch under one lock (or none, when every event
    /// is inert), then the detector consumes it under one lock of its
    /// own. Byte-identical to feeding each event individually —
    /// the engine-before-detector order of [`Session::feed_event`] holds
    /// batch-wise, and every rule emission key is position-derived, so
    /// moving engine observations ahead of detector callbacks within a
    /// batch changes no emitted bytes.
    pub fn feed_batch(&self, events: &[Event]) {
        if events.is_empty() {
            return;
        }
        self.events
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        self.tap.observe_batch(events);
        self.detector.consume_batch(events);
    }

    /// Feed one runtime MPI incident.
    pub fn feed_incident(&self, incident: &MpiIncident) {
        self.tap.observe_incident(incident);
    }

    /// Finalize: drain the detector, run the end-of-run rule evaluation,
    /// forward the remaining emissions, and return the canonical outcome.
    /// Call exactly once; a structural error stashed by the detector
    /// surfaces here as a typed [`HomeError`].
    pub fn finish(&self) -> Result<SessionOutcome, HomeError> {
        let (races, _stats) = self.detector.finish()?;
        let outcome = self.tap.finish();
        Ok(SessionOutcome {
            seed: self.seed,
            events: self.events.load(Ordering::Relaxed),
            races,
            violations: outcome.violations,
            unclassified: outcome.unclassified,
        })
    }
}

/// A session plugs directly into `interp::run_with_sink`: every simulator
/// event is fed the moment it is recorded.
impl TraceSink for Session {
    fn record(&self, event: Event) {
        self.feed_event(&event);
    }
}

/// Detect and classify one run that is already in memory: a session fed
/// the whole trace as one batch, then the run's incidents, then finished.
/// Violations go to no sink; the caller reads them off the outcome. This
/// is how `home explore` analyzes the schedules that survive its
/// fingerprint dedup, how the ITC baseline model is run (a `detector` with
/// `ignore_locks`), and how `home analyze` reads a JSON trace.
pub fn analyze_run(
    seed: u64,
    detector: &DetectorConfig,
    trace: &Trace,
    incidents: &[MpiIncident],
) -> Result<SessionOutcome, HomeError> {
    let session = Session::streaming(seed, detector.clone(), Arc::new(NullViolationSink));
    session.feed_batch(trace.events());
    for incident in incidents {
        session.feed_incident(incident);
    }
    session.finish()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::sink::ViolationCollector;
    use crate::ViolationKind;
    use home_interp::{run, RunConfig};
    use home_ir::parse;

    fn collective_run() -> home_interp::RunResult {
        let program = parse(
            r#"
            program sess {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) { mpi_barrier(); }
                mpi_finalize();
            }
            "#,
        )
        .unwrap();
        run(&program, &RunConfig::test(2, 1))
    }

    #[test]
    fn eventwise_session_matches_detect_then_classify() {
        let result = collective_run();
        let config = DetectorConfig::hybrid();

        let session = Session::streaming(1, config.clone(), Arc::new(NullViolationSink));
        for e in result.trace.events() {
            session.feed_event(e);
        }
        for i in &result.mpi_errors {
            session.feed_incident(i);
        }
        let streamed = session.finish().unwrap();

        // Reference: detect over the whole trace, then classify.
        let (races, _) = home_stream::detect_stream(&result.trace, &config).unwrap();
        let outcome = crate::rules::match_rules(&result.trace, &races, &result.mpi_errors);

        assert_eq!(streamed.violations, outcome.violations);
        assert_eq!(streamed.races, races, "race lists must match");
        assert_eq!(streamed.events, result.trace.events().len() as u64);
        assert!(streamed
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::CollectiveCall));
    }

    #[test]
    fn analyze_run_matches_an_eventwise_session_and_its_sink() {
        let result = collective_run();
        let config = DetectorConfig::hybrid();
        let collector = Arc::new(ViolationCollector::new());
        let session = Session::streaming(7, config.clone(), collector.clone());
        for e in result.trace.events() {
            session.feed_event(e);
        }
        for i in &result.mpi_errors {
            session.feed_incident(i);
        }
        let eventwise = session.finish().unwrap();
        let whole = analyze_run(7, &config, &result.trace, &result.mpi_errors).unwrap();
        assert_eq!(whole.violations, eventwise.violations);
        assert_eq!(whole.races, eventwise.races);
        assert_eq!(whole.events, eventwise.events);

        // Every canonical violation was also delivered to the sink, with
        // the session's seed stamped on.
        let emitted = collector.emissions();
        for v in &eventwise.violations {
            assert!(
                emitted.iter().any(|e| &e.violation == v && e.seed == 7),
                "missing emission for {v}"
            );
        }
    }
}
