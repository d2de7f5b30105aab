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
//! 2. **feed** — [`Session::feed_batch`] ([`FEED_BATCH`] events at a time,
//!    live from a run or decoded from a recording),
//!    [`Session::feed_incident`], any number of times.
//!    A session has one owner, which feeds it through `&mut self`; the
//!    session may move to another thread between calls (it is `Send`).
//! 3. **drain** — every violation whose evidence completes is forwarded to
//!    the [`ViolationSink`] immediately, while feeding continues.
//! 4. **finish** — [`Session::finish`] runs the end-of-run evaluation and
//!    returns the canonical [`SessionOutcome`]; call it exactly once.
//!
//! The check pipeline drives one `Session` per seed; `home serve` opens
//! one per HBT trace section arriving on a connection; `home replay`
//! opens one per recorded section; `home explore` and the
//! ITC baseline model run one over each materialized trace.

use crate::report::EmittedViolation;
use crate::rules::RuleEngine;
use crate::sink::{NullViolationSink, ViolationSink};
use home_interp::MpiIncident;
use home_stream::{DetectorConfig, Race, RaceSink, StreamDetector};
use home_trace::{Event, HomeError, Trace};
use std::sync::Arc;

/// Consecutive events a session is fed as one batch, by `check`'s live run
/// and by every replay driver alike. Enough to spread a batch's fixed cost
/// thin, few enough that the events (28 KiB) are still in cache between
/// being produced and being fed.
pub const FEED_BATCH: usize = 256;

fn forward(out: &dyn ViolationSink, emissions: &[EmittedViolation]) {
    for v in emissions {
        out.violation(v);
    }
}

/// The detector's way back into the session while the session is feeding
/// it: each race is observed by the rule engine the moment it is found,
/// and what that completes goes to the violation sink.
struct RaceTap<'a> {
    engine: &'a mut RuleEngine,
    out: &'a dyn ViolationSink,
}

impl RaceSink for RaceTap<'_> {
    fn on_race(&mut self, race: &Race) {
        forward(self.out, &self.engine.observe_race(race));
    }
}

/// Everything one finished session produced.
#[derive(Debug, Clone, Default)]
pub struct SessionOutcome {
    /// The seed the session was opened with (provenance, not behavior).
    pub seed: u64,
    /// Events fed through [`Session::feed_batch`].
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
    engine: RuleEngine,
    detector: StreamDetector,
    out: Arc<dyn ViolationSink>,
    events: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("seed", &self.seed)
            .field("events", &self.events)
            .finish()
    }
}

impl Session {
    /// Open a streaming session: events are classified *and* race-detected
    /// online. Races discovered by the detector re-enter the rule engine
    /// as they are found, so violations whose evidence is a race also fire
    /// mid-run.
    pub fn streaming(seed: u64, detector: DetectorConfig, sink: Arc<dyn ViolationSink>) -> Session {
        Session {
            seed,
            engine: RuleEngine::for_seed(seed),
            detector: StreamDetector::new(detector),
            out: sink,
            events: 0,
        }
    }

    /// The seed this session stamps onto emissions.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Feed a batch of events: the rule engine observes the whole batch,
    /// then the detector consumes it, handing each race it finds back to
    /// the engine. Byte-identical to feeding each event individually:
    /// every rule emission key is position-derived, so moving engine
    /// observations ahead of the detector's races within a batch changes
    /// no emitted bytes.
    pub fn feed_batch(&mut self, events: &[Event]) {
        self.events += events.len() as u64;
        forward(&*self.out, &self.engine.observe_batch(events));
        let mut tap = RaceTap {
            engine: &mut self.engine,
            out: &*self.out,
        };
        self.detector.consume_batch(events, Some(&mut tap));
    }

    /// True once the detector has refused the stream; [`Session::finish`]
    /// will return its error.
    pub fn faulted(&self) -> bool {
        self.detector.faulted()
    }

    /// Feed one runtime MPI incident.
    pub fn feed_incident(&mut self, incident: &MpiIncident) {
        forward(&*self.out, &self.engine.observe_incident(incident));
    }

    /// Finalize: drain the detector, run the end-of-run rule evaluation,
    /// forward the emissions that did not fire live, and return the
    /// canonical outcome. Call exactly once (`&mut self` and not `self`: a
    /// deadlocked run's parked tasks still share the session with the
    /// caller); a structural error stashed by the detector surfaces here
    /// as a typed [`HomeError`].
    pub fn finish(&mut self) -> Result<SessionOutcome, HomeError> {
        let (races, _stats) = self.detector.finish()?;
        let fin = self.engine.finish();
        forward(&*self.out, &fin.remaining);
        Ok(SessionOutcome {
            seed: self.seed,
            events: self.events,
            races,
            violations: fin.outcome.violations,
            unclassified: fin.outcome.unclassified,
        })
    }
}

/// Detect and classify one run that is already in memory: a session fed
/// the whole trace as one batch, then the run's incidents, then finished.
/// Violations go to no sink; the caller reads them off the outcome. This
/// is how `home explore` analyzes the schedules that survive its
/// fingerprint dedup and how the ITC baseline model is run (a `detector`
/// with `ignore_locks`).
pub fn analyze_run(
    seed: u64,
    detector: &DetectorConfig,
    trace: &Trace,
    incidents: &[MpiIncident],
) -> Result<SessionOutcome, HomeError> {
    let mut session = Session::streaming(seed, detector.clone(), Arc::new(NullViolationSink));
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

        let mut session = Session::streaming(1, config.clone(), Arc::new(NullViolationSink));
        for e in result.trace.events() {
            session.feed_batch(std::slice::from_ref(e));
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
        let mut session = Session::streaming(7, config.clone(), collector.clone());
        for e in result.trace.events() {
            session.feed_batch(std::slice::from_ref(e));
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
