//! The per-run engine lifecycle as a standalone, independently drivable
//! object.
//!
//! [`check`](crate::check) runs one simulate→detect→classify chain per
//! scheduler seed. Everything after "simulate" — the incremental rule
//! engine and the online [`StreamDetector`] — is the same machinery whether
//! the events come from a live simulation, a replayed HBT recording, a
//! socket, or a trace held in memory. [`Session`] packages that machinery
//! behind a three-step lifecycle:
//!
//! 1. **open** — [`Session::new`]: events flow through the online
//!    detector, races classify the moment they are discovered.
//! 2. **feed** — [`Session::feed_batch`] ([`FEED_BATCH`] events at a time,
//!    live from a run or decoded from a recording),
//!    [`Session::feed_incident`], any number of times. A session has one
//!    owner, which feeds it through `&mut self`; the session may move to
//!    another thread between calls (it is `Send`).
//! 3. **finish** — [`Session::finish`] runs the end-of-run evaluation and
//!    returns the canonical [`SessionOutcome`]; call it exactly once.
//!
//! The check pipeline drives one `Session` per seed (the ITC baseline
//! model is that pipeline, critical-blind); `home serve` and `home replay`
//! restart one per worker for each recorded section; `home explore` runs
//! one over each materialized trace.

use crate::report::KeyedViolation;
use crate::rules::RuleEngine;
use home_stream::{DetectorConfig, Race, StreamDetector};
use home_trace::{Event, HomeError, Trace, TraceIncident};

/// Consecutive events a session is fed as one batch, by `check`'s live run
/// and by every replay driver alike. Enough to spread a batch's fixed cost
/// thin, few enough that the events (28 KiB) are still in cache between
/// being produced and being fed.
pub const FEED_BATCH: usize = 256;

/// Everything one finished session produced.
#[derive(Debug, Clone, Default)]
pub struct SessionOutcome {
    /// Events fed through [`Session::feed_batch`].
    pub events: u64,
    /// Races: the detector's result list (each rank's in discovery order,
    /// ranks ascending).
    pub races: Vec<Race>,
    /// Classified violations in canonical rule order, deduplicated within
    /// the run, each with the emission key it was kept under.
    pub violations: Vec<KeyedViolation>,
    /// Monitored races the rules could not classify (missing MPI call
    /// metadata on one side).
    pub unclassified: Vec<Race>,
}

/// A reusable per-run detection + classification engine: open it, feed it
/// evidence, finish it. See the module docs for the lifecycle.
pub struct Session {
    engine: RuleEngine,
    detector: StreamDetector,
    events: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("events", &self.events)
            .finish()
    }
}

impl Session {
    /// Open a session: events are classified *and* race-detected online.
    /// Races discovered by the detector re-enter the rule engine as they
    /// are found, so violations whose evidence is a race classify mid-run.
    pub fn new(detector: DetectorConfig) -> Session {
        Session {
            engine: RuleEngine::new(),
            detector: StreamDetector::new(detector),
            events: 0,
        }
    }

    /// Ready the session for another run: the same detector configuration,
    /// the detector and rule engine emptied of whatever the earlier run
    /// left (finished or not) with their capacity kept. What a reused
    /// session reports is what a fresh one would.
    pub fn restart(&mut self) {
        // An unfinished run's state goes too; its result is nobody's. A
        // faulted detector hands out its error first and empties on the
        // call after.
        if self.detector.finish().is_err() {
            let _ = self.detector.finish();
        }
        self.engine.restart();
        self.events = 0;
    }

    /// Feed a batch of events: the rule engine observes the whole batch,
    /// then the detector consumes it, handing each race it finds back to
    /// the engine. The outcome is what feeding each event individually
    /// gives: every violation's key is position-derived, so moving engine
    /// observations ahead of the detector's races within a batch moves no
    /// reported byte.
    pub fn feed_batch(&mut self, events: &[Event]) {
        self.events += events.len() as u64;
        self.engine.observe_batch(events);
        self.detector.consume_batch(events, Some(&mut self.engine));
    }

    /// True once the detector has refused the stream; [`Session::finish`]
    /// will return its error.
    pub fn faulted(&self) -> bool {
        self.detector.faulted()
    }

    /// Feed one runtime MPI incident.
    pub fn feed_incident(&mut self, incident: &TraceIncident) {
        self.engine.on_incident(incident);
    }

    /// Finalize: drain the detector, run the end-of-run rule evaluation and
    /// return the canonical outcome. Call exactly once (`&mut self` and not
    /// `self`: a deadlocked run's parked tasks still share the session with
    /// the caller); a structural error stashed by the detector surfaces
    /// here as a typed [`HomeError`].
    pub fn finish(&mut self) -> Result<SessionOutcome, HomeError> {
        let (races, _stats) = self.detector.finish()?;
        let rules = self.engine.finish();
        Ok(SessionOutcome {
            events: self.events,
            races,
            violations: rules.violations,
            unclassified: rules.unclassified,
        })
    }
}

impl Session {
    /// Feed a run that is already in memory, the whole trace as one batch
    /// and then its incidents, and finish (how `home explore` analyzes each
    /// schedule, over one recycled session per worker).
    pub(crate) fn analyze(
        &mut self,
        trace: &Trace,
        incidents: &[TraceIncident],
    ) -> Result<SessionOutcome, HomeError> {
        self.feed_batch(trace.events());
        for incident in incidents {
            self.feed_incident(incident);
        }
        self.finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
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

        let mut session = Session::new(config.clone());
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
            .any(|v| v.violation.kind == ViolationKind::CollectiveCall));
    }

    #[test]
    fn a_whole_trace_session_matches_an_eventwise_session() {
        let result = collective_run();
        let config = DetectorConfig::hybrid();
        let mut session = Session::new(config.clone());
        for e in result.trace.events() {
            session.feed_batch(std::slice::from_ref(e));
        }
        for i in &result.mpi_errors {
            session.feed_incident(i);
        }
        let eventwise = session.finish().unwrap();
        let whole = Session::new(config.clone())
            .analyze(&result.trace, &result.mpi_errors)
            .unwrap();
        assert!(!whole.violations.is_empty());
        assert_eq!(whole.violations, eventwise.violations);
        assert_eq!(whole.races, eventwise.races);
        assert_eq!(whole.events, eventwise.events);
    }

    /// A restarted session reports a run as a fresh one would, whatever
    /// the run before it left behind (finished, or fed and abandoned).
    #[test]
    fn a_restarted_session_reports_what_a_fresh_one_would() {
        let recv = parse(
            r#"
            program recvs {
                mpi_init_thread(serialized);
                if (rank == 0) { mpi_send(to: 1, tag: 0, count: 1); mpi_send(to: 1, tag: 0, count: 1); }
                if (rank == 1) { omp parallel num_threads(2) { mpi_recv(from: 0, tag: 0); } }
                mpi_finalize();
            }
            "#,
        )
        .unwrap();
        let runs = [collective_run(), run(&recv, &RunConfig::test(2, 3))];
        let config = DetectorConfig::hybrid();
        let mut session = Session::new(config.clone());
        for (i, result) in [&runs[0], &runs[1], &runs[0], &runs[1]]
            .into_iter()
            .enumerate()
        {
            // An abandoned half of the other run first.
            session.restart();
            session.feed_batch(&runs[(i + 1) % 2].trace.events()[..20]);
            session.restart();
            let reused = session.analyze(&result.trace, &result.mpi_errors).unwrap();
            let fresh = Session::new(config.clone())
                .analyze(&result.trace, &result.mpi_errors)
                .unwrap();
            assert!(!fresh.violations.is_empty() && !fresh.races.is_empty());
            assert_eq!(reused.violations, fresh.violations);
            assert_eq!(reused.races, fresh.races);
            assert_eq!(reused.unclassified, fresh.unclassified);
            assert_eq!(reused.events, fresh.events);
        }
    }
}
