//! Session-driven analysis of HBT traces: the one replay driver.
//!
//! One [`Session`](home_core::Session) run per recorded section. A trace
//! held in memory (a file read whole, a buffered `home serve` submission)
//! goes through [`analyze_trace`]: [`scan_layout`] validates the structure,
//! then each section's frames are decoded in place into a reusable
//! [`FrameBatch`], and every 256 events (`FEED_BATCH`) go to its session as
//! soon as they are decoded — a worker holds one chunk of decoded events,
//! not a frame. Sections share nothing, so `--jobs` fans out over them; a
//! worker keeps one [`Session`] and restarts it with each section's seed,
//! so its maps and tables grow once, not once per section. A pipe
//! goes through [`analyze_stream`], record at a time over one session
//! restarted the same way, and so does any stream without a frame layout,
//! read in place.
//! `home replay` and `home serve` both end here, and one
//! [`HbtReader`] decides for all of them what a valid stream is, so their
//! verdicts are byte-identical by construction, and so is the error they
//! report for a damaged trace: the first fault in stream order, a
//! detector fault sitting at the event that caused it.
//!
//! Each section's violations come keyed by the rule engine: every one
//! carries the smallest [`EmitOrder`](home_core::EmitOrder) of its identity
//! in that run (its canonical batch-evaluation position). An incident's
//! violations are keyed by its index among the section's incidents, never
//! by its place among the events, so a stream that interleaves them reaches
//! the verdict the decoded section does. Violations are deduplicated across
//! sections by identity `(kind, rank, locations)`, first occurrence wins.

use home_core::{
    fan_out_indexed_with, KeyedViolation, Session, SessionOutcome, Violation, FEED_BATCH,
};
use home_stream::{
    decode_frame_chunks, scan_layout, DetectorConfig, FrameBatch, FrameLoc, FrameScratch,
    HbtLayout, HbtReader, HbtRecord, HbtSection,
};
use home_trace::{Event, HomeError};
use std::collections::BTreeMap;
use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering};

// The identity keying lives in `home_core` (it is also the batch pipeline's
// and the exploration engine's dedup key); re-exported here because serve's
// public API grew it first.
pub use home_core::{violation_identity, ViolationIdentity};

/// The verdict over one recorded section (one run).
#[derive(Debug, Clone, Default)]
pub struct SectionVerdict {
    /// Scheduler seed, when the section was opened by a `RUN` record.
    pub seed: Option<u64>,
    /// Events the section contained.
    pub events: u64,
    /// Monitored races the detector found.
    pub races: usize,
    /// Races the rules could not classify.
    pub unclassified: usize,
    /// Canonical per-section violation list (batch order), keyed.
    pub violations: Vec<KeyedViolation>,
}

/// The combined verdict over all sections of one trace.
#[derive(Debug, Clone, Default)]
pub struct TraceOutcome {
    /// Per-section verdicts, in stream order.
    pub sections: Vec<SectionVerdict>,
    /// Total events across sections.
    pub events: u64,
    /// Total monitored races across sections.
    pub races: usize,
    /// Total unclassified races across sections.
    pub unclassified: usize,
    /// Violations deduplicated across sections: first occurrence wins,
    /// section order then canonical order within a section.
    pub violations: Vec<Violation>,
}

/// A session for replayed sections: the hybrid detector, restarted for
/// each section.
fn section_session() -> Session {
    Session::new(DetectorConfig::hybrid())
}

/// The verdict of a section recorded under `seed` from its finished session.
fn section_verdict(seed: Option<u64>, outcome: SessionOutcome) -> SectionVerdict {
    SectionVerdict {
        seed,
        events: outcome.events,
        races: outcome.races.len(),
        unclassified: outcome.unclassified.len(),
        violations: outcome.violations,
    }
}

/// Combine per-section verdicts into one trace outcome, deduplicating
/// violations across sections (first occurrence wins; within a section the
/// canonical order is already sorted by emission key).
pub fn combine_verdicts(verdicts: Vec<SectionVerdict>) -> TraceOutcome {
    let mut out = TraceOutcome::default();
    let mut seen: BTreeMap<ViolationIdentity, ()> = BTreeMap::new();
    for verdict in verdicts {
        out.events += verdict.events;
        out.races += verdict.races;
        out.unclassified += verdict.unclassified;
        for kv in &verdict.violations {
            if seen.insert(violation_identity(&kv.violation), ()).is_none() {
                out.violations.push(kv.violation.clone());
            }
        }
        out.sections.push(verdict);
    }
    out
}

/// Analyze every section of an already decoded trace and combine the
/// verdicts — the materializing counterpart of [`analyze_trace`], kept for
/// callers that hold [`HbtSection`]s (benchmark kernels, parity tests).
/// One session, restarted for each section, is fed the section's events as
/// one batch and then its incidents.
pub fn analyze_sections(sections: &[HbtSection]) -> Result<TraceOutcome, HomeError> {
    let mut session = section_session();
    let mut verdicts = Vec::with_capacity(sections.len());
    for section in sections {
        session.restart();
        session.feed_batch(section.trace.events());
        for i in &section.incidents {
            session.feed_incident(i);
        }
        verdicts.push(section_verdict(section.seed, session.finish()?));
    }
    Ok(combine_verdicts(verdicts))
}

/// The validated frame layout of an in-memory stream, or `None` when it
/// has none (v1, or v2 carrying plain records) and must be read record at
/// a time.
///
/// [`scan_layout`] judges the whole structure before any frame is
/// inflated, so of two faults it names the structural one even when a
/// corrupt frame body precedes it in the stream. Every path reports the
/// first fault in stream order, so a rejected stream is re-read the way a
/// pipe is read and that reader's error is preferred.
pub(crate) fn layout_of(bytes: &[u8]) -> Result<Option<HbtLayout>, HomeError> {
    scan_layout(bytes).map_err(|structural| analyze_unframed(bytes).err().unwrap_or(structural))
}

/// The frames of each recorded section, in stream order: a head frame
/// plus the continuation frames that follow it ([`scan_layout`] already
/// rejected a continuation frame without an open section).
pub(crate) fn section_frames(layout: &HbtLayout) -> Vec<&[FrameLoc]> {
    layout
        .frames
        .chunk_by(|_, next| next.entry.continuation)
        .collect()
}

/// What one replay worker keeps across the sections it analyses: the
/// decoder's scratch buffers, the batch whose event slots are refilled in
/// place, and the session restarted for each section.
struct Worker {
    scratch: FrameScratch,
    batch: FrameBatch,
    session: Session,
}

impl Worker {
    fn new() -> Worker {
        Worker {
            scratch: FrameScratch::new(),
            batch: FrameBatch::new(),
            session: section_session(),
        }
    }
}

/// Decode and analyze one section on `worker`, feeding its session every
/// [`FEED_BATCH`] events from the frame walk. `None` for an anonymous
/// section holding no records (the record-at-a-time loop would never open
/// a session for it).
fn analyze_frames(
    bytes: &[u8],
    frames: &[FrameLoc],
    worker: &mut Worker,
) -> Result<Option<SectionVerdict>, HomeError> {
    let seed = frames.first().and_then(|f| f.entry.seed);
    let empty = frames
        .iter()
        .all(|f| f.entry.events == 0 && f.entry.incidents == 0);
    if seed.is_none() && empty {
        return Ok(None);
    }
    let Worker {
        scratch,
        batch,
        session,
    } = worker;
    session.restart();
    for frame in frames {
        // Stream order, as the reader tells it: it inflates a whole frame
        // before it yields any record, so this frame's decode fault comes
        // ahead of whatever its own events trip in the detector, and behind
        // a detector fault from an earlier frame.
        let faulted = session.faulted();
        let decoded = decode_frame_chunks(bytes, frame, scratch, batch, FEED_BATCH, |events| {
            session.feed_batch(events);
        });
        if let Err(e) = decoded {
            if faulted {
                session.finish()?;
            }
            return Err(e);
        }
        for i in &batch.incidents {
            session.feed_incident(i);
        }
    }
    Ok(Some(section_verdict(seed, session.finish()?)))
}

/// Analyze `sections` (each a [`section_frames`] group) `jobs` ways in
/// parallel: sections are independent sessions, so this parallelizes
/// decode and detection alike, and each worker holds one chunk of decoded
/// events at a time. One slot per section, in order; the first error in
/// section order wins, exactly what a serial pass reports. (One job runs
/// on the calling thread: the fan-out's rule, not this function's.)
pub(crate) fn analyze_section_frames(
    bytes: &[u8],
    sections: &[&[FrameLoc]],
    jobs: usize,
) -> Result<Vec<Option<SectionVerdict>>, HomeError> {
    // Smallest index of a section that failed. Only a hint that lets
    // workers skip later sections (whose result can no longer be
    // reported); the results themselves travel through the joined slots.
    let failed = AtomicUsize::new(usize::MAX);
    let slots = fan_out_indexed_with(sections, jobs, Worker::new, |worker, i, frames| {
        if i > failed.load(Ordering::Relaxed) {
            return Ok(None);
        }
        let verdict = analyze_frames(bytes, frames, worker);
        if verdict.is_err() {
            failed.fetch_min(i, Ordering::Relaxed);
        }
        verdict
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(HomeError::corrupt_trace(
                    "an HBT section worker produced no verdict",
                ))
            })
        })
        .collect()
}

/// Analyze a whole in-memory HBT stream — the entry point behind `home
/// replay <file>` and the daemon's buffered ingest. Sections fan out over
/// `jobs` workers, each feeding its session 256 events at a time while it
/// decodes. The verdict is byte-identical for every `jobs`, and to
/// [`analyze_stream`] over the same bytes. Streams without a frame layout
/// are read record at a time, where `jobs` does not apply.
pub fn analyze_trace(bytes: &[u8], jobs: usize) -> Result<TraceOutcome, HomeError> {
    let Some(layout) = layout_of(bytes)? else {
        return analyze_unframed(bytes);
    };
    let verdicts = analyze_section_frames(bytes, &section_frames(&layout), jobs)?;
    Ok(combine_verdicts(verdicts.into_iter().flatten().collect()))
}

/// [`analyze_trace`] restricted to the section(s) recorded under `seed`
/// (`replay --run SEED`): the v2 index locates their frames, and frames of
/// other sections are never inflated. Errors:
///
/// * v1 streams (no index) get a typed error suggesting recording again
///   with `home record`, which writes v2;
/// * an absent seed gets a typed error listing the seeds the index holds.
pub fn analyze_trace_run(bytes: &[u8], seed: u64, jobs: usize) -> Result<TraceOutcome, HomeError> {
    let layout = layout_of(bytes)?.ok_or_else(|| {
        HomeError::trace_parse(
            "this HBT stream is v1 and carries no seek index; \
             record it again with `home record` to enable --run seeking",
        )
    })?;
    let mut wanted = section_frames(&layout);
    wanted.retain(|frames| frames[0].entry.seed == Some(seed));
    if wanted.is_empty() {
        let mut available: Vec<u64> = layout.frames.iter().filter_map(|f| f.entry.seed).collect();
        available.sort_unstable();
        available.dedup();
        let listing = if available.is_empty() {
            "the index holds no seeded sections".to_string()
        } else {
            format!(
                "available seeds: {}",
                available
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        return Err(HomeError::seed(
            seed,
            format!("no recorded section for this seed; {listing}"),
        ));
    }
    let verdicts = analyze_section_frames(bytes, &wanted, jobs)?;
    Ok(combine_verdicts(verdicts.into_iter().flatten().collect()))
}

/// Analyze an HBT stream record-at-a-time without materializing it: one
/// session run per recorded section, bounded memory (nothing is
/// buffered but the reader's one record or frame, one batch of events and
/// the detector's own live state).
///
/// This is how a pipe is read (`replay -`, an oversized
/// `home serve` submission): a multi-gigabyte trace streams through the
/// reader's chunked buffer instead of being read whole into memory. The
/// verdict is byte-identical to the frame path by construction.
pub fn analyze_stream(input: impl Read) -> Result<TraceOutcome, HomeError> {
    stream_sections(HbtReader::new(input)?)
}

/// The same record-at-a-time read over a stream already in memory, decoded
/// in place: how [`analyze_trace`] and the daemon read streams that carry
/// no frame layout (v1, or v2 carrying plain records).
pub(crate) fn analyze_unframed(bytes: &[u8]) -> Result<TraceOutcome, HomeError> {
    stream_sections(HbtReader::from_slice(bytes)?)
}

/// Drain `reader` into one session run per section, the one session
/// restarted at each; the reader validates the stream as it goes. Events
/// reach their session a batch at a time, flushed before anything that is
/// not an event.
fn stream_sections(mut reader: HbtReader<'_, impl Read>) -> Result<TraceOutcome, HomeError> {
    let mut session = section_session();
    // The open section's seed, and whether a section is open: a `RUN`
    // record opens one, and so does the first event or incident of the
    // anonymous section.
    let mut seed = None;
    let mut open = false;
    let mut verdicts = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    loop {
        let record = reader.next_record();
        let more = matches!(record, Ok(Some(HbtRecord::Event(_)))) && events.len() < FEED_BATCH;
        if !more && !events.is_empty() {
            open = true;
            session.feed_batch(&events);
            events.clear();
        }
        match record {
            Err(e) => {
                // Stream order: a detector fault stashed by an earlier event
                // of the open section precedes the fault that ended the read.
                if open {
                    session.finish()?;
                }
                return Err(e);
            }
            Ok(None) => break,
            Ok(Some(HbtRecord::Run { seed: next })) => {
                if open {
                    verdicts.push(section_verdict(seed, session.finish()?));
                }
                session.restart();
                seed = Some(next);
                open = true;
            }
            Ok(Some(HbtRecord::Event(e))) => events.push(e),
            Ok(Some(HbtRecord::Incident(i))) => {
                open = true;
                session.feed_incident(&i);
            }
            Ok(Some(HbtRecord::Manifest { .. } | HbtRecord::Index { .. })) => {}
        }
    }
    if open {
        verdicts.push(section_verdict(seed, session.finish()?));
    }
    Ok(combine_verdicts(verdicts))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use home_interp::{run, Instrumentation, RunConfig};
    use home_trace::{EventKind, Rank, RegionId, Tid, TraceIncident};

    /// The fully instrumented events and incidents of one run of a bundled
    /// program.
    fn recorded(program: &str, seed: u64) -> (Vec<Event>, Vec<TraceIncident>) {
        let path = format!("{}/../../programs/{program}", env!("CARGO_MANIFEST_DIR"));
        let source = std::fs::read_to_string(path).expect("bundled program");
        let program = home_ir::parse(&source).expect("it parses");
        let mut cfg = RunConfig::test(2, seed).with_instrumentation(Instrumentation::full());
        cfg.threads_per_proc = 2;
        let result = run(&program, &cfg);
        (result.trace.events().to_vec(), result.mpi_errors)
    }

    /// `events` fed in `FEED_BATCH` chunks, then `incidents`, finished:
    /// the verdict of a section recorded under `seed` in full, or the
    /// error's words.
    fn section(
        session: &mut Session,
        seed: Option<u64>,
        events: &[Event],
        incidents: &[TraceIncident],
    ) -> String {
        for chunk in events.chunks(FEED_BATCH) {
            session.feed_batch(chunk);
        }
        for i in incidents {
            session.feed_incident(i);
        }
        match session.finish() {
            Ok(outcome) => format!("{:?}", section_verdict(seed, outcome)),
            Err(e) => e.to_string(),
        }
    }

    /// A worker moves to a fan-out thread with everything it keeps.
    #[test]
    fn a_replay_worker_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Worker>();
    }

    /// A session restarted after a section that faulted, one that found
    /// violations or one left unfinished reports the next section exactly
    /// as a freshly opened session does: verdict, counts, emission keys.
    #[test]
    fn a_restarted_section_session_carries_nothing_over() {
        let (violating, incidents) = recorded("figure2.hmp", 1);
        let (clean, _) = recorded("figure2_fixed.hmp", 1);
        // The first section's detector refuses its stream half-way: a join of
        // a region nobody forked.
        let mut faulting = violating.clone();
        let at = faulting.len() / 2;
        faulting[at].kind = EventKind::JoinRegion {
            region: RegionId(u64::MAX),
        };
        faulting[at].rank = Rank(0);
        faulting[at].tid = Tid(0);
        let none: &[TraceIncident] = &[];
        let sections: [(Option<u64>, &[Event], &[TraceIncident]); 5] = [
            (Some(1), &faulting, &incidents),
            (Some(2), &clean, none),
            (Some(3), &violating, &incidents),
            (None, &clean, none),
            (Some(5), &violating, none),
        ];
        let open = || Session::new(DetectorConfig::hybrid());
        let mut reused = open();
        // Fed and abandoned before the first restart.
        reused.feed_batch(&violating);
        for (seed, events, incidents) in sections {
            reused.restart();
            let again = section(&mut reused, seed, events, incidents);
            let fresh = section(&mut open(), seed, events, incidents);
            assert_eq!(again, fresh, "section under seed {seed:?}");
        }
        let told = |events: &[Event]| section(&mut open(), None, events, none);
        assert!(told(&faulting).contains("unknown segment"));
        assert!(told(&violating).contains("Violation"));
        assert!(!told(&clean).contains("Violation"));
    }
}
