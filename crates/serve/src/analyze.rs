//! Session-driven analysis of HBT traces: the one replay driver.
//!
//! One [`Session`](home_core::Session) per recorded section. A trace held
//! in memory (a file read whole, a buffered `home serve` submission) goes
//! through [`analyze_trace`]: [`scan_layout`] validates the structure,
//! then each section is decoded one frame at a time into a reusable
//! [`FrameBatch`] and fed to its session — never more than one frame of
//! decoded events per worker. Sections share nothing, so `--jobs` fans
//! out over them. A pipe goes through [`analyze_stream`], record at a
//! time, and so does any stream without a frame layout, read in place.
//! `home replay`, `home analyze`, and `home serve` all end here, and one
//! [`HbtReader`] decides for all of them what a valid stream is, so their
//! verdicts are byte-identical by construction, and so is the error they
//! report for a damaged trace: the first fault in stream order, a
//! detector fault sitting at the event that caused it.
//!
//! Violations are deduplicated across sections by identity `(kind, rank,
//! locations)`, first occurrence wins, with each kept violation carrying
//! the minimum [`EmitOrder`] it was emitted under (the canonical
//! batch-evaluation position).

use home_core::{fan_out_indexed_with, EmitOrder, Session, Violation, ViolationCollector};
use home_interp::MpiIncident;
use home_stream::{
    decode_frame_into, scan_layout, DetectorConfig, FrameBatch, FrameLoc, FrameScratch, HbtLayout,
    HbtReader, HbtRecord, HbtSection, TraceIncident,
};
use home_trace::{Event, HomeError};
use std::collections::BTreeMap;
use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// The identity keying lives in `home_core` (it is also the batch pipeline's
// and the exploration engine's dedup key); re-exported here because serve's
// public API grew it first.
pub use home_core::{violation_identity, ViolationIdentity};

/// One violation with its canonical emission key.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedViolation {
    /// The minimum canonical batch-order position this violation was
    /// emitted under within its section.
    pub order: EmitOrder,
    /// The classified violation.
    pub violation: Violation,
}

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

fn to_incident(i: &TraceIncident) -> MpiIncident {
    MpiIncident {
        rank: i.rank,
        line: i.line,
        call: i.call.clone(),
        error: i.error.clone(),
    }
}

/// One section's detection in flight: a streaming [`Session`] plus the
/// emission collector that recovers each violation's canonical position.
///
/// Events are fed a batch at a time as they arrive (bounded memory — the
/// session keeps nothing but the detector's own live state); incidents are
/// buffered and fed at [`SectionSession::finish`], so a stream that
/// interleaves incidents with events reaches the exact verdict the offline
/// path computes from the decoded section.
#[derive(Debug)]
pub struct SectionSession {
    seed: Option<u64>,
    session: Session,
    collector: Arc<ViolationCollector>,
    incidents: Vec<MpiIncident>,
}

impl SectionSession {
    /// Open a session for a section recorded under `seed` (or the implicit
    /// anonymous section).
    pub fn open(seed: Option<u64>) -> SectionSession {
        let collector = Arc::new(ViolationCollector::new());
        let session = Session::streaming(
            seed.unwrap_or(0),
            DetectorConfig::hybrid(),
            Arc::clone(&collector) as Arc<dyn home_core::ViolationSink>,
        );
        SectionSession {
            seed,
            session,
            collector,
            incidents: Vec::new(),
        }
    }

    /// Feed a batch of events ([`Session::feed_batch`]). Byte-identical to
    /// feeding each event individually, for every batch size.
    pub fn feed_batch(&mut self, events: &[Event]) {
        self.session.feed_batch(events);
    }

    /// Buffer one incident for end-of-section classification.
    pub fn push_incident(&mut self, i: &TraceIncident) {
        self.incidents.push(to_incident(i));
    }

    /// Finish: feed the buffered incidents, run the end-of-run evaluation,
    /// and key each canonical violation by its minimum emission position.
    pub fn finish(mut self) -> Result<SectionVerdict, HomeError> {
        for i in &self.incidents {
            self.session.feed_incident(i);
        }
        let outcome = self.session.finish()?;

        // Minimum canonical emission position per violation identity.
        let mut first: BTreeMap<ViolationIdentity, EmitOrder> = BTreeMap::new();
        for e in self.collector.emissions() {
            let key = violation_identity(&e.violation);
            match first.get_mut(&key) {
                Some(order) => {
                    if e.order < *order {
                        *order = e.order;
                    }
                }
                None => {
                    first.insert(key, e.order);
                }
            }
        }
        let violations = outcome
            .violations
            .into_iter()
            .map(|violation| {
                let order = first
                    .get(&violation_identity(&violation))
                    .copied()
                    .unwrap_or(EmitOrder::new(u8::MAX, u8::MAX, u64::MAX, u64::MAX));
                KeyedViolation { order, violation }
            })
            .collect();
        Ok(SectionVerdict {
            seed: self.seed,
            events: outcome.events,
            races: outcome.races.len(),
            unclassified: outcome.unclassified.len(),
            violations,
        })
    }
}

/// Analyze one decoded section: feed its events as one batch, then the
/// section's incidents, then finish.
fn analyze_section(section: &HbtSection) -> Result<SectionVerdict, HomeError> {
    let mut session = SectionSession::open(section.seed);
    session.feed_batch(section.trace.events());
    for i in &section.incidents {
        session.push_incident(i);
    }
    session.finish()
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
pub fn analyze_sections(sections: &[HbtSection]) -> Result<TraceOutcome, HomeError> {
    let verdicts: Result<Vec<_>, _> = sections.iter().map(analyze_section).collect();
    Ok(combine_verdicts(verdicts?))
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

/// Decode and analyze one section frame-batch-at-a-time, reusing the
/// worker's scratch buffers across frames. `None` for an anonymous section
/// holding no records (the record-at-a-time loop would never open a
/// session for it).
fn analyze_frames(
    bytes: &[u8],
    frames: &[FrameLoc],
    scratch: &mut FrameScratch,
    batch: &mut FrameBatch,
) -> Result<Option<SectionVerdict>, HomeError> {
    let seed = frames.first().and_then(|f| f.entry.seed);
    let empty = frames
        .iter()
        .all(|f| f.entry.events == 0 && f.entry.incidents == 0);
    if seed.is_none() && empty {
        return Ok(None);
    }
    let mut session = SectionSession::open(seed);
    for frame in frames {
        if let Err(e) = decode_frame_into(bytes, frame, scratch, batch) {
            // Stream order: a detector fault stashed by an earlier frame's
            // events precedes this frame's decode fault.
            session.finish()?;
            return Err(e);
        }
        session.feed_batch(&batch.events);
        for i in &batch.incidents {
            session.push_incident(i);
        }
    }
    session.finish().map(Some)
}

/// Analyze `sections` (each a [`section_frames`] group) `jobs` ways in
/// parallel: sections are independent sessions, so this parallelizes
/// decode and detection alike, and each worker holds one frame of decoded
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
    let slots = fan_out_indexed_with(
        sections,
        jobs,
        || (FrameScratch::new(), FrameBatch::new()),
        |(scratch, batch), i, frames| {
            if i > failed.load(Ordering::Relaxed) {
                return Ok(None);
            }
            let verdict = analyze_frames(bytes, frames, scratch, batch);
            if verdict.is_err() {
                failed.fetch_min(i, Ordering::Relaxed);
            }
            verdict
        },
    );
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
/// replay <file>`, `home analyze <file>`, and the daemon's buffered
/// ingest. Sections fan out over `jobs` workers, each feeding one batch
/// per decoded frame. The verdict is byte-identical for every `jobs`, and
/// to [`analyze_stream`] over the same bytes. Streams without a frame
/// layout are read record at a time, where `jobs` does not apply.
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
/// * v1 streams (no index) get a typed error suggesting re-recording with
///   `--compress`;
/// * an absent seed gets a typed error listing the seeds the index holds.
pub fn analyze_trace_run(bytes: &[u8], seed: u64, jobs: usize) -> Result<TraceOutcome, HomeError> {
    let layout = layout_of(bytes)?.ok_or_else(|| {
        HomeError::trace_parse(
            "this HBT stream is v1 and carries no seek index; \
             re-record it with --compress to enable --run seeking",
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
/// [`SectionSession`] per recorded section, bounded memory (nothing is
/// buffered but the reader's one record or frame, one batch of events and
/// the detector's own live state).
///
/// This is how a pipe is read (`replay -`, `analyze -`, an oversized
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

/// Consecutive events [`stream_sections`] gathers before it feeds them as
/// one batch. Enough to spread a batch's fixed cost thin, few enough that
/// the buffer (28 KiB) stays in the first-level cache between being filled
/// and being fed — and a small part of the frame the reader itself is
/// holding.
const PIPE_BATCH: usize = 256;

/// Drain `reader` into one session per section; the reader validates the
/// stream as it goes. Events reach their session a batch at a time, flushed
/// before anything that is not an event.
fn stream_sections(mut reader: HbtReader<'_, impl Read>) -> Result<TraceOutcome, HomeError> {
    let mut current: Option<SectionSession> = None;
    let mut verdicts = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    loop {
        let record = reader.next_record();
        let more = matches!(record, Ok(Some(HbtRecord::Event(_)))) && events.len() < PIPE_BATCH;
        if !more && !events.is_empty() {
            current
                .get_or_insert_with(|| SectionSession::open(None))
                .feed_batch(&events);
            events.clear();
        }
        match record {
            Err(e) => {
                // Stream order: a detector fault stashed by an earlier event
                // of the open section precedes the fault that ended the read.
                if let Some(session) = current.take() {
                    session.finish()?;
                }
                return Err(e);
            }
            Ok(None) => break,
            Ok(Some(HbtRecord::Run { seed })) => {
                if let Some(session) = current.take() {
                    verdicts.push(session.finish()?);
                }
                current = Some(SectionSession::open(Some(seed)));
            }
            Ok(Some(HbtRecord::Event(e))) => events.push(e),
            Ok(Some(HbtRecord::Incident(i))) => {
                current
                    .get_or_insert_with(|| SectionSession::open(None))
                    .push_incident(&i);
            }
            Ok(Some(HbtRecord::Manifest { .. } | HbtRecord::Index { .. })) => {}
        }
    }
    if let Some(session) = current.take() {
        verdicts.push(session.finish()?);
    }
    Ok(combine_verdicts(verdicts))
}
