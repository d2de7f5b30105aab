//! Frames: where a v2 stream's frames are ([`scan_layout`], the reader's
//! walk run over frame headers only) and how one is decoded
//! ([`decode_frame_chunks`], the same inflate-and-walk the sequential
//! reader runs, into reused event slots). Together they let replay decode
//! sections independently — in parallel, each worker holding one chunk of
//! decoded events.

use super::format::{Cur, FileCache, HbtSection, IndexEntry, HBT_VERSION, REC_EVENT, REC_INCIDENT};
use super::reader::HbtReader;
use crate::lz;
use home_trace::{Event, HomeError, Trace, TraceIncident};

/// Where one v2 frame lives in a byte stream and what its header
/// declares. Produced by [`scan_layout`]; consumed by
/// [`decode_frame_into`].
#[derive(Debug, Clone)]
pub struct FrameLoc {
    /// The frame's header fields, as a seek-index entry.
    pub entry: IndexEntry,
    /// True when the stored bytes are LZ-compressed.
    pub(super) compressed: bool,
    /// Byte range of the stored frame body within the stream.
    pub(super) body: std::ops::Range<usize>,
}

impl FrameLoc {
    /// True when the stored bytes are LZ-compressed.
    pub fn compressed(&self) -> bool {
        self.compressed
    }

    /// The frame's stored (still-compressed) body bytes within `stream`.
    /// The serve ingest fast path fingerprints these without inflating
    /// them; the decode paths inflate them.
    pub fn stored<'a>(&self, stream: &'a [u8]) -> Result<&'a [u8], HomeError> {
        stream.get(self.body.clone()).ok_or_else(|| {
            HomeError::corrupt_trace(format!(
                "HBT frame body at byte {} extends past the end of the stream",
                self.entry.offset
            ))
        })
    }
}

/// The validated structure of a v2 stream: every frame's location, ready
/// for independent (parallel) decoding.
#[derive(Debug, Clone)]
pub struct HbtLayout {
    /// Frames in stream order.
    pub frames: Vec<FrameLoc>,
}

/// Walk a stream's record headers without decompressing or decoding any
/// frame body, returning every frame's location for parallel decode.
///
/// Returns `Ok(None)` when the stream is v1, or a v2 stream carrying
/// plain (unframed) body records — callers fall back to reading it record
/// at a time, which handles every valid stream. This is [`HbtReader`]'s
/// own walk, so it validates the full structure by the same rules: the
/// end marker, the seek index against the frame headers actually present,
/// and the manifest against the sections the frames declare — a lying
/// index or a spliced stream is rejected here without inflating a single
/// frame.
pub fn scan_layout(bytes: &[u8]) -> Result<Option<HbtLayout>, HomeError> {
    let mut reader = HbtReader::from_slice(bytes)?;
    if reader.version() == HBT_VERSION {
        return Ok(None);
    }
    while reader.walk(false)?.is_some() {}
    Ok(reader.into_frames().map(|frames| HbtLayout { frames }))
}

/// One decoded frame's contents as reusable flat buffers. A `FrameBatch`
/// survives across frames: [`decode_frame_into`] overwrites its event
/// slots in place, so a decode loop allocates event storage once per
/// worker instead of once per frame, and an event naming the file its slot
/// already names costs no refcount.
#[derive(Debug, Clone, Default)]
pub struct FrameBatch {
    /// Section seed, for the first frame of a `RUN`-recorded section.
    pub seed: Option<u64>,
    /// True when the frame continues the previous frame's section.
    pub continuation: bool,
    /// The frame's events, in stream order.
    pub events: Vec<Event>,
    /// The frame's incidents, in stream order.
    pub incidents: Vec<TraceIncident>,
}

impl FrameBatch {
    /// An empty batch.
    pub fn new() -> FrameBatch {
        FrameBatch::default()
    }
}

/// Where a frame's records are decoded to, in stored order: a batch's
/// reused slots, or the records the sequential reader has yet to yield.
pub(super) trait FrameSink {
    /// Decode the event record under `cur` and keep it.
    fn event(&mut self, cur: &mut Cur<'_>, files: &mut FileCache) -> Result<(), HomeError>;
    fn incident(&mut self, incident: TraceIncident);
}

/// A [`FrameBatch`] being refilled in place: the next event overwrites
/// slot `filled` (or is pushed past the last slot), and each time `chunk`
/// slots are full they go to `feed` and filling starts again at slot 0.
struct Refill<'b, F> {
    batch: &'b mut FrameBatch,
    filled: usize,
    chunk: usize,
    feed: F,
}

impl<F: FnMut(&[Event])> FrameSink for Refill<'_, F> {
    fn event(&mut self, cur: &mut Cur<'_>, files: &mut FileCache) -> Result<(), HomeError> {
        let events = &mut self.batch.events;
        match events.get_mut(self.filled) {
            Some(slot) => cur.event_into(files, slot)?,
            None => events.push(cur.event(files)?),
        }
        self.filled += 1;
        if self.filled == self.chunk {
            (self.feed)(&events[..self.filled]);
            self.filled = 0;
        }
        Ok(())
    }

    fn incident(&mut self, incident: TraceIncident) {
        self.batch.incidents.push(incident);
    }
}

/// Reusable working storage for decoding frames: holds the inflated frame
/// body so consecutive frames share one decompression buffer, and the
/// decoder's one-entry file-name cache.
#[derive(Debug, Default)]
pub struct FrameScratch {
    raw: Vec<u8>,
    pub(super) files: FileCache,
}

impl FrameScratch {
    /// Fresh scratch space.
    pub fn new() -> FrameScratch {
        FrameScratch::default()
    }
}

/// Inflate one frame and decode its records into `sink`, in stored order.
/// The one routine behind the sequential reader and [`decode_frame_into`]:
/// `stored` is the frame's body as the stream holds it, `frame` what its
/// header declared.
pub(super) fn inflate_frame(
    stored: &[u8],
    frame: &FrameLoc,
    scratch: &mut FrameScratch,
    sink: &mut impl FrameSink,
) -> Result<(), HomeError> {
    let FrameLoc {
        entry, compressed, ..
    } = frame;
    let start = entry.offset;
    let raw: &[u8] = if *compressed {
        lz::decompress_into(stored, entry.raw_len as usize, &mut scratch.raw).map_err(|e| {
            HomeError::corrupt_trace(format!("corrupt compressed HBT frame at byte {start}: {e}"))
        })?;
        &scratch.raw
    } else {
        stored
    };
    walk_frame_body(raw, entry, &mut scratch.files, sink)
}

/// Wrap an error from inside a frame body: the inner offset is relative
/// to the (possibly decompressed) frame bytes, so the frame's absolute
/// stream offset leads the message.
#[cold]
fn frame_corrupt(start: u64, e: HomeError) -> HomeError {
    HomeError::corrupt_trace(format!("corrupt HBT frame at byte {start}: {e}"))
}

/// Walk a frame's uncompressed body — a concatenation of length-prefixed
/// `EVENT`/`INCIDENT` records — decoding each record into `sink` in stored
/// order and holding the totals against the counts the header declared.
fn walk_frame_body(
    raw: &[u8],
    entry: &IndexEntry,
    files: &mut FileCache,
    sink: &mut impl FrameSink,
) -> Result<(), HomeError> {
    let start = entry.offset;
    let mut cur = Cur::new(raw, 0);
    let (mut n_events, mut n_incidents) = (0u64, 0u64);
    while cur.remaining() > 0 {
        let len = cur
            .varint("frame record length")
            .map_err(|e| frame_corrupt(start, e))?;
        if len == 0 {
            return Err(HomeError::corrupt_trace(format!(
                "empty record inside the HBT frame at byte {start}"
            )));
        }
        let base = cur.pos() as u64;
        let payload = cur
            .take(len, "frame record payload")
            .map_err(|e| frame_corrupt(start, e))?;
        let mut inner = Cur::new(payload, base);
        let kind = inner
            .u8("record kind")
            .map_err(|e| frame_corrupt(start, e))?;
        match kind {
            REC_EVENT => {
                sink.event(&mut inner, files)
                    .map_err(|e| frame_corrupt(start, e))?;
                n_events += 1;
            }
            REC_INCIDENT => {
                sink.incident(inner.incident().map_err(|e| frame_corrupt(start, e))?);
                n_incidents += 1;
            }
            _ => {
                return Err(HomeError::corrupt_trace(format!(
                    "record kind {kind} inside the HBT frame at byte {start}"
                )))
            }
        }
        if inner.remaining() != 0 {
            return Err(HomeError::corrupt_trace(format!(
                "HBT record has {} trailing byte(s) inside the frame at byte {start}",
                inner.remaining()
            )));
        }
    }
    if n_events != entry.events || n_incidents != entry.incidents {
        return Err(HomeError::corrupt_trace(format!(
            "HBT frame at byte {start} declares {} event(s) and {} incident(s) \
             but stores {n_events} and {n_incidents}",
            entry.events, entry.incidents
        )));
    }
    Ok(())
}

/// Decode one frame located by [`scan_layout`] straight into a reusable
/// [`FrameBatch`]. Frames decode independently. After `Ok`, `batch.events`
/// is exactly the frame's events, in order; on error the batch holds
/// partial contents, which the next call overwrites.
pub fn decode_frame_into(
    bytes: &[u8],
    frame: &FrameLoc,
    scratch: &mut FrameScratch,
    batch: &mut FrameBatch,
) -> Result<(), HomeError> {
    decode_frame_chunks(bytes, frame, scratch, batch, usize::MAX, |_| {})
}

/// [`decode_frame_into`] that hands every `chunk` consecutive decoded
/// events to `feed` while the walk goes on, and the frame's last, shorter
/// run once it is whole, so a consumer reads events while they are still
/// in cache and the batch holds `chunk` slots, not a frame. After `Ok`,
/// `batch.events` holds the events no full chunk took. A fault in the
/// frame is returned after `feed` has seen the chunks decoded before it.
pub fn decode_frame_chunks(
    bytes: &[u8],
    frame: &FrameLoc,
    scratch: &mut FrameScratch,
    batch: &mut FrameBatch,
    chunk: usize,
    feed: impl FnMut(&[Event]),
) -> Result<(), HomeError> {
    batch.seed = frame.entry.seed;
    batch.continuation = frame.entry.continuation;
    batch.incidents.clear();
    let stored = frame.stored(bytes)?;
    // Size the buffers from the header's declared counts, bounded by the
    // bytes actually present (every record is at least two bytes), so a
    // lying count can't force a giant allocation before the body is read.
    let body_len = if frame.compressed {
        frame.entry.raw_len as usize
    } else {
        stored.len()
    };
    let cap = |declared: u64| (declared as usize).min(body_len / 2);
    let slots = cap(frame.entry.events).min(chunk);
    batch
        .events
        .reserve(slots.saturating_sub(batch.events.len()));
    batch.incidents.reserve(cap(frame.entry.incidents));
    let mut refill = Refill {
        batch,
        filled: 0,
        chunk,
        feed,
    };
    inflate_frame(stored, frame, scratch, &mut refill)?;
    let events = &mut refill.batch.events;
    if refill.filled > 0 {
        (refill.feed)(&events[..refill.filled]);
    }
    events.truncate(refill.filled);
    Ok(())
}

/// Stitch decoded frame batches into trace sections: a non-continuation
/// batch closes the current section and opens a new one, a continuation
/// batch extends it. Batches donate their buffers to the sections they open,
/// so the common one-frame-per-section case moves rather than copies.
pub fn sections_from_batches<I: IntoIterator<Item = FrameBatch>>(batches: I) -> Vec<HbtSection> {
    let mut sections: Vec<HbtSection> = Vec::new();
    let mut seed: Option<u64> = None;
    let mut events: Vec<Event> = Vec::new();
    let mut incidents: Vec<TraceIncident> = Vec::new();
    let mut open = false;
    for batch in batches {
        if !batch.continuation && batch.seed.is_some() {
            if open {
                sections.push(HbtSection {
                    seed: seed.take(),
                    trace: Trace::from_events(std::mem::take(&mut events)),
                    incidents: std::mem::take(&mut incidents),
                });
            }
            seed = batch.seed;
            events = batch.events;
            incidents = batch.incidents;
            open = true;
        } else {
            // Continuation frames and the anonymous head frame carry no
            // `RUN` record, so their records extend the current section
            // and only open it if they are non-empty — exactly what
            // [`decode_sections`] does with their record streams.
            if events.is_empty() {
                events = batch.events;
            } else {
                events.extend(batch.events);
            }
            if incidents.is_empty() {
                incidents = batch.incidents;
            } else {
                incidents.extend(batch.incidents);
            }
            open |= !events.is_empty() || !incidents.is_empty();
        }
    }
    if open {
        sections.push(HbtSection {
            seed,
            trace: Trace::from_events(events),
            incidents,
        });
    }
    sections
}
