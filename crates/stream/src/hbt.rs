//! HBT — the HOME Binary Trace format.
//!
//! A compact, streamable encoding of [`Event`] traces:
//!
//! ```text
//! header  := magic(0x89 'H' 'B' 'T') version(u8 = 1 | 2)
//! record  := varint(len) payload[len]        -- len > 0
//! end     := varint(0)                        -- explicit end marker
//! payload := kind(u8) body
//!   kind 1 RUN      body = varint(seed)       -- starts a new trace section
//!   kind 2 EVENT    body = encoded Event
//!   kind 3 INCIDENT body = varint(rank) varint(line) string(call) string(error)
//!   kind 4 MANIFEST body = varint(nsections) (flag(u8) [varint(seed)])*
//!   kind 5 FRAME    body = flags(u8) [varint(seed)] varint(events)
//!                          varint(incidents) varint(raw_len) stored...   (v2)
//!   kind 6 INDEX    body = varint(nframes) (flags(u8) [varint(seed)]
//!                          varint(offset) varint(events) varint(raw_len))*  (v2)
//! ```
//!
//! ## Version 2: compressed frames and the seek index
//!
//! A v2 stream packs each trace section into one or more `FRAME` records:
//! the section's `EVENT`/`INCIDENT` records are length-prefix-encoded
//! exactly as in v1, concatenated, and (when it pays) compressed with the
//! in-repo [`lz`](crate::lz) codec. The frame header carries the section
//! seed (first frame only; later frames of a long section set the
//! *continuation* flag), the record counts, and the uncompressed length —
//! all stored uncompressed, so a consumer can walk frame headers without
//! inflating anything. Before the closing `MANIFEST`, the writer emits an
//! `INDEX` record listing every frame's absolute byte offset, seed, event
//! count, and uncompressed length: `replay`/`analyze` use it to seek
//! straight to a run and to decode frames in parallel. Readers validate
//! the index against the frames they actually saw — a lying offset, seed,
//! count, or length is a typed [`HomeError::CorruptTrace`], and a
//! frame-bearing stream that ends without an index is rejected the same
//! way a `RUN`-bearing stream without a manifest is.
//!
//! Both readers accept v1 and v2 streams transparently: frames are
//! inflated internally and yielded as the equivalent `RUN`/`EVENT`/
//! `INCIDENT` records, so every consumer of [`HbtRecord`] handles both
//! versions unchanged. v2-only record kinds inside a v1 stream are a
//! typed error, never a misparse.
//!
//! Integers are LEB128 varints; signed values are zigzag-encoded; strings
//! are varint-length-prefixed UTF-8. The explicit end marker means a stream
//! truncated at *any* byte is detectable: decoding yields a typed
//! [`HomeError::TraceParse`]/[`HomeError::CorruptTrace`] with the byte
//! offset, never a panic and never a silently short trace.
//!
//! The MANIFEST record is the writer's closing statement: the last record
//! before the end marker, declaring how many sections the stream contains
//! and which seed opened each. A trace truncated at a *section boundary*
//! and patched with a forged end marker parses record-by-record, but its
//! section list no longer matches the manifest — [`decode_sections`] (and
//! every consumer driving [`ManifestCheck`]) rejects it as
//! [`HomeError::CorruptTrace`] instead of silently reporting a shorter,
//! "valid" run. Streams carrying RUN records **must** end with a manifest;
//! anonymous single-section streams (raw event feeds) may omit it.
//!
//! Hostile inputs are bounded everywhere a length prefix is read: record
//! payloads are read in fixed-size chunks (a lying length hits the real
//! end of input after at most one chunk instead of pre-allocating the
//! claimed size), record lengths are capped by [`MAX_RECORD_LEN`], and
//! string/manifest element counts are validated against the bytes actually
//! present in the enclosing record before any allocation.
//!
//! Readers and writers operate over [`io::Read`]/[`io::Write`] and never
//! require the whole stream in memory.

use crate::lz;
use home_trace::{
    AccessKind, BarrierId, CommId, Event, EventKind, HomeError, LockId, MemLoc, MonitoredVar,
    MpiCallKind, MpiCallRecord, Rank, RegionId, ReqId, SrcLoc, ThreadLevel, Tid, Trace, VarId,
};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// The four magic bytes opening every HBT stream.
pub const HBT_MAGIC: [u8; 4] = [0x89, b'H', b'B', b'T'];

/// Version byte of classic uncompressed streams (one record per event).
pub const HBT_VERSION: u8 = 1;

/// Version byte of compressed, seek-indexed streams (`record --compress`).
pub const HBT_V2: u8 = 2;

/// Hard ceiling on a single record's payload, to reject corrupt lengths
/// before attempting a giant allocation.
pub const MAX_RECORD_LEN: u64 = 1 << 28;

/// Streaming payload reads happen in chunks of this size, so a record
/// length that lies about the remaining input allocates at most one chunk
/// before the truncation is detected.
const READ_CHUNK: usize = 64 * 1024;

const REC_RUN: u8 = 1;
const REC_EVENT: u8 = 2;
const REC_INCIDENT: u8 = 3;
const REC_MANIFEST: u8 = 4;
const REC_FRAME: u8 = 5;
const REC_INDEX: u8 = 6;

/// Frame flag bits (see the module docs for the v2 frame layout).
const FRAME_HAS_SEED: u8 = 1;
const FRAME_COMPRESSED: u8 = 2;
const FRAME_CONTINUATION: u8 = 4;

/// A v2 writer flushes the current section into a frame once this many
/// uncompressed bytes have accumulated, so giant sections split into
/// bounded, independently decodable (and parallelizable) frames.
const FRAME_TARGET: usize = 256 * 1024;

/// Does `bytes` start with the HBT magic? Used by the CLI to auto-detect
/// HBT vs JSON input.
pub fn is_hbt(bytes: &[u8]) -> bool {
    bytes.len() >= HBT_MAGIC.len() && bytes[..HBT_MAGIC.len()] == HBT_MAGIC
}

/// A non-fatal MPI misuse incident carried alongside a recorded trace, so
/// `home replay` can reproduce incident-based violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceIncident {
    /// Rank the incident occurred on.
    pub rank: u32,
    /// Source line of the offending call (0 when unknown).
    pub line: u32,
    /// MPI function name.
    pub call: String,
    /// Human-readable description.
    pub error: String,
}

/// One decoded HBT record.
#[derive(Debug, Clone, PartialEq)]
pub enum HbtRecord {
    /// Starts a new trace section recorded under `seed`.
    Run {
        /// Scheduler seed of the section that follows.
        seed: u64,
    },
    /// One runtime event.
    Event(Event),
    /// One runtime incident of the current section.
    Incident(TraceIncident),
    /// The writer's closing declaration of the stream's sections: one
    /// entry per section, `Some(seed)` for `RUN`-opened sections, `None`
    /// for the implicit anonymous section. Must be the last record.
    Manifest {
        /// Declared sections, in stream order.
        sections: Vec<Option<u64>>,
    },
    /// The v2 seek index: one entry per compressed frame, in stream order.
    /// Emitted by the writer immediately before the manifest; readers
    /// validate it against the frames actually observed.
    Index {
        /// Declared frames, in stream order.
        entries: Vec<IndexEntry>,
    },
}

/// One entry of the v2 seek index: where a frame starts and what it holds.
/// A reader can seek to `offset` and decode that frame without touching
/// any other byte of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Absolute byte offset of the frame record (its length varint).
    pub offset: u64,
    /// Section seed, for the first frame of a `RUN`-recorded section.
    pub seed: Option<u64>,
    /// True when the frame continues the previous frame's section.
    pub continuation: bool,
    /// Events stored in the frame.
    pub events: u64,
    /// Incidents stored in the frame.
    pub incidents: u64,
    /// Uncompressed length of the frame's record bytes.
    pub raw_len: u64,
}

/// Validates a stream of decoded records against its trailing manifest.
///
/// Drive it with every record a reader yields (plus the reader's offset
/// *after* decoding that record) and call [`ManifestCheck::finish`] at the
/// end marker. It enforces three properties:
///
/// 1. the manifest, when present, is the final record;
/// 2. the declared section count and per-section seeds match the sections
///    actually observed;
/// 3. any stream containing `RUN` records ends with a manifest at all — a
///    multi-run recording truncated at a section boundary (and patched
///    with a forged end marker) is rejected, never silently shortened.
///
/// [`decode_sections`] uses it internally; incremental consumers (the
/// `home serve` ingest loop) drive it alongside their own per-section
/// processing.
#[derive(Debug, Default)]
pub struct ManifestCheck {
    observed: Vec<Option<u64>>,
    open: bool,
    manifest: Option<Vec<Option<u64>>>,
}

impl ManifestCheck {
    /// A fresh validator.
    pub fn new() -> ManifestCheck {
        ManifestCheck::default()
    }

    /// Observe one decoded record. `offset` is the reader's byte offset
    /// after the record, used in diagnostics.
    pub fn on_record(&mut self, record: &HbtRecord, offset: u64) -> Result<(), HomeError> {
        if self.manifest.is_some() {
            return Err(HomeError::corrupt_trace(format!(
                "HBT record after the section manifest at byte {offset}"
            )));
        }
        match record {
            HbtRecord::Run { seed } => {
                self.observed.push(Some(*seed));
                self.open = true;
            }
            HbtRecord::Event(_) | HbtRecord::Incident(_) => {
                if !self.open {
                    self.observed.push(None);
                    self.open = true;
                }
            }
            HbtRecord::Manifest { sections } => {
                self.manifest = Some(sections.clone());
            }
            // The seek index is validated inside the readers (against the
            // frames actually seen); for sectioning it is a no-op, but the
            // record-after-manifest rule above still covers it.
            HbtRecord::Index { .. } => {}
        }
        Ok(())
    }

    /// Observe one section directly — used by the v2 layout scanner,
    /// which sees frame headers rather than individual records.
    fn note_section(&mut self, seed: Option<u64>) {
        self.observed.push(seed);
        self.open = true;
    }

    /// Validate at the end marker. `offset` is the reader's final byte
    /// offset, used in diagnostics.
    pub fn finish(&self, offset: u64) -> Result<(), HomeError> {
        match &self.manifest {
            Some(declared) => {
                if declared.len() != self.observed.len() {
                    return Err(HomeError::corrupt_trace(format!(
                        "HBT manifest declares {} section(s) but the stream contains {} at byte {offset}",
                        declared.len(),
                        self.observed.len()
                    )));
                }
                for (i, (d, o)) in declared.iter().zip(&self.observed).enumerate() {
                    if d != o {
                        return Err(HomeError::corrupt_trace(format!(
                            "HBT manifest seed list disagrees with the stream: section {i} declared {} but the stream has {} at byte {offset}",
                            seed_name(*d),
                            seed_name(*o)
                        )));
                    }
                }
                Ok(())
            }
            None => {
                if self.observed.iter().any(Option::is_some) {
                    return Err(HomeError::corrupt_trace(format!(
                        "HBT stream with {} recorded section(s) ends without a section manifest (truncated at a section boundary?) at byte {offset}",
                        self.observed.len()
                    )));
                }
                Ok(())
            }
        }
    }
}

fn seed_name(seed: Option<u64>) -> String {
    match seed {
        Some(s) => format!("seed {s}"),
        None => "an anonymous section".to_string(),
    }
}

/// A trace section decoded from an HBT stream: everything between two `RUN`
/// records (or the whole stream, when no `RUN` record is present).
#[derive(Debug, Clone, Default)]
pub struct HbtSection {
    /// Scheduler seed, when the section was opened by a `RUN` record.
    pub seed: Option<u64>,
    /// The section's events.
    pub trace: Trace,
    /// The section's runtime incidents.
    pub incidents: Vec<TraceIncident>,
}

// ---------------------------------------------------------------------------
// primitive encoders
// ---------------------------------------------------------------------------

/// LEB128-encode `v` on the stack (a `u64` needs at most ten bytes);
/// returns the buffer and how many of its bytes are used.
fn varint_bytes(mut v: u64) -> ([u8; 10], usize) {
    let mut out = [0u8; 10];
    let mut n = 0;
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out[n] = b;
            return (out, n + 1);
        }
        out[n] = b | 0x80;
        n += 1;
    }
}

fn put_varint(buf: &mut Vec<u8>, v: u64) {
    let (bytes, n) = varint_bytes(v);
    buf.extend_from_slice(&bytes[..n]);
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_bool(buf: &mut Vec<u8>, b: bool) {
    buf.push(u8::from(b));
}

// ---------------------------------------------------------------------------
// payload encoding
// ---------------------------------------------------------------------------

fn level_byte(l: ThreadLevel) -> u8 {
    match l {
        ThreadLevel::Single => 0,
        ThreadLevel::Funneled => 1,
        ThreadLevel::Serialized => 2,
        ThreadLevel::Multiple => 3,
    }
}

fn var_byte(v: MonitoredVar) -> u8 {
    match v {
        MonitoredVar::Src => 0,
        MonitoredVar::Tag => 1,
        MonitoredVar::Comm => 2,
        MonitoredVar::Request => 3,
        MonitoredVar::Collective => 4,
        MonitoredVar::Finalize => 5,
    }
}

/// All MPI call kinds in wire-tag order (the declaration order of
/// [`MpiCallKind`]); the wire tag is the index into this table.
const CALL_KINDS: [MpiCallKind; 24] = [
    MpiCallKind::Init,
    MpiCallKind::InitThread,
    MpiCallKind::Finalize,
    MpiCallKind::Send,
    MpiCallKind::Ssend,
    MpiCallKind::Recv,
    MpiCallKind::Isend,
    MpiCallKind::Irecv,
    MpiCallKind::Sendrecv,
    MpiCallKind::Wait,
    MpiCallKind::Test,
    MpiCallKind::Waitall,
    MpiCallKind::Probe,
    MpiCallKind::Iprobe,
    MpiCallKind::Barrier,
    MpiCallKind::Bcast,
    MpiCallKind::Reduce,
    MpiCallKind::Allreduce,
    MpiCallKind::Gather,
    MpiCallKind::Scatter,
    MpiCallKind::Allgather,
    MpiCallKind::Alltoall,
    MpiCallKind::CommDup,
    MpiCallKind::CommSplit,
];

fn call_kind_byte(k: MpiCallKind) -> u8 {
    // Exhaustive linear scan over 24 entries; the table is tiny and this
    // keeps encode and decode driven by the same array.
    #[allow(clippy::cast_possible_truncation)]
    CALL_KINDS
        .iter()
        .position(|c| *c == k)
        .map(|i| i as u8)
        .unwrap_or(0)
}

fn put_call(buf: &mut Vec<u8>, c: &MpiCallRecord) {
    buf.push(call_kind_byte(c.kind));
    let mut flags = 0u8;
    if c.peer.is_some() {
        flags |= 1;
    }
    if c.tag.is_some() {
        flags |= 2;
    }
    if c.request.is_some() {
        flags |= 4;
    }
    if c.thread_level.is_some() {
        flags |= 8;
    }
    if c.is_main_thread {
        flags |= 16;
    }
    buf.push(flags);
    if let Some(p) = c.peer {
        put_varint(buf, zigzag(i64::from(p)));
    }
    if let Some(t) = c.tag {
        put_varint(buf, zigzag(i64::from(t)));
    }
    put_varint(buf, u64::from(c.comm.raw()));
    if let Some(r) = c.request {
        put_varint(buf, r.raw());
    }
    if let Some(l) = c.thread_level {
        buf.push(level_byte(l));
    }
}

fn put_memloc(buf: &mut Vec<u8>, loc: &MemLoc) {
    match loc {
        MemLoc::Monitored(v) => {
            buf.push(0);
            buf.push(var_byte(*v));
        }
        MemLoc::Var(v) => {
            buf.push(1);
            put_varint(buf, u64::from(v.raw()));
        }
        MemLoc::Elem(v, i) => {
            buf.push(2);
            put_varint(buf, u64::from(v.raw()));
            put_varint(buf, *i);
        }
    }
}

/// Append one event's record payload (kind byte included) to `buf` —
/// the writer's reusable scratch buffer, so encoding allocates nothing
/// per event.
fn event_payload_into(buf: &mut Vec<u8>, e: &Event) {
    buf.push(REC_EVENT);
    let mut flags = 0u8;
    if e.region.is_some() {
        flags |= 1;
    }
    if e.loc.is_some() {
        flags |= 2;
    }
    buf.push(flags);
    put_varint(buf, e.seq);
    put_varint(buf, u64::from(e.rank.raw()));
    put_varint(buf, u64::from(e.tid.raw()));
    if let Some(r) = e.region {
        put_varint(buf, r.raw());
    }
    put_varint(buf, e.time_ns);
    if let Some(loc) = &e.loc {
        put_string(buf, &loc.file);
        put_varint(buf, u64::from(loc.line));
    }
    match &e.kind {
        EventKind::Access { loc, kind } => {
            buf.push(0);
            put_memloc(buf, loc);
            buf.push(match kind {
                AccessKind::Read => 0,
                AccessKind::Write => 1,
            });
        }
        EventKind::MonitoredWrite { var, call } => {
            buf.push(1);
            buf.push(var_byte(*var));
            put_call(buf, call);
        }
        EventKind::Acquire { lock } => {
            buf.push(2);
            put_varint(buf, u64::from(lock.raw()));
        }
        EventKind::Release { lock } => {
            buf.push(3);
            put_varint(buf, u64::from(lock.raw()));
        }
        EventKind::Fork { region, nthreads } => {
            buf.push(4);
            put_varint(buf, region.raw());
            put_varint(buf, u64::from(*nthreads));
        }
        EventKind::JoinRegion { region } => {
            buf.push(5);
            put_varint(buf, region.raw());
        }
        EventKind::Barrier { barrier, epoch } => {
            buf.push(6);
            put_varint(buf, u64::from(barrier.raw()));
            put_varint(buf, *epoch);
        }
        EventKind::MpiCall { call } => {
            buf.push(7);
            put_call(buf, call);
        }
        EventKind::MpiInit {
            level,
            requested_by_init_thread,
        } => {
            buf.push(8);
            buf.push(level_byte(*level));
            put_bool(buf, *requested_by_init_thread);
        }
    }
}

fn run_payload(seed: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(10);
    buf.push(REC_RUN);
    put_varint(&mut buf, seed);
    buf
}

fn incident_payload_into(buf: &mut Vec<u8>, inc: &TraceIncident) {
    buf.push(REC_INCIDENT);
    put_varint(buf, u64::from(inc.rank));
    put_varint(buf, u64::from(inc.line));
    put_string(buf, &inc.call);
    put_string(buf, &inc.error);
}

fn manifest_payload(sections: &[Option<u64>]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(2 + sections.len() * 6);
    buf.push(REC_MANIFEST);
    put_varint(&mut buf, sections.len() as u64);
    for section in sections {
        match section {
            Some(seed) => {
                buf.push(1);
                put_varint(&mut buf, *seed);
            }
            None => buf.push(0),
        }
    }
    buf
}

/// Encode one v2 frame: header fields uncompressed, record bytes stored
/// compressed only when that actually saves space.
fn frame_payload(
    seed: Option<u64>,
    continuation: bool,
    events: u64,
    incidents: u64,
    raw: &[u8],
) -> Vec<u8> {
    let compressed = lz::compress(raw);
    let (stored, is_compressed) = if compressed.len() < raw.len() {
        (&compressed[..], true)
    } else {
        (raw, false)
    };
    let mut buf = Vec::with_capacity(16 + stored.len());
    buf.push(REC_FRAME);
    let mut flags = 0u8;
    if seed.is_some() {
        flags |= FRAME_HAS_SEED;
    }
    if is_compressed {
        flags |= FRAME_COMPRESSED;
    }
    if continuation {
        flags |= FRAME_CONTINUATION;
    }
    buf.push(flags);
    if let Some(s) = seed {
        put_varint(&mut buf, s);
    }
    put_varint(&mut buf, events);
    put_varint(&mut buf, incidents);
    put_varint(&mut buf, raw.len() as u64);
    buf.extend_from_slice(stored);
    buf
}

fn index_payload(entries: &[IndexEntry]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(2 + entries.len() * 16);
    buf.push(REC_INDEX);
    put_varint(&mut buf, entries.len() as u64);
    for entry in entries {
        let mut flags = 0u8;
        if entry.seed.is_some() {
            flags |= FRAME_HAS_SEED;
        }
        if entry.continuation {
            flags |= FRAME_CONTINUATION;
        }
        buf.push(flags);
        if let Some(s) = entry.seed {
            put_varint(&mut buf, s);
        }
        put_varint(&mut buf, entry.offset);
        put_varint(&mut buf, entry.events);
        put_varint(&mut buf, entry.incidents);
        put_varint(&mut buf, entry.raw_len);
    }
    buf
}

// ---------------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------------

/// Streaming HBT writer over any [`io::Write`]. Writes the header on
/// construction; call [`HbtWriter::finish`] to emit the section manifest
/// and the end marker.
///
/// [`HbtWriter::new`] writes classic v1 streams (one record per event);
/// [`HbtWriter::new_compressed`] writes v2 streams, packing each section
/// into LZ-compressed frames and emitting a seek index before the
/// manifest. The per-section API is identical either way.
#[derive(Debug)]
pub struct HbtWriter<W: Write> {
    w: W,
    sections: Vec<Option<u64>>,
    open: bool,
    v2: Option<V2Writer>,
    /// The record payload being encoded; reused across records.
    scratch: Vec<u8>,
}

/// v2 writer state: the current section's buffered inner records plus the
/// seek index accumulated so far.
#[derive(Debug)]
struct V2Writer {
    /// Bytes written to the underlying writer so far (header included), so
    /// each frame's absolute offset is known when its index entry is made.
    written: u64,
    /// v1-encoded `EVENT`/`INCIDENT` records of the current section, not
    /// yet flushed into a frame.
    buf: Vec<u8>,
    /// Seed of the current section (`None` = the anonymous section).
    seed: Option<u64>,
    /// Events buffered but not yet framed.
    events: u64,
    /// Incidents buffered but not yet framed.
    incidents: u64,
    /// True once at least one frame of the current section was emitted
    /// (later frames of the section set the continuation flag).
    frame_emitted: bool,
    /// One entry per frame written, in stream order.
    index: Vec<IndexEntry>,
}

impl<W: Write> HbtWriter<W> {
    /// Open a v1 writer, emitting the magic/version header.
    pub fn new(mut w: W) -> io::Result<Self> {
        w.write_all(&HBT_MAGIC)?;
        w.write_all(&[HBT_VERSION])?;
        Ok(HbtWriter {
            w,
            sections: Vec::new(),
            open: false,
            v2: None,
            scratch: Vec::new(),
        })
    }

    /// Open a v2 writer (`record --compress`): sections are packed into
    /// LZ-compressed frames and a seek index precedes the manifest.
    pub fn new_compressed(mut w: W) -> io::Result<Self> {
        w.write_all(&HBT_MAGIC)?;
        w.write_all(&[HBT_V2])?;
        Ok(HbtWriter {
            w,
            sections: Vec::new(),
            open: false,
            v2: Some(V2Writer {
                written: 5,
                buf: Vec::new(),
                seed: None,
                events: 0,
                incidents: 0,
                frame_emitted: false,
                index: Vec::new(),
            }),
            scratch: Vec::new(),
        })
    }

    fn write_record(&mut self, payload: &[u8]) -> io::Result<()> {
        let (len, n) = varint_bytes(payload.len() as u64);
        self.w.write_all(&len[..n])?;
        self.w.write_all(payload)?;
        if let Some(st) = self.v2.as_mut() {
            st.written += (n + payload.len()) as u64;
        }
        Ok(())
    }

    /// v2: write the buffered records as one frame and remember its index
    /// entry.
    fn emit_frame(&mut self) -> io::Result<()> {
        let payload = match &mut self.v2 {
            Some(st) => {
                let continuation = st.frame_emitted;
                let seed = if continuation { None } else { st.seed };
                let payload = frame_payload(seed, continuation, st.events, st.incidents, &st.buf);
                st.index.push(IndexEntry {
                    offset: st.written,
                    seed,
                    continuation,
                    events: st.events,
                    incidents: st.incidents,
                    raw_len: st.buf.len() as u64,
                });
                st.buf.clear();
                st.events = 0;
                st.incidents = 0;
                st.frame_emitted = true;
                payload
            }
            None => return Ok(()),
        };
        self.write_record(&payload)
    }

    /// v2: flush the open section. A `RUN`-opened section that buffered
    /// nothing still gets one (empty) frame, so its seed reaches readers.
    fn close_section(&mut self) -> io::Result<()> {
        if !self.open {
            return Ok(());
        }
        let needs_frame = match &self.v2 {
            Some(st) => !st.buf.is_empty() || !st.frame_emitted,
            None => false,
        };
        if needs_frame {
            self.emit_frame()?;
        }
        if let Some(st) = self.v2.as_mut() {
            st.seed = None;
            st.frame_emitted = false;
        }
        Ok(())
    }

    /// Write the body record encoded in `self.scratch`. v1: straight to
    /// the stream. v2: appended to the frame buffer, flushing a frame once
    /// it reaches [`FRAME_TARGET`] so giant sections split into bounded,
    /// independently decodable frames.
    fn write_scratch(&mut self, is_event: bool) -> io::Result<()> {
        let payload = std::mem::take(&mut self.scratch);
        let result = match self.v2.as_mut() {
            Some(st) => {
                put_varint(&mut st.buf, payload.len() as u64);
                st.buf.extend_from_slice(&payload);
                if is_event {
                    st.events += 1;
                } else {
                    st.incidents += 1;
                }
                if st.buf.len() >= FRAME_TARGET {
                    self.emit_frame()
                } else {
                    Ok(())
                }
            }
            None => self.write_record(&payload),
        };
        self.scratch = payload;
        result
    }

    /// Start a new trace section recorded under `seed`.
    pub fn begin_run(&mut self, seed: u64) -> io::Result<()> {
        if self.v2.is_some() {
            self.close_section()?;
            self.sections.push(Some(seed));
            self.open = true;
            if let Some(st) = self.v2.as_mut() {
                st.seed = Some(seed);
            }
            return Ok(());
        }
        self.sections.push(Some(seed));
        self.open = true;
        self.write_record(&run_payload(seed))
    }

    /// The first event or incident before any `RUN` record opens the
    /// implicit anonymous section; track it for the manifest. Returns the
    /// emptied scratch buffer the record is to be encoded into.
    fn begin_body_record(&mut self) -> &mut Vec<u8> {
        if !self.open {
            self.sections.push(None);
            self.open = true;
        }
        self.scratch.clear();
        &mut self.scratch
    }

    /// Append one event to the current section.
    pub fn write_event(&mut self, e: &Event) -> io::Result<()> {
        event_payload_into(self.begin_body_record(), e);
        self.write_scratch(true)
    }

    /// Append one incident to the current section.
    pub fn write_incident(&mut self, inc: &TraceIncident) -> io::Result<()> {
        incident_payload_into(self.begin_body_record(), inc);
        self.write_scratch(false)
    }

    /// Emit the seek index (v2), the section manifest, and the end marker,
    /// flush, and return the inner writer.
    pub fn finish(mut self) -> io::Result<W> {
        if self.v2.is_some() {
            self.close_section()?;
            let index = match &mut self.v2 {
                Some(st) => std::mem::take(&mut st.index),
                None => Vec::new(),
            };
            self.write_record(&index_payload(&index))?;
        }
        let manifest = manifest_payload(&self.sections);
        self.write_record(&manifest)?;
        self.w.write_all(&[0])?;
        self.w.flush()?;
        Ok(self.w)
    }
}

// ---------------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------------

/// The last source-file name a decoder produced. Every event of a run
/// names the same file, so handing out clones of the previous event's
/// `Arc<str>` turns the per-event name allocation into a refcount bump.
/// One entry on purpose: a hostile stream naming a new file per event
/// costs one allocation per event (what decoding cost before) and has no
/// table to grow. Owned by each reader / [`FrameScratch`] — never shared
/// or global.
#[derive(Debug, Default)]
struct FileCache(Option<Arc<str>>);

impl FileCache {
    fn intern(&mut self, name: &str) -> Arc<str> {
        match &self.0 {
            Some(last) if **last == *name => Arc::clone(last),
            _ => {
                let fresh: Arc<str> = Arc::from(name);
                self.0 = Some(Arc::clone(&fresh));
                fresh
            }
        }
    }
}

/// Shared v2 decode state: both readers inflate frames into a queue of
/// synthesized records and validate the trailing seek index against the
/// frames actually observed, via the same free functions, so their errors
/// stay byte-for-byte identical.
#[derive(Debug, Default)]
struct V2State {
    /// Records synthesized from the most recent frame, not yet yielded.
    pending: VecDeque<HbtRecord>,
    /// One entry per frame observed, in stream order, to check the index
    /// against.
    frames: Vec<IndexEntry>,
    /// True once the seek index record was seen.
    index_seen: bool,
    /// True while a section is open (frames or plain records have started
    /// one); continuation frames are only legal in this state.
    section_open: bool,
}

impl V2State {
    /// Validate at the end marker: a frame-bearing stream must carry its
    /// seek index, the same way a `RUN`-bearing stream must carry a
    /// manifest.
    fn check_end(&self, offset: u64) -> Result<(), HomeError> {
        if !self.frames.is_empty() && !self.index_seen {
            return Err(HomeError::corrupt_trace(format!(
                "HBT stream with {} compressed frame(s) ends without a seek index at byte {offset}",
                self.frames.len()
            )));
        }
        Ok(())
    }
}

/// Streaming HBT reader over any [`io::Read`]. Tracks the absolute byte
/// offset so every decode error points at the offending byte.
#[derive(Debug)]
pub struct HbtReader<R: Read> {
    r: R,
    offset: u64,
    finished: bool,
    version: u8,
    v2: V2State,
    files: FileCache,
    /// The record payload being decoded; reused across records.
    payload: Vec<u8>,
}

impl<R: Read> HbtReader<R> {
    /// Open a reader, validating the magic/version header. v1 and v2
    /// streams are both accepted; see the module docs.
    pub fn new(r: R) -> Result<Self, HomeError> {
        let mut reader = HbtReader {
            r,
            offset: 0,
            finished: false,
            version: HBT_VERSION,
            v2: V2State::default(),
            files: FileCache::default(),
            payload: Vec::new(),
        };
        let mut header = [0u8; 5];
        reader.read_exact(&mut header, "HBT header")?;
        if header[..4] != HBT_MAGIC {
            return Err(HomeError::corrupt_trace(
                "not an HBT stream: bad magic bytes",
            ));
        }
        if header[4] != HBT_VERSION && header[4] != HBT_V2 {
            return Err(HomeError::corrupt_trace(format!(
                "unsupported HBT version {} (expected {HBT_VERSION} or {HBT_V2}) at byte 4",
                header[4]
            )));
        }
        reader.version = header[4];
        Ok(reader)
    }

    fn truncated(&self, what: &str) -> HomeError {
        HomeError::trace_parse(format!(
            "truncated HBT stream: unexpected end of input in {what} at byte {}",
            self.offset
        ))
    }

    fn read_exact(&mut self, buf: &mut [u8], what: &str) -> Result<(), HomeError> {
        match self.r.read_exact(buf) {
            Ok(()) => {
                self.offset += buf.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(self.truncated(what)),
            Err(e) => Err(HomeError::trace_parse(format!(
                "I/O error reading HBT stream at byte {}: {e}",
                self.offset
            ))),
        }
    }

    fn read_varint(&mut self, what: &str) -> Result<u64, HomeError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let mut b = [0u8; 1];
            self.read_exact(&mut b, what)?;
            if shift >= 64 || (shift == 63 && b[0] > 1) {
                return Err(HomeError::corrupt_trace(format!(
                    "varint overflow in {what} at byte {}",
                    self.offset - 1
                )));
            }
            v |= u64::from(b[0] & 0x7f) << shift;
            if b[0] & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read the next record, or `Ok(None)` at the end marker. Every
    /// malformed or truncated input yields a typed error. v2 frames are
    /// inflated and yielded as their synthesized `RUN`/`EVENT`/`INCIDENT`
    /// records.
    pub fn next_record(&mut self) -> Result<Option<HbtRecord>, HomeError> {
        loop {
            if let Some(record) = self.v2.pending.pop_front() {
                return Ok(Some(record));
            }
            if self.finished {
                return Ok(None);
            }
            let start = self.offset;
            let len = self.read_varint("record length (or missing end marker)")?;
            if len == 0 {
                self.finished = true;
                self.v2.check_end(self.offset)?;
                return Ok(None);
            }
            if len > MAX_RECORD_LEN {
                return Err(HomeError::corrupt_trace(format!(
                    "HBT record length {len} exceeds limit at byte {}",
                    self.offset
                )));
            }
            let base = self.offset;
            let len = len as usize;
            // The length prefix is attacker-controlled: read the payload in
            // bounded chunks so a lying varint costs at most one chunk of
            // allocation before the truncation error fires, never `len` bytes.
            let mut payload = std::mem::take(&mut self.payload);
            payload.clear();
            while payload.len() < len {
                let filled = payload.len();
                let take = (len - filled).min(READ_CHUNK);
                payload.resize(filled + take, 0);
                match self.r.read_exact(&mut payload[filled..]) {
                    Ok(()) => self.offset += take as u64,
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                        return Err(HomeError::trace_parse(format!(
                            "truncated HBT stream: unexpected end of input in record payload \
                             at byte {base}"
                        )));
                    }
                    Err(e) => {
                        return Err(HomeError::trace_parse(format!(
                            "I/O error reading HBT stream at byte {}: {e}",
                            self.offset
                        )));
                    }
                }
            }
            let mut cur = Cur {
                buf: &payload,
                pos: 0,
                base,
            };
            let record =
                process_record(&mut cur, self.version, start, &mut self.v2, &mut self.files)?;
            if cur.pos != payload.len() {
                return Err(HomeError::corrupt_trace(format!(
                    "HBT record has {} trailing byte(s) at byte {}",
                    payload.len() - cur.pos,
                    base + cur.pos as u64
                )));
            }
            self.payload = payload;
            if let Some(record) = record {
                return Ok(Some(record));
            }
        }
    }

    /// Bytes consumed from the underlying stream so far.
    pub fn offset(&self) -> u64 {
        self.offset
    }
}

/// Zero-copy HBT reader over an in-memory byte slice.
///
/// The streamable [`HbtReader`] copies each record payload into a fresh
/// buffer before decoding; when the whole stream is already in memory
/// (an mmap'd file, a `Vec` read from stdin) that copy is pure overhead.
/// This reader decodes records *straight from the slice*: the only
/// allocations are the decoded [`Event`]s themselves. Error messages and
/// byte offsets match the streaming reader, so callers can switch between
/// them without changing their diagnostics.
#[derive(Debug)]
pub struct HbtSliceReader<'a> {
    buf: &'a [u8],
    pos: usize,
    finished: bool,
    version: u8,
    v2: V2State,
    files: FileCache,
}

impl<'a> HbtSliceReader<'a> {
    /// Open a reader over `bytes`, validating the magic/version header.
    /// v1 and v2 streams are both accepted; see the module docs.
    pub fn new(bytes: &'a [u8]) -> Result<Self, HomeError> {
        if bytes.len() < 5 {
            return Err(HomeError::trace_parse(
                "truncated HBT stream: unexpected end of input in HBT header at byte 0",
            ));
        }
        if bytes[..4] != HBT_MAGIC {
            return Err(HomeError::corrupt_trace(
                "not an HBT stream: bad magic bytes",
            ));
        }
        if bytes[4] != HBT_VERSION && bytes[4] != HBT_V2 {
            return Err(HomeError::corrupt_trace(format!(
                "unsupported HBT version {} (expected {HBT_VERSION} or {HBT_V2}) at byte 4",
                bytes[4]
            )));
        }
        Ok(HbtSliceReader {
            buf: bytes,
            pos: 5,
            finished: false,
            version: bytes[4],
            v2: V2State::default(),
            files: FileCache::default(),
        })
    }

    fn truncated(&self, what: &str) -> HomeError {
        HomeError::trace_parse(format!(
            "truncated HBT stream: unexpected end of input in {what} at byte {}",
            self.pos
        ))
    }

    fn read_varint(&mut self, what: &str) -> Result<u64, HomeError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = *self.buf.get(self.pos).ok_or_else(|| self.truncated(what))?;
            self.pos += 1;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(HomeError::corrupt_trace(format!(
                    "varint overflow in {what} at byte {}",
                    self.pos - 1
                )));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read the next record, or `Ok(None)` at the end marker. Every
    /// malformed or truncated input yields a typed error. v2 frames are
    /// inflated and yielded as their synthesized `RUN`/`EVENT`/`INCIDENT`
    /// records.
    pub fn next_record(&mut self) -> Result<Option<HbtRecord>, HomeError> {
        loop {
            if let Some(record) = self.v2.pending.pop_front() {
                return Ok(Some(record));
            }
            if self.finished {
                return Ok(None);
            }
            let start = self.pos as u64;
            let len = self.read_varint("record length (or missing end marker)")?;
            if len == 0 {
                self.finished = true;
                self.v2.check_end(self.pos as u64)?;
                return Ok(None);
            }
            if len > MAX_RECORD_LEN {
                return Err(HomeError::corrupt_trace(format!(
                    "HBT record length {len} exceeds limit at byte {}",
                    self.pos
                )));
            }
            let len = len as usize;
            let base = self.pos as u64;
            let payload = self
                .pos
                .checked_add(len)
                .and_then(|end| self.buf.get(self.pos..end))
                .ok_or_else(|| self.truncated("record payload"))?;
            self.pos += len;
            let mut cur = Cur {
                buf: payload,
                pos: 0,
                base,
            };
            let record =
                process_record(&mut cur, self.version, start, &mut self.v2, &mut self.files)?;
            if cur.pos != payload.len() {
                return Err(HomeError::corrupt_trace(format!(
                    "HBT record has {} trailing byte(s) at byte {}",
                    payload.len() - cur.pos,
                    base + cur.pos as u64
                )));
            }
            if let Some(record) = record {
                return Ok(Some(record));
            }
        }
    }

    /// Bytes consumed from the slice so far.
    pub fn offset(&self) -> u64 {
        self.pos as u64
    }
}

/// Cursor over one record payload; `base` is the payload's absolute offset
/// in the stream, so errors report stream positions.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Cur<'a> {
    fn at(&self) -> u64 {
        self.base + self.pos as u64
    }

    fn truncated(&self, what: &str) -> HomeError {
        HomeError::trace_parse(format!(
            "truncated HBT record: unexpected end of payload in {what} at byte {}",
            self.at()
        ))
    }

    fn corrupt(&self, msg: String) -> HomeError {
        HomeError::corrupt_trace(format!("{msg} at byte {}", self.at()))
    }

    fn u8(&mut self, what: &str) -> Result<u8, HomeError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.truncated(what))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self, what: &str) -> Result<u64, HomeError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8(what)?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(self.corrupt(format!("varint overflow in {what}")));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32, HomeError> {
        let v = self.varint(what)?;
        u32::try_from(v).map_err(|_| self.corrupt(format!("{what} value {v} exceeds u32")))
    }

    fn i32(&mut self, what: &str) -> Result<i32, HomeError> {
        let v = unzigzag(self.varint(what)?);
        i32::try_from(v).map_err(|_| self.corrupt(format!("{what} value {v} exceeds i32")))
    }

    fn bool(&mut self, what: &str) -> Result<bool, HomeError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.corrupt(format!("invalid boolean byte {b} in {what}"))),
        }
    }

    fn str(&mut self, what: &str) -> Result<&'a str, HomeError> {
        let len = self.varint(what)? as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.truncated(what))?;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| self.corrupt(format!("invalid UTF-8 in {what}")))?;
        self.pos = end;
        Ok(s)
    }

    fn level(&mut self, what: &str) -> Result<ThreadLevel, HomeError> {
        match self.u8(what)? {
            0 => Ok(ThreadLevel::Single),
            1 => Ok(ThreadLevel::Funneled),
            2 => Ok(ThreadLevel::Serialized),
            3 => Ok(ThreadLevel::Multiple),
            b => Err(self.corrupt(format!("invalid thread-level byte {b} in {what}"))),
        }
    }

    fn monitored_var(&mut self, what: &str) -> Result<MonitoredVar, HomeError> {
        match self.u8(what)? {
            0 => Ok(MonitoredVar::Src),
            1 => Ok(MonitoredVar::Tag),
            2 => Ok(MonitoredVar::Comm),
            3 => Ok(MonitoredVar::Request),
            4 => Ok(MonitoredVar::Collective),
            5 => Ok(MonitoredVar::Finalize),
            b => Err(self.corrupt(format!("invalid monitored-variable byte {b} in {what}"))),
        }
    }

    fn call(&mut self) -> Result<MpiCallRecord, HomeError> {
        let tag = self.u8("MPI call kind")?;
        let kind = *CALL_KINDS
            .get(tag as usize)
            .ok_or_else(|| self.corrupt(format!("invalid MPI call kind byte {tag}")))?;
        let flags = self.u8("MPI call flags")?;
        if flags & !0x1f != 0 {
            return Err(self.corrupt(format!("invalid MPI call flag bits {flags:#x}")));
        }
        let peer = if flags & 1 != 0 {
            Some(self.i32("MPI call peer")?)
        } else {
            None
        };
        let tag_arg = if flags & 2 != 0 {
            Some(self.i32("MPI call tag")?)
        } else {
            None
        };
        let comm = CommId(self.u32("MPI call communicator")?);
        let request = if flags & 4 != 0 {
            Some(ReqId(self.varint("MPI call request")?))
        } else {
            None
        };
        let thread_level = if flags & 8 != 0 {
            Some(self.level("MPI call thread level")?)
        } else {
            None
        };
        Ok(MpiCallRecord {
            kind,
            peer,
            tag: tag_arg,
            comm,
            request,
            is_main_thread: flags & 16 != 0,
            thread_level,
        })
    }

    fn memloc(&mut self) -> Result<MemLoc, HomeError> {
        match self.u8("memory-location tag")? {
            0 => Ok(MemLoc::Monitored(self.monitored_var("monitored variable")?)),
            1 => Ok(MemLoc::Var(VarId(self.u32("variable id")?))),
            2 => Ok(MemLoc::Elem(
                VarId(self.u32("variable id")?),
                self.varint("element index")?,
            )),
            b => Err(self.corrupt(format!("invalid memory-location tag {b}"))),
        }
    }

    fn event(&mut self, files: &mut FileCache) -> Result<Event, HomeError> {
        let flags = self.u8("event flags")?;
        if flags & !0x03 != 0 {
            return Err(self.corrupt(format!("invalid event flag bits {flags:#x}")));
        }
        let seq = self.varint("event seq")?;
        let rank = Rank(self.u32("event rank")?);
        let tid = Tid(self.u32("event tid")?);
        let region = if flags & 1 != 0 {
            Some(RegionId(self.varint("event region")?))
        } else {
            None
        };
        let time_ns = self.varint("event time")?;
        let loc = if flags & 2 != 0 {
            let file = files.intern(self.str("source file")?);
            let line = self.u32("source line")?;
            Some(SrcLoc { file, line })
        } else {
            None
        };
        let kind = match self.u8("event kind tag")? {
            0 => {
                let mem = self.memloc()?;
                let kind = match self.u8("access kind")? {
                    0 => AccessKind::Read,
                    1 => AccessKind::Write,
                    b => return Err(self.corrupt(format!("invalid access kind byte {b}"))),
                };
                EventKind::Access { loc: mem, kind }
            }
            1 => EventKind::MonitoredWrite {
                var: self.monitored_var("monitored variable")?,
                call: self.call()?,
            },
            2 => EventKind::Acquire {
                lock: LockId(self.u32("lock id")?),
            },
            3 => EventKind::Release {
                lock: LockId(self.u32("lock id")?),
            },
            4 => EventKind::Fork {
                region: RegionId(self.varint("fork region")?),
                nthreads: self.u32("fork nthreads")?,
            },
            5 => EventKind::JoinRegion {
                region: RegionId(self.varint("join region")?),
            },
            6 => EventKind::Barrier {
                barrier: BarrierId(self.u32("barrier id")?),
                epoch: self.varint("barrier epoch")?,
            },
            7 => EventKind::MpiCall { call: self.call()? },
            8 => EventKind::MpiInit {
                level: self.level("init thread level")?,
                requested_by_init_thread: self.bool("init thread flag")?,
            },
            b => return Err(self.corrupt(format!("invalid event kind tag {b}"))),
        };
        Ok(Event {
            seq,
            rank,
            tid,
            region,
            time_ns,
            loc,
            kind,
        })
    }
}

/// Decode one record payload, dispatching v2 kinds through the shared
/// reader state. Returns `Ok(None)` when the record was a frame (its
/// synthesized records were queued in `v2.pending`). `start` is the
/// absolute offset of the record's length varint — the offset a seek
/// index must quote for a frame.
///
/// Both readers route every record through this one function, so their
/// validation rules and error strings stay byte-for-byte identical.
fn process_record(
    cur: &mut Cur<'_>,
    version: u8,
    start: u64,
    v2: &mut V2State,
    files: &mut FileCache,
) -> Result<Option<HbtRecord>, HomeError> {
    let kind = cur.u8("record kind")?;
    if version < HBT_V2 && (kind == REC_FRAME || kind == REC_INDEX) {
        return Err(cur.corrupt(format!(
            "HBT v2 record kind {kind} in a version-{version} stream"
        )));
    }
    if v2.index_seen && kind != REC_MANIFEST && kind != REC_INDEX {
        return Err(cur.corrupt(format!("HBT record kind {kind} after the seek index")));
    }
    match kind {
        REC_FRAME => {
            decode_frame(cur, start, v2, files)?;
            Ok(None)
        }
        REC_INDEX => Ok(Some(HbtRecord::Index {
            entries: decode_index(cur, v2)?,
        })),
        _ => {
            let record = decode_body(kind, cur, files)?;
            if matches!(
                record,
                HbtRecord::Run { .. } | HbtRecord::Event(_) | HbtRecord::Incident(_)
            ) {
                v2.section_open = true;
            }
            Ok(Some(record))
        }
    }
}

/// A v2 frame's decoded header fields (everything before the stored
/// bytes; never compressed).
struct FrameHeader {
    seed: Option<u64>,
    continuation: bool,
    compressed: bool,
    events: u64,
    incidents: u64,
    raw_len: u64,
}

/// Decode and validate a frame header. `section_open` is whether the
/// stream has a section in progress — continuation frames require one,
/// and an anonymous (seedless, non-continuation) frame is only legal
/// before any section has started.
fn decode_frame_header(cur: &mut Cur<'_>, section_open: bool) -> Result<FrameHeader, HomeError> {
    let flags = cur.u8("frame flags")?;
    if flags & !(FRAME_HAS_SEED | FRAME_COMPRESSED | FRAME_CONTINUATION) != 0 {
        return Err(cur.corrupt(format!("invalid HBT frame flag bits {flags:#x}")));
    }
    let continuation = flags & FRAME_CONTINUATION != 0;
    let seed = if flags & FRAME_HAS_SEED != 0 {
        if continuation {
            return Err(cur.corrupt("HBT continuation frame carries a section seed".to_string()));
        }
        Some(cur.varint("frame seed")?)
    } else {
        None
    };
    if continuation && !section_open {
        return Err(cur.corrupt("HBT continuation frame without an open section".to_string()));
    }
    if !continuation && seed.is_none() && section_open {
        return Err(cur.corrupt("anonymous HBT frame after a recorded section".to_string()));
    }
    let events = cur.varint("frame event count")?;
    let incidents = cur.varint("frame incident count")?;
    let raw_len = cur.varint("frame uncompressed length")?;
    if raw_len > MAX_RECORD_LEN {
        return Err(cur.corrupt(format!(
            "HBT frame uncompressed length {raw_len} exceeds limit"
        )));
    }
    Ok(FrameHeader {
        seed,
        continuation,
        compressed: flags & FRAME_COMPRESSED != 0,
        events,
        incidents,
        raw_len,
    })
}

/// Decode one frame into `v2.pending` (synthesized `RUN` first for
/// seed-bearing frames) and record its index entry.
fn decode_frame(
    cur: &mut Cur<'_>,
    start: u64,
    v2: &mut V2State,
    files: &mut FileCache,
) -> Result<(), HomeError> {
    let header = decode_frame_header(cur, v2.section_open)?;
    let stored = &cur.buf[cur.pos..];
    cur.pos = cur.buf.len();
    let records = if header.compressed {
        let raw = lz::decompress(stored, header.raw_len as usize).map_err(|e| {
            HomeError::corrupt_trace(format!("corrupt compressed HBT frame at byte {start}: {e}"))
        })?;
        decode_frame_body(&raw, header.events, header.incidents, start, files)?
    } else {
        if stored.len() as u64 != header.raw_len {
            return Err(HomeError::corrupt_trace(format!(
                "HBT frame at byte {start} declares {} uncompressed byte(s) but stores {}",
                header.raw_len,
                stored.len()
            )));
        }
        decode_frame_body(stored, header.events, header.incidents, start, files)?
    };
    v2.frames.push(IndexEntry {
        offset: start,
        seed: header.seed,
        continuation: header.continuation,
        events: header.events,
        incidents: header.incidents,
        raw_len: header.raw_len,
    });
    if let Some(seed) = header.seed {
        v2.pending.push_back(HbtRecord::Run { seed });
    }
    v2.section_open = true;
    v2.pending.extend(records);
    Ok(())
}

/// Wrap an error from inside a frame body: the inner offset is relative
/// to the (possibly decompressed) frame bytes, so the frame's absolute
/// stream offset leads the message.
fn frame_corrupt(start: u64, e: HomeError) -> HomeError {
    HomeError::corrupt_trace(format!("corrupt HBT frame at byte {start}: {e}"))
}

/// Parse a frame's uncompressed body: a concatenation of length-prefixed
/// `EVENT`/`INCIDENT` records, validated against the header's declared
/// counts.
fn decode_frame_body(
    raw: &[u8],
    events: u64,
    incidents: u64,
    start: u64,
    files: &mut FileCache,
) -> Result<Vec<HbtRecord>, HomeError> {
    let mut out = Vec::new();
    walk_frame_body(raw, events, incidents, start, files, |record| {
        out.push(record)
    })?;
    Ok(out)
}

/// The core frame-body walk shared by [`decode_frame_body`] (record list)
/// and [`decode_frame_into`] (reusable batch): one validation loop, one
/// set of error messages, the caller chooses where records land.
fn walk_frame_body(
    raw: &[u8],
    events: u64,
    incidents: u64,
    start: u64,
    files: &mut FileCache,
    mut sink: impl FnMut(HbtRecord),
) -> Result<(), HomeError> {
    let mut cur = Cur {
        buf: raw,
        pos: 0,
        base: 0,
    };
    let (mut n_events, mut n_incidents) = (0u64, 0u64);
    while cur.pos < raw.len() {
        let len = cur
            .varint("frame record length")
            .map_err(|e| frame_corrupt(start, e))?;
        if len == 0 {
            return Err(HomeError::corrupt_trace(format!(
                "empty record inside the HBT frame at byte {start}"
            )));
        }
        let end = cur
            .pos
            .checked_add(len as usize)
            .filter(|&e| e <= raw.len())
            .ok_or_else(|| frame_corrupt(start, cur.truncated("frame record payload")))?;
        let payload = &raw[cur.pos..end];
        let base = cur.pos as u64;
        cur.pos = end;
        let mut inner = Cur {
            buf: payload,
            pos: 0,
            base,
        };
        let kind = inner
            .u8("record kind")
            .map_err(|e| frame_corrupt(start, e))?;
        if kind != REC_EVENT && kind != REC_INCIDENT {
            return Err(HomeError::corrupt_trace(format!(
                "record kind {kind} inside the HBT frame at byte {start}"
            )));
        }
        let record = decode_body(kind, &mut inner, files).map_err(|e| frame_corrupt(start, e))?;
        if inner.pos != payload.len() {
            return Err(HomeError::corrupt_trace(format!(
                "HBT record has {} trailing byte(s) inside the frame at byte {start}",
                payload.len() - inner.pos
            )));
        }
        match &record {
            HbtRecord::Event(_) => n_events += 1,
            _ => n_incidents += 1,
        }
        sink(record);
    }
    if n_events != events || n_incidents != incidents {
        return Err(HomeError::corrupt_trace(format!(
            "HBT frame at byte {start} declares {events} event(s) and {incidents} incident(s) \
             but stores {n_events} and {n_incidents}"
        )));
    }
    Ok(())
}

/// Decode the seek index record's entries (validation against observed
/// frames happens in the callers).
fn decode_index_entries(cur: &mut Cur<'_>) -> Result<Vec<IndexEntry>, HomeError> {
    let count = cur.varint("index frame count")?;
    // Each entry is at least five bytes, so the count is bounded by the
    // bytes actually present — check before sizing any allocation off the
    // attacker-controlled value.
    let remaining = (cur.buf.len() - cur.pos) as u64;
    if count > remaining {
        return Err(cur.corrupt(format!("HBT index frame count {count} exceeds record size")));
    }
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let flags = cur.u8("index entry flags")?;
        if flags & !(FRAME_HAS_SEED | FRAME_CONTINUATION) != 0 {
            return Err(cur.corrupt(format!("invalid HBT index entry flag bits {flags:#x}")));
        }
        let continuation = flags & FRAME_CONTINUATION != 0;
        let seed = if flags & FRAME_HAS_SEED != 0 {
            if continuation {
                return Err(
                    cur.corrupt("HBT continuation index entry carries a section seed".to_string())
                );
            }
            Some(cur.varint("index entry seed")?)
        } else {
            None
        };
        entries.push(IndexEntry {
            offset: cur.varint("index entry offset")?,
            seed,
            continuation,
            events: cur.varint("index entry event count")?,
            incidents: cur.varint("index entry incident count")?,
            raw_len: cur.varint("index entry uncompressed length")?,
        });
    }
    Ok(entries)
}

/// Reject a seek index that disagrees with the frames actually observed
/// in the stream — a lying offset, seed, count, or length never reaches
/// the parallel decode path.
fn check_index(declared: &[IndexEntry], observed: &[IndexEntry], at: u64) -> Result<(), HomeError> {
    if declared.len() != observed.len() {
        return Err(HomeError::corrupt_trace(format!(
            "HBT seek index declares {} frame(s) but the stream contains {} at byte {at}",
            declared.len(),
            observed.len()
        )));
    }
    for (i, (d, o)) in declared.iter().zip(observed).enumerate() {
        if d != o {
            return Err(HomeError::corrupt_trace(format!(
                "HBT seek index entry {i} disagrees with the stream: declared {d:?} \
                 but observed {o:?} at byte {at}"
            )));
        }
    }
    Ok(())
}

/// Decode and validate the seek index against the reader's observed
/// frames.
fn decode_index(cur: &mut Cur<'_>, v2: &mut V2State) -> Result<Vec<IndexEntry>, HomeError> {
    if v2.index_seen {
        return Err(cur.corrupt("duplicate HBT seek index".to_string()));
    }
    let entries = decode_index_entries(cur)?;
    check_index(&entries, &v2.frames, cur.at())?;
    v2.index_seen = true;
    Ok(entries)
}

fn decode_body(kind: u8, cur: &mut Cur<'_>, files: &mut FileCache) -> Result<HbtRecord, HomeError> {
    match kind {
        REC_RUN => Ok(HbtRecord::Run {
            seed: cur.varint("run seed")?,
        }),
        REC_EVENT => Ok(HbtRecord::Event(cur.event(files)?)),
        REC_INCIDENT => Ok(HbtRecord::Incident(TraceIncident {
            rank: cur.u32("incident rank")?,
            line: cur.u32("incident line")?,
            call: cur.str("incident call")?.to_owned(),
            error: cur.str("incident error")?.to_owned(),
        })),
        REC_MANIFEST => {
            let count = cur.varint("manifest section count")?;
            // Each section entry is at least one flag byte, so the count is
            // bounded by the bytes actually present — check before sizing
            // any allocation off the attacker-controlled value.
            let remaining = (cur.buf.len() - cur.pos) as u64;
            if count > remaining {
                return Err(cur.corrupt(format!(
                    "HBT manifest section count {count} exceeds record size"
                )));
            }
            let mut sections = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let recorded = cur.bool("manifest section flag")?;
                let seed = if recorded {
                    Some(cur.varint("manifest section seed")?)
                } else {
                    None
                };
                sections.push(seed);
            }
            Ok(HbtRecord::Manifest { sections })
        }
        b => Err(cur.corrupt(format!("invalid record kind byte {b}"))),
    }
}

// ---------------------------------------------------------------------------
// whole-trace helpers
// ---------------------------------------------------------------------------

/// Encode a whole trace as a single anonymous HBT section.
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + trace.events().len() * 24);
    out.extend_from_slice(&HBT_MAGIC);
    out.push(HBT_VERSION);
    let mut payload = Vec::new();
    for e in trace.events() {
        payload.clear();
        event_payload_into(&mut payload, e);
        put_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
    }
    let sections: &[Option<u64>] = if trace.events().is_empty() {
        &[]
    } else {
        &[None]
    };
    let manifest = manifest_payload(sections);
    put_varint(&mut out, manifest.len() as u64);
    out.extend_from_slice(&manifest);
    out.push(0);
    out
}

/// Decode an HBT byte stream into its trace sections. Records appearing
/// before the first `RUN` record form an implicit anonymous section.
///
/// Decodes zero-copy via [`HbtSliceReader`]: no per-record payload
/// buffer is allocated.
pub fn decode_sections(bytes: &[u8]) -> Result<Vec<HbtSection>, HomeError> {
    let mut reader = HbtSliceReader::new(bytes)?;
    let mut sections: Vec<HbtSection> = Vec::new();
    let mut seed: Option<u64> = None;
    let mut events: Vec<Event> = Vec::new();
    let mut incidents: Vec<TraceIncident> = Vec::new();
    let mut open = false;
    let flush = |seed: &mut Option<u64>,
                 events: &mut Vec<Event>,
                 incidents: &mut Vec<TraceIncident>,
                 sections: &mut Vec<HbtSection>| {
        sections.push(HbtSection {
            seed: seed.take(),
            trace: Trace::from_events(std::mem::take(events)),
            incidents: std::mem::take(incidents),
        });
    };
    let mut check = ManifestCheck::new();
    while let Some(record) = reader.next_record()? {
        check.on_record(&record, reader.offset())?;
        match record {
            HbtRecord::Run { seed: s } => {
                if open {
                    flush(&mut seed, &mut events, &mut incidents, &mut sections);
                }
                seed = Some(s);
                open = true;
            }
            HbtRecord::Event(e) => {
                events.push(e);
                open = true;
            }
            HbtRecord::Incident(i) => {
                incidents.push(i);
                open = true;
            }
            HbtRecord::Manifest { .. } | HbtRecord::Index { .. } => {}
        }
    }
    check.finish(reader.offset())?;
    if open {
        flush(&mut seed, &mut events, &mut incidents, &mut sections);
    }
    Ok(sections)
}

// ---------------------------------------------------------------------------
// v2 layout scan (parallel decode support)
// ---------------------------------------------------------------------------

/// Where one v2 frame lives in a byte stream and what its header
/// declares. Produced by [`scan_layout`]; consumed by
/// [`decode_frame_into`].
#[derive(Debug, Clone)]
pub struct FrameLoc {
    /// The frame's header fields, as a seek-index entry.
    pub entry: IndexEntry,
    /// True when the stored bytes are LZ-compressed.
    compressed: bool,
    /// Byte range of the stored frame body within the stream.
    body: std::ops::Range<usize>,
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

fn scan_varint(buf: &[u8], pos: &mut usize, what: &str) -> Result<u64, HomeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or_else(|| {
            HomeError::trace_parse(format!(
                "truncated HBT stream: unexpected end of input in {what} at byte {}",
                *pos
            ))
        })?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(HomeError::corrupt_trace(format!(
                "varint overflow in {what} at byte {}",
                *pos - 1
            )));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Walk a stream's record headers without decompressing or decoding any
/// frame body, returning every frame's location for parallel decode.
///
/// Returns `Ok(None)` when the stream is v1, or a v2 stream carrying
/// plain (unframed) body records — callers fall back to the serial
/// [`decode_sections`] path, which handles every valid stream. The scan
/// validates the full v2 structure: the end marker, the seek index
/// against the frame headers actually present, and the manifest against
/// the sections the frames declare — so a lying index or a spliced
/// stream is rejected here without inflating a single frame.
pub fn scan_layout(bytes: &[u8]) -> Result<Option<HbtLayout>, HomeError> {
    if bytes.len() < 5 {
        return Err(HomeError::trace_parse(
            "truncated HBT stream: unexpected end of input in HBT header at byte 0",
        ));
    }
    if bytes[..4] != HBT_MAGIC {
        return Err(HomeError::corrupt_trace(
            "not an HBT stream: bad magic bytes",
        ));
    }
    if bytes[4] == HBT_VERSION {
        return Ok(None);
    }
    if bytes[4] != HBT_V2 {
        return Err(HomeError::corrupt_trace(format!(
            "unsupported HBT version {} (expected {HBT_VERSION} or {HBT_V2}) at byte 4",
            bytes[4]
        )));
    }
    let mut pos = 5usize;
    let mut frames: Vec<FrameLoc> = Vec::new();
    let mut index_seen = false;
    let mut manifest_seen = false;
    let mut section_open = false;
    let mut check = ManifestCheck::new();
    // Per header-level section: its seed and total stored record count,
    // for the record-level manifest cross-check after the walk.
    let mut section_records: Vec<(Option<u64>, u64)> = Vec::new();
    loop {
        let start = pos as u64;
        let len = scan_varint(bytes, &mut pos, "record length (or missing end marker)")?;
        if len == 0 {
            break;
        }
        if len > MAX_RECORD_LEN {
            return Err(HomeError::corrupt_trace(format!(
                "HBT record length {len} exceeds limit at byte {pos}"
            )));
        }
        if manifest_seen {
            return Err(HomeError::corrupt_trace(format!(
                "HBT record after the section manifest at byte {start}"
            )));
        }
        let base = pos as u64;
        let len = len as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| {
                HomeError::trace_parse(format!(
                    "truncated HBT stream: unexpected end of input in record payload at byte {pos}"
                ))
            })?;
        let payload = &bytes[pos..end];
        pos = end;
        let mut cur = Cur {
            buf: payload,
            pos: 0,
            base,
        };
        let kind = cur.u8("record kind")?;
        match kind {
            REC_FRAME => {
                if index_seen {
                    return Err(HomeError::corrupt_trace(format!(
                        "HBT record kind {kind} after the seek index at byte {base}"
                    )));
                }
                let header = decode_frame_header(&mut cur, section_open)?;
                let body = (base as usize + cur.pos)..end;
                if !header.compressed && body.len() as u64 != header.raw_len {
                    return Err(HomeError::corrupt_trace(format!(
                        "HBT frame at byte {start} declares {} uncompressed byte(s) but stores {}",
                        header.raw_len,
                        body.len()
                    )));
                }
                if !header.continuation {
                    check.note_section(header.seed);
                    section_records.push((header.seed, header.events + header.incidents));
                } else if let Some(last) = section_records.last_mut() {
                    last.1 += header.events + header.incidents;
                }
                frames.push(FrameLoc {
                    entry: IndexEntry {
                        offset: start,
                        seed: header.seed,
                        continuation: header.continuation,
                        events: header.events,
                        incidents: header.incidents,
                        raw_len: header.raw_len,
                    },
                    compressed: header.compressed,
                    body,
                });
                section_open = true;
            }
            REC_INDEX => {
                if index_seen {
                    return Err(cur.corrupt("duplicate HBT seek index".to_string()));
                }
                let entries = decode_index_entries(&mut cur)?;
                if cur.pos != payload.len() {
                    return Err(HomeError::corrupt_trace(format!(
                        "HBT record has {} trailing byte(s) at byte {}",
                        payload.len() - cur.pos,
                        base + cur.pos as u64
                    )));
                }
                let observed: Vec<IndexEntry> = frames.iter().map(|f| f.entry).collect();
                check_index(&entries, &observed, base + cur.pos as u64)?;
                index_seen = true;
            }
            REC_MANIFEST => {
                let record = decode_body(kind, &mut cur, &mut FileCache::default())?;
                if cur.pos != payload.len() {
                    return Err(HomeError::corrupt_trace(format!(
                        "HBT record has {} trailing byte(s) at byte {}",
                        payload.len() - cur.pos,
                        base + cur.pos as u64
                    )));
                }
                check.on_record(&record, pos as u64)?;
                manifest_seen = true;
            }
            // Plain v1-style body records (or an invalid kind byte): the
            // serial reader path handles — or properly rejects — these.
            _ => return Ok(None),
        }
    }
    if !frames.is_empty() && !index_seen {
        return Err(HomeError::corrupt_trace(format!(
            "HBT stream with {} compressed frame(s) ends without a seek index at byte {pos}",
            frames.len()
        )));
    }
    check.finish(pos as u64)?;
    // Header-level sectioning counts an anonymous frame as a section even
    // when it stores no records; the record-level reader only opens an
    // anonymous section when records actually arrive. A manifest that
    // matches the headers but not the records is the serial reader's
    // mismatch — reject it here with the same diagnostic so every decode
    // path (any `--jobs`) agrees.
    if let Some(declared) = &check.manifest {
        let materialized = section_records
            .iter()
            .filter(|(seed, records)| seed.is_some() || *records > 0)
            .count();
        if declared.len() != materialized {
            return Err(HomeError::corrupt_trace(format!(
                "HBT manifest declares {} section(s) but the stream contains {} at byte {pos}",
                declared.len(),
                materialized
            )));
        }
    }
    Ok(Some(HbtLayout { frames }))
}

/// One decoded frame's contents as reusable flat buffers. A `FrameBatch` survives
/// across frames — [`decode_frame_into`] clears it but keeps its
/// capacity, so a decode loop allocates event storage once per worker
/// instead of once per frame.
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

    /// Empty the batch, keeping its buffers' capacity for reuse.
    pub fn clear(&mut self) {
        self.seed = None;
        self.continuation = false;
        self.events.clear();
        self.incidents.clear();
    }
}

/// Reusable working storage for [`decode_frame_into`]: holds the inflated
/// frame body so consecutive frames share one decompression buffer, and
/// the decoder's one-entry file-name cache.
#[derive(Debug, Default)]
pub struct FrameScratch {
    raw: Vec<u8>,
    files: FileCache,
}

impl FrameScratch {
    /// Fresh scratch space.
    pub fn new() -> FrameScratch {
        FrameScratch::default()
    }
}

/// Decode one frame located by [`scan_layout`] straight into a reusable
/// [`FrameBatch`], sharing the validation loop (and error messages) of
/// the streaming readers without materializing a `Vec<HbtRecord>`.
/// Frames decode independently. On error the batch holds partial
/// contents; the next call clears it.
pub fn decode_frame_into(
    bytes: &[u8],
    frame: &FrameLoc,
    scratch: &mut FrameScratch,
    batch: &mut FrameBatch,
) -> Result<(), HomeError> {
    batch.clear();
    batch.seed = frame.entry.seed;
    batch.continuation = frame.entry.continuation;
    let start = frame.entry.offset;
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
    batch.events.reserve(cap(frame.entry.events));
    batch.incidents.reserve(cap(frame.entry.incidents));
    let raw: &[u8] = if frame.compressed {
        lz::decompress_into(stored, frame.entry.raw_len as usize, &mut scratch.raw).map_err(
            |e| {
                HomeError::corrupt_trace(format!(
                    "corrupt compressed HBT frame at byte {start}: {e}"
                ))
            },
        )?;
        &scratch.raw
    } else {
        stored
    };
    let (events, incidents) = (&mut batch.events, &mut batch.incidents);
    walk_frame_body(
        raw,
        frame.entry.events,
        frame.entry.incidents,
        start,
        &mut scratch.files,
        |record| match record {
            HbtRecord::Event(e) => events.push(e),
            HbtRecord::Incident(i) => incidents.push(i),
            // walk_frame_body only yields EVENT/INCIDENT records (any
            // other kind byte is a decode error before the sink runs).
            _ => {}
        },
    )
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

// ---------------------------------------------------------------------------
// mmap reader
// ---------------------------------------------------------------------------

/// Minimal raw bindings for read-only file mapping. The workspace has no
/// `libc` dependency, so the two symbols needed are declared directly;
/// `PROT_READ`/`MAP_PRIVATE` have these values on every platform this
/// builds for (Linux, macOS, BSDs).
///
/// The crate denies `unsafe_code`; this module is its one exception, and
/// every `unsafe` site of the mapping lives in it: [`Mapping`] owns the
/// pointer, so safe code outside can neither forge nor outlive one.
#[cfg(unix)]
#[allow(unsafe_code)]
mod mmap_sys {
    use std::os::unix::io::RawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    /// A live read-only private mapping of `len` bytes, unmapped on drop.
    #[derive(Debug)]
    pub struct Mapping {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ + MAP_PRIVATE, so the pointed-to
    // bytes are immutable for the lifetime of the value; sharing it across
    // threads is no different from sharing a `&[u8]`.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Map `len` bytes of `fd` read-only and private. Returns `None`
        /// if the kernel refuses; the caller falls back to buffered reads.
        /// `len` must be nonzero (zero-length mappings are `EINVAL`).
        pub fn new(fd: RawFd, len: usize) -> Option<Mapping> {
            // SAFETY: a fresh mapping at an address the kernel picks
            // aliases no Rust object; a bad `fd` or `len` makes the call
            // fail, which is checked below.
            let ptr = unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, fd, 0) };
            // MAP_FAILED is (void *)-1; a null return would also be unusable.
            if ptr as isize == -1 || ptr.is_null() {
                None
            } else {
                let ptr = ptr as *const u8;
                Some(Mapping { ptr, len })
            }
        }

        pub fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, valid until `self` drops.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // A failed munmap leaks the mapping until process exit; there
            // is nothing more useful to do from a destructor.
            // SAFETY: `ptr`/`len` are exactly what `mmap` returned, and no
            // borrow of the bytes outlives `self`.
            unsafe { munmap(self.ptr as *mut core::ffi::c_void, self.len) };
        }
    }
}

#[derive(Debug)]
enum MapBacking {
    /// A live read-only mapping, unmapped on drop.
    #[cfg(unix)]
    Mapped(mmap_sys::Mapping),
    /// Fallback: file contents read into memory (empty files — a
    /// zero-length mmap is an error — and non-unix platforms).
    Buffered(Vec<u8>),
}

/// A memory-mapped HBT trace file, decoded zero-copy.
///
/// `open` maps the file read-only (falling back to a buffered read if the
/// kernel refuses or the file is empty) and [`sections`](Self::sections)
/// decodes records straight out of the mapping via [`HbtSliceReader`] —
/// replaying a large recording touches each page once, demand-paged, with
/// no up-front read of the whole file into the heap.
#[derive(Debug)]
pub struct HbtMmapReader {
    backing: MapBacking,
    path: String,
}

impl HbtMmapReader {
    /// Map `path` read-only. I/O failures become [`HomeError::TraceParse`]
    /// naming the file, so CLI diagnostics stay one-line and typed.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, HomeError> {
        let path = path.as_ref();
        let display = path.display().to_string();
        let file = std::fs::File::open(path)
            .map_err(|e| HomeError::trace_parse(format!("cannot open {display}: {e}")))?;
        let meta = file
            .metadata()
            .map_err(|e| HomeError::trace_parse(format!("cannot stat {display}: {e}")))?;
        let len = usize::try_from(meta.len())
            .map_err(|_| HomeError::trace_parse(format!("{display} is too large to map")))?;
        #[cfg(unix)]
        if len > 0 {
            use std::os::unix::io::AsRawFd;
            if let Some(mapping) = mmap_sys::Mapping::new(file.as_raw_fd(), len) {
                return Ok(HbtMmapReader {
                    backing: MapBacking::Mapped(mapping),
                    path: display,
                });
            }
        }
        let mut bytes = Vec::with_capacity(len);
        let mut file = file;
        file.read_to_end(&mut bytes)
            .map_err(|e| HomeError::trace_parse(format!("cannot read {display}: {e}")))?;
        Ok(HbtMmapReader {
            backing: MapBacking::Buffered(bytes),
            path: display,
        })
    }

    /// The raw mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            MapBacking::Mapped(mapping) => mapping.bytes(),
            MapBacking::Buffered(bytes) => bytes,
        }
    }

    /// The path this reader was opened from.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// True if the mapped file starts with the HBT magic.
    pub fn is_hbt(&self) -> bool {
        is_hbt(self.bytes())
    }

    /// True if the kernel mapping succeeded (false means the buffered
    /// fallback is in use).
    pub fn is_mapped(&self) -> bool {
        #[cfg(unix)]
        {
            matches!(self.backing, MapBacking::Mapped(_))
        }
        #[cfg(not(unix))]
        {
            false
        }
    }

    /// A zero-copy record iterator over the mapping.
    pub fn records(&self) -> Result<HbtSliceReader<'_>, HomeError> {
        HbtSliceReader::new(self.bytes())
    }

    /// Decode the whole mapping into trace sections.
    pub fn sections(&self) -> Result<Vec<HbtSection>, HomeError> {
        decode_sections(self.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event(seq: u64) -> Event {
        Event {
            seq,
            rank: Rank(1),
            tid: Tid(2),
            region: Some(RegionId(3)),
            time_ns: 400,
            loc: Some(SrcLoc::new("x.hmp", 9)),
            kind: EventKind::Barrier {
                barrier: BarrierId(0),
                epoch: 1,
            },
        }
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cur = Cur {
                buf: &buf,
                pos: 0,
                base: 0,
            };
            assert_eq!(cur.varint("v").unwrap(), v);
            assert_eq!(cur.pos, buf.len());
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, -2, i64::from(i32::MIN), i64::from(i32::MAX)] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn trace_roundtrip() {
        let trace = Trace::from_events(vec![sample_event(0), sample_event(1)]);
        let bytes = encode_trace(&trace);
        assert!(is_hbt(&bytes));
        let sections = decode_sections(&bytes).unwrap();
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].seed, None);
        assert_eq!(sections[0].trace.events(), trace.events());
    }

    #[test]
    fn multi_section_roundtrip() {
        let mut w = HbtWriter::new(Vec::new()).unwrap();
        w.begin_run(7).unwrap();
        w.write_event(&sample_event(0)).unwrap();
        w.write_incident(&TraceIncident {
            rank: 1,
            line: 12,
            call: "MPI_Recv".into(),
            error: "boom".into(),
        })
        .unwrap();
        w.begin_run(8).unwrap();
        w.write_event(&sample_event(1)).unwrap();
        let bytes = w.finish().unwrap();
        let sections = decode_sections(&bytes).unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].seed, Some(7));
        assert_eq!(sections[0].incidents.len(), 1);
        assert_eq!(sections[1].seed, Some(8));
        assert_eq!(sections[1].trace.events().len(), 1);
    }

    #[test]
    fn empty_stream_has_no_sections() {
        let trace = Trace::default();
        let bytes = encode_trace(&trace);
        assert_eq!(decode_sections(&bytes).unwrap().len(), 0);
    }

    #[test]
    fn bad_magic_is_typed_error() {
        let err = decode_sections(b"not hbt at all").unwrap_err();
        assert!(matches!(err, HomeError::CorruptTrace { .. }), "{err:?}");
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let trace = Trace::from_events(vec![sample_event(0)]);
        let bytes = encode_trace(&trace);
        for cut in 0..bytes.len() {
            let err = decode_sections(&bytes[..cut])
                .err()
                .unwrap_or_else(|| panic!("prefix of {cut} bytes decoded cleanly"));
            assert!(
                matches!(
                    err,
                    HomeError::TraceParse { .. } | HomeError::CorruptTrace { .. }
                ),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn slice_reader_matches_buffered_reader() {
        let mut w = HbtWriter::new(Vec::new()).unwrap();
        w.begin_run(7).unwrap();
        w.write_event(&sample_event(0)).unwrap();
        w.write_event(&sample_event(1)).unwrap();
        w.write_incident(&TraceIncident {
            rank: 1,
            line: 12,
            call: "MPI_Recv".into(),
            error: "boom".into(),
        })
        .unwrap();
        let bytes = w.finish().unwrap();

        let mut buffered = HbtReader::new(&bytes[..]).unwrap();
        let mut sliced = HbtSliceReader::new(&bytes).unwrap();
        loop {
            let a = buffered.next_record().unwrap();
            let b = sliced.next_record().unwrap();
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn slice_reader_truncation_errors_match_buffered() {
        let trace = Trace::from_events(vec![sample_event(0)]);
        let bytes = encode_trace(&trace);
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            let buffered = drain(HbtReader::new(prefix).and_then(|mut r| loop {
                if r.next_record()?.is_none() {
                    return Ok(());
                }
            }));
            let sliced = drain(HbtSliceReader::new(prefix).and_then(|mut r| loop {
                if r.next_record()?.is_none() {
                    return Ok(());
                }
            }));
            assert_eq!(buffered, sliced, "cut {cut}");
        }
    }

    fn drain(result: Result<(), HomeError>) -> String {
        match result {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("{e}"),
        }
    }

    #[test]
    fn mmap_reader_sections_match_decode_sections() {
        let mut w = HbtWriter::new(Vec::new()).unwrap();
        w.begin_run(42).unwrap();
        w.write_event(&sample_event(0)).unwrap();
        w.write_event(&sample_event(1)).unwrap();
        let bytes = w.finish().unwrap();
        let path = std::env::temp_dir().join(format!("hbt_mmap_test_{}.hbt", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let reader = HbtMmapReader::open(&path).unwrap();
        assert!(reader.is_hbt());
        assert_eq!(reader.bytes(), &bytes[..]);
        let mapped = reader.sections().unwrap();
        let buffered = decode_sections(&bytes).unwrap();
        assert_eq!(mapped.len(), buffered.len());
        for (m, b) in mapped.iter().zip(&buffered) {
            assert_eq!(m.seed, b.seed);
            assert_eq!(m.trace.events(), b.trace.events());
        }
        drop(reader);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_reader_empty_file_falls_back() {
        let path = std::env::temp_dir().join(format!("hbt_mmap_empty_{}.hbt", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let reader = HbtMmapReader::open(&path).unwrap();
        assert!(!reader.is_mapped(), "zero-length files cannot be mapped");
        assert!(reader.bytes().is_empty());
        assert!(reader.sections().is_err(), "empty input is a typed error");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_reader_missing_file_is_typed_error() {
        let err = HbtMmapReader::open("/nonexistent/definitely/missing.hbt").unwrap_err();
        assert!(matches!(err, HomeError::TraceParse { .. }), "{err:?}");
    }

    /// Record the same two-section trace through both writers; the v2
    /// stream must decode to identical sections.
    fn twin_streams() -> (Vec<u8>, Vec<u8>) {
        let mut v1 = HbtWriter::new(Vec::new()).unwrap();
        let mut v2 = HbtWriter::new_compressed(Vec::new()).unwrap();
        for w in [&mut v1, &mut v2] {
            w.begin_run(7).unwrap();
            for seq in 0..100 {
                w.write_event(&sample_event(seq)).unwrap();
            }
            w.write_incident(&TraceIncident {
                rank: 1,
                line: 12,
                call: "MPI_Recv".into(),
                error: "boom".into(),
            })
            .unwrap();
            w.begin_run(8).unwrap();
            w.write_event(&sample_event(100)).unwrap();
        }
        (v1.finish().unwrap(), v2.finish().unwrap())
    }

    fn assert_same_sections(a: &[HbtSection], b: &[HbtSection]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.trace.events(), y.trace.events());
            assert_eq!(x.incidents, y.incidents);
        }
    }

    #[test]
    fn v2_roundtrip_matches_v1_sections() {
        let (v1, v2) = twin_streams();
        assert!(v2.len() < v1.len(), "{} vs {}", v2.len(), v1.len());
        assert_same_sections(
            &decode_sections(&v1).unwrap(),
            &decode_sections(&v2).unwrap(),
        );
    }

    #[test]
    fn v2_streaming_reader_matches_slice_reader() {
        let (_, v2) = twin_streams();
        let mut buffered = HbtReader::new(&v2[..]).unwrap();
        let mut sliced = HbtSliceReader::new(&v2).unwrap();
        loop {
            let a = buffered.next_record().unwrap();
            let b = sliced.next_record().unwrap();
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn v2_every_truncation_is_a_typed_error() {
        let (_, v2) = twin_streams();
        for cut in 0..v2.len() {
            let err = decode_sections(&v2[..cut])
                .err()
                .unwrap_or_else(|| panic!("prefix of {cut} bytes decoded cleanly"));
            assert!(
                matches!(
                    err,
                    HomeError::TraceParse { .. } | HomeError::CorruptTrace { .. }
                ),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn v2_giant_section_splits_into_continuation_frames() {
        let mut w = HbtWriter::new_compressed(Vec::new()).unwrap();
        w.begin_run(3).unwrap();
        // Enough events to overflow FRAME_TARGET several times over.
        let n = (FRAME_TARGET / 8) as u64;
        for seq in 0..n {
            w.write_event(&sample_event(seq)).unwrap();
        }
        let bytes = w.finish().unwrap();
        let layout = scan_layout(&bytes).unwrap().unwrap();
        assert!(layout.frames.len() > 1, "{} frame(s)", layout.frames.len());
        assert_eq!(layout.frames[0].entry.seed, Some(3));
        assert!(layout.frames[1].entry.continuation);
        assert_eq!(layout.frames.iter().map(|f| f.entry.events).sum::<u64>(), n);
        // Frame-by-frame decode stitches back to the serial result.
        assert_same_sections(
            &stitch_frames(&bytes, &layout),
            &decode_sections(&bytes).unwrap(),
        );
    }

    fn stitch_frames(bytes: &[u8], layout: &HbtLayout) -> Vec<HbtSection> {
        let mut scratch = FrameScratch::new();
        sections_from_batches(layout.frames.iter().map(|frame| {
            let mut batch = FrameBatch::new();
            decode_frame_into(bytes, frame, &mut scratch, &mut batch).unwrap();
            batch
        }))
    }

    #[test]
    fn scan_layout_returns_none_for_v1() {
        let (v1, v2) = twin_streams();
        assert!(scan_layout(&v1).unwrap().is_none());
        let layout = scan_layout(&v2).unwrap().unwrap();
        assert_eq!(layout.frames.len(), 2);
        assert_same_sections(&stitch_frames(&v2, &layout), &decode_sections(&v2).unwrap());
    }

    #[test]
    fn v2_empty_stream_roundtrips() {
        let w = HbtWriter::new_compressed(Vec::new()).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(decode_sections(&bytes).unwrap().len(), 0);
        assert!(scan_layout(&bytes).unwrap().unwrap().frames.is_empty());
    }

    #[test]
    fn v2_empty_run_section_keeps_its_seed() {
        let mut w = HbtWriter::new_compressed(Vec::new()).unwrap();
        w.begin_run(11).unwrap();
        w.begin_run(12).unwrap();
        w.write_event(&sample_event(0)).unwrap();
        let bytes = w.finish().unwrap();
        let sections = decode_sections(&bytes).unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].seed, Some(11));
        assert_eq!(sections[0].trace.events().len(), 0);
        assert_eq!(sections[1].seed, Some(12));
    }

    #[test]
    fn v2_kinds_in_v1_stream_are_typed_errors() {
        for kind in [REC_FRAME, REC_INDEX] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&HBT_MAGIC);
            bytes.push(HBT_VERSION);
            bytes.push(2); // record length
            bytes.push(kind);
            bytes.push(0); // flags / count
            bytes.push(0); // end marker
            let err = decode_sections(&bytes).unwrap_err();
            let msg = format!("{err}");
            assert!(msg.contains("v2 record kind"), "kind {kind}: {msg}");
            assert!(msg.contains("byte"), "kind {kind}: {msg}");
        }
    }

    #[test]
    fn v2_stream_without_index_is_rejected() {
        let (_, v2) = twin_streams();
        // Locate every record; drop the INDEX one and re-splice.
        let mut pos = 5usize;
        let mut out: Vec<u8> = v2[..5].to_vec();
        loop {
            let start = pos;
            let len = scan_varint(&v2, &mut pos, "len").unwrap();
            if len == 0 {
                out.push(0);
                break;
            }
            let end = pos + len as usize;
            if v2[pos] != REC_INDEX {
                out.extend_from_slice(&v2[start..end]);
            }
            pos = end;
        }
        let err = decode_sections(&out).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("without a seek index"), "{msg}");
        assert!(msg.contains("byte"), "{msg}");
    }
}
