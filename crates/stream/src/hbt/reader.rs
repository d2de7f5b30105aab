//! The one HBT reader: a record walker over two byte sources.
//!
//! What a structurally valid stream is — header, record framing, the
//! length cap, what may follow the seek index and the manifest, index ≡
//! frames, manifest ≡ sections, the end marker — is decided in
//! [`HbtReader::walk`] and nowhere else. [`HbtReader::next_record`] is
//! that loop inflating frames; [`scan_layout`](super::scan_layout) is the
//! same loop over frame headers only. A reader that reaches the end marker
//! has validated the stream: there is no checker for callers to drive
//! beside it.

use super::format::{
    decode_body, decode_frame_header, decode_index_entries, varint_from, Cur, FileCache, HbtRecord,
    HbtSection, IndexEntry, HBT_MAGIC, HBT_V2, HBT_VERSION, MAX_RECORD_LEN, REC_FRAME, REC_INDEX,
    REC_MANIFEST,
};
use super::layout::{inflate_frame, FrameLoc, FrameScratch, FrameSink};
use home_trace::{Event, HomeError, Trace, TraceIncident};
use std::collections::VecDeque;
use std::io::{self, Read};

/// A [`Source::Read`] pulls its input through the buffer in steps of this
/// size, so a record length that lies about the remaining input allocates
/// at most one step beyond the bytes actually present before the
/// truncation is detected.
const READ_CHUNK: usize = 64 * 1024;

/// Where the walker's bytes come from.
#[derive(Debug)]
enum Source<'a, R> {
    /// The whole stream in memory (a file read whole, a buffered
    /// submission): holds the unread remainder, and records are decoded
    /// in place, zero-copy.
    Slice(&'a [u8]),
    /// Any [`io::Read`] (a pipe, a socket), pulled through one reusable
    /// buffer whose unread bytes are `buf[lo..hi]`. Memory is bounded by
    /// the largest record, not by the stream.
    Read {
        r: R,
        buf: Vec<u8>,
        lo: usize,
        hi: usize,
    },
}

impl<R: Read> Source<'_, R> {
    /// The unread bytes at hand: all of a slice, what a reader has buffered.
    fn ready(&self) -> &[u8] {
        match self {
            Source::Slice(rest) => rest,
            Source::Read { buf, lo, hi, .. } => &buf[*lo..*hi],
        }
    }

    /// Pull input until `len` bytes are at hand, contiguous; `Ok(false)`
    /// when the input ends first.
    fn fill(&mut self, len: usize) -> io::Result<bool> {
        let Source::Read { r, buf, lo, hi } = self else {
            return Ok(false);
        };
        buf.copy_within(*lo..*hi, 0);
        *hi -= *lo;
        *lo = 0;
        while *hi < len {
            // `len` is attacker-controlled: make room for one more chunk,
            // never for `len`.
            if buf.len() < *hi + READ_CHUNK {
                buf.resize(*hi + READ_CHUNK, 0);
            }
            match r.read(&mut buf[*hi..]) {
                Ok(0) => return Ok(false),
                Ok(n) => *hi += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Consume the next `len` bytes, which must be [`ready`](Self::ready).
    fn consume(&mut self, len: usize) -> &[u8] {
        match self {
            Source::Slice(rest) => {
                let (head, tail) = rest.split_at(len);
                *rest = tail;
                head
            }
            Source::Read { buf, lo, .. } => {
                *lo += len;
                &buf[*lo - len..*lo]
            }
        }
    }
}

/// A [`Source`] and how far into the stream it has been consumed, so every
/// error names an absolute byte offset.
#[derive(Debug)]
struct Input<'a, R> {
    source: Source<'a, R>,
    offset: u64,
}

impl<R: Read> Input<'_, R> {
    /// The next `len` bytes of the stream as one slice.
    fn take(&mut self, len: usize, what: &str) -> Result<&[u8], HomeError> {
        if self.source.ready().len() < len {
            match self.source.fill(len) {
                Ok(true) => {}
                Ok(false) => {
                    return Err(HomeError::trace_parse(format!(
                        "truncated HBT stream: unexpected end of input in {what} at byte {}",
                        self.offset
                    )))
                }
                Err(e) => {
                    return Err(HomeError::trace_parse(format!(
                        "I/O error reading HBT stream at byte {}: {e}",
                        self.offset + self.source.ready().len() as u64
                    )))
                }
            }
        }
        self.offset += len as u64;
        Ok(self.source.consume(len))
    }

    fn varint(&mut self, what: &str) -> Result<u64, HomeError> {
        varint_from(|| self.take(1, what).map(|b| b[0]))?.ok_or_else(|| {
            HomeError::corrupt_trace(format!(
                "varint overflow in {what} at byte {}",
                self.offset - 1
            ))
        })
    }
}

/// The stream's sections as the walk observes them, held against the
/// trailing manifest at the end marker. It enforces three properties:
///
/// 1. the manifest, when present, is the final record;
/// 2. the declared section count and per-section seeds match the sections
///    actually observed;
/// 3. any stream containing `RUN` records ends with a manifest at all — a
///    multi-run recording truncated at a section boundary (and patched
///    with a forged end marker) is rejected, never silently shortened.
#[derive(Debug, Default)]
struct ManifestCheck {
    /// One entry per section, in stream order: the seed that opened it
    /// (`None` for the anonymous section) and the records it holds.
    observed: Vec<(Option<u64>, u64)>,
    manifest: Option<Vec<Option<u64>>>,
}

impl ManifestCheck {
    /// True once any section has started (sections never close: the next
    /// one starts, or the stream ends).
    fn open(&self) -> bool {
        !self.observed.is_empty()
    }

    /// A `RUN` record or a frame that does not continue its predecessor.
    fn begin(&mut self, seed: Option<u64>) {
        self.observed.push((seed, 0));
    }

    /// `n` body records; the first before any `RUN` opens the anonymous
    /// section.
    fn records(&mut self, n: u64) {
        if !self.open() {
            self.begin(None);
        }
        if let Some(section) = self.observed.last_mut() {
            // Counts come from frame headers: hostile, so no overflow.
            section.1 = section.1.saturating_add(n);
        }
    }

    /// Validate at the end marker, which sits before byte `offset`.
    fn finish(&self, offset: u64) -> Result<(), HomeError> {
        let Some(declared) = &self.manifest else {
            if self.observed.iter().any(|(seed, _)| seed.is_some()) {
                return Err(HomeError::corrupt_trace(format!(
                    "HBT stream with {} recorded section(s) ends without a section manifest (truncated at a section boundary?) at byte {offset}",
                    self.observed.len()
                )));
            }
            return Ok(());
        };
        let miscounted = |contained: usize| {
            HomeError::corrupt_trace(format!(
                "HBT manifest declares {} section(s) but the stream contains {contained} at byte {offset}",
                declared.len()
            ))
        };
        if declared.len() != self.observed.len() {
            return Err(miscounted(self.observed.len()));
        }
        for (i, (d, (o, _))) in declared.iter().zip(&self.observed).enumerate() {
            if d != o {
                return Err(HomeError::corrupt_trace(format!(
                    "HBT manifest seed list disagrees with the stream: section {i} declared {} but the stream has {} at byte {offset}",
                    seed_name(*d),
                    seed_name(*o)
                )));
            }
        }
        // An anonymous frame starts a section even when it stores no
        // record, yet an anonymous section exists only through its
        // records: such a frame that no continuation ever fills
        // contradicts every manifest, the one that counts it included.
        let filled = self
            .observed
            .iter()
            .filter(|(seed, records)| seed.is_some() || *records > 0)
            .count();
        if declared.len() != filled {
            return Err(miscounted(filled));
        }
        Ok(())
    }
}

fn seed_name(seed: Option<u64>) -> String {
    match seed {
        Some(s) => format!("seed {s}"),
        None => "an anonymous section".to_string(),
    }
}

/// Reject a seek index that disagrees with the frames actually observed
/// in the stream — a lying offset, seed, count, or length never reaches
/// the parallel decode path.
fn check_index(declared: &[IndexEntry], observed: &[FrameLoc], at: u64) -> Result<(), HomeError> {
    if declared.len() != observed.len() {
        return Err(HomeError::corrupt_trace(format!(
            "HBT seek index declares {} frame(s) but the stream contains {} at byte {at}",
            declared.len(),
            observed.len()
        )));
    }
    for (i, (d, o)) in declared.iter().zip(observed).enumerate() {
        let o = &o.entry;
        if d != o {
            return Err(HomeError::corrupt_trace(format!(
                "HBT seek index entry {i} disagrees with the stream: declared {d:?} \
                 but observed {o:?} at byte {at}"
            )));
        }
    }
    Ok(())
}

impl FrameSink for VecDeque<HbtRecord> {
    // Left out of line, the push costs a pipe some 7 ns an event.
    #[inline]
    fn event(&mut self, cur: &mut Cur<'_>, files: &mut FileCache) -> Result<(), HomeError> {
        self.push_back(HbtRecord::Event(cur.event(files)?));
        Ok(())
    }

    fn incident(&mut self, incident: TraceIncident) {
        self.push_back(HbtRecord::Incident(incident));
    }
}

/// The HBT reader: yields a stream's records one at a time from a byte
/// slice ([`HbtReader::from_slice`], zero-copy) or from any [`io::Read`]
/// ([`HbtReader::new`], bounded memory), tracking the absolute byte offset
/// so every error points at the offending byte. v1 and v2 streams are both
/// accepted: frames are inflated internally and yielded as the equivalent
/// `RUN`/`EVENT`/`INCIDENT` records.
///
/// The reader is the validator: the seek index is held against the frames
/// and the manifest against the sections as they go by, so
/// `while let Some(record) = reader.next_record()? { .. }` returning is
/// proof the stream is whole. After an error the position is unspecified;
/// `Ok(None)` is only ever the answer of a stream that passed.
#[derive(Debug)]
pub struct HbtReader<'a, R = io::Empty> {
    input: Input<'a, R>,
    version: u8,
    finished: bool,
    /// Every frame observed, in stream order: what the seek index is
    /// checked against, and what a headers-only walk is run for.
    frames: Vec<FrameLoc>,
    index_seen: bool,
    /// Set by a headers-only walk that met a plain body record.
    unframed: bool,
    sections: ManifestCheck,
    /// Records of the most recent frame, not yet yielded.
    pending: VecDeque<HbtRecord>,
    scratch: FrameScratch,
}

impl<'a> HbtReader<'a> {
    /// Open a reader over a stream held in memory, validating the
    /// magic/version header.
    pub fn from_slice(bytes: &'a [u8]) -> Result<Self, HomeError> {
        Self::open(Source::Slice(bytes))
    }
}

impl<R: Read> HbtReader<'static, R> {
    /// Open a reader over a stream that arrives through `r`, validating
    /// the magic/version header. `r` is read in large steps: wrapping it
    /// in a `BufReader` gains nothing.
    pub fn new(r: R) -> Result<Self, HomeError> {
        Self::open(Source::Read {
            r,
            buf: Vec::new(),
            lo: 0,
            hi: 0,
        })
    }
}

impl<'a, R: Read> HbtReader<'a, R> {
    fn open(source: Source<'a, R>) -> Result<Self, HomeError> {
        let mut input = Input { source, offset: 0 };
        let header = input.take(HBT_MAGIC.len() + 1, "HBT header")?;
        let (magic, version) = header.split_at(HBT_MAGIC.len());
        if magic != HBT_MAGIC {
            return Err(HomeError::corrupt_trace(
                "not an HBT stream: bad magic bytes",
            ));
        }
        let version = version[0];
        if version != HBT_VERSION && version != HBT_V2 {
            return Err(HomeError::corrupt_trace(format!(
                "unsupported HBT version {version} (expected {HBT_VERSION} or {HBT_V2}) at byte 4"
            )));
        }
        Ok(HbtReader {
            input,
            version,
            finished: false,
            frames: Vec::new(),
            index_seen: false,
            unframed: false,
            sections: ManifestCheck::default(),
            pending: VecDeque::new(),
            scratch: FrameScratch::new(),
        })
    }

    /// The stream's version byte.
    pub(super) fn version(&self) -> u8 {
        self.version
    }

    /// The frames walked, unless the walk met a plain body record.
    pub(super) fn into_frames(self) -> Option<Vec<FrameLoc>> {
        (!self.unframed).then_some(self.frames)
    }

    /// Bytes of the stream consumed so far.
    pub fn offset(&self) -> u64 {
        self.input.offset
    }

    /// Read the next record, or `Ok(None)` at the end marker of a stream
    /// that validated. Every malformed or truncated input yields a typed
    /// error. v2 frames are inflated and yielded as their synthesized
    /// `RUN`/`EVENT`/`INCIDENT` records.
    pub fn next_record(&mut self) -> Result<Option<HbtRecord>, HomeError> {
        self.walk(true)
    }

    /// The walk. With `inflate`, a frame's records are decoded into the
    /// pending queue and yielded. Without, frames are only located
    /// ([`FrameLoc`]), and the first plain body record ends the walk early,
    /// undecoded, with [`unframed`](Self::unframed) set: the stream is not
    /// made of frames alone.
    pub(super) fn walk(&mut self, inflate: bool) -> Result<Option<HbtRecord>, HomeError> {
        loop {
            if let Some(record) = self.pending.pop_front() {
                return Ok(Some(record));
            }
            if self.finished {
                return Ok(None);
            }
            let start = self.input.offset;
            let len = self.input.varint("record length (or missing end marker)")?;
            if len == 0 {
                // A frame-bearing stream must carry its seek index, the
                // same way a `RUN`-bearing stream must carry a manifest.
                if !self.frames.is_empty() && !self.index_seen {
                    return Err(HomeError::corrupt_trace(format!(
                        "HBT stream with {} compressed frame(s) ends without a seek index at byte {}",
                        self.frames.len(),
                        self.input.offset
                    )));
                }
                self.sections.finish(self.input.offset)?;
                self.finished = true;
                return Ok(None);
            }
            if len > MAX_RECORD_LEN {
                return Err(HomeError::corrupt_trace(format!(
                    "HBT record length {len} exceeds limit at byte {}",
                    self.input.offset
                )));
            }
            let base = self.input.offset;
            let end = base + len;
            let mut cur = Cur::new(self.input.take(len as usize, "record payload")?, base);
            let kind = cur.u8("record kind")?;
            let version = self.version;
            if version < HBT_V2 && (kind == REC_FRAME || kind == REC_INDEX) {
                return Err(cur.corrupt(format_args!(
                    "HBT v2 record kind {kind} in a version-{version} stream"
                )));
            }
            if self.index_seen && kind != REC_MANIFEST && kind != REC_INDEX {
                return Err(
                    cur.corrupt(format_args!("HBT record kind {kind} after the seek index"))
                );
            }
            // What the physical record holds: a frame (located, and with
            // `inflate` its records queued) or one record to yield.
            let mut framed = None;
            let record = match kind {
                REC_FRAME => {
                    let (entry, compressed) =
                        decode_frame_header(&mut cur, start, self.sections.open())?;
                    // Offsets into a slice always fit; a `Read` source's
                    // are never used to index anything.
                    let body = cur.at() as usize..end as usize;
                    let stored = cur.rest();
                    if !compressed && stored.len() as u64 != entry.raw_len {
                        return Err(HomeError::corrupt_trace(format!(
                            "HBT frame at byte {start} declares {} uncompressed byte(s) but stores {}",
                            entry.raw_len,
                            stored.len()
                        )));
                    }
                    let frame = FrameLoc {
                        entry,
                        compressed,
                        body,
                    };
                    if inflate {
                        if let Some(seed) = entry.seed {
                            self.pending.push_back(HbtRecord::Run { seed });
                        }
                        inflate_frame(stored, &frame, &mut self.scratch, &mut self.pending)?;
                    }
                    self.frames.push(frame);
                    framed = Some(entry);
                    None
                }
                REC_INDEX => {
                    if self.index_seen {
                        return Err(cur.corrupt(format_args!("duplicate HBT seek index")));
                    }
                    let entries = decode_index_entries(&mut cur)?;
                    check_index(&entries, &self.frames, cur.at())?;
                    self.index_seen = true;
                    Some(HbtRecord::Index { entries })
                }
                // Also an invalid kind byte: the inflating walk rejects it.
                kind if !inflate && kind != REC_MANIFEST => {
                    self.unframed = true;
                    return Ok(None);
                }
                kind => Some(decode_body(kind, &mut cur, &mut self.scratch.files)?),
            };
            cur.expect_end()?;
            if self.sections.manifest.is_some() {
                return Err(HomeError::corrupt_trace(format!(
                    "HBT record after the section manifest at byte {end}"
                )));
            }
            match &record {
                Some(HbtRecord::Run { seed }) => self.sections.begin(Some(*seed)),
                Some(HbtRecord::Event(_) | HbtRecord::Incident(_)) => self.sections.records(1),
                Some(HbtRecord::Manifest { sections }) => {
                    self.sections.manifest = Some(sections.clone());
                }
                Some(HbtRecord::Index { .. }) => {}
                None => {
                    if let Some(entry) = framed {
                        if !entry.continuation {
                            self.sections.begin(entry.seed);
                        }
                        self.sections
                            .records(entry.events.saturating_add(entry.incidents));
                    }
                }
            }
            if record.is_some() {
                return Ok(record);
            }
        }
    }
}

/// Decode an HBT byte stream into its trace sections. Records appearing
/// before the first `RUN` record form an implicit anonymous section.
pub fn decode_sections(bytes: &[u8]) -> Result<Vec<HbtSection>, HomeError> {
    let mut reader = HbtReader::from_slice(bytes)?;
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
    while let Some(record) = reader.next_record()? {
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
    if open {
        flush(&mut seed, &mut events, &mut incidents, &mut sections);
    }
    Ok(sections)
}
