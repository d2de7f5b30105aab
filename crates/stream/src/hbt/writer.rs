//! The write side: the payload encoders and [`HbtWriter`], which sections
//! a stream, packs v2 frames, and closes with the seek index, the section
//! manifest and the end marker.

use super::format::{
    IndexEntry, TraceIncident, FRAME_COMPRESSED, FRAME_CONTINUATION, FRAME_HAS_SEED, HBT_MAGIC,
    HBT_V2, HBT_VERSION, REC_EVENT, REC_FRAME, REC_INCIDENT, REC_INDEX, REC_MANIFEST, REC_RUN,
};
use crate::lz;
use home_trace::{
    AccessKind, Event, EventKind, MemLoc, MonitoredVar, MpiCallRecord, ThreadLevel, Trace,
};
use std::io::{self, Write};

/// A v2 writer flushes the current section into a frame once this many
/// uncompressed bytes have accumulated, so giant sections split into
/// bounded, independently decodable (and parallelizable) frames.
pub(super) const FRAME_TARGET: usize = 256 * 1024;

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

pub(super) fn put_varint(buf: &mut Vec<u8>, v: u64) {
    let (bytes, n) = varint_bytes(v);
    buf.extend_from_slice(&bytes[..n]);
}

pub(super) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_bool(buf: &mut Vec<u8>, b: bool) {
    buf.push(u8::from(b));
}

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

fn put_call(buf: &mut Vec<u8>, c: &MpiCallRecord) {
    // The wire tag of a call kind is its discriminant: `format::CALL_KINDS`,
    // the decoder's table, lists the kinds in declaration order (the unit
    // test below holds it to that, and to listing every kind).
    buf.push(c.kind as u8);
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

/// Encode one v2 frame's header fields (never compressed) into `buf`;
/// the record bytes, stored as `is_compressed` says, follow it.
fn frame_header_into(buf: &mut Vec<u8>, entry: &IndexEntry, is_compressed: bool) {
    buf.push(REC_FRAME);
    let mut flags = 0u8;
    if entry.seed.is_some() {
        flags |= FRAME_HAS_SEED;
    }
    if is_compressed {
        flags |= FRAME_COMPRESSED;
    }
    if entry.continuation {
        flags |= FRAME_CONTINUATION;
    }
    buf.push(flags);
    if let Some(s) = entry.seed {
        put_varint(buf, s);
    }
    put_varint(buf, entry.events);
    put_varint(buf, entry.incidents);
    put_varint(buf, entry.raw_len);
}

/// Write one length-prefixed record, `head` then `body` (a frame's header
/// and its stored bytes; every other record is all `head`); returns its
/// size on the wire.
fn put_record(w: &mut impl Write, head: &[u8], body: &[u8]) -> io::Result<u64> {
    let (len, n) = varint_bytes((head.len() + body.len()) as u64);
    w.write_all(&len[..n])?;
    w.write_all(head)?;
    w.write_all(body)?;
    Ok((n + head.len() + body.len()) as u64)
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
    /// The one compressor every frame goes through and the block it last
    /// produced: a frame allocates neither a match table nor a payload.
    lz: lz::Compressor,
    packed: Vec<u8>,
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
                lz: lz::Compressor::default(),
                packed: Vec::new(),
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
        let n = put_record(&mut self.w, payload, &[])?;
        if let Some(st) = self.v2.as_mut() {
            st.written += n;
        }
        Ok(())
    }

    /// v2: write the buffered records as one frame — stored compressed
    /// only when that actually saves space — and remember its index entry.
    /// The header is encoded in `self.scratch`, which holds no record here.
    fn emit_frame(&mut self) -> io::Result<()> {
        let Some(st) = self.v2.as_mut() else {
            return Ok(());
        };
        let continuation = st.frame_emitted;
        let entry = IndexEntry {
            offset: st.written,
            seed: if continuation { None } else { st.seed },
            continuation,
            events: st.events,
            incidents: st.incidents,
            raw_len: st.buf.len() as u64,
        };
        st.lz.compress(&st.buf, &mut st.packed);
        let is_compressed = st.packed.len() < st.buf.len();
        self.scratch.clear();
        frame_header_into(&mut self.scratch, &entry, is_compressed);
        let stored = if is_compressed { &st.packed } else { &st.buf };
        let written = put_record(&mut self.w, &self.scratch, stored);
        // The frame is accounted for whether or not the write went through;
        // only the offset of what follows waits for it.
        st.index.push(entry);
        st.buf.clear();
        st.events = 0;
        st.incidents = 0;
        st.frame_emitted = true;
        st.written += written?;
        Ok(())
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
        let Some(st) = self.v2.as_mut() else {
            return put_record(&mut self.w, &self.scratch, &[]).map(drop);
        };
        put_varint(&mut st.buf, self.scratch.len() as u64);
        st.buf.extend_from_slice(&self.scratch);
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

#[cfg(test)]
mod tests {
    use super::super::format::CALL_KINDS;
    use home_trace::MpiCallKind::{self, *};

    #[test]
    fn call_kinds_lists_every_kind_at_its_discriminant() {
        for (i, kind) in CALL_KINDS.iter().enumerate() {
            assert_eq!(*kind as usize, i, "{kind:?} is out of declaration order");
        }
        // No wildcard arm: a new kind does not compile here until it is
        // named, which is the moment to append it to `CALL_KINDS` as well.
        // Until it is listed its tag is one the decoder rejects ("invalid
        // MPI call kind byte"), not `Init`'s.
        let named = |k: MpiCallKind| match k {
            Init | InitThread | Finalize | Send | Ssend | Recv | Isend | Irecv | Sendrecv
            | Wait | Test | Waitall | Probe | Iprobe | Barrier | Bcast | Reduce | Allreduce
            | Gather | Scatter | Allgather | Alltoall | CommDup | CommSplit => k as usize,
        };
        assert_eq!(CALL_KINDS.len(), named(CommSplit) + 1);
    }
}
