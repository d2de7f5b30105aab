//! The wire format: the constants, the record types a reader yields, the
//! call-kind table both directions share, and the payload decoders — pure
//! functions from one record's bytes to its value, no I/O and no stream
//! state. The encoders live with the writer.

use home_trace::{
    AccessKind, BarrierId, CommId, Event, EventKind, HomeError, LockId, MemLoc, MonitoredVar,
    MpiCallKind, MpiCallRecord, Rank, RegionId, ReqId, SrcLoc, ThreadLevel, Tid, Trace,
    TraceIncident, VarId,
};
use std::fmt;
use std::str::Utf8Error;
use std::sync::Arc;

/// The four magic bytes opening every HBT stream.
pub const HBT_MAGIC: [u8; 4] = [0x89, b'H', b'B', b'T'];

/// Version byte of classic uncompressed streams (one record per event).
pub const HBT_VERSION: u8 = 1;

/// Version byte of compressed, seek-indexed streams (what `home record`
/// writes).
pub const HBT_V2: u8 = 2;

/// Hard ceiling on a single record's payload, to reject corrupt lengths
/// before attempting a giant allocation.
pub const MAX_RECORD_LEN: u64 = 1 << 28;

pub(super) const REC_RUN: u8 = 1;
pub(super) const REC_EVENT: u8 = 2;
pub(super) const REC_INCIDENT: u8 = 3;
pub(super) const REC_MANIFEST: u8 = 4;
pub(super) const REC_FRAME: u8 = 5;
pub(super) const REC_INDEX: u8 = 6;

/// Frame flag bits (see the module docs for the v2 frame layout).
pub(super) const FRAME_HAS_SEED: u8 = 1;
pub(super) const FRAME_COMPRESSED: u8 = 2;
pub(super) const FRAME_CONTINUATION: u8 = 4;

/// Does `bytes` start with the HBT magic? Used by the CLI to auto-detect
/// HBT vs JSON input.
pub fn is_hbt(bytes: &[u8]) -> bool {
    bytes.len() >= HBT_MAGIC.len() && bytes[..HBT_MAGIC.len()] == HBT_MAGIC
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

pub(super) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The byte-at-a-time LEB128 decoder the reader frames records with: pulls
/// bytes from `next` until the value is complete. `Ok(None)` is a varint
/// that does not fit 64 bits; the caller words that error. A payload field
/// is read by [`Cur::varint`] from the bytes at hand, to the same values and
/// faults.
pub(super) fn varint_from<E>(mut next: impl FnMut() -> Result<u8, E>) -> Result<Option<u64>, E> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = next()?;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Ok(None);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(Some(v));
        }
        shift += 7;
    }
}

/// All MPI call kinds in wire-tag order (the declaration order of
/// [`MpiCallKind`]); the wire tag is the index into this table.
pub(super) const CALL_KINDS: [MpiCallKind; 24] = [
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

/// The last source-file name a decoder produced. Every event of a run
/// names the same file, so handing out clones of the previous event's
/// `Arc<str>` turns the per-event name allocation into a refcount bump.
/// One entry on purpose: a hostile stream naming a new file per event
/// costs one allocation per event (what decoding cost before) and has no
/// table to grow. Owned by a [`FrameScratch`](super::FrameScratch) — never
/// shared or global.
#[derive(Debug, Default)]
pub(super) struct FileCache(Option<Arc<str>>);

impl FileCache {
    /// `name` is compared as bytes before it is validated: a hit was
    /// validated when it was cached, and almost every event is a hit.
    fn intern(&mut self, name: &[u8]) -> Result<Arc<str>, Utf8Error> {
        match &self.0 {
            Some(last) if same_bytes(last.as_bytes(), name) => Ok(Arc::clone(last)),
            _ => {
                let fresh: Arc<str> = Arc::from(std::str::from_utf8(name)?);
                self.0 = Some(Arc::clone(&fresh));
                Ok(fresh)
            }
        }
    }
}

/// The 7-bit groups of up to eight varint bytes in `word` (little-endian,
/// continuation bits clear or about to be), packed into one value: pairs of
/// groups, then pairs of pairs, then the two halves.
#[inline(always)]
fn pack_groups(word: u64) -> u64 {
    let w = word & 0x7f7f_7f7f_7f7f_7f7f;
    let w = (w & 0x007f_007f_007f_007f) | (w >> 1 & 0x3f80_3f80_3f80_3f80);
    let w = (w & 0x0000_3fff_0000_3fff) | (w >> 2 & 0x0fff_c000_0fff_c000);
    (w & 0x0000_0000_0fff_ffff) | (w >> 4 & 0x00ff_ffff_f000_0000)
}

/// `a == b` without a call: names of up to 32 bytes (every recorded
/// program's) are compared as two overlapping fixed-width words, which the
/// compiler turns into a few loads and compares where a slice compare of
/// unknown length calls `bcmp`.
#[inline]
fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    let n = a.len();
    n == b.len()
        && match n {
            0..=7 => a.iter().zip(b).all(|(x, y)| x == y),
            8..=16 => a[..8] == b[..8] && a[n - 8..][..8] == b[n - 8..][..8],
            17..=32 => a[..16] == b[..16] && a[n - 16..][..16] == b[n - 16..][..16],
            _ => a == b,
        }
}

/// Cursor over one record payload; `base` is the payload's absolute offset
/// in the stream, so errors report stream positions.
///
/// [`Cur::event_into`] reads a dozen fields per event, most of them one
/// byte long and two of them (`seq`, `time_ns`) several bytes in almost
/// every event: a call apiece, each handing its `Result` back through
/// memory, cost more than the reading. So every field reader is
/// `#[inline(always)]` and the event decoder is one body of loads, shifts
/// and compares: a varint is a word read ([`Cur::varint`]), and the file
/// name is compared with the slot's in line ([`same_bytes`]).
/// It pays only because no error is worded on the way: every message is
/// built by a `#[cold]` function that a valid stream never calls.
pub(super) struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Cur<'a> {
    pub(super) fn new(buf: &'a [u8], base: u64) -> Cur<'a> {
        Cur { buf, pos: 0, base }
    }

    /// Absolute stream offset of the next unread byte.
    pub(super) fn at(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Offset of the next unread byte within the payload.
    pub(super) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes of the payload not yet read.
    pub(super) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[cold]
    fn truncated(&self, what: &str) -> HomeError {
        HomeError::trace_parse(format!(
            "truncated HBT record: unexpected end of payload in {what} at byte {}",
            self.at()
        ))
    }

    #[cold]
    pub(super) fn corrupt(&self, msg: fmt::Arguments<'_>) -> HomeError {
        HomeError::corrupt_trace(format!("{msg} at byte {}", self.at()))
    }

    /// A record's payload must be used up by its decoder.
    pub(super) fn expect_end(&self) -> Result<(), HomeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(HomeError::corrupt_trace(format!(
                "HBT record has {n} trailing byte(s) at byte {}",
                self.at()
            ))),
        }
    }

    #[inline(always)]
    pub(super) fn u8(&mut self, what: &str) -> Result<u8, HomeError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.truncated(what))?;
        self.pos += 1;
        Ok(b)
    }

    /// One LEB128 value. One byte is one compare. With eight payload bytes
    /// at hand they are loaded as one word: the first byte without a
    /// continuation bit ends the value, and its 7-bit groups are packed in
    /// three mask-and-shift steps, with no branch per byte. Closer to the
    /// payload's end the bytes are taken one at a time. A value that does
    /// not end where it may is worded by [`Cur::varint_fault`] once the
    /// read has failed.
    #[inline(always)]
    pub(super) fn varint(&mut self, what: &str) -> Result<u64, HomeError> {
        let rest = &self.buf[self.pos..];
        if let Some(&b) = rest.first() {
            if b < 0x80 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        match rest.get(..8) {
            Some(head) => {
                let mut word = [0u8; 8];
                word.copy_from_slice(head);
                let word = u64::from_le_bytes(word);
                let stops = !word & 0x8080_8080_8080_8080;
                if stops == 0 {
                    return self.varint_past_eight(word, what);
                }
                self.pos += stops.trailing_zeros() as usize / 8 + 1;
                Ok(pack_groups(word & (stops ^ (stops - 1))))
            }
            None => {
                let mut v = 0u64;
                for (i, &b) in rest.iter().enumerate() {
                    v |= u64::from(b & 0x7f) << (7 * i);
                    if b < 0x80 {
                        self.pos += i + 1;
                        return Ok(v);
                    }
                }
                Err(self.varint_fault(what))
            }
        }
    }

    /// A varint whose first eight bytes, `word`, all said "more": a ninth
    /// and a tenth byte may follow, the tenth holding only the one bit left
    /// of 64.
    #[inline(never)]
    fn varint_past_eight(&mut self, word: u64, what: &str) -> Result<u64, HomeError> {
        let v = pack_groups(word);
        match (self.buf.get(self.pos + 8), self.buf.get(self.pos + 9)) {
            (Some(&b), _) if b < 0x80 => {
                self.pos += 9;
                Ok(v | u64::from(b) << 56)
            }
            (Some(&b), Some(&last)) if last <= 1 => {
                self.pos += 10;
                Ok(v | u64::from(b & 0x7f) << 56 | u64::from(last) << 63)
            }
            _ => Err(self.varint_fault(what)),
        }
    }

    /// Why the varint at the cursor did not decode, in the words and at
    /// the offset of the byte-at-a-time reader ([`varint_from`]): ten bytes
    /// at hand mean the tenth held more than the last bit, fewer that the
    /// payload ended first.
    #[cold]
    fn varint_fault(&self, what: &str) -> HomeError {
        let (buf, base) = (self.buf, self.base);
        if self.remaining() >= 10 {
            let pos = self.pos + 10;
            Cur { buf, pos, base }.corrupt(format_args!("varint overflow in {what}"))
        } else {
            let pos = buf.len();
            Cur { buf, pos, base }.truncated(what)
        }
    }

    /// The next `len` bytes of the payload.
    #[inline(always)]
    pub(super) fn take(&mut self, len: u64, what: &str) -> Result<&'a [u8], HomeError> {
        if len > self.remaining() as u64 {
            return Err(self.truncated(what));
        }
        let bytes = &self.buf[self.pos..][..len as usize];
        self.pos += bytes.len();
        Ok(bytes)
    }

    /// Everything not yet read (a frame's stored body).
    pub(super) fn rest(&mut self) -> &'a [u8] {
        let bytes = &self.buf[self.pos..];
        self.pos = self.buf.len();
        bytes
    }

    #[inline(always)]
    fn u32(&mut self, what: &str) -> Result<u32, HomeError> {
        let v = self.varint(what)?;
        u32::try_from(v).map_err(|_| self.corrupt(format_args!("{what} value {v} exceeds u32")))
    }

    #[inline(always)]
    fn i32(&mut self, what: &str) -> Result<i32, HomeError> {
        let v = unzigzag(self.varint(what)?);
        i32::try_from(v).map_err(|_| self.corrupt(format_args!("{what} value {v} exceeds i32")))
    }

    #[inline(always)]
    fn bool(&mut self, what: &str) -> Result<bool, HomeError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.corrupt(format_args!("invalid boolean byte {b} in {what}"))),
        }
    }

    /// A length-prefixed byte string, not yet validated.
    #[inline(always)]
    fn bytes(&mut self, what: &str) -> Result<&'a [u8], HomeError> {
        let len = self.varint(what)?;
        self.take(len, what)
    }

    /// The `len` bytes just read are not UTF-8.
    #[cold]
    fn bad_utf8(&self, what: &str, len: usize) -> HomeError {
        let at = self.at() - len as u64;
        HomeError::corrupt_trace(format!("invalid UTF-8 in {what} at byte {at}"))
    }

    fn str(&mut self, what: &str) -> Result<&'a str, HomeError> {
        let bytes = self.bytes(what)?;
        std::str::from_utf8(bytes).map_err(|_| self.bad_utf8(what, bytes.len()))
    }

    #[inline(always)]
    fn level(&mut self, what: &str) -> Result<ThreadLevel, HomeError> {
        match self.u8(what)? {
            0 => Ok(ThreadLevel::Single),
            1 => Ok(ThreadLevel::Funneled),
            2 => Ok(ThreadLevel::Serialized),
            3 => Ok(ThreadLevel::Multiple),
            b => Err(self.corrupt(format_args!("invalid thread-level byte {b} in {what}"))),
        }
    }

    #[inline(always)]
    fn monitored_var(&mut self, what: &str) -> Result<MonitoredVar, HomeError> {
        match self.u8(what)? {
            0 => Ok(MonitoredVar::Src),
            1 => Ok(MonitoredVar::Tag),
            2 => Ok(MonitoredVar::Comm),
            3 => Ok(MonitoredVar::Request),
            4 => Ok(MonitoredVar::Collective),
            5 => Ok(MonitoredVar::Finalize),
            b => Err(self.corrupt(format_args!(
                "invalid monitored-variable byte {b} in {what}"
            ))),
        }
    }

    #[inline(always)]
    fn call(&mut self) -> Result<MpiCallRecord, HomeError> {
        let tag = self.u8("MPI call kind")?;
        let kind = *CALL_KINDS
            .get(tag as usize)
            .ok_or_else(|| self.corrupt(format_args!("invalid MPI call kind byte {tag}")))?;
        let flags = self.u8("MPI call flags")?;
        if flags & !0x1f != 0 {
            return Err(self.corrupt(format_args!("invalid MPI call flag bits {flags:#x}")));
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

    #[inline(always)]
    fn memloc(&mut self) -> Result<MemLoc, HomeError> {
        match self.u8("memory-location tag")? {
            0 => Ok(MemLoc::Monitored(self.monitored_var("monitored variable")?)),
            1 => Ok(MemLoc::Var(VarId(self.u32("variable id")?))),
            2 => Ok(MemLoc::Elem(
                VarId(self.u32("variable id")?),
                self.varint("element index")?,
            )),
            b => Err(self.corrupt(format_args!("invalid memory-location tag {b}"))),
        }
    }

    pub(super) fn incident(&mut self) -> Result<TraceIncident, HomeError> {
        Ok(TraceIncident {
            rank: self.u32("incident rank")?,
            line: self.u32("incident line")?,
            call: self.str("incident call")?.to_owned(),
            error: self.str("incident error")?.to_owned(),
        })
    }

    /// A fresh event decoded through [`Cur::event_into`].
    pub(super) fn event(&mut self, files: &mut FileCache) -> Result<Event, HomeError> {
        let mut event = Event {
            seq: 0,
            rank: Rank(0),
            tid: Tid(0),
            region: None,
            time_ns: 0,
            loc: None,
            kind: EventKind::Acquire { lock: LockId(0) },
        };
        self.event_into(files, &mut event)?;
        Ok(event)
    }

    /// The one event decoder: overwrite every field of `ev` with the event
    /// record under the cursor. A slot that already names the record's file
    /// keeps its `Arc` and has only its line written, so refilling a batch
    /// in place moves no refcount; any other name goes through `files`. On
    /// error `ev` is partly overwritten.
    #[inline]
    pub(super) fn event_into(
        &mut self,
        files: &mut FileCache,
        ev: &mut Event,
    ) -> Result<(), HomeError> {
        let flags = self.u8("event flags")?;
        if flags & !0x03 != 0 {
            return Err(self.corrupt(format_args!("invalid event flag bits {flags:#x}")));
        }
        ev.seq = self.varint("event seq")?;
        ev.rank = Rank(self.u32("event rank")?);
        ev.tid = Tid(self.u32("event tid")?);
        ev.region = if flags & 1 != 0 {
            Some(RegionId(self.varint("event region")?))
        } else {
            None
        };
        ev.time_ns = self.varint("event time")?;
        if flags & 2 != 0 {
            let name = self.bytes("source file")?;
            match &mut ev.loc {
                // Equal bytes to a name that was valid UTF-8 are valid too.
                Some(loc) if same_bytes(loc.file.as_bytes(), name) => {
                    loc.line = self.u32("source line")?
                }
                loc => {
                    let file = files
                        .intern(name)
                        .map_err(|_| self.bad_utf8("source file", name.len()))?;
                    let line = self.u32("source line")?;
                    *loc = Some(SrcLoc { file, line });
                }
            }
        } else {
            ev.loc = None;
        }
        // Plain accesses are most of a recording: one predictable branch
        // reaches them, and the other kinds are decoded out of line.
        let tag = self.u8("event kind tag")?;
        ev.kind = if tag == 0 {
            let mem = self.memloc()?;
            let kind = match self.u8("access kind")? {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                b => return Err(self.corrupt(format_args!("invalid access kind byte {b}"))),
            };
            EventKind::Access { loc: mem, kind }
        } else {
            self.other_kind(tag)?
        };
        Ok(())
    }

    /// The kind of an event that is not a plain access, whose tag the
    /// caller has read.
    #[inline(never)]
    fn other_kind(&mut self, tag: u8) -> Result<EventKind, HomeError> {
        Ok(match tag {
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
            b => return Err(self.corrupt(format_args!("invalid event kind tag {b}"))),
        })
    }
}

/// Decode the body of a plain record — everything but the two v2 kinds —
/// whose kind byte the caller has read.
pub(super) fn decode_body(
    kind: u8,
    cur: &mut Cur<'_>,
    files: &mut FileCache,
) -> Result<HbtRecord, HomeError> {
    match kind {
        REC_RUN => Ok(HbtRecord::Run {
            seed: cur.varint("run seed")?,
        }),
        REC_EVENT => Ok(HbtRecord::Event(cur.event(files)?)),
        REC_INCIDENT => Ok(HbtRecord::Incident(cur.incident()?)),
        REC_MANIFEST => {
            let count = cur.varint("manifest section count")?;
            // Each section entry is at least one flag byte, so the count is
            // bounded by the bytes actually present — check before sizing
            // any allocation off the attacker-controlled value.
            if count > cur.remaining() as u64 {
                return Err(cur.corrupt(format_args!(
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
        b => Err(cur.corrupt(format_args!("invalid record kind byte {b}"))),
    }
}

/// Decode and validate a frame header (everything before the stored
/// bytes; never compressed) into the seek-index entry that must describe
/// it, plus whether the stored bytes are compressed. `start` is the
/// absolute offset of the frame record's length varint — the offset an
/// index quotes. `section_open` is whether the stream has a section in
/// progress — continuation frames require one, and an anonymous
/// (seedless, non-continuation) frame is only legal before any section
/// has started.
pub(super) fn decode_frame_header(
    cur: &mut Cur<'_>,
    start: u64,
    section_open: bool,
) -> Result<(IndexEntry, bool), HomeError> {
    let flags = cur.u8("frame flags")?;
    if flags & !(FRAME_HAS_SEED | FRAME_COMPRESSED | FRAME_CONTINUATION) != 0 {
        return Err(cur.corrupt(format_args!("invalid HBT frame flag bits {flags:#x}")));
    }
    let continuation = flags & FRAME_CONTINUATION != 0;
    let seed = if flags & FRAME_HAS_SEED != 0 {
        if continuation {
            return Err(cur.corrupt(format_args!(
                "HBT continuation frame carries a section seed"
            )));
        }
        Some(cur.varint("frame seed")?)
    } else {
        None
    };
    if continuation && !section_open {
        return Err(cur.corrupt(format_args!(
            "HBT continuation frame without an open section"
        )));
    }
    if !continuation && seed.is_none() && section_open {
        return Err(cur.corrupt(format_args!("anonymous HBT frame after a recorded section")));
    }
    let events = cur.varint("frame event count")?;
    let incidents = cur.varint("frame incident count")?;
    let raw_len = cur.varint("frame uncompressed length")?;
    if raw_len > MAX_RECORD_LEN {
        return Err(cur.corrupt(format_args!(
            "HBT frame uncompressed length {raw_len} exceeds limit"
        )));
    }
    let entry = IndexEntry {
        offset: start,
        seed,
        continuation,
        events,
        incidents,
        raw_len,
    };
    Ok((entry, flags & FRAME_COMPRESSED != 0))
}

/// Decode the seek index record's entries (the reader checks them against
/// the frames it observed).
pub(super) fn decode_index_entries(cur: &mut Cur<'_>) -> Result<Vec<IndexEntry>, HomeError> {
    let count = cur.varint("index frame count")?;
    // Each entry is at least five bytes, so the count is bounded by the
    // bytes actually present — check before sizing any allocation off the
    // attacker-controlled value.
    if count > cur.remaining() as u64 {
        return Err(cur.corrupt(format_args!(
            "HBT index frame count {count} exceeds record size"
        )));
    }
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let flags = cur.u8("index entry flags")?;
        if flags & !(FRAME_HAS_SEED | FRAME_CONTINUATION) != 0 {
            return Err(cur.corrupt(format_args!("invalid HBT index entry flag bits {flags:#x}")));
        }
        let continuation = flags & FRAME_CONTINUATION != 0;
        let seed = if flags & FRAME_HAS_SEED != 0 {
            if continuation {
                return Err(cur.corrupt(format_args!(
                    "HBT continuation index entry carries a section seed"
                )));
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
