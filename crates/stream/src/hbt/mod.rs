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
//! `home record` writes one version, v2; v1 is what a v2 frame holds,
//! and a v1 stream stays readable at every entry point. A v2 stream packs
//! each trace section into one or more `FRAME` records: the section's
//! `EVENT`/`INCIDENT` records are length-prefix-encoded exactly as in v1,
//! concatenated, and (when it pays) compressed with the in-repo
//! [`lz`](crate::lz) codec. The frame header carries the section
//! seed (first frame only; later frames of a long section set the
//! *continuation* flag), the record counts, and the uncompressed length —
//! all stored uncompressed, so a consumer can walk frame headers without
//! inflating anything. Before the closing `MANIFEST`, the writer emits an
//! `INDEX` record listing every frame's absolute byte offset, seed, event
//! count, and uncompressed length: `replay` uses it to seek
//! straight to a run and to decode frames in parallel. The reader
//! validates the index against the frames it actually saw — a lying
//! offset, seed, count, or length is a typed [`HomeError::CorruptTrace`],
//! and a frame-bearing stream that ends without an index is rejected the
//! same way a `RUN`-bearing stream without a manifest is.
//!
//! [`HbtReader`] accepts v1 and v2 streams transparently: frames are
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
//! section list no longer matches the manifest — the reader itself
//! rejects it at the end marker as [`HomeError::CorruptTrace`] instead of
//! silently reporting a shorter, "valid" run. Streams carrying RUN records
//! **must** end with a manifest; anonymous single-section streams (raw
//! event feeds) may omit it.
//!
//! Hostile inputs are bounded everywhere a length prefix is read: a
//! stream that arrives through [`io::Read`](std::io::Read) is pulled in
//! fixed-size chunks (a lying length hits the real end of input after at
//! most one chunk instead of pre-allocating the claimed size), record
//! lengths are capped by [`MAX_RECORD_LEN`], and string/manifest element
//! counts are validated against the bytes actually present in the
//! enclosing record before any allocation.
//!
//! ## Layout of this module
//!
//! There is one reader. [`HbtReader`] walks a stream's records and decides
//! what a structurally valid stream is; it reads from a byte slice
//! (zero-copy: a file read whole, a buffered submission) or from any
//! [`io::Read`](std::io::Read) through one reusable buffer (a pipe, in
//! bounded memory). [`scan_layout`] is that same walk run over frame
//! headers only, and [`decode_frame_into`] the same frame inflation the
//! reader runs, so replay can fan sections out without a second decoder.
//! [`HbtWriter`] writes over any [`io::Write`](std::io::Write) and never
//! holds more than one frame; it is the one encoder of both versions.
//!
//! * `format` — constants, record types, payload decoders;
//! * `writer` — payload encoders and [`HbtWriter`];
//! * `reader` — byte sources, the record walk and its structural checks;
//! * `layout` — frame locations, the headers-only scan, frame decoding.
//!
//! This façade re-exports exactly the names code outside the crate uses.

mod format;
mod layout;
mod reader;
mod writer;

pub use format::{
    is_hbt, HbtRecord, HbtSection, IndexEntry, HBT_MAGIC, HBT_V2, HBT_VERSION, MAX_RECORD_LEN,
};
pub use layout::{
    decode_frame_chunks, decode_frame_into, scan_layout, sections_from_batches, FrameBatch,
    FrameLoc, FrameScratch, HbtLayout,
};
pub use reader::{decode_sections, HbtReader};
pub use writer::HbtWriter;

#[cfg(test)]
mod tests {
    use super::format::{unzigzag, Cur, REC_FRAME, REC_INDEX};
    use super::writer::{put_varint, zigzag, FRAME_TARGET};
    use super::*;
    use home_trace::{
        BarrierId, Event, EventKind, HomeError, Rank, RegionId, SrcLoc, Tid, Trace, TraceIncident,
    };

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
            let mut cur = Cur::new(&buf, 0);
            assert_eq!(cur.varint("v").unwrap(), v);
            assert_eq!(cur.remaining(), 0);
        }
    }

    /// The one-byte path hands anything else to the long one; wherever a
    /// value breaks off or runs over, the words and the byte are the same.
    #[test]
    fn varint_faults_name_the_field_and_the_byte() {
        let cut = "invalid trace: truncated HBT record: unexpected end of payload in v at byte";
        let over = "corrupt trace: varint overflow in v at byte";
        let cases: [(&[u8], String); 5] = [
            (&[], format!("{cut} 7")),
            (&[0x80], format!("{cut} 8")),
            (&[0xFF, 0xFF, 0x80], format!("{cut} 10")),
            (&[0xFF; 10], format!("{over} 17")),
            (
                &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02],
                format!("{over} 17"),
            ),
        ];
        for (bytes, want) in cases {
            let mut cur = Cur::new(bytes, 7);
            assert_eq!(cur.varint("v").unwrap_err().to_string(), want);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, -2, i64::from(i32::MIN), i64::from(i32::MAX)] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    /// `trace` as one anonymous section of a v1 stream.
    fn encode_v1(trace: &Trace) -> Vec<u8> {
        let mut w = HbtWriter::new(Vec::new()).unwrap();
        for e in trace.events() {
            w.write_event(e).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn trace_roundtrip() {
        let trace = Trace::from_events(vec![sample_event(0), sample_event(1)]);
        let bytes = encode_v1(&trace);
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
        let bytes = encode_v1(&trace);
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
        let bytes = encode_v1(&trace);
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
        let mut cur = Cur::new(&v2, 0);
        cur.take(5, "header").unwrap();
        let mut out: Vec<u8> = v2[..5].to_vec();
        loop {
            let start = cur.pos();
            let len = cur.varint("len").unwrap();
            if len == 0 {
                out.push(0);
                break;
            }
            if cur.take(len, "payload").unwrap()[0] != REC_INDEX {
                out.extend_from_slice(&v2[start..cur.pos()]);
            }
        }
        let err = decode_sections(&out).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("without a seek index"), "{msg}");
        assert!(msg.contains("byte"), "{msg}");
    }
}
