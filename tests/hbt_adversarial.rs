//! Adversarial HBT corpus: every byte of an HBT stream is untrusted, so
//! the reader must return a typed error (with a byte offset) or the
//! identical report — never panic, never allocate unbounded memory.
//!
//! Three families of hostile input:
//!
//! * seeded random byte mutations of a real recorded trace;
//! * crafted records — giant varint lengths, lying lengths, varint
//!   overflow, oversized manifest counts;
//! * section-boundary attacks — truncation at a `RUN` boundary with a
//!   forged end marker, spliced manifests from a different recording,
//!   records appended after the manifest — caught by the reader itself.
//!
//! There is one reader, so reader-vs-reader parity holds by construction.
//! What still differs is checked once, by [`read`], on every stream of the
//! three families and on truncation at every byte: the reader's two byte
//! sources (a slice; an `io::Read` that hands over one byte per call, so
//! every buffer and varint boundary is crossed), and the frame path
//! (`scan_layout` + `decode_frame_into`) replay fans out over.

use home::prelude::*;
use home::stream::{
    decode_frame_into, decode_sections, scan_layout, sections_from_batches, FrameBatch,
    FrameScratch, HbtReader, HbtRecord, HbtWriter, IndexEntry, HBT_MAGIC, HBT_V2, HBT_VERSION,
    MAX_RECORD_LEN,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::Cursor;
use std::sync::Arc;

const FIGURE2: &str = "programs/figure2.hmp";

/// Record `program` under `seeds` as the v1 file `home record` wrote: one
/// `RUN` record per seed, the instrumented events, then the run's incidents.
fn record_bytes(path: &str, seeds: &[u64]) -> Vec<u8> {
    record_into(
        HbtWriter::new(Vec::new()).expect("header write"),
        path,
        seeds,
    )
}

/// Same recording through the v2 path (what `home record` writes):
/// LZ-compressed frames plus the trailing seek index.
fn record_bytes_v2(path: &str, seeds: &[u64]) -> Vec<u8> {
    record_into(
        HbtWriter::new_compressed(Vec::new()).expect("header write"),
        path,
        seeds,
    )
}

fn record_into(mut writer: HbtWriter<Vec<u8>>, path: &str, seeds: &[u64]) -> Vec<u8> {
    let source = std::fs::read_to_string(path).expect("test program exists");
    let program = parse(&source).expect("test program parses");
    let checklist = Arc::new(analyze(&program).checklist.clone());
    for &seed in seeds {
        writer.begin_run(seed).expect("run record");
        let mut cfg = RunConfig::test(2, seed)
            .with_instrumentation(Instrumentation::home())
            .with_checklist(Arc::clone(&checklist));
        cfg.threads_per_proc = 2;
        cfg.sched.policy = SchedPolicy::Random;
        let result = run(&program, &cfg);
        for e in result.trace.events() {
            writer.write_event(e).expect("event record");
        }
        for i in &result.mpi_errors {
            writer
                .write_incident(&home::stream::TraceIncident {
                    rank: i.rank,
                    line: i.line,
                    call: i.call.clone(),
                    error: i.error.clone(),
                })
                .expect("incident record");
        }
    }
    writer.finish().expect("trailer write")
}

fn header() -> Vec<u8> {
    let mut out = HBT_MAGIC.to_vec();
    out.push(HBT_VERSION);
    out
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// What a reader makes of a stream: every record, or the first error's
/// message.
type Records = Result<Vec<HbtRecord>, String>;

/// A bare read loop, the reader being its own validator.
fn drain(reader: Result<HbtReader<'_, impl std::io::Read>, HomeError>) -> Records {
    let mut reader = reader.map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    while let Some(record) = reader.next_record().map_err(|e| e.to_string())? {
        records.push(record);
    }
    Ok(records)
}

/// An input that hands over one byte per `read` call.
struct Trickle<'a>(&'a [u8]);

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match (self.0.split_first(), buf.first_mut()) {
            (Some((byte, rest)), Some(slot)) => {
                *slot = *byte;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// The stream's sections through the frame path: `None` when it has no
/// frame layout (v1, plain records), else the layout scan's fault, the
/// first frame's fault in stream order, or the stitched sections.
fn frame_path(bytes: &[u8]) -> Option<Result<String, String>> {
    let layout = match scan_layout(bytes) {
        Ok(layout) => layout?,
        Err(e) => return Some(Err(e.to_string())),
    };
    let mut scratch = FrameScratch::new();
    let batches: Result<Vec<FrameBatch>, HomeError> = layout
        .frames
        .iter()
        .map(|frame| {
            let mut batch = FrameBatch::new();
            decode_frame_into(bytes, frame, &mut scratch, &mut batch).map(|()| batch)
        })
        .collect();
    Some(match batches {
        Ok(batches) => Ok(format!("{:?}", sections_from_batches(batches))),
        Err(e) => Err(e.to_string()),
    })
}

/// Read `bytes` every way that is still different code and insist on one
/// answer — the records, or the first error string:
///
/// * slice source ≡ `io::Read` source fed one byte per call, exactly;
/// * the frame path reaches the same sections, or the same fault — except
///   that its layout scan inflates nothing, so of two faults it names the
///   structural one where the reader, going in stream order, has already
///   met a corrupt frame body.
fn read(bytes: &[u8]) -> Records {
    let sliced = drain(HbtReader::from_slice(bytes));
    let trickled = drain(HbtReader::new(Trickle(bytes)));
    assert_eq!(sliced, trickled, "slice and io::Read sources disagree");
    if let Some(framed) = frame_path(bytes) {
        let sections = decode_sections(bytes)
            .map(|s| format!("{s:?}"))
            .map_err(|e| e.to_string());
        match (&sections, &framed) {
            (Err(read), Err(scan)) if read != scan => assert!(
                read.contains("frame at byte"),
                "the reader's fault is neither the frame path's nor a frame body's:\n  \
                 reader: {read}\n  frames: {scan}"
            ),
            _ => assert_eq!(sections, framed, "reader and frame path disagree"),
        }
    }
    sliced
}

/// Byte offsets at which each record of a well-formed stream begins,
/// plus each record.
fn record_starts(bytes: &[u8]) -> Vec<(u64, HbtRecord)> {
    let mut reader = HbtReader::from_slice(bytes).expect("valid header");
    let mut out = Vec::new();
    loop {
        let start = reader.offset();
        match reader.next_record().expect("valid record") {
            Some(record) => out.push((start, record)),
            None => break,
        }
    }
    out
}

/// The mutation corpus: 200 seeded variants of `base`, each truncated
/// somewhere (header included) or with one to four bytes overwritten.
fn mutation_corpus(base: &[u8], seed_base: u64) -> Vec<Vec<u8>> {
    (0u64..200)
        .map(|case| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed_base + case);
            let mut bytes = base.to_vec();
            if rng.gen_bool(0.25) {
                let cut = rng.gen_range(0u64..bytes.len() as u64) as usize;
                bytes.truncate(cut);
            } else {
                let flips = 1 + rng.gen_range(0u64..4) as usize;
                for _ in 0..flips {
                    let at = rng.gen_range(0u64..bytes.len() as u64) as usize;
                    bytes[at] = rng.gen_range(0u64..256) as u8;
                }
            }
            bytes
        })
        .collect()
}

#[test]
fn random_byte_mutations_never_panic_and_readers_agree() {
    let base = record_bytes(FIGURE2, &[1, 2]);
    assert!(base.len() > 64, "recording is non-trivial");
    for (case, bytes) in mutation_corpus(&base, 0xADE5_0000).into_iter().enumerate() {
        if let Err(msg) = read(&bytes) {
            assert!(
                msg.contains("byte"),
                "case {case}: error lacks a byte offset: {msg}"
            );
        }

        // The full decode + analyze path must never panic either: a typed
        // error or a verdict, nothing else.
        let outcome = std::panic::catch_unwind(|| {
            decode_sections(&bytes).and_then(|s| home::serve::analyze_sections(&s))
        });
        assert!(outcome.is_ok(), "case {case}: decode/analyze panicked");
    }
}

#[test]
fn giant_record_length_is_a_typed_error_on_every_reader() {
    let mut bytes = header();
    put_varint(&mut bytes, MAX_RECORD_LEN + 1);

    let msg = read(&bytes).expect_err("oversized length must be rejected");
    assert!(
        msg.contains("exceeds limit") && msg.contains("byte"),
        "unexpected error: {msg}"
    );
}

#[test]
fn lying_record_length_truncates_without_oom() {
    // The record claims ~256 MiB but only 64 bytes follow. The streaming
    // reader must report truncation after at most one bounded chunk — not
    // allocate the full claimed length up front.
    let mut bytes = header();
    put_varint(&mut bytes, MAX_RECORD_LEN - 1);
    bytes.extend_from_slice(&[2u8; 64]);

    let msg = read(&bytes).expect_err("lying length must truncate");
    assert!(
        msg.contains("truncated") && msg.contains("byte"),
        "unexpected error: {msg}"
    );
}

#[test]
fn varint_overflow_is_a_typed_error() {
    let mut bytes = header();
    bytes.extend_from_slice(&[0xFF; 10]);
    let msg = read(&bytes).expect_err("varint overflow must be rejected");
    assert!(
        msg.contains("varint") && msg.contains("byte"),
        "unexpected error: {msg}"
    );
}

#[test]
fn giant_manifest_count_is_bounded_by_record_size() {
    // A manifest record whose declared section count dwarfs its payload
    // must be rejected before any allocation sized from it.
    let mut payload = vec![4u8]; // REC_MANIFEST
    put_varint(&mut payload, u64::MAX >> 2);
    let mut bytes = header();
    put_varint(&mut bytes, payload.len() as u64);
    bytes.extend_from_slice(&payload);
    bytes.push(0);

    let msg = read(&bytes).expect_err("oversized manifest count must be rejected");
    assert!(
        msg.contains("manifest section count") && msg.contains("exceeds record size"),
        "unexpected error: {msg}"
    );
}

/// Byte offset of the manifest record of a well-formed recording.
fn manifest_at(bytes: &[u8]) -> usize {
    record_starts(bytes)
        .iter()
        .find(|(_, r)| matches!(r, HbtRecord::Manifest { .. }))
        .map(|(at, _)| *at)
        .expect("recording ends with a manifest") as usize
}

/// A two-run recording cut right where the second `RUN` record begins,
/// with a forged clean end marker. Without the manifest this parsed as a
/// one-run trace.
fn cut_at_section_boundary() -> Vec<u8> {
    let base = record_bytes(FIGURE2, &[1, 2]);
    let second_run = record_starts(&base)
        .iter()
        .filter(|(_, r)| matches!(r, HbtRecord::Run { .. }))
        .nth(1)
        .map(|(at, _)| *at)
        .expect("two RUN records");
    let mut forged = base[..second_run as usize].to_vec();
    forged.push(0); // forged end marker
    forged
}

/// Body of a one-run recording + manifest of a two-run recording.
fn spliced_wrong_count() -> Vec<u8> {
    let one = record_bytes(FIGURE2, &[1]);
    let two = record_bytes(FIGURE2, &[1, 2]);
    let mut spliced = one[..manifest_at(&one)].to_vec();
    spliced.extend_from_slice(&two[manifest_at(&two)..]);
    spliced
}

/// Same section count, different seed list: run seed 2's body under a
/// manifest recorded for seed 9.
fn spliced_wrong_seed() -> Vec<u8> {
    let real = record_bytes(FIGURE2, &[2]);
    let decoy = record_bytes(FIGURE2, &[9]);
    let mut spliced = real[..manifest_at(&real)].to_vec();
    spliced.extend_from_slice(&decoy[manifest_at(&decoy)..]);
    spliced
}

/// A copy of the first event record appended after the manifest, the
/// stream re-terminated: the manifest must be the final record.
fn record_after_manifest() -> Vec<u8> {
    let base = record_bytes(FIGURE2, &[1]);
    let starts = record_starts(&base);
    let (event_start, _) = starts
        .iter()
        .find(|(_, r)| matches!(r, HbtRecord::Event(_)))
        .expect("recording has events");
    let event_end = starts
        .iter()
        .map(|(at, _)| *at)
        .chain(std::iter::once(base.len() as u64 - 1))
        .find(|&at| at > *event_start)
        .expect("next record start");
    let mut forged = base[..base.len() - 1].to_vec(); // drop end marker
    forged.extend_from_slice(&base[*event_start as usize..event_end as usize]);
    forged.push(0);
    forged
}

#[test]
fn truncation_at_a_section_boundary_is_detected() {
    let msg = read(&cut_at_section_boundary()).expect_err("boundary truncation must be rejected");
    assert!(
        msg.contains("ends without a section manifest"),
        "unexpected error: {msg}"
    );
}

#[test]
fn spliced_manifest_with_wrong_section_count_is_detected() {
    let msg = read(&spliced_wrong_count()).expect_err("section-count mismatch must be rejected");
    assert!(
        msg.contains("declares 2 section(s)") && msg.contains("contains 1"),
        "unexpected error: {msg}"
    );
}

#[test]
fn spliced_manifest_with_wrong_seed_is_detected() {
    let msg = read(&spliced_wrong_seed()).expect_err("seed mismatch must be rejected");
    assert!(
        msg.contains("seed list disagrees"),
        "unexpected error: {msg}"
    );
}

#[test]
fn records_after_the_manifest_are_rejected() {
    let msg = read(&record_after_manifest()).expect_err("record after manifest must be rejected");
    assert!(
        msg.contains("record after the section manifest"),
        "unexpected error: {msg}"
    );
}

/// The reader is the validator. Each of these streams parses record by
/// record; a read loop that drives nothing beside the reader must still
/// be refused them, in the words and at the offsets the separate manifest
/// checker used to give (the end marker's far side; for the stray record,
/// its own end).
#[test]
fn a_bare_read_loop_rejects_what_the_manifest_contradicts() {
    fn bare(bytes: &[u8]) -> Result<usize, HomeError> {
        let mut reader = HbtReader::new(Cursor::new(bytes))?;
        let mut records = 0;
        while let Some(_record) = reader.next_record()? {
            records += 1;
        }
        Ok(records)
    }
    let cases = [
        (
            cut_at_section_boundary(),
            "HBT stream with 1 recorded section(s) ends without a section manifest \
             (truncated at a section boundary?) at byte {end}",
        ),
        (
            spliced_wrong_count(),
            "HBT manifest declares 2 section(s) but the stream contains 1 at byte {end}",
        ),
        (
            spliced_wrong_seed(),
            "HBT manifest seed list disagrees with the stream: section 0 declared seed 9 \
             but the stream has seed 2 at byte {end}",
        ),
        (
            record_after_manifest(),
            "HBT record after the section manifest at byte {before_end}",
        ),
    ];
    for (bytes, wording) in cases {
        let expected = wording
            .replace("{end}", &bytes.len().to_string())
            .replace("{before_end}", &(bytes.len() - 1).to_string());
        let err = bare(&bytes).expect_err("a contradicted manifest must stop the loop");
        assert!(
            err.to_string().ends_with(&expected),
            "expected `{expected}`, got `{err}`"
        );
        assert_eq!(err.category(), "corrupt-trace", "{err}");
    }
}

#[test]
fn mutated_traces_share_one_verdict_across_offline_readers() {
    // A file can be analyzed two ways offline: decoded whole into sections
    // and fed a section at a time, or through the fused driver `home
    // replay` runs. For every mutation both must accept or both refuse,
    // and what they accept must get the same verdict.
    let base = record_bytes(FIGURE2, &[3, 4]);
    for case in 0u64..40 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x9A17_0000 + case);
        let mut bytes = base.clone();
        let at = rng.gen_range(0u64..bytes.len() as u64) as usize;
        bytes[at] = rng.gen_range(0u64..256) as u8;

        let materialized = decode_sections(&bytes).and_then(|s| home::serve::analyze_sections(&s));
        let fused = home::serve::analyze_trace(&bytes, 2);
        match (materialized, fused) {
            (Ok(a), Ok(b)) => assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "case {case}: verdicts differ"
            ),
            (Err(_), Err(_)) => {}
            (a, b) => panic!(
                "case {case}: paths disagree on validity: materialized={:?} fused={:?}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// v2 family: compressed frames and the seek index are attacker-controlled too
// ---------------------------------------------------------------------------

/// Physical records of a well-formed stream: (record start, kind byte,
/// payload range). Unlike [`record_starts`] this walks the raw framing, so
/// v2 `FRAME`/`INDEX` records appear as themselves rather than as the
/// logical records they inflate into.
fn physical_records(bytes: &[u8]) -> Vec<(usize, u8, std::ops::Range<usize>)> {
    let mut pos = 5; // magic + version
    let mut out = Vec::new();
    loop {
        let start = pos;
        let mut len: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = bytes[pos];
            pos += 1;
            len |= u64::from(b & 0x7f) << shift;
            shift += 7;
            if b & 0x80 == 0 {
                break;
            }
        }
        if len == 0 {
            return out;
        }
        let payload = pos..pos + len as usize;
        out.push((start, bytes[payload.start], payload.clone()));
        pos = payload.end;
    }
}

/// Encode a seek-index record (length prefix + payload) from entries, the
/// writer's wire format re-implemented so tests can forge variants.
fn encode_index_record(entries: &[IndexEntry]) -> Vec<u8> {
    const REC_INDEX: u8 = 6;
    const FRAME_HAS_SEED: u8 = 1;
    const FRAME_CONTINUATION: u8 = 4;
    let mut payload = vec![REC_INDEX];
    put_varint(&mut payload, entries.len() as u64);
    for e in entries {
        let mut flags = 0u8;
        if e.seed.is_some() {
            flags |= FRAME_HAS_SEED;
        }
        if e.continuation {
            flags |= FRAME_CONTINUATION;
        }
        payload.push(flags);
        if let Some(s) = e.seed {
            put_varint(&mut payload, s);
        }
        put_varint(&mut payload, e.offset);
        put_varint(&mut payload, e.events);
        put_varint(&mut payload, e.incidents);
        put_varint(&mut payload, e.raw_len);
    }
    let mut record = Vec::with_capacity(payload.len() + 2);
    put_varint(&mut record, payload.len() as u64);
    record.extend_from_slice(&payload);
    record
}

/// Splice a forged seek index into a real v2 recording, keeping the
/// manifest and end marker that follow the genuine index.
fn with_forged_index(base: &[u8], entries: &[IndexEntry]) -> Vec<u8> {
    let records = physical_records(base);
    let (index_start, _, _) = *records
        .iter()
        .find(|(_, kind, _)| *kind == 6)
        .expect("v2 recording carries a seek index");
    let (tail_start, _, _) = *records
        .iter()
        .find(|(start, _, _)| *start > index_start)
        .expect("manifest follows the index");
    let mut forged = base[..index_start].to_vec();
    forged.extend_from_slice(&encode_index_record(entries));
    forged.extend_from_slice(&base[tail_start..]);
    forged
}

/// Seek-index entries of a v2 recording, via the validated layout scan.
fn index_entries(bytes: &[u8]) -> Vec<IndexEntry> {
    scan_layout(bytes)
        .expect("recording is well-formed")
        .expect("recording is v2 with frames")
        .frames
        .iter()
        .map(|f| f.entry)
        .collect()
}

#[test]
fn v2_random_mutations_never_panic_and_readers_agree() {
    let base = record_bytes_v2(FIGURE2, &[1, 2]);
    assert!(base.len() > 64, "v2 recording is non-trivial");
    for (case, bytes) in mutation_corpus(&base, 0xB2AD_0000).into_iter().enumerate() {
        if let Err(msg) = read(&bytes) {
            assert!(
                msg.contains("byte"),
                "case {case}: error lacks a byte offset: {msg}"
            );
        }

        // Fanned over workers, the frame path must still reach the serial
        // reader's conclusion — same sections, or a typed error on both sides.
        let outcome = std::panic::catch_unwind(|| {
            let serial = decode_sections(&bytes);
            let parallel = home::core::decode_trace(&bytes, 4);
            match (serial, parallel) {
                (Ok(a), Ok(b)) => assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "case {case}: parallel decode diverges from serial"
                ),
                (Err(a), Err(b)) => {
                    for msg in [a.to_string(), b.to_string()] {
                        assert!(
                            msg.contains("byte"),
                            "case {case}: error lacks a byte offset: {msg}"
                        );
                    }
                }
                (a, b) => panic!(
                    "case {case}: decoders disagree on validity: serial={:?} parallel={:?}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        });
        assert!(outcome.is_ok(), "case {case}: v2 decode panicked");
    }
}

/// Cut `base` before every one of its bytes: each prefix is a typed error
/// naming a byte, the same one from every source and path.
fn every_truncation_is_typed(base: &[u8]) {
    for cut in 0..base.len() {
        let bytes = &base[..cut];
        let msg = read(bytes).expect_err("every truncation must be an error");
        assert!(msg.contains("byte"), "cut {cut}: no byte offset: {msg}");
        let parallel = home::core::decode_trace(bytes, 4)
            .map(|s| s.len())
            .map_err(|e| e.to_string());
        assert!(parallel.is_err(), "cut {cut}: parallel decoder accepted it");
    }
}

#[test]
fn v1_truncation_at_every_byte_is_typed() {
    every_truncation_is_typed(&record_bytes(FIGURE2, &[1]));
}

#[test]
fn v2_truncation_at_many_byte_positions_is_typed() {
    every_truncation_is_typed(&record_bytes_v2(FIGURE2, &[1]));
}

#[test]
fn v2_forged_index_offset_is_rejected() {
    let base = record_bytes_v2(FIGURE2, &[1, 2]);
    let mut entries = index_entries(&base);
    assert!(entries.len() >= 2, "two seeds record at least two frames");
    entries[1].offset += 1;
    let forged = with_forged_index(&base, &entries);

    let msg = read(&forged).expect_err("lying index offset must be rejected");
    assert!(
        msg.contains("disagrees with the stream") && msg.contains("byte"),
        "unexpected error: {msg}"
    );
    let msg = home::core::decode_trace(&forged, 4)
        .expect_err("parallel decode must reject a lying offset before decompressing")
        .to_string();
    assert!(
        msg.contains("disagrees with the stream") && msg.contains("byte"),
        "unexpected error: {msg}"
    );
}

#[test]
fn v2_forged_index_count_and_counters_are_rejected() {
    let base = record_bytes_v2(FIGURE2, &[1, 2]);
    let entries = index_entries(&base);

    // Dropped entry: the index under-declares the frame population.
    let dropped = with_forged_index(&base, &entries[..entries.len() - 1]);
    // Inflated event counter: per-frame accounting must match.
    let mut inflated = entries.clone();
    inflated[0].events += 1;
    let inflated = with_forged_index(&base, &inflated);

    for (what, forged, needle) in [
        ("dropped entry", dropped, "seek index declares"),
        ("inflated events", inflated, "disagrees with the stream"),
    ] {
        match read(&forged) {
            Ok(_) => panic!("{what}: forged index must be rejected"),
            Err(msg) => assert!(
                msg.contains(needle) && msg.contains("byte"),
                "{what}: unexpected error: {msg}"
            ),
        }
    }
}

#[test]
fn v2_frame_raw_len_lie_is_rejected() {
    // Hand-built v2 stream: one uncompressed frame whose header declares
    // more raw bytes than it stores.
    let mut payload = vec![5u8, 1u8]; // REC_FRAME, flags = HAS_SEED
    put_varint(&mut payload, 7); // seed
    put_varint(&mut payload, 0); // events
    put_varint(&mut payload, 0); // incidents
    put_varint(&mut payload, 99); // raw_len lie: nothing follows
    let mut bytes = HBT_MAGIC.to_vec();
    bytes.push(HBT_V2);
    put_varint(&mut bytes, payload.len() as u64);
    bytes.extend_from_slice(&payload);
    bytes.push(0);

    let msg = read(&bytes).expect_err("raw-length lie must be rejected");
    assert!(
        msg.contains("declares 99 uncompressed byte(s) but stores 0") && msg.contains("byte"),
        "unexpected error: {msg}"
    );
}

#[test]
fn v2_frame_counts_that_sum_past_u64_are_a_typed_error() {
    // The header's declared counts are summed per section by the walk; two
    // counts of u64::MAX must be refused like any other lie, not overflow.
    let mut payload = vec![5u8, 1u8]; // REC_FRAME, flags = HAS_SEED
    put_varint(&mut payload, 7); // seed
    put_varint(&mut payload, u64::MAX); // events
    put_varint(&mut payload, u64::MAX); // incidents
    put_varint(&mut payload, 0); // raw_len: an empty body
    let mut bytes = HBT_MAGIC.to_vec();
    bytes.push(HBT_V2);
    put_varint(&mut bytes, payload.len() as u64);
    bytes.extend_from_slice(&payload);
    bytes.push(0);

    let msg = read(&bytes).expect_err("lying counts must be rejected");
    assert!(
        msg.contains("but stores 0 and 0") && msg.contains("byte"),
        "unexpected error: {msg}"
    );
}

/// Hand-built v2 stream: one empty *anonymous* frame (no seed flag), a
/// matching one-entry seek index, and a manifest declaring `declared`
/// sections — each declared section anonymous. The frame walk counts the
/// frame as a section while record inflation produces none, so no declared
/// count can satisfy both; what matters is that the contradiction is a
/// typed error at every fan-out width, never an accept-at-one-width skew.
fn empty_anonymous_frame_stream(declared: u64) -> Vec<u8> {
    let mut bytes = HBT_MAGIC.to_vec();
    bytes.push(HBT_V2);
    // frame: kind 5, flags 0 (anonymous), events 0, incidents 0, raw_len 0
    let frame = [5u8, 0, 0, 0, 0];
    put_varint(&mut bytes, frame.len() as u64);
    bytes.extend_from_slice(&frame);
    bytes.extend_from_slice(&encode_index_record(&[IndexEntry {
        offset: 5,
        seed: None,
        continuation: false,
        events: 0,
        incidents: 0,
        raw_len: 0,
    }]));
    let mut manifest = vec![4u8]; // REC_MANIFEST
    put_varint(&mut manifest, declared);
    // one flag byte per declared section: 0 = anonymous, no seed
    manifest.extend(std::iter::repeat_n(0u8, declared as usize));
    put_varint(&mut bytes, manifest.len() as u64);
    bytes.extend_from_slice(&manifest);
    bytes.push(0);
    bytes
}

/// `decode_trace` verdict (sections or error string) at one width.
fn decode_at(bytes: &[u8], jobs: usize) -> Result<String, String> {
    home::core::decode_trace(bytes, jobs)
        .map(|s| format!("{s:?}"))
        .map_err(|e| e.to_string())
}

#[test]
fn v2_empty_anonymous_frame_under_empty_manifest_is_jobs_invariant() {
    // The frame walk sees one (anonymous) section, the manifest declares
    // zero: rejected with the same byte-anchored diagnostic at every width.
    let bytes = empty_anonymous_frame_stream(0);
    let verdict = decode_at(&bytes, 1);
    assert_eq!(
        verdict,
        decode_at(&bytes, 4),
        "verdict diverges across jobs"
    );
    let msg = verdict.expect_err("declared/contained mismatch must be rejected");
    assert!(
        msg.contains("declares 0 section(s)") && msg.contains("byte"),
        "unexpected error: {msg}"
    );
}

#[test]
fn v2_manifest_declared_anonymous_section_is_jobs_invariant() {
    // The mirror image: the manifest declares one anonymous section but the
    // empty frame inflates to no records at all.
    let bytes = empty_anonymous_frame_stream(1);
    let verdict = decode_at(&bytes, 1);
    assert_eq!(
        verdict,
        decode_at(&bytes, 4),
        "verdict diverges across jobs"
    );
    let msg = verdict.expect_err("declared/contained mismatch must be rejected");
    assert!(
        msg.contains("declares 1 section(s)") && msg.contains("byte"),
        "unexpected error: {msg}"
    );
}

#[test]
fn v2_corrupt_compressed_frame_is_typed_on_every_path() {
    let base = record_bytes_v2(FIGURE2, &[1, 2]);
    let layout = scan_layout(&base).expect("valid").expect("v2 layout");
    // Flip a byte in the middle of the first frame's stored body (past the
    // header fields, so the LZ payload itself is what breaks).
    let entry = layout.frames[0].entry;
    let records = physical_records(&base);
    let (_, _, payload) = records
        .iter()
        .find(|(start, kind, _)| *start as u64 == entry.offset && *kind == 5)
        .expect("first frame record");
    let mut bytes = base.clone();
    let mid = payload.start + (payload.len() / 2).max(16);
    bytes[mid] ^= 0x5A;

    // A mid-body flip can land in an event payload and still parse; what is
    // forbidden is a panic or a silent sources/paths divergence.
    if let Err(msg) = &read(&bytes) {
        assert!(msg.contains("byte"), "no byte offset: {msg}");
    }
    let serial = decode_sections(&bytes).map(|s| format!("{s:?}"));
    let parallel = home::core::decode_trace(&bytes, 4).map(|s| format!("{s:?}"));
    match (serial, parallel) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "paths diverge on the corrupt frame"),
        (Err(a), Err(b)) => {
            assert!(a.to_string().contains("byte"), "{a}");
            assert!(b.to_string().contains("byte"), "{b}");
        }
        (a, b) => panic!(
            "paths disagree on validity: serial={:?} parallel={:?}",
            a.is_ok(),
            b.is_ok()
        ),
    }
}

#[test]
fn version_byte_confusion_is_handled_on_both_sides() {
    // A v2 body labeled v1: the first FRAME record is an unknown kind in a
    // version-1 stream — typed error, not a misparse.
    let mut v2_as_v1 = record_bytes_v2(FIGURE2, &[1]);
    v2_as_v1[4] = HBT_VERSION;
    let msg = read(&v2_as_v1).expect_err("v2 kinds under a v1 label must be rejected");
    assert!(
        msg.contains("HBT v2 record kind") && msg.contains("byte"),
        "unexpected error: {msg}"
    );

    // A v1 body labeled v2: plain records are legal in a v2 stream (the
    // format is a superset), so this decodes to the identical sections.
    let v1 = record_bytes(FIGURE2, &[1]);
    let mut v1_as_v2 = v1.clone();
    v1_as_v2[4] = HBT_V2;
    let original = decode_sections(&v1).expect("v1 recording decodes");
    let relabeled = decode_sections(&v1_as_v2).expect("plain records are legal v2");
    assert_eq!(
        format!("{original:?}"),
        format!("{relabeled:?}"),
        "relabeling a plain stream must not change its sections"
    );
    assert!(
        scan_layout(&v1_as_v2).expect("still well-formed").is_none(),
        "a frameless stream has no parallel layout"
    );
}

/// What a consumer of the trace tells its user: the sorted violation
/// lines, or the first error (message and byte offset, as one string).
type Told = Result<Vec<String>, String>;

fn told(outcome: Result<home::serve::TraceOutcome, HomeError>) -> Told {
    outcome
        .map(|o| o.violations.iter().map(|v| v.to_string()).collect())
        .map_err(|e| e.to_string())
}

/// `home submit` of `bytes` to a daemon that has seen nothing else (a
/// fleet that knows a seed rejects a different recording of it, which is
/// not what is under test).
fn submitted(dir: &std::path::Path, bytes: &[u8]) -> Told {
    let socket = dir.join("collector.sock");
    let _ = std::fs::remove_file(&socket);
    let server = home::serve::Server::bind(home::serve::ServeConfig::new(&socket))
        .expect("bind serve socket");
    let daemon = std::thread::spawn(move || server.run().expect("serve run"));
    let reply = home::serve::submit(&socket, bytes).expect("the daemon answers");
    home::serve::stop(&socket).expect("the daemon stops");
    daemon.join().expect("daemon thread");
    match reply.error {
        Some(error) => Err(error),
        None => Ok(reply.violations),
    }
}

/// One trace, one answer: `home replay <file>` (the fused driver, at every
/// fan-out width), `home replay -` (record at a time) and `home submit`
/// report the same verdict or the same *first* error — stream order, a
/// detector fault at the event that caused it ahead of a decode fault in a
/// later frame or a structural fault in the trailer. (The file path used to
/// decode everything before analyzing anything, and so named the decode
/// fault first.)
#[test]
fn mutated_traces_get_one_answer_from_file_stdin_and_submit() {
    let dir = tmp_dir("one_answer");
    let corpora = [
        ("v1", record_bytes(FIGURE2, &[1, 2]), 0xADE5_0000u64),
        ("v2", record_bytes_v2(FIGURE2, &[1, 2]), 0xB2AD_0000),
    ];
    let (mut errors, mut verdicts) = (0, 0);
    for (version, base, seed_base) in corpora {
        for (case, bytes) in mutation_corpus(&base, seed_base).iter().enumerate() {
            let stdin = told(home::serve::analyze_stream(Cursor::new(bytes)));
            for jobs in [1, 2, 4] {
                assert_eq!(
                    told(home::serve::analyze_trace(bytes, jobs)),
                    stdin,
                    "{version} case {case}: file (--jobs {jobs}) vs stdin"
                );
            }
            match &stdin {
                Ok(_) => verdicts += 1,
                Err(msg) => {
                    errors += 1;
                    // A reader fault names a byte, a detector fault the
                    // event (`seq`) it tripped on.
                    assert!(
                        msg.contains("byte") || msg.contains("seq"),
                        "{version} case {case}: error names no position: {msg}"
                    );
                }
            }
            // The daemon reads a stream as HBT only behind the magic's
            // first byte; anything else is a command line to it.
            if bytes.first() == Some(&HBT_MAGIC[0]) {
                assert_eq!(
                    submitted(&dir, bytes),
                    stdin,
                    "{version} case {case}: submit vs stdin"
                );
            }
        }
    }
    assert!(
        errors > 100 && verdicts > 20,
        "the corpus exercises both outcomes: {errors} errors, {verdicts} verdicts"
    );
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

// ---------------------------------------------------------------------------
// The decoder's fast paths: the file-name cache hit taken before UTF-8
// validation, the one-byte varint, the pipe's batched feed. Every expected
// string below was captured from the decoder that had none of them.
// ---------------------------------------------------------------------------

use home::trace::{
    AccessKind, BarrierId, CommId, Event, EventKind, LockId, MemLoc, MpiCallKind, MpiCallRecord,
    Rank, RegionId, ReqId, SrcLoc, Tid, VarId,
};

/// An event with every optional header field present.
fn event_of(kind: EventKind) -> Event {
    Event {
        seq: 1,
        rank: Rank(2),
        tid: Tid(3),
        region: Some(RegionId(4)),
        time_ns: 5,
        loc: Some(SrcLoc::new("prog.hmp", 6)),
        kind,
    }
}

/// The `EVENT` payload (kind byte included) the writer produces for `event`.
fn payload_of(event: &Event) -> Vec<u8> {
    let mut writer = HbtWriter::new(Vec::new()).expect("header write");
    writer.write_event(event).expect("event record");
    let bytes = writer.finish().expect("trailer write");
    let (_, kind, payload) = physical_records(&bytes).remove(0);
    assert_eq!(kind, 2, "an EVENT record");
    bytes[payload].to_vec()
}

fn varint_len(v: u64) -> usize {
    let mut out = Vec::new();
    put_varint(&mut out, v);
    out.len()
}

/// `payloads` as the plain records of a v1 stream: one anonymous section.
fn plain_stream(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = header();
    for payload in payloads {
        put_varint(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(payload);
    }
    bytes.push(0);
    bytes
}

/// The same records as one uncompressed anonymous frame of a v2 stream, so
/// the frame path decodes them too. The frame record starts at byte 5; its
/// body's offsets are relative, which is why a fault inside names both.
fn framed_stream(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut body = Vec::new();
    for payload in payloads {
        put_varint(&mut body, payload.len() as u64);
        body.extend_from_slice(payload);
    }
    let events = payloads.iter().filter(|p| p[0] == 2).count() as u64;
    let incidents = payloads.len() as u64 - events;
    let mut frame = vec![5u8, 0]; // REC_FRAME, flags: anonymous, stored raw
    put_varint(&mut frame, events);
    put_varint(&mut frame, incidents);
    put_varint(&mut frame, body.len() as u64);
    frame.extend_from_slice(&body);
    let mut bytes = HBT_MAGIC.to_vec();
    bytes.push(HBT_V2);
    put_varint(&mut bytes, frame.len() as u64);
    bytes.extend_from_slice(&frame);
    bytes.extend_from_slice(&encode_index_record(&[IndexEntry {
        offset: 5,
        seed: None,
        continuation: false,
        events,
        incidents,
        raw_len: body.len() as u64,
    }]));
    bytes.push(0);
    bytes
}

/// Both streams must decode to exactly `events`, through every source.
fn assert_decodes_to(payloads: &[Vec<u8>], events: &[Event]) {
    let want: Vec<HbtRecord> = events.iter().cloned().map(HbtRecord::Event).collect();
    for stream in [plain_stream(payloads), framed_stream(payloads)] {
        let got = read(&stream).unwrap_or_else(|e| panic!("{events:?} must decode: {e}"));
        let got: Vec<_> = got
            .into_iter()
            .filter(|r| matches!(r, HbtRecord::Event(_)))
            .collect();
        assert_eq!(got, want);
    }
}

/// Both streams must be refused with `fault` (the decoder's words, category
/// prefix included, up to " at byte") raised `at` bytes into the last
/// payload: the plain stream names the absolute offset, the framed one the
/// frame and the offset within its body.
fn assert_refused(payloads: &[Vec<u8>], fault: &str, at: usize) {
    let before: usize = payloads[..payloads.len() - 1]
        .iter()
        .map(|p| varint_len(p.len() as u64) + p.len())
        .sum();
    let inner = before + varint_len(payloads[payloads.len() - 1].len() as u64) + at;
    assert_eq!(
        read(&plain_stream(payloads)).expect_err("the plain stream must be refused"),
        format!("{fault} at byte {}", 5 + inner),
    );
    assert_eq!(
        read(&framed_stream(payloads)).expect_err("the framed stream must be refused"),
        format!("corrupt trace: corrupt HBT frame at byte 5: {fault} at byte {inner}"),
    );
}

/// Where `needle` sits in `payload`; it must sit there once.
fn find_once(payload: &[u8], needle: &[u8]) -> usize {
    let hits: Vec<usize> = (0..=payload.len() - needle.len())
        .filter(|&i| &payload[i..i + needle.len()] == needle)
        .collect();
    assert_eq!(hits.len(), 1, "{needle:x?} in {payload:x?}");
    hits[0]
}

/// `payload` with its one occurrence of `needle` replaced, and where the
/// replacement starts.
fn spliced(payload: &[u8], needle: &[u8], replacement: &[u8]) -> (Vec<u8>, usize) {
    let at = find_once(payload, needle);
    let mut out = payload[..at].to_vec();
    out.extend_from_slice(replacement);
    out.extend_from_slice(&payload[at + needle.len()..]);
    (out, at)
}

fn barrier() -> EventKind {
    EventKind::Barrier {
        barrier: BarrierId(7),
        epoch: 8,
    }
}

#[test]
fn the_file_name_cache_hits_on_the_same_bytes_only() {
    let named = |seq: u64, file: &str| Event {
        seq,
        loc: Some(SrcLoc::new(file, 6)),
        ..event_of(barrier())
    };
    // A strict prefix, a one-byte extension, a same-length neighbour and the
    // empty name, each between two events that name the cached file.
    for other in ["prog.hm", "prog.hmpp", "prog.hmq", ""] {
        let events = [named(1, "prog.hmp"), named(2, other), named(3, "prog.hmp")];
        let payloads: Vec<_> = events.iter().map(payload_of).collect();
        assert_decodes_to(&payloads, &events);
    }
    // Name bytes that are not UTF-8, of the cached name's length and sharing
    // its first bytes, straight after the event that cached it: refused, at
    // the first byte of the name.
    let cached = payload_of(&named(1, "prog.hmp"));
    let (bad, at) = spliced(
        &payload_of(&named(2, "prog.hmp")),
        b"prog.hmp",
        b"prog\xFFhmp",
    );
    assert_refused(
        &[cached.clone(), bad],
        "corrupt trace: invalid UTF-8 in source file",
        at,
    );
    // … and when the bad bytes run past the end of the payload.
    let (cut, at) = spliced(
        &payload_of(&named(2, "prog.hmp")),
        b"\x08prog.hmp",
        b"\x7fprog",
    );
    assert_refused(
        &[cached, cut],
        "invalid trace: truncated HBT record: unexpected end of payload in source file",
        at + 1,
    );
}

/// A varint field of an event: the decoder's name for it, and an event
/// carrying `v` there (cut to the field's width).
type Field = (&'static str, fn(u64) -> Event);

const FIELDS_U64: [Field; 8] = [
    ("event seq", |v| Event {
        seq: v,
        ..event_of(barrier())
    }),
    ("event region", |v| Event {
        region: Some(RegionId(v)),
        ..event_of(barrier())
    }),
    ("event time", |v| Event {
        time_ns: v,
        ..event_of(barrier())
    }),
    ("element index", |v| {
        event_of(EventKind::Access {
            loc: MemLoc::Elem(VarId(7), v),
            kind: AccessKind::Write,
        })
    }),
    ("fork region", |v| {
        event_of(EventKind::Fork {
            region: RegionId(v),
            nthreads: 7,
        })
    }),
    ("join region", |v| {
        event_of(EventKind::JoinRegion {
            region: RegionId(v),
        })
    }),
    ("barrier epoch", |v| {
        event_of(EventKind::Barrier {
            barrier: BarrierId(7),
            epoch: v,
        })
    }),
    ("MPI call request", |v| {
        event_of(EventKind::MpiCall {
            call: MpiCallRecord {
                request: Some(ReqId(v)),
                ..MpiCallRecord::of_kind(MpiCallKind::Wait)
            },
        })
    }),
];

const FIELDS_U32: [Field; 8] = [
    ("event rank", |v| Event {
        rank: Rank(v as u32),
        ..event_of(barrier())
    }),
    ("event tid", |v| Event {
        tid: Tid(v as u32),
        ..event_of(barrier())
    }),
    ("source line", |v| Event {
        loc: Some(SrcLoc::new("prog.hmp", v as u32)),
        ..event_of(barrier())
    }),
    ("variable id", |v| {
        event_of(EventKind::Access {
            loc: MemLoc::Var(VarId(v as u32)),
            kind: AccessKind::Read,
        })
    }),
    ("lock id", |v| {
        event_of(EventKind::Acquire {
            lock: LockId(v as u32),
        })
    }),
    ("fork nthreads", |v| {
        event_of(EventKind::Fork {
            region: RegionId(7),
            nthreads: v as u32,
        })
    }),
    ("barrier id", |v| {
        event_of(EventKind::Barrier {
            barrier: BarrierId(v as u32),
            epoch: 8,
        })
    }),
    ("MPI call communicator", |v| {
        event_of(EventKind::MpiCall {
            call: MpiCallRecord {
                comm: CommId(v as u32),
                ..MpiCallRecord::of_kind(MpiCallKind::Barrier)
            },
        })
    }),
];

/// The zigzag fields: the event carries `v as i32`.
const FIELDS_I32: [Field; 2] = [
    ("MPI call peer", |v| {
        event_of(EventKind::MpiCall {
            call: MpiCallRecord {
                peer: Some(v as i32),
                ..MpiCallRecord::of_kind(MpiCallKind::Send)
            },
        })
    }),
    ("MPI call tag", |v| {
        event_of(EventKind::MpiCall {
            call: MpiCallRecord {
                tag: Some(v as i32),
                ..MpiCallRecord::of_kind(MpiCallKind::Send)
            },
        })
    }),
];

const U32_MAX_BYTES: [u8; 5] = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
const U64_MAX_BYTES: [u8; 10] = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];

/// The two ways a varint fails to fit 64 bits, both noticed at the tenth
/// byte: a last byte holding more than the one bit left, and a value still
/// going (which any eleven-byte encoding is).
const OVERFLOWS: [&[u8]; 2] = [
    &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
    &[
        0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
    ],
];

#[test]
fn varint_boundaries_round_trip_at_every_event_field() {
    let narrow = [0, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX)];
    let wide = [
        &narrow[..],
        &[u64::from(u32::MAX) + 1, u64::MAX - 1, u64::MAX],
    ]
    .concat();
    let tables: [(&[Field], &[u64]); 3] = [
        (&FIELDS_U64, &wide),
        (&FIELDS_U32, &narrow),
        (&FIELDS_I32, &narrow),
    ];
    for (fields, values) in tables {
        for (_, with) in fields {
            for &v in values {
                let event = with(v);
                assert_decodes_to(&[payload_of(&event)], std::slice::from_ref(&event));
            }
        }
    }
    // Zigzag puts the one-byte boundary at -64/63 and the u32 one at
    // i32::MIN/i32::MAX.
    for (_, with) in &FIELDS_I32 {
        for v in [
            -1i32,
            63,
            64,
            -64,
            -65,
            8191,
            8192,
            -8193,
            i32::MAX,
            i32::MIN,
        ] {
            let event = with(v as u32 as u64);
            assert_decodes_to(&[payload_of(&event)], std::slice::from_ref(&event));
        }
    }
}

#[test]
fn varint_overflow_and_range_faults_name_the_field_and_the_byte() {
    // One past u32::MAX, five bytes like u32::MAX itself.
    let past_u32 = [0x80, 0x80, 0x80, 0x80, 0x10];
    for (what, with) in &FIELDS_U32 {
        let (bad, at) = spliced(
            &payload_of(&with(u64::from(u32::MAX))),
            &U32_MAX_BYTES,
            &past_u32,
        );
        let fault = format!("corrupt trace: {what} value 4294967296 exceeds u32");
        assert_refused(&[bad], &fault, at + past_u32.len());
    }
    // Zigzag: u32::MAX is i32::MIN, one past it unzigzags to 2^31.
    for (what, with) in &FIELDS_I32 {
        let (bad, at) = spliced(
            &payload_of(&with(i32::MIN as u32 as u64)),
            &U32_MAX_BYTES,
            &past_u32,
        );
        let fault = format!("corrupt trace: {what} value 2147483648 exceeds i32");
        assert_refused(&[bad], &fault, at + past_u32.len());
    }
    // Every field, carrying the widest value it takes.
    let widest = |fields: &'static [Field], needle: &'static [u8], v: u64| {
        fields.iter().map(move |field| (field, needle, v))
    };
    let fields = widest(&FIELDS_U64, &U64_MAX_BYTES, u64::MAX)
        .chain(widest(&FIELDS_U32, &U32_MAX_BYTES, u64::from(u32::MAX)))
        .chain(widest(&FIELDS_I32, &U32_MAX_BYTES, i32::MIN as u32 as u64));
    for ((what, with), needle, v) in fields {
        let payload = payload_of(&with(v));
        for overflow in OVERFLOWS {
            let (bad, at) = spliced(&payload, needle, overflow);
            let fault = format!("corrupt trace: varint overflow in {what}");
            assert_refused(&[bad], &fault, at + 10);
        }
        // Cut after the value's first byte: the payload ends mid-field.
        let at = find_once(&payload, needle);
        let fault =
            format!("invalid trace: truncated HBT record: unexpected end of payload in {what}");
        assert_refused(&[payload[..at + 1].to_vec()], &fault, at + 1);
    }
}

/// The recorded events of figure 2 under `seed`, as `home record` sees them.
fn figure2_events(seed: u64) -> Vec<Event> {
    let source = std::fs::read_to_string(FIGURE2).expect("test program exists");
    let program = parse(&source).expect("test program parses");
    let checklist = Arc::new(analyze(&program).checklist.clone());
    let mut cfg = RunConfig::test(2, seed)
        .with_instrumentation(Instrumentation::home())
        .with_checklist(checklist);
    cfg.threads_per_proc = 2;
    cfg.sched.policy = SchedPolicy::Random;
    run(&program, &cfg).trace.events().to_vec()
}

/// Two recorded sections, v2; the first has an incident between two of its
/// events.
fn sections_with_an_incident_between_events(first: &[Event], second: &[Event]) -> Vec<u8> {
    let mut writer = HbtWriter::new_compressed(Vec::new()).expect("header write");
    writer.begin_run(1).expect("run record");
    for (i, e) in first.iter().enumerate() {
        if i == first.len() / 2 {
            writer
                .write_incident(&home::stream::TraceIncident {
                    rank: 0,
                    line: 3,
                    call: "MPI_Recv".into(),
                    error: "request completed twice".into(),
                })
                .expect("incident record");
        }
        writer.write_event(e).expect("event record");
    }
    writer.begin_run(2).expect("run record");
    for e in second {
        writer.write_event(e).expect("event record");
    }
    writer.finish().expect("trailer write")
}

#[test]
fn a_pipe_feeds_batches_and_still_tells_what_the_file_tells() {
    let whole = |outcome: Result<home::serve::TraceOutcome, HomeError>| {
        outcome.map(|o| format!("{o:?}")).map_err(|e| e.to_string())
    };
    let events = figure2_events(1);

    // An incident between events ends one batch and starts the next: same
    // verdict, counts included.
    let bytes = sections_with_an_incident_between_events(&events, &figure2_events(2));
    let piped = whole(home::serve::analyze_stream(Cursor::new(&bytes)));
    assert!(
        piped.as_ref().is_ok_and(|o| o.contains("Violation")),
        "{piped:?}"
    );
    for jobs in [1, 2] {
        assert_eq!(whole(home::serve::analyze_trace(&bytes, jobs)), piped);
    }

    // The first section's last event steps back in `seq`, and the stream is
    // cut inside the second section's frame. The detector's fault comes
    // first in stream order, though the pipe has fed nothing of the batch
    // that holds it when the reader gives up.
    let mut disordered = events.clone();
    let last = disordered.len() - 1;
    assert!(disordered[..last]
        .iter()
        .any(|e| e.rank == disordered[last].rank && e.seq > 0));
    disordered[last].seq = 0;
    let bytes = sections_with_an_incident_between_events(&disordered, &events);
    let second_frame = index_entries(&bytes)[1].offset as usize;
    let cut = &bytes[..second_frame + 12];
    let piped = whole(home::serve::analyze_stream(Cursor::new(cut)));
    let fault = piped
        .clone()
        .expect_err("a disordered section must be refused");
    assert!(fault.contains("out-of-order event stream"), "{fault}");
    for jobs in [1, 2] {
        assert_eq!(whole(home::serve::analyze_trace(cut, jobs)), piped);
    }
    // Without the step back, the same cut is the reader's to report.
    let bytes = sections_with_an_incident_between_events(&events, &events);
    let cut = &bytes[..second_frame + 12];
    let piped = whole(home::serve::analyze_stream(Cursor::new(cut)));
    let fault = piped.clone().expect_err("a cut stream must be refused");
    assert!(fault.contains("truncated HBT stream"), "{fault}");
    for jobs in [1, 2] {
        assert_eq!(whole(home::serve::analyze_trace(cut, jobs)), piped);
    }
}

// ---------------------------------------------------------------------------
// Fault order inside a section: the reader inflates a whole frame before it
// yields any of its records, so a decode fault in frame F is told ahead of a
// detector fault raised by F's own events, and a detector fault from an
// earlier frame is told ahead of F's decode fault. Every door must keep that
// order however finely it feeds the detector.
// ---------------------------------------------------------------------------

/// Rank 0's `seq`-th event: a write of one shared variable.
fn write_at(seq: u64) -> Event {
    Event {
        seq,
        rank: Rank(0),
        tid: Tid(0),
        region: None,
        time_ns: seq,
        loc: Some(SrcLoc::new("order.hmp", 1)),
        kind: EventKind::Access {
            loc: MemLoc::Var(VarId(0)),
            kind: AccessKind::Write,
        },
    }
}

/// A join of a region nobody forked: the detector refuses the stream there.
fn unforked_join(seq: u64) -> Event {
    Event {
        kind: EventKind::JoinRegion {
            region: RegionId(9),
        },
        ..write_at(seq)
    }
}

/// An `EVENT` payload whose flag byte the decoder refuses.
fn undecodable(seq: u64) -> Vec<u8> {
    let mut payload = payload_of(&write_at(seq));
    payload[1] = 0x80;
    payload
}

/// `frames` (each a list of `EVENT` payloads) as the one section of a v2
/// stream recorded under `seed`, every frame stored raw: the first carries
/// the seed and the rest continue it; then the seek index, the manifest and
/// the end marker.
fn seeded_section(seed: u64, frames: &[Vec<Vec<u8>>]) -> Vec<u8> {
    let mut bytes = HBT_MAGIC.to_vec();
    bytes.push(HBT_V2);
    let mut entries = Vec::new();
    for (i, payloads) in frames.iter().enumerate() {
        let mut body = Vec::new();
        for payload in payloads {
            put_varint(&mut body, payload.len() as u64);
            body.extend_from_slice(payload);
        }
        let entry = IndexEntry {
            offset: bytes.len() as u64,
            seed: (i == 0).then_some(seed),
            continuation: i > 0,
            events: payloads.len() as u64,
            incidents: 0,
            raw_len: body.len() as u64,
        };
        // REC_FRAME; flags: the seed, or a continuation; stored raw.
        let mut frame = vec![5u8, if i == 0 { 1 } else { 4 }];
        if i == 0 {
            put_varint(&mut frame, seed);
        }
        put_varint(&mut frame, entry.events);
        put_varint(&mut frame, 0);
        put_varint(&mut frame, entry.raw_len);
        frame.extend_from_slice(&body);
        put_varint(&mut bytes, frame.len() as u64);
        bytes.extend_from_slice(&frame);
        entries.push(entry);
    }
    bytes.extend_from_slice(&encode_index_record(&entries));
    let mut manifest = vec![4u8, 1, 1]; // REC_MANIFEST, one section, seeded
    put_varint(&mut manifest, seed);
    put_varint(&mut bytes, manifest.len() as u64);
    bytes.extend_from_slice(&manifest);
    bytes.push(0);
    bytes
}

/// What every door tells of `bytes`: `home replay <file>` at one and two
/// jobs, `home replay -` and `home submit` must all tell one thing.
fn told_by_every_door(dir: &std::path::Path, bytes: &[u8]) -> Told {
    let piped = told(home::serve::analyze_stream(Cursor::new(bytes)));
    for jobs in [1, 2] {
        assert_eq!(
            told(home::serve::analyze_trace(bytes, jobs)),
            piped,
            "file (--jobs {jobs}) vs pipe"
        );
    }
    assert_eq!(submitted(dir, bytes), piped, "submit vs pipe");
    piped
}

#[test]
fn replay_fault_order_is_stream_order_through_every_door() {
    let dir = tmp_dir("fault_order");
    // The detector's fault sits 4,097 events ahead of the corrupt record:
    // further than any feed of the detector reaches ahead of the decoder.
    let gap = 4_096;
    let clean = |seqs: std::ops::RangeInclusive<u64>| -> Vec<Vec<u8>> {
        seqs.map(|seq| payload_of(&write_at(seq))).collect()
    };
    let join_fault = "corrupt trace: join event at seq 0 on rank0 references unknown \
                      segment region9 (no fork recorded and no thread events)";

    // One frame: the unforked join, then `gap` writes, then the corrupt
    // record. The frame's decode fault is told, not the join.
    let mut frame = vec![payload_of(&unforked_join(0))];
    frame.extend(clean(1..=gap));
    frame.push(undecodable(gap + 1));
    assert_eq!(
        told_by_every_door(&dir, &seeded_section(7, &[frame])),
        Err(
            "corrupt trace: corrupt HBT frame at byte 5: corrupt trace: invalid event \
             flag bits 0x80 at byte 98073"
                .to_string()
        ),
        "a decode fault is told ahead of the detector fault of its own frame"
    );

    // The join in the first frame, the corrupt record in the second: the
    // earlier frame's detector fault is told.
    let mut first = vec![payload_of(&unforked_join(0))];
    first.extend(clean(1..=gap));
    let mut second = clean(gap + 1..=2 * gap);
    second.push(undecodable(2 * gap + 1));
    assert_eq!(
        told_by_every_door(&dir, &seeded_section(7, &[first, second])),
        Err(join_fault.to_string()),
        "a detector fault of an earlier frame is told ahead of a decode fault"
    );
}

/// One batch reused across frames decodes each exactly as a fresh batch
/// does and as the reader yields it, whatever its slots held before: the
/// event at index 1 names, frame by frame, file A, file B, no file, a
/// strict prefix of A, A again, and then bytes that are not UTF-8 — refused
/// in the words and at the offset of the decoder that reused nothing. The
/// event at index 0 goes from A to its prefix and back.
#[test]
fn a_reused_batch_never_keeps_a_stale_file_name() {
    let named = |seq: u64, file: Option<&str>| Event {
        loc: file.map(|f| SrcLoc::new(f, 6)),
        ..write_at(seq)
    };
    let (a, b, prefix) = (Some("prog.hmp"), Some("other.hmp"), Some("prog.hm"));
    let leads = [a, prefix, a, None, b];
    let names = [a, b, None, prefix, a];
    let expected: Vec<[Event; 2]> = (0u64..)
        .zip(leads.into_iter().zip(names))
        .map(|(k, (lead, name))| [named(2 * k, lead), named(2 * k + 1, name)])
        .collect();
    let mut frames: Vec<Vec<Vec<u8>>> = expected
        .iter()
        .map(|events| events.iter().map(payload_of).collect())
        .collect();
    let seq = 2 * names.len() as u64;
    let lead = payload_of(&named(seq, Some("lead.hmp")));
    let (bad, at) = spliced(
        &payload_of(&named(seq + 1, Some("prog.hmp"))),
        b"prog.hmp",
        b"prog\xFFhmp",
    );
    let inner = varint_len(lead.len() as u64) + lead.len() + varint_len(bad.len() as u64) + at;
    frames.push(vec![lead, bad]);
    let bytes = seeded_section(3, &frames);

    let layout = scan_layout(&bytes)
        .expect("a valid layout")
        .expect("a v2 stream");
    let mut reader = HbtReader::from_slice(&bytes).expect("valid header");
    let (mut scratch, mut reused) = (FrameScratch::new(), FrameBatch::new());
    for (k, frame) in layout.frames.iter().enumerate() {
        let mut fresh = FrameBatch::new();
        let fresh = decode_frame_into(&bytes, frame, &mut FrameScratch::new(), &mut fresh)
            .map(|()| fresh.events)
            .map_err(|e| e.to_string());
        let again = decode_frame_into(&bytes, frame, &mut scratch, &mut reused)
            .map(|()| reused.events.clone())
            .map_err(|e| e.to_string());
        let mut read = Ok(Vec::new());
        while let Ok(events) = &mut read {
            if events.len() == frame.entry.events as usize {
                break;
            }
            match reader.next_record() {
                Ok(Some(HbtRecord::Event(e))) => events.push(e),
                Ok(Some(_)) => {}
                Ok(None) => panic!("frame {k}: the stream ended early"),
                Err(e) => read = Err(e.to_string()),
            }
        }
        assert_eq!(again, fresh, "frame {k}: reused batch vs fresh batch");
        assert_eq!(again, read, "frame {k}: reused batch vs reader");
        match expected.get(k) {
            Some(events) => assert_eq!(again, Ok(events.to_vec()), "frame {k}"),
            None => assert_eq!(
                again,
                Err(format!(
                    "corrupt trace: corrupt HBT frame at byte {}: corrupt trace: \
                     invalid UTF-8 in source file at byte {inner}",
                    frame.entry.offset
                )),
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Every answer, pinned. FNV-1a 64 of what each reader and each replay door
// makes of the corpora above (the records, the frame path's sections and the
// verdicts with their per-section counts, or the first error's words and
// offset), of crafted long and overflowing varints at every place the
// format has one, and of `home replay` over a tiled full-instrumentation
// recording of the class-S NPB-MZ programs. Captured on the commit before
// the payload varints were read in one loop, the event decoder took its
// fields in line, the detector's retiring sweep visited only live
// histories and each replay worker kept one session across sections; never
// edited since.
// ---------------------------------------------------------------------------

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A replay verdict with everything it counts, or its error's words.
fn verdict(outcome: Result<home::serve::TraceOutcome, HomeError>) -> String {
    match outcome {
        Ok(o) => {
            let sections: Vec<_> = o
                .sections
                .iter()
                .map(|s| {
                    (
                        s.seed,
                        s.events,
                        s.races,
                        s.unclassified,
                        s.violations.len(),
                    )
                })
                .collect();
            let violations: Vec<String> = o.violations.iter().map(|v| v.to_string()).collect();
            format!(
                "{} {} {} {sections:?} {violations:?}",
                o.events, o.races, o.unclassified
            )
        }
        Err(e) => e.to_string(),
    }
}

/// Every answer there is to `bytes`: the reader's records (both sources
/// agreeing, see [`read`]), the frame path's, and the verdict of `replay
/// <file>` at one and two jobs and of `replay -`.
fn answers(bytes: &[u8]) -> String {
    format!(
        "{:?}\n{:?}\n{}\n{}\n{}\n",
        read(bytes),
        frame_path(bytes),
        verdict(home::serve::analyze_trace(bytes, 1)),
        verdict(home::serve::analyze_trace(bytes, 2)),
        verdict(home::serve::analyze_stream(Cursor::new(bytes))),
    )
}

/// Varints of nine and ten bytes that fit 64 bits, one of ten whose last
/// byte holds more than the one bit left (2^64), and one of eleven.
const CRAFTED: [&[u8]; 4] = [
    &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F],
    &U64_MAX_BYTES,
    &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
    &[
        0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
    ],
];

/// One anonymous v2 frame around `stored`, declaring `events` events and
/// `raw_len` uncompressed bytes, compressed or not; then a matching index,
/// no manifest and the end marker.
fn one_frame_stream(stored: &[u8], compressed: bool, events: &[u8], raw_len: u64) -> Vec<u8> {
    let mut frame = vec![5u8, if compressed { 2 } else { 0 }];
    frame.extend_from_slice(events);
    put_varint(&mut frame, 0);
    put_varint(&mut frame, raw_len);
    frame.extend_from_slice(stored);
    let mut bytes = HBT_MAGIC.to_vec();
    bytes.push(HBT_V2);
    put_varint(&mut bytes, frame.len() as u64);
    bytes.extend_from_slice(&frame);
    bytes.extend_from_slice(&encode_index_record(&[IndexEntry {
        offset: 5,
        seed: None,
        continuation: false,
        events: 1,
        incidents: 0,
        raw_len,
    }]));
    bytes.push(0);
    bytes
}

/// Streams carrying `varint` at every place the format reads one: each
/// 64-bit event field, in the middle of a three-event frame and as the last
/// field of a lone payload, whole, cut right after it and cut inside it; a
/// record length at the top level and inside a frame; a frame's event
/// count; and an LZ block's offset and its literal and match length
/// extensions.
fn varint_streams(varint: &[u8]) -> Vec<Vec<u8>> {
    let good = payload_of(&event_of(barrier()));
    let mut streams = Vec::new();
    for (_, with) in &FIELDS_U64 {
        let (payload, at) = spliced(&payload_of(&with(u64::MAX)), &U64_MAX_BYTES, varint);
        let middle = [good.clone(), payload.clone(), good.clone()];
        let cuts = [
            payload.clone(),
            payload[..at + varint.len()].to_vec(),
            payload[..at + 5].to_vec(),
        ];
        for payloads in std::iter::once(middle.to_vec()).chain(cuts.map(|p| vec![p])) {
            streams.push(plain_stream(&payloads));
            streams.push(framed_stream(&payloads));
        }
    }
    // A record length: of a plain record, and of a record inside a frame.
    let mut plain = header();
    plain.extend_from_slice(varint);
    plain.extend_from_slice(&good);
    plain.push(0);
    streams.push(plain);
    let mut body = varint.to_vec();
    body.extend_from_slice(&good);
    streams.push(one_frame_stream(&body, false, &[1], body.len() as u64));
    // A frame's declared event count.
    let mut body = Vec::new();
    put_varint(&mut body, good.len() as u64);
    body.extend_from_slice(&good);
    streams.push(one_frame_stream(&body, false, varint, body.len() as u64));
    // An LZ block: a match offset, a literal length extension, a match
    // length extension.
    let raw_len = body.len() as u64;
    let blocks = [
        [&[0x10, body[0]][..], varint].concat(),
        [&[0xF0][..], varint, &body].concat(),
        [&[0x1F, body[0], 0x01][..], varint].concat(),
    ];
    for block in blocks {
        streams.push(one_frame_stream(&block, true, &[1], raw_len));
    }
    streams
}

/// A tiled full-instrumentation recording of the class-S LU-, BT- and
/// SP-MZ programs (2 ranks x 2 threads, seed 1 each), written three times
/// over as twelve seeded sections of one v2 stream.
fn tiled_class_s() -> Vec<u8> {
    let recordings: Vec<(Trace, Vec<home::stream::TraceIncident>)> =
        [Benchmark::LuMz, Benchmark::BtMz, Benchmark::SpMz]
            .into_iter()
            .map(|benchmark| {
                let program = build_injected(benchmark, Class::S).program;
                let mut cfg = RunConfig::test(2, 1).with_instrumentation(Instrumentation::full());
                cfg.threads_per_proc = 2;
                let result = run(&program, &cfg);
                (result.trace, result.mpi_errors)
            })
            .collect();
    let mut writer = HbtWriter::new_compressed(Vec::new()).expect("header write");
    for seed in 1..=4 * recordings.len() as u64 {
        let (trace, incidents) = &recordings[(seed as usize - 1) % recordings.len()];
        writer.begin_run(seed).expect("run record");
        for e in trace.events() {
            writer.write_event(e).expect("event record");
        }
        for i in incidents {
            writer.write_incident(i).expect("incident record");
        }
    }
    writer.finish().expect("trailer write")
}

/// FNV-1a 64 of, in order: [`answers`] over the v1 and the v2 mutation
/// corpora, over every truncation of a one-seed v2 recording, and over
/// [`varint_streams`] of every [`CRAFTED`] varint; then the standard output
/// of `home replay <file> --jobs 1`, `--jobs 2` and `home replay -` over
/// [`tiled_class_s`].
const ANSWER_HASHES: [u64; 7] = [
    0xc00b_aca0_e189_c111,
    0xa7bc_76fb_017e_600f,
    0x755d_7386_5f43_17d5,
    0x3322_3840_1202_063d,
    0x60fa_4f97_abf0_6f25,
    0x60fa_4f97_abf0_6f25,
    0x60fa_4f97_abf0_6f25,
];

#[test]
fn hbt_answers_hash_to_the_pinned_constants() {
    let mut actual = [0u64; 7];
    let corpora = [
        (record_bytes(FIGURE2, &[1, 2]), 0xADE5_0000u64),
        (record_bytes_v2(FIGURE2, &[1, 2]), 0xB2AD_0000),
    ];
    for (slot, (base, seed_base)) in actual.iter_mut().zip(corpora) {
        let all: String = mutation_corpus(&base, seed_base)
            .iter()
            .map(|bytes| answers(bytes))
            .collect();
        *slot = fnv1a(all.as_bytes());
    }
    let base = record_bytes_v2(FIGURE2, &[1]);
    let all: String = (0..=base.len()).map(|cut| answers(&base[..cut])).collect();
    actual[2] = fnv1a(all.as_bytes());
    let all: String = CRAFTED
        .iter()
        .flat_map(|varint| varint_streams(varint))
        .map(|bytes| answers(&bytes))
        .collect();
    actual[3] = fnv1a(all.as_bytes());

    let dir = tmp_dir("answers");
    let file = dir.join("tiled.hbt");
    std::fs::write(&file, tiled_class_s()).expect("trace written");
    let replay = |args: &[&str], stdin: std::process::Stdio| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_home"))
            .args(args)
            .stdin(stdin)
            .output()
            .expect("failed to launch home binary");
        assert_eq!(out.status.code(), Some(1), "{args:?}: violations found");
        fnv1a(&out.stdout)
    };
    let path = file.to_str().expect("a UTF-8 path");
    actual[4] = replay(
        &["replay", path, "--jobs", "1"],
        std::process::Stdio::null(),
    );
    actual[5] = replay(
        &["replay", path, "--jobs", "2"],
        std::process::Stdio::null(),
    );
    let piped = std::fs::File::open(&file).expect("trace opens");
    actual[6] = replay(&["replay", "-", "--jobs", "1"], piped.into());
    assert_eq!(actual, ANSWER_HASHES, "actual: {actual:#018x?}");
}
