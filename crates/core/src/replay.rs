//! Materializing HBT decode: a whole trace as a `Vec` of sections.
//!
//! No CLI or daemon path decodes this way — `home replay` and `home
//! serve` go through `home_serve::analyze_trace`, which decodes each
//! frame into reused event slots and feeds them to the section's session
//! a chunk at a time, so a worker holds one chunk of decoded events. [`decode_trace`] stays for callers that want the
//! sections themselves (the benchmark's decode kernels, the parity
//! tests). v2 frames inflate and decode independently
//! ([`home_stream::scan_layout`]), fanned across scoped workers; v1
//! streams (and v2 streams carrying plain records) take the serial
//! [`home_stream::decode_sections`] path; both produce identical sections.

use crate::fanout::fan_out_indexed_with;
use home_stream::{
    decode_frame_into, decode_sections, scan_layout, sections_from_batches, FrameBatch, FrameLoc,
    FrameScratch, HbtSection,
};
use home_trace::HomeError;

/// Inflate `frames` across `jobs` workers into per-frame batches and
/// stitch them into sections. Each worker reuses one decompression
/// buffer ([`FrameScratch`]) across its whole chunk; decoded events land
/// directly in the [`FrameBatch`] buffers the sections are built from,
/// so no intermediate record list is materialized. The first frame
/// error in stream order wins, matching the serial reader.
fn decode_frames_parallel(
    bytes: &[u8],
    frames: &[FrameLoc],
    jobs: usize,
) -> Result<Vec<HbtSection>, HomeError> {
    let slots = fan_out_indexed_with(frames, jobs, FrameScratch::new, |scratch, _, frame| {
        let mut batch = FrameBatch::new();
        decode_frame_into(bytes, frame, scratch, &mut batch)?;
        Ok::<FrameBatch, HomeError>(batch)
    });
    let mut batches = Vec::with_capacity(slots.len());
    for (i, slot) in slots.into_iter().enumerate() {
        let batch = slot.unwrap_or_else(|| {
            Err(HomeError::corrupt_trace(format!(
                "HBT frame {i} produced no decode result"
            )))
        })?;
        batches.push(batch);
    }
    Ok(sections_from_batches(batches))
}

/// Decode an HBT byte stream into its trace sections, inflating v2
/// frames in parallel across `jobs` workers. The first frame error in
/// stream order wins, matching what the serial reader would report
/// first.
pub fn decode_trace(bytes: &[u8], jobs: usize) -> Result<Vec<HbtSection>, HomeError> {
    let layout = match scan_layout(bytes)? {
        Some(layout) => layout,
        None => return decode_sections(bytes),
    };
    decode_frames_parallel(bytes, &layout.frames, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use home_stream::HbtWriter;
    use home_trace::{BarrierId, Event, EventKind, Rank, RegionId, SrcLoc, Tid};

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

    fn big_v2_stream() -> Vec<u8> {
        let mut w = HbtWriter::new_compressed(Vec::new()).unwrap();
        for seed in [7u64, 8, 9] {
            w.begin_run(seed).unwrap();
            for seq in 0..40_000 {
                w.write_event(&sample_event(seq)).unwrap();
            }
        }
        w.finish().unwrap()
    }

    #[test]
    fn parallel_decode_matches_serial_for_every_jobs() {
        let bytes = big_v2_stream();
        let serial = decode_sections(&bytes).unwrap();
        for jobs in [1, 2, 4, 8] {
            let parallel = decode_trace(&bytes, jobs).unwrap();
            assert_eq!(parallel.len(), serial.len(), "jobs {jobs}");
            for (p, s) in parallel.iter().zip(&serial) {
                assert_eq!(p.seed, s.seed);
                assert_eq!(p.trace.events(), s.trace.events());
                assert_eq!(p.incidents, s.incidents);
            }
        }
    }

    #[test]
    fn parallel_decode_of_corrupt_frame_is_typed_error() {
        let mut bytes = big_v2_stream();
        // Flip a byte deep inside a frame body (past the header region).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        for jobs in [1, 4] {
            let err = match decode_trace(&bytes, jobs) {
                Err(e) => e,
                Ok(_) => continue, // the flip may land in slack the codec tolerates
            };
            assert!(format!("{err}").contains("byte"), "jobs {jobs}: {err}");
        }
    }
}
