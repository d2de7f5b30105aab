//! The runtime phase of HOME — the race detector — and the HBT compact
//! binary trace format.
//!
//! Race detection per the paper's Section IV-D: classic **Eraser
//! locksets** and **vector-clock happens-before** are maintained
//! simultaneously; the hybrid combination flags a conflicting access pair
//! only when it is both HB-concurrent *and* lockset-disjoint, which keeps
//! false positives low without requiring the race to actually manifest in
//! the observed schedule. The detector is *online*: instead of
//! materializing a full `Vec<Event>` and re-scanning it post-mortem, a
//! simulation (or a replayed recording) feeds events into a
//! [`StreamDetector`], which runs the analysis with bounded memory —
//! per-rank state and epoch-based retirement of segments that can no
//! longer race. The same detector powers the ablation modes
//! ([`DetectorMode::LocksetOnly`], [`DetectorMode::HappensBeforeOnly`]) and
//! the Intel-Thread-Checker baseline's `omp critical` blindness
//! ([`DetectorConfig::ignore_locks`]).
//!
//! The second half is the HBT module: a varint-encoded, length-prefixed binary
//! trace format with a magic/version header and an explicit end marker,
//! written as a stream (`io::Write`) and read by one reader
//! ([`HbtReader`]) from a byte slice or from any `io::Read`, with typed
//! truncation/corruption errors. `home record` writes it, `home replay`
//! and `home serve` consume it. Version 2 (`record --compress`) packs
//! sections into [`lz`]-compressed frames behind a writer-emitted seek
//! index, so replay can decode sections independently ([`scan_layout`] /
//! [`decode_frame_into`]).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod detector;
mod hbt;
pub mod lz;
mod races;

/// A consumer of race candidates, handed to [`StreamDetector::consume_batch`]
/// by the caller and invoked the moment each race is discovered (same
/// races, same per-rank order as the result list [`StreamDetector::finish`]
/// returns). The detector is mutably borrowed for the whole call, so a sink
/// cannot reach back into it.
pub trait RaceSink {
    /// One freshly discovered race.
    fn on_race(&mut self, race: &Race);
}

pub use detector::{detect_stream, DetectorConfig, DetectorMode, StreamDetector, StreamStats};
pub use hbt::{
    decode_frame_chunks, decode_frame_into, decode_sections, encode_trace, is_hbt, scan_layout,
    sections_from_batches, FrameBatch, FrameLoc, FrameScratch, HbtLayout, HbtReader, HbtRecord,
    HbtSection, HbtWriter, IndexEntry, HBT_MAGIC, HBT_V2, HBT_VERSION, MAX_RECORD_LEN,
};
pub use races::{Race, RaceAccess};
// What an HBT section carries beside its events; named here too, where the
// format's readers and writers look for it.
pub use home_trace::TraceIncident;
