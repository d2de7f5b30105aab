//! Online streaming detection and the HBT compact binary trace format.
//!
//! This crate makes HOME's dynamic phase *online*: instead of
//! materializing a full `Vec<Event>` and re-scanning it post-mortem, a
//! simulation (or a replayed recording) feeds events one at a time into a
//! [`StreamDetector`], which runs the incremental lockset + vector-clock
//! analysis with bounded memory — per-rank sharded state and epoch-based
//! retirement of segments that can no longer race. Its verdicts are
//! identical to the batch engine `home_dynamic::detect`, enforced
//! report-byte-for-report-byte by the workspace parity tests.
//!
//! The second half is [`hbt`]: a varint-encoded, length-prefixed binary
//! trace format with a magic/version header and an explicit end marker,
//! readable and writable as a stream (`io::Read`/`io::Write`) with typed
//! truncation/corruption errors. `home record` writes it, `home replay`
//! and `home analyze -` consume it. Version 2 (`record --compress`) packs
//! sections into [`lz`]-compressed frames behind a writer-emitted seek
//! index, so replay can decode sections independently ([`scan_layout`] /
//! [`decode_frame_into`]).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod detector;
pub mod hbt;
pub mod lz;

use home_trace::Event;

/// A consumer of live events, one at a time, in recording order.
///
/// The streaming counterpart of scanning `Trace::events()`: implementors
/// must tolerate concurrent calls from multiple producer threads (the
/// simulator's collector is shared). [`StreamDetector`] implements this
/// and also `home_trace::TraceSink`, so it plugs directly into
/// `interp::run_with_sink`.
pub trait EventSink: Send + Sync {
    /// Consume one event.
    fn on_event(&self, event: &Event);
}

/// A consumer of race candidates, invoked by [`StreamDetector`] the moment
/// each race is discovered (same races, same per-rank order as the batch
/// engine's result list).
///
/// The callback fires while the detector holds the rank-shard lock, so
/// implementations must be quick and must **not** re-enter the detector
/// (no `consume`/`finish` from inside `on_race`). Multiple producer
/// threads may trigger callbacks concurrently for different ranks.
pub trait RaceSink: Send + Sync {
    /// One freshly discovered race.
    fn on_race(&self, race: &home_dynamic::Race);
}

pub use detector::{detect_stream, detect_stream_batched, StreamDetector, StreamStats};
pub use hbt::{
    decode_frame_into, decode_sections, encode_trace, is_hbt, scan_layout, sections_from_batches,
    FrameBatch, FrameLoc, FrameScratch, HbtLayout, HbtMmapReader, HbtReader, HbtRecord, HbtSection,
    HbtSliceReader, HbtWriter, IndexEntry, ManifestCheck, TraceIncident, HBT_MAGIC, HBT_V2,
    HBT_VERSION, MAX_RECORD_LEN,
};
pub use home_dynamic::Race;
