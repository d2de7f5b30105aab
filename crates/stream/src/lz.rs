//! In-repo frame compression for HBT v2 — an LZ77 byte codec in the style
//! of the LZ4 block format. crates-io is unreachable from this workspace,
//! so the codec is hand-rolled: no dependencies, tuned for the shape HBT
//! sections actually have (long runs of near-identical
//! monitored-write/event records, exactly the "order records compress
//! extremely well" observation the record-and-replay literature makes).
//!
//! ## The compressor's contract
//!
//! There is one compressor, [`Compressor`], with no level and no mode. The
//! block it gives for an input is a function of the input alone and is
//! *pinned*: stored v2 traces, `serve` fingerprints and the `record
//! --compress` hashes of `tests/schedule_identity.rs` are made of these
//! bytes, so a change to how matches are found (what the finder compares,
//! in what width, which candidates it skips) must leave every choice the
//! finder makes where it was — hash, bucket depth, window, candidate order,
//! the one-step lazy match, backward extension, ties to the repeat offset.
//! `tests/lz_identity.rs` holds it to the finder it replaced, byte for byte
//! (`tests/support/lz_oracle.rs`).
//!
//! A writer keeps one compressor for all its frames. Its only state is the
//! match table, and the *reset invariant* is that [`Compressor::compress`]
//! zeroes the table before it reads it, so nothing an earlier input left
//! can be seen (the same test feeds one compressor its corpus in three
//! orders).
//!
//! ## Block format
//!
//! A compressed block is a sequence of *sequences*:
//!
//! ```text
//! sequence := token(u8) [lit_ext...] literals [offset(varint) [match_ext...]]
//! token    := literal_len(hi nibble) | match_len-4(lo nibble)
//! ```
//!
//! A nibble of 15 is extended by following bytes (each adds 0..=255,
//! terminated by a byte < 255). Matches copy `match_len` bytes from
//! `offset` bytes back in the output. The offset is an LEB128 varint —
//! record streams repeat with short periods, so most offsets fit one
//! byte — and the reserved value `0` means "same offset as the previous
//! match" (periodic records reuse one stride over and over). The final
//! sequence carries literals only and ends at the end of input.
//!
//! ## Safety against hostile input
//!
//! [`decompress_into`] takes the *expected* uncompressed length and treats it
//! as a hard output bound: the output buffer grows only as bytes are
//! actually produced (no attacker-sized pre-allocation), every offset is
//! validated against the bytes already produced, and a block that tries to
//! produce more or fewer bytes than declared is a typed [`LzError`] —
//! never a panic, never an OOM.

/// Minimum match length the compressor emits (and the decoder's bias on
/// the match-length nibble).
const MIN_MATCH: usize = 4;

/// Match-window bound the compressor respects (the decoder accepts any
/// offset the produced output can satisfy).
const MAX_OFFSET: usize = 65_535;

/// log2 of the compressor's hash-table size (64 Ki buckets of
/// [`CHAIN_DEPTH`] positions: 1 MiB).
const HASH_BITS: u32 = 16;

/// A typed decompression failure; the caller maps it into its own error
/// taxonomy (HBT wraps it into `HomeError::CorruptTrace`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LzError {
    /// The block ended mid-sequence.
    Truncated {
        /// Byte offset into the compressed block.
        at: usize,
    },
    /// A match offset points before the start of the output.
    BadOffset {
        /// Byte offset into the compressed block.
        at: usize,
        /// The offending back-reference distance.
        offset: usize,
    },
    /// The block decompressed to a different length than declared.
    LengthMismatch {
        /// Declared uncompressed length.
        expected: usize,
        /// Length actually produced (saturated at `expected` when the
        /// block tried to overrun).
        produced: usize,
    },
}

impl std::fmt::Display for LzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzError::Truncated { at } => {
                write!(f, "truncated LZ block at compressed byte {at}")
            }
            LzError::BadOffset { at, offset } => {
                write!(
                    f,
                    "LZ match offset {offset} reaches before the output start at compressed byte {at}"
                )
            }
            LzError::LengthMismatch { expected, produced } => {
                write!(
                    f,
                    "LZ block declares {expected} uncompressed byte(s) but produces {produced}"
                )
            }
        }
    }
}

/// The `N` bytes at `at`, for `from_le_bytes`: one load, not `N`.
#[inline]
fn load<const N: usize>(input: &[u8], at: usize) -> [u8; N] {
    let mut word = [0u8; N];
    word.copy_from_slice(&input[at..at + N]);
    word
}

/// Fibonacci hashing over a position's four bytes.
#[inline]
fn hash4(word: u32) -> usize {
    (word.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// How many bytes `input[cand..]` and `input[at..]` share (`cand < at`),
/// compared eight at a time: the first differing byte of a word is its
/// lowest set bit after the XOR.
#[inline]
fn common_prefix(input: &[u8], cand: usize, at: usize) -> usize {
    let mut n = 0;
    while at + n + 8 <= input.len() {
        let diff =
            u64::from_le_bytes(load(input, cand + n)) ^ u64::from_le_bytes(load(input, at + n));
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while at + n < input.len() && input[cand + n] == input[at + n] {
        n += 1;
    }
    n
}

fn push_len(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn push_varint(out: &mut Vec<u8>, mut v: usize) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Emit one sequence. `last_off` is the previous match's offset; a match
/// reusing it is encoded as the one-byte rep code `0`.
fn emit_sequence(
    out: &mut Vec<u8>,
    literals: &[u8],
    m: Option<(usize, usize)>,
    last_off: &mut usize,
) {
    let lit_nibble = literals.len().min(15);
    let (off, mlen) = m.unwrap_or((0, MIN_MATCH));
    let match_nibble = (mlen - MIN_MATCH).min(15);
    out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
    if lit_nibble == 15 {
        push_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if m.is_some() {
        if off == *last_off {
            out.push(0);
        } else {
            push_varint(out, off);
            *last_off = off;
        }
        if match_nibble == 15 {
            push_len(out, mlen - MIN_MATCH - 15);
        }
    }
}

/// How many recent candidate positions each hash bucket retains.
const CHAIN_DEPTH: usize = 4;

/// The compressor: the `CHAIN_DEPTH` most recent candidate positions of
/// each hash bucket, newest first, stored as position + 1 (0 = empty). A
/// writer keeps one for all its frames, so the 1 MiB table is allocated
/// once; [`Compressor::compress`] zeroes it before it reads it — positions
/// mean nothing from one input to the next — which is all the state there
/// is.
#[derive(Default)]
pub struct Compressor {
    slots: Vec<[u32; CHAIN_DEPTH]>,
}

impl std::fmt::Debug for Compressor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compressor").finish_non_exhaustive()
    }
}

impl Compressor {
    #[inline]
    fn insert(&mut self, word: u32, i: usize) {
        let bucket = &mut self.slots[hash4(word)];
        *bucket = [(i + 1) as u32, bucket[0], bucket[1], bucket[2]];
    }

    /// Longest match for position `i` (whose four bytes are `word`) among
    /// the bucket's candidates plus the repeat-offset candidate at distance
    /// `rep`: `(candidate position, match length)`. Ties go to the earlier
    /// candidate, except that the rep offset wins them (it encodes in one
    /// byte).
    fn probe(&self, input: &[u8], i: usize, word: u32, rep: usize) -> Option<(usize, usize)> {
        let mut best = None;
        let mut best_len = MIN_MATCH - 1;
        let [a, b, c, d] = self.slots[hash4(word)];
        let rep_slot = if rep > 0 && rep <= i { i - rep + 1 } else { 0 };
        for slot in [a, b, c, d, rep_slot as u32] {
            if slot == 0 {
                continue;
            }
            let cand = slot as usize - 1;
            let dist = i - cand;
            if !(1..=MAX_OFFSET).contains(&dist) {
                continue;
            }
            // Only a strictly longer match replaces the best one, so a
            // candidate that differs from the input where the best match
            // ends is not worth measuring — unless it would win the tie.
            let wins_ties = dist == rep && best.is_some();
            let may_be_longer = input
                .get(i + best_len)
                .is_some_and(|&b| b == input[cand + best_len]);
            if !(may_be_longer || wins_ties) {
                continue;
            }
            let mlen = common_prefix(input, cand, i);
            if mlen > best_len || (wins_ties && mlen == best_len) {
                best = Some((cand, mlen));
                best_len = mlen;
            }
        }
        best
    }

    /// Compress `input` into `out`, which is cleared first and keeps its
    /// capacity. Always succeeds; the block is at worst slightly larger
    /// than the input (incompressible data costs one token byte per 15
    /// literals). Deterministic: the same input always yields the same
    /// block, whatever this compressor was fed before.
    pub fn compress(&mut self, input: &[u8], out: &mut Vec<u8>) {
        out.clear();
        self.slots.clear();
        self.slots.resize(1 << HASH_BITS, [0; CHAIN_DEPTH]);
        let mut anchor = 0usize;
        let mut i = 0usize;
        let mut last_off = 0usize;
        while i + MIN_MATCH <= input.len() {
            let word = u32::from_le_bytes(load(input, i));
            let found = self.probe(input, i, word, last_off);
            self.insert(word, i);
            let Some((cand, mlen)) = found else {
                i += 1;
                continue;
            };
            let (mut cand, mut mlen, mut at) = (cand, mlen, i);
            // One-step lazy matching: when the very next position starts a
            // strictly better match, ship this byte as a literal and take
            // the longer match instead (the classic gain on record streams
            // whose period is off-by-one from the hash stride).
            if at + 1 + MIN_MATCH <= input.len() {
                let next = u32::from_le_bytes(load(input, at + 1));
                if let Some((cand2, mlen2)) = self.probe(input, at + 1, next, last_off) {
                    if mlen2 > mlen + 1 {
                        self.insert(next, at + 1);
                        (cand, mlen, at) = (cand2, mlen2, at + 1);
                    }
                }
            }
            // Extend the match backwards into the pending literals: bytes
            // just before the match start often repeat too, and a match
            // byte is cheaper than a literal byte.
            while at > anchor && cand > 0 && input[cand - 1] == input[at - 1] {
                at -= 1;
                cand -= 1;
                mlen += 1;
            }
            let dist = at - cand;
            emit_sequence(out, &input[anchor..at], Some((dist, mlen)), &mut last_off);
            // Index the whole match interior so later positions can reach
            // candidates inside it — record streams repeat with periods
            // that rarely line up with match boundaries.
            let end = at + mlen;
            for (k, w) in input[at + 1..end].windows(MIN_MATCH).enumerate() {
                self.insert(u32::from_le_bytes(load(w, 0)), at + 1 + k);
            }
            i = end;
            anchor = i;
        }
        emit_sequence(out, &input[anchor..], None, &mut last_off);
    }
}

fn read_ext(input: &[u8], pos: &mut usize, base: usize) -> Result<usize, LzError> {
    let mut extra = 0usize;
    loop {
        let b = *input.get(*pos).ok_or(LzError::Truncated { at: *pos })?;
        *pos += 1;
        extra += b as usize;
        if b < 255 {
            return Ok(base + extra);
        }
    }
}

/// Read an LEB128 offset varint. Hostile blocks can stuff continuation
/// bits forever; anything wider than 28 bits is corrupt (no real offset
/// gets near it — frames cap raw size at well under 2^28).
fn read_offset(input: &[u8], pos: &mut usize) -> Result<usize, LzError> {
    let start = *pos;
    let mut v = 0usize;
    let mut shift = 0u32;
    loop {
        let b = *input.get(*pos).ok_or(LzError::Truncated { at: *pos })?;
        *pos += 1;
        v |= usize::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 28 {
            return Err(LzError::BadOffset {
                at: start,
                offset: v,
            });
        }
    }
}

/// Decompress a block produced by [`Compressor`] (or by an attacker) into a
/// caller-owned buffer: `out` is cleared and refilled, retaining its
/// capacity, so a decode loop reuses one buffer across every frame it
/// inflates. `expected_len` is the declared uncompressed length and acts
/// as a hard bound on both allocation and output; any disagreement between
/// the block and the declaration is a typed error.
pub fn decompress_into(
    input: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), LzError> {
    out.clear();
    // Grow-as-produced: reserve at most 1 MiB up front so a lying
    // `expected_len` cannot force a giant allocation before the block's
    // own bytes justify it.
    out.reserve(expected_len.min(1 << 20));
    let mut pos = 0usize;
    let mut last_offset = 0usize;
    loop {
        if pos == input.len() {
            break;
        }
        let token = input[pos];
        pos += 1;
        let mut lit_len = usize::from(token >> 4);
        if lit_len == 15 {
            lit_len = read_ext(input, &mut pos, 15)?;
        }
        let lit_end = pos
            .checked_add(lit_len)
            .filter(|&e| e <= input.len())
            .ok_or(LzError::Truncated { at: pos })?;
        if out.len() + lit_len > expected_len {
            return Err(LzError::LengthMismatch {
                expected: expected_len,
                produced: expected_len,
            });
        }
        out.extend_from_slice(&input[pos..lit_end]);
        pos = lit_end;
        if pos == input.len() {
            // Final sequence: literals only.
            break;
        }
        let off_at = pos;
        let mut offset = read_offset(input, &mut pos)?;
        if offset == 0 {
            // Rep code: reuse the previous match's offset.
            offset = last_offset;
        } else {
            last_offset = offset;
        }
        if offset == 0 || offset > out.len() {
            return Err(LzError::BadOffset { at: off_at, offset });
        }
        let mut match_len = usize::from(token & 0x0f) + MIN_MATCH;
        if match_len == 15 + MIN_MATCH {
            match_len = read_ext(input, &mut pos, match_len)?;
        }
        if out.len() + match_len > expected_len {
            return Err(LzError::LengthMismatch {
                expected: expected_len,
                produced: expected_len,
            });
        }
        let start = out.len() - offset;
        if match_len <= offset {
            // Non-overlapping copy: one bounds check, then memcpy-speed.
            out.extend_from_within(start..start + match_len);
        } else {
            // Overlapping run (offset < length): byte-by-byte replication.
            for k in 0..match_len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    if out.len() != expected_len {
        return Err(LzError::LengthMismatch {
            expected: expected_len,
            produced: out.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        Compressor::default().compress(input, &mut out);
        out
    }

    fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, LzError> {
        let mut out = Vec::new();
        decompress_into(input, expected_len, &mut out)?;
        Ok(out)
    }

    fn roundtrip(data: &[u8]) {
        let packed = compress(data);
        let unpacked = decompress(&packed, data.len()).expect("roundtrip decodes");
        assert_eq!(unpacked, data, "roundtrip of {} bytes", data.len());
    }

    #[test]
    fn roundtrip_edge_shapes() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        roundtrip(
            "the quick brown fox jumps over the lazy dog. "
                .repeat(40)
                .as_bytes(),
        );
        let mut ramp: Vec<u8> = (0u32..10_000).map(|i| (i * 31 % 251) as u8).collect();
        roundtrip(&ramp);
        ramp.extend(std::iter::repeat_n(7u8, 100_000));
        roundtrip(&ramp);
    }

    #[test]
    fn repetitive_input_compresses_well() {
        let data = b"MONITORED_WRITE rank=0 tid=1 var=Src call=Recv ".repeat(1000);
        let packed = compress(&data);
        assert!(
            packed.len() * 4 < data.len(),
            "repetitive input must compress at least 4x: {} -> {}",
            data.len(),
            packed.len()
        );
    }

    #[test]
    fn seeded_random_roundtrips() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x17A5_0000);
        for case in 0..50 {
            let len = rng.gen_range(0u64..20_000) as usize;
            // Mix of random bytes and copied earlier windows, to exercise
            // both literal and match paths.
            let mut data = Vec::with_capacity(len);
            while data.len() < len {
                if !data.is_empty() && rng.gen_bool(0.5) {
                    let take = rng.gen_range(1u64..200) as usize;
                    let from = rng.gen_range(0u64..data.len() as u64) as usize;
                    for k in 0..take.min(len - data.len()) {
                        let b = data[(from + k) % data.len()];
                        data.push(b);
                    }
                } else {
                    data.push(rng.gen_range(0u64..256) as u8);
                }
            }
            let packed = compress(&data);
            let unpacked =
                decompress(&packed, data.len()).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(unpacked, data, "case {case}");
        }
    }

    #[test]
    fn hostile_blocks_are_typed_errors() {
        // Declared length larger than the block produces.
        let packed = compress(b"hello world hello world");
        assert!(matches!(
            decompress(&packed, 1000),
            Err(LzError::LengthMismatch { .. })
        ));
        // Declared length smaller than the block produces.
        assert!(matches!(
            decompress(&packed, 3),
            Err(LzError::LengthMismatch { .. })
        ));
        // Offset beyond the produced output.
        let bad = vec![0x01u8, b'x', 0xFF, 0x7F, 0x00];
        assert!(matches!(
            decompress(&bad, 100),
            Err(LzError::BadOffset { .. })
        ));
        // Rep code (offset 0) with no previous match to repeat.
        let bad = vec![0x10u8, b'x', 0x00];
        assert!(matches!(
            decompress(&bad, 100),
            Err(LzError::BadOffset { offset: 0, .. })
        ));
        // An offset varint stuffed with continuation bits forever.
        let bad = vec![0x10u8, b'x', 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF];
        assert!(matches!(
            decompress(&bad, 100),
            Err(LzError::BadOffset { .. })
        ));
        // Truncation at every byte of a valid block never panics.
        let data = b"abcabcabcabcabcabc-abcabcabc".repeat(8);
        let packed = compress(&data);
        for cut in 0..packed.len() {
            let _ = decompress(&packed[..cut], data.len());
        }
    }

    #[test]
    fn lying_expected_len_does_not_preallocate() {
        // A 5-byte hostile block declaring usize::MAX/2 output must fail
        // with a typed error, not attempt the allocation.
        let bad = vec![0x10u8, b'x', 0x01, 0x00, 0x00];
        let err = decompress(&bad, usize::MAX / 2).expect_err("must fail");
        assert!(matches!(err, LzError::LengthMismatch { .. }), "{err:?}");
    }
}
