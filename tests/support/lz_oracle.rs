//! The LZ compressor HBT v2 frames went through from PR 7 to PR 22, kept
//! verbatim as the reference for the bytes the production compressor
//! (`home::stream::lz::Compressor`) must reproduce: every v2 stream ever
//! written, every `serve` fingerprint and `hbt.bytes_per_event_v2` hang on
//! them. Slow (a zeroed 1 MiB table per call, byte-at-a-time match
//! extension, slice compares, `rotate_right` bucket updates) and
//! deliberately left as it was. The block format is described in
//! `crates/stream/src/lz.rs`.

/// Minimum match length the compressor emits (and the decoder's bias on
/// the match-length nibble).
const MIN_MATCH: usize = 4;

/// Match-window bound the compressor respects (the decoder accepts any
/// offset the produced output can satisfy).
const MAX_OFFSET: usize = 65_535;

/// log2 of the compressor's hash-table size (64 Ki entries, 256 KiB).
const HASH_BITS: u32 = 16;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    // Fibonacci hashing over the 4-byte little-endian prefix.
    let v = u32::from(bytes[0])
        | u32::from(bytes[1]) << 8
        | u32::from(bytes[2]) << 16
        | u32::from(bytes[3]) << 24;
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
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

/// The `CHAIN_DEPTH` most recent candidate positions for each hash
/// bucket, newest first. Entries store position + 1; 0 means empty.
struct MatchTable {
    slots: Vec<[u32; CHAIN_DEPTH]>,
}

impl MatchTable {
    fn new() -> MatchTable {
        MatchTable {
            slots: vec![[0u32; CHAIN_DEPTH]; 1 << HASH_BITS],
        }
    }

    fn insert(&mut self, input: &[u8], i: usize) {
        let bucket = &mut self.slots[hash4(&input[i..])];
        bucket.rotate_right(1);
        bucket[0] = (i + 1) as u32;
    }

    /// Longest match for position `i` among the bucket's candidates plus
    /// the repeat-offset candidate at distance `rep`: `(candidate
    /// position, match length)`. Ties prefer the rep candidate (its
    /// offset encodes in one byte).
    fn probe(&self, input: &[u8], i: usize, rep: usize) -> Option<(usize, usize)> {
        let h = hash4(&input[i..]);
        let mut best: Option<(usize, usize)> = None;
        let rep_cand = (rep > 0 && rep <= i).then(|| (i - rep + 1) as u32);
        for slot in self.slots[h].into_iter().chain(rep_cand) {
            if slot == 0 {
                continue;
            }
            let cand = slot as usize - 1;
            let dist = i - cand;
            if !(1..=MAX_OFFSET).contains(&dist) {
                continue;
            }
            if input[cand..cand + MIN_MATCH] != input[i..i + MIN_MATCH] {
                continue;
            }
            let mut mlen = MIN_MATCH;
            while i + mlen < input.len() && input[cand + mlen] == input[i + mlen] {
                mlen += 1;
            }
            let better = match best {
                None => true,
                Some((_, blen)) => mlen > blen || (mlen == blen && dist == rep),
            };
            if better {
                best = Some((cand, mlen));
            }
        }
        best
    }
}

/// Compress `input` into a fresh block. Always succeeds; the output is at
/// worst slightly larger than the input (incompressible data costs one
/// token byte per 15 literals). Deterministic: the same input always
/// yields the same block.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut table = MatchTable::new();
    let mut anchor = 0usize;
    let mut i = 0usize;
    let mut last_off = 0usize;
    while i + MIN_MATCH <= input.len() {
        let found = table.probe(input, i, last_off);
        table.insert(input, i);
        let Some((cand, mlen)) = found else {
            i += 1;
            continue;
        };
        let (mut cand, mut mlen, mut at) = (cand, mlen, i);
        // One-step lazy matching: when the very next position starts a
        // strictly better match, ship this byte as a literal and take the
        // longer match instead (the classic gain on record streams whose
        // period is off-by-one from the hash stride).
        if at + 1 + MIN_MATCH <= input.len() {
            if let Some((cand2, mlen2)) = table.probe(input, at + 1, last_off) {
                if mlen2 > mlen + 1 {
                    table.insert(input, at + 1);
                    (cand, mlen, at) = (cand2, mlen2, at + 1);
                }
            }
        }
        // Extend the match backwards into the pending literals: bytes just
        // before the match start often repeat too, and a match byte is
        // cheaper than a literal byte.
        while at > anchor && cand > 0 && input[cand - 1] == input[at - 1] {
            at -= 1;
            cand -= 1;
            mlen += 1;
        }
        let dist = at - cand;
        emit_sequence(
            &mut out,
            &input[anchor..at],
            Some((dist, mlen)),
            &mut last_off,
        );
        // Index the whole match interior so later positions can reach
        // candidates inside it — record streams repeat with periods that
        // rarely line up with match boundaries.
        let end = at + mlen;
        let mut j = at + 1;
        while j + MIN_MATCH <= end.min(input.len()) {
            table.insert(input, j);
            j += 1;
        }
        i = end;
        anchor = i;
    }
    emit_sequence(&mut out, &input[anchor..], None, &mut last_off);
    out
}
