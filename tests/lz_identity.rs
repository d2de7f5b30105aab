//! The v2 frame compressor against the one it replaced: `home::stream::lz`'s
//! `Compressor` must give, byte for byte, the block `tests/support/
//! lz_oracle.rs` gives — the finder got cheaper, the format and every
//! choice the finder makes (chain depth, window, lazy step, backward
//! extension, the tie that prefers the repeat offset) did not move. And
//! because a writer now keeps one compressor for all its frames, what it
//! was fed before must not show: a stale table entry is the failure reuse
//! introduces.

#[path = "support/lz_oracle.rs"]
mod lz_oracle;

use home::prelude::*;
use home::stream::lz::{decompress_into, Compressor};
use home::stream::{scan_layout, HbtWriter};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The block a compressor that has seen nothing gives.
fn fresh(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    Compressor::default().compress(input, &mut out);
    out
}

#[track_caller]
fn assert_same_block(actual: &[u8], expected: &[u8], what: &str) {
    if actual != expected {
        let at = actual
            .iter()
            .zip(expected)
            .position(|(a, e)| a != e)
            .unwrap_or(actual.len().min(expected.len()));
        panic!(
            "{what}: {} byte(s) against the oracle's {}, first difference at byte {at}",
            actual.len(),
            expected.len()
        );
    }
}

#[track_caller]
fn assert_fresh_is_oracle(input: &[u8], what: &str) {
    assert_same_block(&fresh(input), &lz_oracle::compress(input), what);
}

const SEEDED_CASES: u64 = 4_000;

/// Seeded input `case`: bytes over an alphabet of 2, 4, 16 or 256 symbols,
/// 0 to 30 KB (short ones as likely as long ones), fresh random bytes mixed
/// with copies of earlier windows — literals, short and long matches,
/// overlapping copies, near and far offsets.
fn seeded_input(case: u64) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x4C5A_1D00 + case);
    let alphabet = [2u32, 4, 16, 256][(case % 4) as usize];
    let len = match case % 3 {
        0 => rng.gen_range(0usize..300),
        1 => rng.gen_range(0usize..6_000),
        _ => rng.gen_range(0usize..30_001),
    };
    let copy_share = [0.1, 0.5, 0.9][(case / 4 % 3) as usize];
    let mut data = Vec::with_capacity(len);
    while data.len() < len {
        if !data.is_empty() && rng.gen_bool(copy_share) {
            let take = rng.gen_range(1usize..400).min(len - data.len());
            let from = rng.gen_range(0usize..data.len());
            for k in 0..take {
                // `from + k` may run into the bytes being appended: an
                // overlapping copy, the shape of a run.
                data.push(data[from + k]);
            }
        } else {
            for _ in 0..rng.gen_range(1usize..40).min(len - data.len()) {
                data.push(rng.gen_range(0u32..alphabet) as u8);
            }
        }
    }
    data
}

fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    ChaCha8Rng::seed_from_u64(seed).fill_bytes(&mut bytes);
    bytes
}

/// Distances around the last one a match may reach back.
const WINDOW_EDGE: [usize; 4] = [65_534, 65_535, 65_536, 65_537];

/// Noise in which a 96-byte block is seen again `distance` bytes later: a
/// match at the window's edge, none one byte past it.
fn block_again_at(distance: usize) -> Vec<u8> {
    let block = random_bytes(13, 96);
    let mut data = block.clone();
    data.extend(random_bytes(17, distance - block.len()));
    data.extend(&block);
    data.extend(random_bytes(19, 40));
    data
}

/// The shapes a random generator does not hit on purpose.
fn edge_inputs() -> Vec<(String, Vec<u8>)> {
    let mut inputs = Vec::new();
    // Every length around the minimum match and the 8-byte compare width,
    // as a run, as a period of three and as noise.
    for len in 0..=12usize {
        inputs.push((format!("run of {len}"), vec![b'r'; len]));
        inputs.push((
            format!("period 3, {len} bytes"),
            b"abc".iter().copied().cycle().take(len).collect(),
        ));
        inputs.push((format!("noise, {len} bytes"), random_bytes(7, len)));
    }
    // The input ends inside a match, 0 to 9 bytes past a period boundary:
    // the last positions have fewer than four bytes after them.
    for tail in 0..10usize {
        let mut data = random_bytes(11, 64);
        let period = b"0123456789abcdefghijklm";
        data.extend(period.iter().copied().cycle().take(23 * 9 + tail));
        inputs.push((format!("ends {tail} byte(s) into a period"), data));
    }
    for distance in WINDOW_EDGE {
        let what = format!("a block again at distance {distance}");
        inputs.push((what, block_again_at(distance)));
    }
    // The same with the repeat offset in play: the block three times, the
    // third at the distance of the second.
    let block = random_bytes(23, 96);
    let mut data = block.clone();
    for _ in 0..2 {
        data.extend(random_bytes(29, 65_535 - block.len()));
        data.extend(&block);
    }
    inputs.push(("a block twice at distance 65535".to_string(), data));
    inputs.push(("a 300 KB run".to_string(), vec![0x5a; 300 * 1024]));
    let mut data = vec![0u8; 300 * 1024];
    data.extend(random_bytes(31, 5_000));
    data.extend(vec![0u8; 70_000]);
    inputs.push(("runs around noise".to_string(), data));
    inputs
}

/// Every frame body of a full-instrumentation v2 recording of `program`,
/// seeds 1 to 3 as three sections — with the oracle held against each frame
/// as the writer stored it.
fn frame_bodies(name: &str, program: &Program, nprocs: usize, out: &mut Vec<(String, Vec<u8>)>) {
    let mut w = HbtWriter::new_compressed(Vec::new()).expect("header write");
    for seed in 1..=3 {
        let mut cfg = RunConfig::test(nprocs, seed).with_instrumentation(Instrumentation::full());
        cfg.threads_per_proc = 2;
        w.begin_run(seed).expect("run record");
        for e in run(program, &cfg).trace.events() {
            w.write_event(e).expect("event record");
        }
    }
    let stream = w.finish().expect("trailer write");
    let layout = scan_layout(&stream).expect("valid").expect("v2 layout");
    assert!(layout.frames.len() >= 3, "{name}: a frame per section");
    for (f, frame) in layout.frames.iter().enumerate() {
        let what = format!("{name}, frame {f}");
        let stored = frame.stored(&stream).expect("frame in bounds");
        let expected_len = frame.entry.raw_len as usize;
        let body = if frame.compressed() {
            let mut body = Vec::new();
            decompress_into(stored, expected_len, &mut body).expect("frame inflates");
            assert_same_block(stored, &lz_oracle::compress(&body), &what);
            body
        } else {
            assert!(lz_oracle::compress(stored).len() >= stored.len(), "{what}");
            stored.to_vec()
        };
        out.push((what, body));
    }
}

fn recorded_inputs() -> Vec<(String, Vec<u8>)> {
    let mut inputs = Vec::new();
    for name in [
        "figure1",
        "figure2",
        "figure2_fixed",
        "hidden",
        "interproc",
        "interproc2",
        "pipeline",
    ] {
        let source = std::fs::read_to_string(format!("programs/{name}.hmp")).expect("bundled");
        let program = parse(&source).expect("bundled program parses");
        frame_bodies(name, &program, 2, &mut inputs);
    }
    for benchmark in [Benchmark::LuMz, Benchmark::BtMz, Benchmark::SpMz] {
        let program = build_injected(benchmark, Class::S).program;
        frame_bodies(&format!("{benchmark:?} class S"), &program, 8, &mut inputs);
    }
    inputs
}

#[test]
fn seeded_inputs_compress_to_the_oracles_bytes() {
    let mut bytes = 0usize;
    let mut longest = 0usize;
    for case in 0..SEEDED_CASES {
        let input = seeded_input(case);
        assert_fresh_is_oracle(&input, &format!("seeded case {case}"));
        bytes += input.len();
        longest = longest.max(input.len());
    }
    eprintln!("{SEEDED_CASES} seeded inputs, {bytes} bytes, the longest {longest}");
    assert!(longest > 29_000 && bytes > 15_000_000, "{longest}, {bytes}");
}

#[test]
fn edge_shapes_compress_to_the_oracles_bytes() {
    for (what, input) in edge_inputs() {
        assert_fresh_is_oracle(&input, &what);
    }
}

#[test]
fn the_window_ends_at_65535() {
    // The block at the window's edge is found, the one a byte further is
    // not.
    let sizes = WINDOW_EDGE.map(|distance| fresh(&block_again_at(distance)).len());
    let [d65534, d65535, d65536, d65537] = sizes;
    assert!(d65535 <= d65534 + 1, "{sizes:?}");
    assert!(d65536 > d65535 + 80, "{sizes:?}");
    assert!(d65537 > d65536, "{sizes:?}");
}

#[test]
fn recorded_frame_bodies_compress_to_the_oracles_bytes() {
    let inputs = recorded_inputs();
    let bytes: usize = inputs.iter().map(|(_, input)| input.len()).sum();
    eprintln!("{} recorded frame bodies, {bytes} bytes", inputs.len());
    assert!(inputs.len() >= 30, "{} frames", inputs.len());
    for (what, input) in &inputs {
        assert_fresh_is_oracle(input, what);
    }
}

#[test]
fn a_reused_compressor_gives_a_fresh_ones_bytes_in_any_order() {
    let mut inputs = edge_inputs();
    inputs.extend(recorded_inputs());
    inputs
        .extend((0..SEEDED_CASES).map(|case| (format!("seeded case {case}"), seeded_input(case))));
    let expected: Vec<Vec<u8>> = inputs.iter().map(|(_, input)| fresh(input)).collect();

    // As generated (long runs and noise first, then recordings, then the
    // seeded mix), backwards, and shuffled: each input meets a table left
    // by a different predecessor each time.
    let mut orders: Vec<Vec<usize>> = vec![(0..inputs.len()).collect()];
    orders.push(orders[0].iter().rev().copied().collect());
    let mut shuffled = orders[0].clone();
    let mut rng = ChaCha8Rng::seed_from_u64(0x4C5A_5EED);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0usize..i + 1));
    }
    orders.push(shuffled);

    for (o, order) in orders.iter().enumerate() {
        let mut reused = Compressor::default();
        let mut out = Vec::new();
        for &i in order {
            reused.compress(&inputs[i].1, &mut out);
            assert_same_block(&out, &expected[i], &format!("order {o}, {}", inputs[i].0));
        }
    }
}
