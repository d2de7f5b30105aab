//! Replay-driver parity: the fused frame→session driver
//! (`home::serve::analyze_trace`, behind `home replay`/`serve`)
//! reaches the verdict of the two paths it replaced or sits beside —
//! `analyze_sections(&decode_trace(..))` (decode everything, then analyze)
//! and `analyze_stream` (record at a time) — on every bundled program,
//! both HBT versions, and every `--jobs` value, and on class-S NPB-MZ
//! sections long enough that the driver's feed chunks cut through every
//! frame; `--run SEED`
//! is the matching section of the full replay; and interning
//! `SrcLoc::file` changed neither its JSON nor how it compares, hashes or
//! prints.

use home::prelude::*;
use home::serve::{
    analyze_sections, analyze_stream, analyze_trace, analyze_trace_run, combine_verdicts,
};
use home::stream::HbtWriter;
use home::trace::{Event, SrcLoc};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

const SEEDS: [u64; 3] = [1, 2, 3];
const JOBS: [usize; 3] = [1, 2, 4];

/// Every bundled sample program, in stable name order.
fn programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir("programs").unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "hmp") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&path).unwrap();
            out.push((name, parse(&src).unwrap()));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(!out.is_empty(), "no bundled programs found");
    out
}

/// `home record` of `program` under [`SEEDS`]: one section per seed.
fn recorded(program: &Program, mut writer: HbtWriter<Vec<u8>>) -> Vec<u8> {
    let checklist = Arc::new(analyze(program).checklist.clone());
    for seed in SEEDS {
        writer.begin_run(seed).unwrap();
        let mut cfg = RunConfig::test(2, seed)
            .with_instrumentation(Instrumentation::home())
            .with_checklist(Arc::clone(&checklist));
        cfg.threads_per_proc = 2;
        let result = run(program, &cfg);
        for e in result.trace.events() {
            writer.write_event(e).unwrap();
        }
        for i in &result.mpi_errors {
            writer.write_incident(i).unwrap();
        }
    }
    writer.finish().unwrap()
}

fn v1(program: &Program) -> Vec<u8> {
    recorded(program, HbtWriter::new(Vec::new()).unwrap())
}

fn v2(program: &Program) -> Vec<u8> {
    recorded(program, HbtWriter::new_compressed(Vec::new()).unwrap())
}

/// The whole outcome as text: violations, per-section `events`/`races`/
/// `unclassified`, and every violation's `EmitOrder` key.
fn rendered<T: std::fmt::Debug>(outcome: &T) -> String {
    format!("{outcome:?}")
}

#[test]
fn fused_driver_matches_the_materializing_and_record_at_a_time_paths() {
    for (name, program) in &programs() {
        for (version, bytes) in [("v1", v1(program)), ("v2", v2(program))] {
            let streamed = rendered(&analyze_stream(&bytes[..]).unwrap());
            let sections = home::core::decode_trace(&bytes, 1).unwrap();
            assert_eq!(sections.len(), SEEDS.len(), "{name} {version}");
            assert_eq!(
                streamed,
                rendered(&analyze_sections(&sections).unwrap()),
                "{name} {version}: materializing path"
            );
            for jobs in JOBS {
                assert_eq!(
                    streamed,
                    rendered(&analyze_trace(&bytes, jobs).unwrap()),
                    "{name} {version} --jobs {jobs}: fused driver"
                );
            }
        }
    }
}

/// Copies of one recording in each section below: enough that a section
/// spans three frames or four, the last of them holding thousands of events.
const TILES: u64 = 56;

/// Full-instrumentation recordings of LU-, BT- and SP-MZ class S (2 ranks
/// × 2 threads), one section each, in which the recording is tiled
/// [`TILES`] times, every tile's `seq` moved past the one before. A bundled
/// program's section is smaller than one feed chunk; these cut a frame into
/// many.
fn tiled_class_s() -> Vec<u8> {
    let mut writer = HbtWriter::new_compressed(Vec::new()).unwrap();
    let benchmarks = [Benchmark::LuMz, Benchmark::BtMz, Benchmark::SpMz];
    for (seed, benchmark) in (1..).zip(benchmarks) {
        let program = build_injected(benchmark, Class::S).program;
        let mut cfg = RunConfig::test(2, seed).with_instrumentation(Instrumentation::full());
        cfg.threads_per_proc = 2;
        let result = run(&program, &cfg);
        let stride = result
            .trace
            .events()
            .iter()
            .map(|e| e.seq + 1)
            .max()
            .unwrap();
        writer.begin_run(seed).unwrap();
        for tile in 0..TILES {
            for e in result.trace.events() {
                let seq = e.seq + tile * stride;
                writer.write_event(&Event { seq, ..e.clone() }).unwrap();
            }
            for i in &result.mpi_errors {
                writer.write_incident(i).unwrap();
            }
        }
    }
    writer.finish().unwrap()
}

#[test]
fn every_door_agrees_where_feed_chunks_cut_through_frames() {
    let bytes = tiled_class_s();
    let layout = home::stream::scan_layout(&bytes).unwrap().unwrap();
    let heads: Vec<usize> = (0..layout.frames.len())
        .filter(|&i| !layout.frames[i].entry.continuation)
        .collect();
    assert_eq!(heads.len(), 3, "one section per benchmark");
    for (k, &head) in heads.iter().enumerate() {
        let end = heads.get(k + 1).copied().unwrap_or(layout.frames.len());
        assert!(end - head >= 3, "section {k} spans {} frame(s)", end - head);
    }
    // More events in every frame than in any feed chunk (256 events), so a
    // chunk boundary falls inside each, last frames included.
    for (i, frame) in layout.frames.iter().enumerate() {
        assert!(frame.entry.events > 1_024, "frame {i}: {:?}", frame.entry);
    }

    let streamed = rendered(&analyze_stream(&bytes[..]).unwrap());
    assert!(streamed.contains("Violation"), "{streamed}");
    let sections = home::core::decode_trace(&bytes, 2).unwrap();
    assert_eq!(
        streamed,
        rendered(&analyze_sections(&sections).unwrap()),
        "materializing path"
    );
    for jobs in JOBS {
        assert_eq!(
            streamed,
            rendered(&analyze_trace(&bytes, jobs).unwrap()),
            "fused driver --jobs {jobs}"
        );
    }
}

#[test]
fn run_seek_is_the_matching_section_of_the_full_replay() {
    for (name, program) in &programs() {
        let bytes = v2(program);
        let full = analyze_trace(&bytes, 1).unwrap();
        for (i, seed) in SEEDS.into_iter().enumerate() {
            assert_eq!(full.sections[i].seed, Some(seed), "{name}");
            let alone = rendered(&combine_verdicts(vec![full.sections[i].clone()]));
            for jobs in JOBS {
                assert_eq!(
                    alone,
                    rendered(&analyze_trace_run(&bytes, seed, jobs).unwrap()),
                    "{name} --run {seed} --jobs {jobs}"
                );
            }
        }
    }
}

#[test]
fn run_seek_errors_are_the_typed_ones_replay_always_printed() {
    let (_, program) = &programs()[0];
    let miss = analyze_trace_run(&v2(program), 99, 2).unwrap_err();
    assert_eq!(
        miss.to_string(),
        "seed 99 failed: no recorded section for this seed; available seeds: 1, 2, 3"
    );
    let unindexed = analyze_trace_run(&v1(program), 2, 2).unwrap_err();
    assert_eq!(
        unindexed.to_string(),
        "invalid trace: this HBT stream is v1 and carries no seek index; \
         record it again with `home record` to enable --run seeking"
    );
}

/// `SrcLoc` as it was before the file name was shared.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct OwnedLoc {
    file: String,
    line: u32,
}

fn hashed(value: &impl Hash) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

#[test]
fn interned_srcloc_compares_hashes_and_prints_as_before() {
    assert_eq!(SrcLoc::new("figure2.hmp", 8).to_string(), "figure2.hmp:8");

    // Ordering and hashing are those of the (String, u32) pair — violation
    // order and the fingerprints pinned in explore.rs/schedule_identity.rs
    // depend on both.
    let samples = [("b.hmp", 1), ("a.hmp", 9), ("a.hmp", 10), ("", 0), ("a", 9)];
    for (fa, la) in samples {
        let (a, old_a) = (
            SrcLoc::new(fa, la),
            OwnedLoc {
                file: fa.into(),
                line: la,
            },
        );
        assert_eq!(hashed(&a), hashed(&old_a), "{fa}:{la}");
        for (fb, lb) in samples {
            let (b, old_b) = (
                SrcLoc::new(fb, lb),
                OwnedLoc {
                    file: fb.into(),
                    line: lb,
                },
            );
            assert_eq!(a.cmp(&b), old_a.cmp(&old_b), "{fa}:{la} vs {fb}:{lb}");
            assert_eq!(a == b, old_a == old_b, "{fa}:{la} vs {fb}:{lb}");
        }
    }
}
