//! Replay-driver parity: the fused frame→session driver
//! (`home::serve::analyze_trace`, behind `home replay`/`analyze`/`serve`)
//! reaches the verdict of the two paths it replaced or sits beside —
//! `analyze_sections(&decode_trace(..))` (decode everything, then analyze)
//! and `analyze_stream` (record at a time) — on every bundled program,
//! both HBT versions, and every `--jobs` value; `--run SEED`
//! is the matching section of the full replay; and interning
//! `SrcLoc::file` changed neither its JSON nor how it compares, hashes or
//! prints.

use home::prelude::*;
use home::serve::{
    analyze_sections, analyze_stream, analyze_trace, analyze_trace_run, combine_verdicts,
};
use home::stream::{HbtWriter, TraceIncident};
use home::trace::SrcLoc;
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
            let incident = TraceIncident {
                rank: i.rank,
                line: i.line,
                call: i.call.clone(),
                error: i.error.clone(),
            };
            writer.write_incident(&incident).unwrap();
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
         re-record it with --compress to enable --run seeking"
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
fn interned_srcloc_reads_old_json_and_compares_hashes_and_prints_as_before() {
    // JSON written before the change still reads, and re-serializes to the
    // same text.
    let old_json = r#"{"file":"figure2.hmp","line":8}"#;
    let loc: SrcLoc = serde_json::from_str(old_json).unwrap();
    assert_eq!(loc, SrcLoc::new("figure2.hmp", 8));
    assert_eq!(serde_json::to_string(&loc).unwrap(), old_json);
    assert_eq!(loc.to_string(), "figure2.hmp:8");

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
