//! The production race detector against a deliberately naïve reference
//! (`tests/support/oracle.rs`: a full vector clock per event, `BTreeSet`
//! locksets, an O(n²) pair scan). With dedupe off and no history cap the
//! two must report exactly the same races, both accesses' payloads (thread,
//! region, kind, source location, MPI call) included; under the default
//! (bounded, deduplicated) configuration production may only report a
//! subset of the pairs. And how a stream is cut into batches must be
//! invisible.

#[path = "support/oracle.rs"]
mod oracle;
#[path = "support/tracegen.rs"]
mod tracegen;

use home::prelude::*;
use home::trace::SrcLoc;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const MODES: [DetectorMode; 3] = [
    DetectorMode::Hybrid,
    DetectorMode::LocksetOnly,
    DetectorMode::HappensBeforeOnly,
];

fn pair(r: &Race) -> oracle::Pair {
    (r.rank, r.loc, r.first.seq, r.second.seq)
}

fn pairs(races: &[Race]) -> BTreeSet<oracle::Pair> {
    races.iter().map(pair).collect()
}

/// Production ≡ oracle when nothing is dropped, production ⊆ oracle under
/// the default configuration and under a tight history cap, for every
/// mode with and without locks.
fn assert_agrees_with_oracle(trace: &Trace, context: &str) {
    for mode in MODES {
        for ignore_locks in [false, true] {
            let context = format!("{context} {mode:?} ignore_locks={ignore_locks}");
            let expected = oracle::races(trace, mode, ignore_locks);
            let default = DetectorConfig {
                mode,
                ignore_locks,
                ..DetectorConfig::hybrid()
            };
            let exhaustive = DetectorConfig {
                dedupe_pairs: false,
                history_cap: usize::MAX,
                ..default.clone()
            };
            let (races, _) = detect_stream(trace, &exhaustive).expect("well-formed trace");
            let keyed: BTreeMap<_, _> = races.iter().map(|r| (pair(r), r.clone())).collect();
            assert_eq!(races.len(), keyed.len(), "{context}: a pair twice");
            assert_eq!(keyed, expected, "{context}: exhaustive ≠ oracle");
            let tight = DetectorConfig {
                history_cap: 3,
                ..default.clone()
            };
            for bounded in [default, tight] {
                let (races, _) = detect_stream(trace, &bounded).expect("well-formed trace");
                let extra: Vec<_> = pairs(&races)
                    .into_iter()
                    .filter(|p| !expected.contains_key(p))
                    .collect();
                assert!(extra.is_empty(), "{context}: not in the oracle: {extra:?}");
            }
        }
    }
}

/// Every bundled program under seeds 1–3, recorded with HOME's selective
/// instrumentation and with everything instrumented.
fn recorded_traces() -> Vec<(String, Trace)> {
    let mut paths: Vec<_> = std::fs::read_dir("programs")
        .expect("programs dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "hmp"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 7, "the bundled corpus");
    let mut out = Vec::new();
    for path in paths {
        let program = parse(&std::fs::read_to_string(&path).expect("read")).expect("parses");
        let checklist = Arc::new(analyze(&program).checklist.clone());
        for seed in [1u64, 2, 3] {
            for instrumentation in [Instrumentation::home(), Instrumentation::full()] {
                let name = format!("{} seed {seed} {}", path.display(), instrumentation.name);
                let mut cfg = RunConfig::test(2, seed)
                    .with_instrumentation(instrumentation)
                    .with_checklist(Arc::clone(&checklist));
                cfg.threads_per_proc = 2;
                out.push((name, run(&program, &cfg).trace));
            }
        }
    }
    out
}

/// `trace` with its source locations spread over three files and none:
/// names shared by pointer, names equal in content but allocated per
/// event, and missing locations — what a report must carry back unchanged.
fn with_varied_files(trace: &Trace, case: u64) -> Trace {
    let mut rng = tracegen::rng_for(30_000 + case);
    let shared: [Arc<str>; 2] = [Arc::from("a.hmp"), Arc::from("lib/b.hmp")];
    let events = trace.events().iter().map(|e| {
        let mut e = e.clone();
        let line = e.loc.as_ref().map_or(0, |l| l.line);
        e.loc = match rng.gen_range(0u32..4) {
            0 => None,
            1 => Some(SrcLoc::new(format!("c{}.hmp", case % 2), line)),
            k => Some(SrcLoc::new(Arc::clone(&shared[k as usize - 2]), line)),
        };
        e
    });
    Trace::from_events(events.collect())
}

#[test]
fn production_matches_oracle_on_generated_traces() {
    let mut with_races = 0;
    for case in 0..512 {
        let trace = tracegen::gen_regions_trace(&mut tracegen::rng_for(10_000 + case));
        assert_agrees_with_oracle(&trace, &format!("case {case}"));
        let varied = with_varied_files(&trace, case);
        assert_agrees_with_oracle(&varied, &format!("case {case} varied files"));
        with_races += usize::from(!oracle::races(&trace, DetectorMode::Hybrid, false).is_empty());
    }
    assert!(
        with_races > 100,
        "generator too tame: {with_races} racy cases"
    );
}

#[test]
fn production_matches_oracle_on_recorded_traces() {
    for (name, trace) in recorded_traces() {
        assert_agrees_with_oracle(&trace, &name);
    }
}

/// The streaming detector must actually stream: on a program whose parallel
/// regions run one after another (pipeline.hmp has four region instances
/// per iteration), dead segments are retired at every join, so the peak
/// number of live segments stays strictly below the total ever created.
#[test]
fn streaming_peak_live_segments_stay_below_total_on_pipeline() {
    let traces = recorded_traces();
    let (_, trace) = traces
        .iter()
        .find(|(name, _)| name.contains("pipeline.hmp seed 1 home"))
        .expect("pipeline trace");
    let (_, stats) = detect_stream(trace, &DetectorConfig::hybrid()).unwrap();
    assert!(stats.events > 0);
    assert!(
        stats.retired_segments > 0,
        "joined regions must be retired: {stats:?}"
    );
    assert!(
        stats.peak_live_segments < stats.total_segments,
        "streaming must bound live state: {stats:?}"
    );
}

/// Everything a finished detector reports except its wall-clock rate.
type Verdict = Result<(Vec<Race>, (u64, usize, usize, usize, usize, bool)), String>;

fn finish(detector: &mut StreamDetector) -> Verdict {
    let (races, s) = detector.finish().map_err(|e| e.to_string())?;
    let counters = (
        s.events,
        s.peak_live_segments,
        s.total_segments,
        s.retired_segments,
        s.retired_while_overlapping,
        s.history_overflow,
    );
    Ok((races, counters))
}

/// `events` through `consume_batch` cut at seeded random points, as one
/// batch, and an event at a time: same races in the same order, same
/// counters, same first error.
fn assert_chunking_is_invisible(events: &[home::trace::Event], case: u64, context: &str) {
    let config = DetectorConfig::hybrid();
    let mut whole = StreamDetector::new(config.clone());
    whole.consume_batch(events, None);
    let whole = finish(&mut whole);

    let mut eventwise = StreamDetector::new(config.clone());
    events
        .chunks(1)
        .for_each(|e| eventwise.consume_batch(e, None));
    assert_eq!(finish(&mut eventwise), whole, "{context}: event at a time");

    let mut rng = tracegen::rng_for(20_000 + case);
    let mut chunked = StreamDetector::new(config);
    let mut rest = events;
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(rng.gen_range(0usize..rest.len().min(9)) + 1);
        chunked.consume_batch(chunk, None);
        rest = tail;
    }
    assert_eq!(finish(&mut chunked), whole, "{context}: random chunks");
}

#[test]
fn consume_batch_chunking_is_invisible() {
    for case in 0..256 {
        let trace = tracegen::gen_regions_trace(&mut tracegen::rng_for(10_000 + case));
        assert_chunking_is_invisible(trace.events(), case, &format!("case {case}"));

        // A corrupt stream: a join of a region nobody forked in the
        // middle, and a second fault (a sequence number running backwards)
        // after it. Every feed reports the first, and only the first.
        let mut events = trace.events().to_vec();
        let mid = events.len() / 2;
        let mut bad_join = events[mid].clone();
        bad_join.kind = home::trace::EventKind::JoinRegion {
            region: home::trace::RegionId(4242),
        };
        events.insert(mid, bad_join);
        let mut backwards = events[mid + 1].clone();
        backwards.seq = 0;
        events.push(backwards);
        let mut detector = StreamDetector::new(DetectorConfig::hybrid());
        detector.consume_batch(&events, None);
        let err = finish(&mut detector).expect_err("corrupt stream");
        assert!(err.contains("region4242"), "case {case}: {err}");
        assert_chunking_is_invisible(&events, case, &format!("corrupt case {case}"));
    }
    for (i, (name, trace)) in recorded_traces().iter().enumerate() {
        assert_chunking_is_invisible(trace.events(), i as u64, name);
    }
}
