//! In-process tests of the `home serve` daemon: concurrent multi-tenant
//! ingest, verdict parity with the offline analyzers, typed rejection of
//! hostile streams, and clean shutdown.

use home::prelude::*;
use home::serve::{
    analyze_sections, analyze_trace, parse_reply, ping, status, stop, submit, ServeConfig, Server,
};
use home::stream::{decode_sections, HbtWriter};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Barrier};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// Record `programs/figure2.hmp` under `seeds`, exactly like `home record`.
fn recorded_trace(seeds: &[u64]) -> Vec<u8> {
    let source = std::fs::read_to_string("programs/figure2.hmp").expect("sample program");
    let program = parse(&source).expect("sample program parses");
    let checklist = Arc::new(analyze(&program).checklist.clone());
    let mut writer = HbtWriter::new(Vec::new()).expect("header write");
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

fn start_server(config: ServeConfig) -> (std::path::PathBuf, std::thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind serve socket");
    let socket = server.socket_path().to_path_buf();
    let handle = std::thread::spawn(move || server.run().expect("serve run"));
    (socket, handle)
}

#[test]
fn eight_concurrent_submissions_match_the_offline_verdict() {
    let dir = tmp_dir("serve_concurrent");
    let socket_path = dir.join("collector.sock");
    let _ = std::fs::remove_file(&socket_path);

    // max_sessions = 2 with 8 concurrent clients: the gate must make the
    // excess block (backpressure), never drop or reject them.
    let mut config = ServeConfig::new(&socket_path);
    config.max_sessions = 2;
    let (socket, server) = start_server(config);

    let trace = recorded_trace(&[1, 2]);
    let expected = analyze_sections(&decode_sections(&trace).expect("trace decodes"))
        .expect("offline analyze");
    let expected_lines: Vec<String> = expected.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        !expected_lines.is_empty(),
        "figure2 must produce violations for the parity check to bite"
    );

    const CLIENTS: usize = 8;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut handles = Vec::new();
    for _ in 0..CLIENTS {
        let socket = socket.clone();
        let trace = trace.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            submit(&socket, &trace)
        }));
    }
    for handle in handles {
        let reply = handle
            .join()
            .expect("client thread")
            .expect("submit succeeds");
        assert!(
            reply.ok,
            "daemon rejected a well-formed trace: {:?}",
            reply.error
        );
        assert_eq!(reply.runs, 2, "one verdict covers both recorded runs");
        assert_eq!(
            reply.violations, expected_lines,
            "daemon verdict differs from the offline analyzer"
        );
    }

    let fleet = status(&socket).expect("status");
    assert!(fleet.ok);
    assert_eq!(fleet.runs, CLIENTS as u64 * 2, "fleet run count");
    assert!(
        fleet.raw.contains("\"submissions\":8"),
        "fleet submissions: {}",
        fleet.raw
    );
    // Every violation was seen by every submission.
    assert!(
        fleet.raw.contains("\"runs\":16") || fleet.raw.contains("\"runs\":8"),
        "aggregated per-violation run counts: {}",
        fleet.raw
    );

    let reply = stop(&socket).expect("stop");
    assert!(reply.ok);
    server.join().expect("server thread");
    assert!(!socket.exists(), "socket file removed on shutdown");
}

#[test]
fn hostile_streams_get_typed_errors_and_the_daemon_survives() {
    let dir = tmp_dir("serve_hostile");
    let socket_path = dir.join("collector.sock");
    let _ = std::fs::remove_file(&socket_path);
    let (socket, server) = start_server(ServeConfig::new(&socket_path));

    // Garbage after a valid magic byte: typed rejection.
    let reply = submit(&socket, b"\x89garbage-not-hbt").expect("reply arrives");
    assert!(!reply.ok);
    assert!(
        reply.error.as_deref().unwrap_or("").contains("HBT"),
        "rejection names the format: {:?}",
        reply.error
    );

    // A trace truncated mid-record: typed rejection, not a hang or panic.
    let trace = recorded_trace(&[1]);
    let reply = submit(&socket, &trace[..trace.len() / 2]).expect("reply arrives");
    assert!(!reply.ok, "truncated stream must be rejected");
    assert!(reply.error.is_some());

    // A client that connects and immediately disappears costs nothing.
    drop(UnixStream::connect(&socket).expect("connect"));

    // The daemon is still alive and counted the rejections.
    let alive = ping(&socket).expect("ping");
    assert!(alive.ok);
    let fleet = status(&socket).expect("status");
    assert!(
        fleet.raw.contains("\"rejected\":2"),
        "rejections are counted: {}",
        fleet.raw
    );

    // A well-formed submission still works after the abuse.
    let reply = submit(&socket, &trace).expect("submit");
    assert!(reply.ok);
    assert_eq!(reply.runs, 1);

    stop(&socket).expect("stop");
    server.join().expect("server thread");
}

#[test]
fn trickling_clients_hit_the_session_deadline_and_release_their_slot() {
    use std::time::{Duration, Instant};

    let dir = tmp_dir("serve_trickle");
    let socket_path = dir.join("collector.sock");
    let _ = std::fs::remove_file(&socket_path);

    // One ingest slot, a generous per-read timeout, and a tight overall
    // session deadline: a client feeding one byte per read period would
    // hold the only slot forever if the deadline were not enforced.
    let mut config = ServeConfig::new(&socket_path);
    config.max_sessions = 1;
    config.read_timeout = Some(Duration::from_secs(10));
    config.session_deadline = Some(Duration::from_millis(250));
    let (socket, server) = start_server(config);

    let start = Instant::now();
    let mut trickler = UnixStream::connect(&socket).expect("connect");
    trickler
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    // Valid HBT header, then a record declaring a 100000-byte payload
    // (varint 0xA0 0x8D 0x06) dribbled one byte at a time: the reader
    // legitimately needs more data, so only the deadline can cut it.
    // Writes start failing once the daemon does — that's the signal.
    let _ = trickler.write_all(&[0x89, b'H', b'B', b'T', 1, 0xA0, 0x8D, 0x06]);
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(20));
        if trickler.write_all(&[0x01]).is_err() || trickler.flush().is_err() {
            break;
        }
    }
    let mut reply = String::new();
    let _ = BufReader::new(&trickler).read_line(&mut reply);
    if !reply.is_empty() {
        assert!(reply.contains("\"ok\":false"), "reply: {reply}");
        assert!(
            reply.contains("deadline"),
            "rejection names the deadline: {reply}"
        );
    }
    drop(trickler);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the trickler was cut by the deadline, not by its own patience"
    );

    // The slot is free again: a real submission on the 1-slot daemon works.
    let trace = recorded_trace(&[1]);
    let reply = submit(&socket, &trace).expect("submit after trickler");
    assert!(reply.ok, "daemon still ingests: {:?}", reply.error);
    let fleet = status(&socket).expect("status");
    assert!(
        fleet.raw.contains("\"rejected\":1"),
        "the trickled session was rejected and counted: {}",
        fleet.raw
    );

    stop(&socket).expect("stop");
    server.join().expect("server thread");
}

#[test]
fn compressed_submissions_reach_the_same_verdict() {
    // A v2 (`record --compress`) stream through the daemon's record-at-a-
    // time ingest loop must produce the exact verdict of the v1 stream.
    let dir = tmp_dir("serve_v2");
    let socket_path = dir.join("collector.sock");
    let _ = std::fs::remove_file(&socket_path);
    let (socket, server) = start_server(ServeConfig::new(&socket_path));

    let v1 = recorded_trace(&[1, 2]);
    let sections = decode_sections(&v1).expect("v1 decodes");
    let mut writer = HbtWriter::new_compressed(Vec::new()).expect("v2 header");
    for s in &sections {
        if let Some(seed) = s.seed {
            writer.begin_run(seed).expect("run record");
        }
        for e in s.trace.events() {
            writer.write_event(e).expect("event record");
        }
        for i in &s.incidents {
            writer.write_incident(i).expect("incident record");
        }
    }
    let v2 = writer.finish().expect("v2 trailer");
    assert!(v2.len() < v1.len(), "compression shrinks the figure2 trace");

    let a = submit(&socket, &v1).expect("v1 submit");
    let b = submit(&socket, &v2).expect("v2 submit");
    assert!(a.ok && b.ok);
    assert_eq!(a.runs, b.runs, "same run count through both formats");
    assert_eq!(
        a.violations, b.violations,
        "v1 and v2 submissions must reach identical verdicts"
    );

    stop(&socket).expect("stop");
    server.join().expect("server thread");
}

/// Record `programs/figure2.hmp` under `seeds` as a compressed v2 stream.
fn recorded_v2(seeds: &[u64]) -> Vec<u8> {
    let source = std::fs::read_to_string("programs/figure2.hmp").expect("sample program");
    let program = parse(&source).expect("sample program parses");
    let checklist = Arc::new(analyze(&program).checklist.clone());
    let mut writer = home::stream::HbtWriter::new_compressed(Vec::new()).expect("v2 header");
    for &seed in seeds {
        writer.begin_run(seed).expect("run record");
        let mut cfg = RunConfig::test(2, seed)
            .with_instrumentation(Instrumentation::home())
            .with_checklist(Arc::clone(&checklist));
        cfg.threads_per_proc = 2;
        let result = run(&program, &cfg);
        for e in result.trace.events() {
            writer.write_event(e).expect("event record");
        }
    }
    writer.finish().expect("v2 trailer")
}

/// A forged v2 stream whose run record claims `claimed` but whose events
/// are `source`'s section for `actual` with the final event dropped —
/// a well-formed stream that reuses a known seed over different records.
fn forged_v2(source: &[u8], claimed: u64, actual: u64) -> Vec<u8> {
    let sections = decode_sections(source).expect("source decodes");
    let section = sections
        .iter()
        .find(|s| s.seed == Some(actual))
        .expect("seed recorded in source");
    let events = section.trace.events();
    assert!(events.len() > 1, "need an event to drop");
    let mut writer = home::stream::HbtWriter::new_compressed(Vec::new()).expect("v2 header");
    writer.begin_run(claimed).expect("run record");
    for e in &events[..events.len() - 1] {
        writer.write_event(e).expect("event record");
    }
    writer.finish().expect("v2 trailer")
}

/// `home record programs/<program>.hmp --seeds <seeds> [--compress]` into
/// `dir`: the recording's bytes.
fn record_cli(dir: &std::path::Path, program: &str, seeds: &str, compress: bool) -> Vec<u8> {
    let file = dir.join(format!(
        "{program}.{seeds}.{}.hbt",
        if compress { "v2" } else { "v1" }
    ));
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_home"));
    cmd.args([
        "record",
        &format!("programs/{program}.hmp"),
        "--seeds",
        seeds,
        "-o",
    ])
    .arg(&file);
    if compress {
        cmd.arg("--compress");
    }
    let out = cmd.output().expect("failed to launch home binary");
    assert!(out.status.success(), "record {program} --seeds {seeds}");
    std::fs::read(&file).expect("recording written")
}

/// The verdict lines of `bytes` and the exit code `home replay` gives.
fn replay_verdict(bytes: &[u8]) -> (Vec<String>, i32) {
    match analyze_trace(bytes, 1) {
        Ok(outcome) => {
            let lines: Vec<String> = outcome.violations.iter().map(|v| v.to_string()).collect();
            let code = i32::from(!lines.is_empty());
            (lines, code)
        }
        Err(_) => (Vec::new(), 2),
    }
}

/// A STATUS reply with its `skipped_known_runs` count blanked.
fn without_skipped(raw: &str) -> String {
    const FIELD: &str = "\"skipped_known_runs\":";
    let at = raw.find(FIELD).expect("STATUS names skipped_known_runs") + FIELD.len();
    let digits = raw[at..].bytes().take_while(u8::is_ascii_digit).count();
    format!("{}{}", &raw[..at], &raw[at + digits..])
}

/// Submit `bytes`: the reply's violation lines and the exit code `home
/// submit` derives from it.
fn submitted(socket: &std::path::Path, bytes: &[u8]) -> (Vec<String>, i32) {
    let reply = submit(socket, bytes).expect("submit");
    let code = if reply.ok {
        i32::from(!reply.violations.is_empty())
    } else {
        2
    };
    (reply.violations, code)
}

/// Submit `files` in turn to a fresh daemon: what [`submitted`] gives for
/// each, then STATUS.
fn submit_all(socket_path: &std::path::Path, files: &[&[u8]]) -> (Vec<(Vec<String>, i32)>, String) {
    let _ = std::fs::remove_file(socket_path);
    let (socket, server) = start_server(ServeConfig::new(socket_path));
    let replies = files
        .iter()
        .map(|bytes| submitted(&socket, bytes))
        .collect();
    let fleet = status(&socket).expect("status");
    stop(&socket).expect("stop");
    server.join().expect("server thread");
    (replies, fleet.raw)
}

#[test]
fn known_runs_are_skipped_and_a_different_run_at_a_used_seed_gets_its_own_verdict() {
    let dir = tmp_dir("serve_known_runs");
    let socket_path = dir.join("collector.sock");
    let _ = std::fs::remove_file(&socket_path);
    let (socket, server) = start_server(ServeConfig::new(&socket_path));

    // First submission of a seeded compressed stream: analyzed in full.
    let good = recorded_v2(&[1, 2]);
    let first = submit(&socket, &good).expect("first submit");
    assert!(first.ok, "honest v2 stream ingests: {:?}", first.error);
    assert_eq!(first.runs, 2);

    // Resubmitting byte-identical runs hits the known-run cache: the
    // verdict is byte-identical, and the daemon reports the sections it
    // never had to re-decompress.
    let second = submit(&socket, &good).expect("second submit");
    assert!(second.ok);
    assert_eq!(second.runs, first.runs, "cached verdict covers both runs");
    assert_eq!(
        second.violations, first.violations,
        "cached verdict must be byte-identical to the analyzed one"
    );
    let fleet = status(&socket).expect("status");
    assert!(
        fleet.raw.contains("\"skipped_known_runs\":2"),
        "STATUS reports the skipped runs: {}",
        fleet.raw
    );
    assert_eq!(fleet.runs, 4, "cached runs still aggregate into the fleet");

    // A stream whose run record claims an already-seen seed but carries
    // different records (seed 1's section with the final event dropped)
    // is a different run: it is analyzed and answered like any other
    // submission, with the verdict `home replay` gives for its bytes.
    let imposter = forged_v2(&good, 1, 1);
    assert_eq!(
        submitted(&socket, &imposter),
        replay_verdict(&imposter),
        "the different run gets its own verdict"
    );

    // It was absorbed, not rejected, and it did not poison the cache: the
    // honest stream still replays its first verdict.
    let fleet = status(&socket).expect("status");
    assert_eq!(fleet.runs, 5, "the different run aggregates into the fleet");
    assert!(
        fleet.raw.contains("\"rejected\":0"),
        "nothing was rejected: {}",
        fleet.raw
    );
    let third = submit(&socket, &good).expect("third submit");
    assert!(third.ok);
    assert_eq!(third.violations, first.violations);
    let fleet = status(&socket).expect("status");
    assert!(
        fleet.raw.contains("\"skipped_known_runs\":4"),
        "the cache still answers for the honest runs: {}",
        fleet.raw
    );

    stop(&socket).expect("stop");
    server.join().expect("server thread");
}

/// The daemon's answer depends on the runs submitted, never on their file
/// format or on what came before. The seven bundled programs recorded at
/// seeds 1–3 as v1 and as v2 (so the same seeds recur with other records),
/// `figure2` at seeds 4–6 (the same violations found by other runs) and at
/// seeds 3–4 (a run the cache already holds next to one it does not), both
/// as v2, go through one daemon per ordering in a seeded sample of
/// orderings. Every reply equals the offline verdict of its file; STATUS is
/// the same bytes for every ordering, and equals, apart from
/// `skipped_known_runs`, what a daemon reports that was sent each file's
/// v1 twin instead.
#[test]
fn fleet_answers_do_not_depend_on_submission_order_or_format() {
    use rand::{Rng, SeedableRng};
    const PROGRAMS: [&str; 7] = [
        "figure1",
        "figure2",
        "figure2_fixed",
        "hidden",
        "interproc",
        "interproc2",
        "pipeline",
    ];
    let dir = tmp_dir("serve_orderings");
    // (submitted bytes, its v1 twin)
    let mut files: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for program in PROGRAMS {
        let v1 = record_cli(&dir, program, "1,2,3", false);
        let v2 = record_cli(&dir, program, "1,2,3", true);
        files.push((v1.clone(), v1.clone()));
        files.push((v2, v1));
    }
    for seeds in ["4,5,6", "3,4"] {
        let v1 = record_cli(&dir, "figure2", seeds, false);
        files.push((record_cli(&dir, "figure2", seeds, true), v1));
    }
    let offline: Vec<(Vec<String>, i32)> = files
        .iter()
        .map(|(bytes, _)| replay_verdict(bytes))
        .collect();

    let twins: Vec<&[u8]> = files.iter().map(|(_, v1)| v1.as_slice()).collect();
    let (_, v1_status) = submit_all(&dir.join("v1.sock"), &twins);
    assert!(
        v1_status.contains("\"skipped_known_runs\":0"),
        "{v1_status}"
    );

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x4F52_4445_5253);
    let mut statuses = Vec::new();
    for round in 0..6 {
        let mut order: Vec<usize> = (0..files.len()).collect();
        if round > 0 {
            // Fisher–Yates; round 0 keeps the recording order.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
        }
        let submitted: Vec<&[u8]> = order.iter().map(|&i| files[i].0.as_slice()).collect();
        let (replies, fleet) = submit_all(&dir.join(format!("o{round}.sock")), &submitted);
        for (reply, &i) in replies.iter().zip(&order) {
            assert_eq!(
                reply, &offline[i],
                "ordering {order:?}: file {i}'s reply differs from its replay"
            );
        }
        assert!(fleet.contains("\"rejected\":0"), "{fleet}");
        assert!(
            !fleet.contains("\"skipped_known_runs\":0,"),
            "figure2's seed-3 run is submitted twice as v2: {fleet}"
        );
        assert_eq!(
            without_skipped(&fleet),
            without_skipped(&v1_status),
            "ordering {order:?}"
        );
        statuses.push(fleet);
    }
    assert!(
        statuses.windows(2).all(|w| w[0] == w[1]),
        "STATUS differs between orderings: {statuses:#?}"
    );
}

#[test]
fn unknown_commands_are_rejected_politely() {
    let dir = tmp_dir("serve_commands");
    let socket_path = dir.join("collector.sock");
    let _ = std::fs::remove_file(&socket_path);
    let (socket, server) = start_server(ServeConfig::new(&socket_path));

    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream.write_all(b"BOGUS\n").expect("send command");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("reply");
    assert!(line.contains("\"ok\":false"), "reply: {line}");
    assert!(line.contains("unknown command"), "reply: {line}");

    stop(&socket).expect("stop");
    server.join().expect("server thread");
}

/// A reply cut short anywhere, even inside a multi-byte character, is an
/// error for the client, never a panic; only the whole line parses.
#[test]
fn real_replies_cut_at_every_byte_are_errors() {
    let dir = tmp_dir("serve_cut_replies");
    let socket_path = dir.join("collector.sock");
    let _ = std::fs::remove_file(&socket_path);
    let (socket, server) = start_server(ServeConfig::new(&socket_path));

    let verdict = submit(&socket, &recorded_trace(&[1, 2])).expect("verdict");
    let rejection = submit(&socket, b"\x89garbage-not-hbt").expect("rejection");
    let fleet = status(&socket).expect("status");
    assert!(verdict.raw.contains('—'), "a multi-byte character to cut");
    for raw in [&verdict.raw, &rejection.raw, &fleet.raw] {
        assert_eq!(&parse_reply(raw).expect("whole reply").raw, raw);
        for cut in 0..raw.len() {
            let prefix = String::from_utf8_lossy(&raw.as_bytes()[..cut]);
            assert!(parse_reply(&prefix).is_err(), "{prefix}");
        }
    }

    stop(&socket).expect("stop");
    server.join().expect("server thread");
}

#[test]
fn bind_recovers_stale_sockets_but_respects_live_daemons() {
    let dir = tmp_dir("serve_bind");
    let socket_path = dir.join("collector.sock");
    let _ = std::fs::remove_file(&socket_path);

    // A stale socket file (no daemon behind it) is silently reclaimed.
    {
        let server = Server::bind(ServeConfig::new(&socket_path)).expect("first bind");
        drop(server); // never ran: socket file left behind
    }
    assert!(socket_path.exists(), "stale socket file left behind");
    let (socket, server) = start_server(ServeConfig::new(&socket_path));

    // A second daemon on the same live socket is refused.
    let err = Server::bind(ServeConfig::new(&socket_path)).expect_err("live socket is claimed");
    assert!(
        err.to_string().contains("already serving"),
        "unexpected error: {err}"
    );

    stop(&socket).expect("stop");
    server.join().expect("server thread");
}
