//! Integration tests of the `home` CLI binary against the bundled sample
//! programs.

#[path = "support/hbt_v1.rs"]
mod hbt_v1;

use std::process::Command;

fn home_cli(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_home"))
        .args(args)
        .output()
        .expect("failed to launch home binary");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn check_flags_figure2_and_exits_nonzero() {
    let (stdout, _, code) = home_cli(&["check", "programs/figure2.hmp"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("isConcurrentRecvViolation"), "{stdout}");
    assert!(stdout.contains("figure2.hmp"));
}

#[test]
fn check_passes_fixed_figure2() {
    let (stdout, _, code) = home_cli(&["check", "programs/figure2_fixed.hmp"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("no thread-safety violations"), "{stdout}");
}

#[test]
fn check_flags_figure1_initialization() {
    let (stdout, _, code) = home_cli(&["check", "programs/figure1.hmp"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("isInitializationViolation"), "{stdout}");
}

#[test]
fn check_accepts_seed_and_thread_flags() {
    let (stdout, _, code) = home_cli(&[
        "check",
        "programs/pipeline.hmp",
        "--procs",
        "4",
        "--threads",
        "2",
        "--seeds",
        "5,6",
        "--faithful",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("2 schedule(s)"));
}

#[test]
fn static_lists_sites_and_monitored_vars() {
    let (stdout, _, code) = home_cli(&["static", "programs/pipeline.hmp"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("mpi_allreduce"));
    assert!(stdout.contains("instrument, hybrid"));
    assert!(stdout.contains("monitored variables: srctmp, tagtmp, commtmp"));
}

#[test]
fn run_reports_time_and_events() {
    let (stdout, _, code) = home_cli(&[
        "run",
        "programs/pipeline.hmp",
        "--tool",
        "home",
        "--procs",
        "4",
    ]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("simulated time"));
    assert!(stdout.contains("events"));
}

#[test]
fn fmt_roundtrips() {
    let (stdout, _, code) = home_cli(&["fmt", "programs/figure1.hmp"]);
    assert_eq!(code, Some(0));
    // Canonically formatted output reparses to the same statement count.
    let original =
        home::ir::parse(&std::fs::read_to_string("programs/figure1.hmp").unwrap()).unwrap();
    let reparsed = home::ir::parse(&stdout).unwrap();
    assert_eq!(original.stmt_count(), reparsed.stmt_count());
}

#[test]
fn bad_usage_exits_2() {
    let (_, stderr, code) = home_cli(&["check"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage"));
    let (_, stderr, code) = home_cli(&["check", "no-such-file.hmp"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("cannot read"));
    let (_, stderr, code) = home_cli(&["bogus", "programs/figure1.hmp"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown command"));
}

#[test]
fn help_lists_all_commands() {
    for invocation in [&["help"][..], &["--help"], &["-h"]] {
        let (stdout, _, code) = home_cli(invocation);
        assert_eq!(code, Some(0), "{invocation:?}");
        for cmd in [
            "check", "watch", "serve", "static", "run", "submit", "fmt", "help",
        ] {
            assert!(stdout.contains(cmd), "help must mention `{cmd}`: {stdout}");
        }
        assert!(stdout.contains("--jobs"), "{stdout}");
    }
}

#[test]
fn usage_line_mentions_every_command() {
    let (_, stderr, code) = home_cli(&[]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("help"), "usage must list help: {stderr}");
    assert!(stderr.contains("serve"), "usage must list serve: {stderr}");
    assert!(
        stderr.contains("submit"),
        "usage must list submit: {stderr}"
    );
}

#[test]
fn invalid_flag_values_exit_2_not_silently_default() {
    let cases: &[&[&str]] = &[
        &["check", "programs/figure1.hmp", "--procs", "two"],
        &["check", "programs/figure1.hmp", "--threads", "-1"],
        &["check", "programs/figure1.hmp", "--seeds", "1,x,3"],
        &["check", "programs/figure1.hmp", "--jobs", "fast"],
        &["check", "programs/figure1.hmp", "--jobs", "0"],
        &["check", "programs/figure1.hmp", "--seeds"],
        &["run", "programs/figure1.hmp", "--seed", "abc"],
        &["run", "programs/figure1.hmp", "--procs", "2.5"],
    ];
    for case in cases {
        let (_, stderr, code) = home_cli(case);
        assert_eq!(code, Some(2), "{case:?} must exit 2: {stderr}");
        assert!(
            stderr.contains("invalid") || stderr.contains("missing") || stderr.contains("--seeds"),
            "{case:?} must explain the error: {stderr}"
        );
    }
}

#[test]
fn jobs_flag_is_accepted_and_deterministic() {
    // Same program, same seeds: serial and parallel runs must produce
    // byte-identical reports and the same exit code.
    for program in ["programs/figure2.hmp", "programs/figure2_fixed.hmp"] {
        let (out_1, _, code_1) = home_cli(&["check", program, "--jobs", "1"]);
        let (out_4, _, code_4) = home_cli(&["check", program, "--jobs", "4"]);
        assert_eq!(code_1, code_4, "{program}");
        assert_eq!(out_1, out_4, "{program}: --jobs must not change the report");
    }
}

#[test]
fn parse_errors_are_reported_with_line() {
    let dir = std::env::temp_dir().join("home_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.hmp");
    std::fs::write(&bad, "program bad {\n  int x = ;\n}").unwrap();
    let (_, stderr, code) = home_cli(&["check", bad.to_str().unwrap()]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn fail_seed_produces_partial_report_and_exit_3() {
    let (stdout, _, code) = home_cli(&[
        "check",
        "programs/figure2.hmp",
        "--seeds",
        "1,2,3,4",
        "--fail-seed",
        "3",
    ]);
    assert_eq!(code, Some(3), "partial results exit 3: {stdout}");
    assert!(stdout.contains("3 schedule(s)"), "{stdout}");
    assert!(stdout.contains("seeds: 3 ok, 1 failed"), "{stdout}");
    assert!(stdout.contains("seed 3: FAILED"), "{stdout}");
    assert!(stdout.contains("PARTIAL RESULTS"), "{stdout}");
    // The surviving seeds still report the violation.
    assert!(stdout.contains("isConcurrentRecvViolation"), "{stdout}");
}

#[test]
fn partial_report_is_byte_identical_across_jobs() {
    let run = |jobs: &str| {
        home_cli(&[
            "check",
            "programs/figure2.hmp",
            "--seeds",
            "1,2,3,4,5,6",
            "--fail-seed",
            "2,5",
            "--jobs",
            jobs,
        ])
    };
    let (base_out, _, base_code) = run("1");
    assert_eq!(base_code, Some(3), "{base_out}");
    for jobs in ["2", "3", "4", "8"] {
        let (out, _, code) = run(jobs);
        assert_eq!(code, base_code, "exit code at --jobs {jobs}");
        assert_eq!(out, base_out, "report bytes at --jobs {jobs}");
    }
}

#[test]
fn invalid_fail_seed_exits_2() {
    let (_, stderr, code) = home_cli(&["check", "programs/figure1.hmp", "--fail-seed", "one"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("invalid seed"), "{stderr}");
}

#[test]
fn help_documents_exit_codes_and_fail_seed() {
    let (stdout, _, code) = home_cli(&["help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("--fail-seed"), "{stdout}");
    assert!(stdout.contains("3 partial results"), "{stdout}");
    assert!(stdout.contains("record"), "{stdout}");
    assert!(stdout.contains("replay"), "{stdout}");
}

/// Scratch directory inside the repo's target dir (provided by cargo for
/// integration tests).
fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The `  - <violation>` lines of a report, order-insensitive.
fn violation_lines(report: &str) -> std::collections::BTreeSet<String> {
    report
        .lines()
        .filter(|l| l.starts_with("  - "))
        .map(str::to_owned)
        .collect()
}

#[test]
fn record_then_replay_reproduces_check_verdicts_on_every_program() {
    let dir = tmp_dir("record_replay");
    for entry in std::fs::read_dir("programs").unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "hmp") {
            continue;
        }
        let program = path.to_str().unwrap();
        let trace = dir.join(path.with_extension("hbt").file_name().unwrap());
        let trace = trace.to_str().unwrap();

        let (stdout, stderr, code) = home_cli(&["record", program, "-o", trace]);
        assert_eq!(code, Some(0), "{program}: {stderr}");
        assert!(stdout.contains("recorded 4 run(s)"), "{program}: {stdout}");

        let (check_out, _, check_code) = home_cli(&["check", program]);
        let (replay_out, _, replay_code) = home_cli(&["replay", trace]);
        assert_eq!(
            replay_code, check_code,
            "{program}: exit codes must agree\ncheck:\n{check_out}\nreplay:\n{replay_out}"
        );
        assert_eq!(
            violation_lines(&check_out),
            violation_lines(&replay_out),
            "{program}: violations must agree"
        );
    }
}

#[test]
fn record_compress_replays_identically_for_every_jobs_value() {
    let dir = tmp_dir("record_compress");
    for program in ["programs/figure2.hmp", "programs/figure2_fixed.hmp"] {
        let stem = std::path::Path::new(program).file_stem().unwrap();
        let v1 = dir.join(format!("{}.hbt", stem.to_str().unwrap()));
        let v2 = dir.join(format!("{}.v2.hbt", stem.to_str().unwrap()));

        let (_, stderr, code) =
            home_cli(&["record", program, "-o", v2.to_str().unwrap(), "--compress"]);
        assert_eq!(code, Some(0), "{program}: {stderr}");
        let v2_bytes = std::fs::read(&v2).unwrap();
        let v1_bytes = hbt_v1::v1_twin(&v2_bytes);
        std::fs::write(&v1, &v1_bytes).unwrap();

        let (v1_len, v2_len) = (v1_bytes.len(), v2_bytes.len());
        assert!(
            v2_len < v1_len,
            "{program}: v2 must be smaller than its v1 twin ({v2_len} vs {v1_len})"
        );

        // The verdict is identical across formats and for every --jobs.
        let (baseline, _, base_code) = home_cli(&["replay", v1.to_str().unwrap()]);
        for jobs in ["1", "2", "4"] {
            let (stdout, stderr, code) =
                home_cli(&["replay", v2.to_str().unwrap(), "--jobs", jobs]);
            assert_eq!(code, base_code, "{program} jobs={jobs}: {stderr}");
            assert_eq!(
                stdout, baseline,
                "{program} jobs={jobs}: compressed replay diverges"
            );
        }
        let (check_out, _, check_code) = home_cli(&["check", program]);
        let (replay_out, _, replay_code) =
            home_cli(&["replay", v2.to_str().unwrap(), "--jobs", "4"]);
        assert_eq!(replay_code, check_code, "{program}: exit codes agree");
        assert_eq!(
            violation_lines(&check_out),
            violation_lines(&replay_out),
            "{program}: violations must agree"
        );
    }
}

/// Every recording is seek-indexed: `replay --run SEED` of what plain
/// `record` wrote gives the violations and exit code of `check` at that
/// one seed.
#[test]
fn replay_run_of_a_plain_recording_matches_check_at_that_seed() {
    let trace = tmp_dir("replay_run_plain").join("fig2.hbt");
    let trace = trace.to_str().unwrap();
    let (_, stderr, code) = home_cli(&["record", "programs/figure2.hmp", "-o", trace]);
    assert_eq!(code, Some(0), "{stderr}");

    let (check_out, _, check_code) = home_cli(&["check", "programs/figure2.hmp", "--seeds", "2"]);
    let (replay_out, stderr, replay_code) = home_cli(&["replay", trace, "--run", "2"]);
    assert_eq!(replay_code, check_code, "{stderr}");
    assert_eq!(check_code, Some(1), "{check_out}");
    assert_eq!(violation_lines(&replay_out), violation_lines(&check_out));
}

#[test]
fn replay_streams_compressed_traces_from_stdin() {
    use std::io::Write;
    let dir = tmp_dir("replay_stdin_v2");
    let trace = dir.join("fig2.v2.hbt");
    let (_, stderr, code) = home_cli(&[
        "record",
        "programs/figure2.hmp",
        "-o",
        trace.to_str().unwrap(),
        "--compress",
    ]);
    assert_eq!(code, Some(0), "{stderr}");

    let (from_file, _, file_code) = home_cli(&["replay", trace.to_str().unwrap()]);
    let bytes = std::fs::read(&trace).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_home"))
        .args(["replay", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn home replay -");
    child
        .stdin
        .take()
        .expect("stdin handle")
        .write_all(&bytes)
        .expect("pipe trace");
    let out = child.wait_with_output().expect("replay exits");
    assert_eq!(out.status.code(), file_code);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        from_file,
        "stdin replay must match file replay"
    );
}

#[test]
fn replay_rejects_jobs_zero() {
    let (_, stderr, code) = home_cli(&["replay", "whatever.hbt", "--jobs", "0"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--jobs"), "{stderr}");
}

#[test]
fn watch_rejects_parallel_jobs_loudly() {
    // The old behavior silently forced --jobs 1; the flag must now be
    // rejected with a clear message instead of being ignored.
    let (_, stderr, code) = home_cli(&["watch", "programs/figure2.hmp", "--jobs", "4"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("watch runs seeds serially") && stderr.contains("--jobs 4"),
        "{stderr}"
    );
    // An explicit --jobs 1 matches the default and is accepted.
    let (_, _, explicit) = home_cli(&["watch", "programs/figure2.hmp", "--jobs", "1"]);
    let (_, _, default) = home_cli(&["watch", "programs/figure2.hmp"]);
    assert_eq!(explicit, default);
}

#[test]
fn replay_reads_v1_hbt_from_stdin() {
    use std::io::Write;
    let dir = tmp_dir("replay_stdin_v1");
    let trace = dir.join("fig2.hbt");
    let (_, stderr, code) = home_cli(&[
        "record",
        "programs/figure2.hmp",
        "-o",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");

    let bytes = hbt_v1::v1_twin(&std::fs::read(&trace).unwrap());
    let mut child = Command::new(env!("CARGO_BIN_EXE_home"))
        .args(["replay", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(&bytes).unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("replay: 4 run(s)"), "{stdout}");
    assert!(stdout.contains("isConcurrentRecvViolation"), "{stdout}");
}

#[test]
fn replay_rejects_non_hbt_input() {
    let dir = tmp_dir("replay_reject");
    let bogus = dir.join("not_a_trace.hbt");
    std::fs::write(&bogus, b"{\"events\": []}").unwrap();
    let (_, stderr, code) = home_cli(&["replay", bogus.to_str().unwrap()]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("not an HBT trace"), "{stderr}");
}

#[test]
fn replay_reports_truncated_trace_with_byte_offset() {
    let dir = tmp_dir("replay_truncated");
    let trace = dir.join("whole.hbt");
    home_cli(&[
        "record",
        "programs/figure2.hmp",
        "-o",
        trace.to_str().unwrap(),
    ]);
    let bytes = hbt_v1::v1_twin(&std::fs::read(&trace).unwrap());
    let cut = dir.join("truncated.hbt");
    std::fs::write(&cut, &bytes[..bytes.len() * 2 / 3]).unwrap();

    let (_, stderr, code) = home_cli(&["replay", cut.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stderr}");
    let diagnostic = stderr.lines().next().unwrap_or_default();
    assert!(diagnostic.contains("truncated.hbt"), "{stderr}");
    assert!(diagnostic.contains("byte "), "{stderr}");
}

/// A trace argument that cannot be read is an I/O failure, not a damaged
/// trace: one `cannot read`, the file named once, the OS's own words.
#[test]
fn unreadable_trace_file_is_reported_once_as_unreadable() {
    let dir = tmp_dir("unreadable_trace");
    let missing = dir.join("nope.hbt");
    let (missing, dir) = (missing.to_str().unwrap(), dir.to_str().unwrap());
    let commands: [&[&str]; 2] = [&["replay"], &["submit", "--socket", "no.sock"]];
    for command in commands {
        let with = |file| [&command[..1], &[file], &command[1..]].concat();
        let (_, stderr, code) = home_cli(&with(missing));
        assert_eq!(code, Some(2), "{command:?}: {stderr}");
        assert_eq!(
            stderr,
            format!("home: cannot read {missing}: No such file or directory (os error 2)\n"),
            "{command:?}"
        );
        let (_, stderr, code) = home_cli(&with(dir));
        assert_eq!(code, Some(2), "{command:?}: {stderr}");
        assert_eq!(stderr.matches("cannot read").count(), 1, "{stderr}");
        assert_eq!(stderr.matches(dir).count(), 1, "{stderr}");
        assert!(!stderr.contains("invalid trace"), "{stderr}");
    }
}

/// A figure2-style racey exchange followed by a long compute tail: the
/// concurrent-recv evidence completes early in the seed, well before the
/// simulation finishes. Used to prove `watch` streams violations live.
fn slow_racey_program(dir: &std::path::Path) -> String {
    let path = dir.join("slow_racey.hmp");
    std::fs::write(
        &path,
        r#"program slow_racey {
    mpi_init_thread(multiple);
    shared int tag = 0;
    omp parallel num_threads(2) {
        if (rank == 0) {
            mpi_send(to: 1, tag: tag, count: 1);
            mpi_recv(from: 1, tag: tag);
        }
        if (rank == 1) {
            mpi_recv(from: 0, tag: tag);
            mpi_send(to: 0, tag: tag, count: 1);
        }
    }
    omp parallel num_threads(2) {
        omp for i in 0..64 {
            compute(50000, reads: chunk, writes: chunk);
        }
    }
    mpi_finalize();
}
"#,
    )
    .unwrap();
    path.to_str().unwrap().to_owned()
}

#[test]
fn watch_streams_violations_before_the_seed_finishes() {
    let dir = tmp_dir("watch_slow");
    let program = slow_racey_program(&dir);
    let (stdout, stderr, code) = home_cli(&["watch", &program, "--seeds", "1,2,3,4"]);
    assert_eq!(code, Some(1), "{stdout}\n{stderr}");

    // At least one violation line must appear, and the first one must
    // precede its seed's completion marker: it was printed while the
    // simulation was still running, not from the final report.
    let lines: Vec<&str> = stdout.lines().collect();
    let first_violation = lines
        .iter()
        .position(|l| l.starts_with("[seed ") && l.contains("Violation"))
        .unwrap_or_else(|| panic!("no live violation line in:\n{stdout}"));
    let seed = lines[first_violation]
        .trim_start_matches("[seed ")
        .split(']')
        .next()
        .unwrap()
        .to_owned();
    let finished = lines
        .iter()
        .position(|l| l.starts_with(&format!("watch: seed {seed} finished")))
        .unwrap_or_else(|| panic!("no completion marker for seed {seed} in:\n{stdout}"));
    assert!(
        first_violation < finished,
        "violation must stream before seed {seed} finishes:\n{stdout}"
    );
    assert!(stdout.contains("watch: done —"), "{stdout}");
}

#[test]
fn watch_exit_codes_match_check() {
    for (program, expected) in [
        ("programs/figure2.hmp", Some(1)),
        ("programs/figure2_fixed.hmp", Some(0)),
    ] {
        let (stdout, _, code) = home_cli(&["watch", program]);
        assert_eq!(code, expected, "{program}:\n{stdout}");
        let (_, _, check_code) = home_cli(&["check", program]);
        assert_eq!(code, check_code, "{program}: watch and check must agree");
        assert!(stdout.contains("watch: done —"), "{stdout}");
    }
}

#[test]
fn watch_flush_seed_prints_per_seed_findings_with_markers() {
    let (stdout, _, code) = home_cli(&[
        "watch",
        "programs/figure2.hmp",
        "--seeds",
        "1,2",
        "--flush",
        "seed",
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    for seed in ["1", "2"] {
        assert!(
            stdout.contains(&format!("watch: seed {seed} finished")),
            "missing seed {seed} marker:\n{stdout}"
        );
    }
    assert!(
        stdout.lines().any(|l| l.starts_with("[seed 1]")),
        "seed-flush mode must print per-seed findings:\n{stdout}"
    );
}

#[test]
fn watch_flush_end_renders_exactly_the_check_report() {
    // `--flush end` defers everything to the final report, which is the
    // one `check` renders.
    let (watch_out, _, watch_code) = home_cli(&["watch", "programs/figure2.hmp", "--flush", "end"]);
    let (check_out, _, check_code) = home_cli(&["check", "programs/figure2.hmp"]);
    assert_eq!(watch_code, check_code);
    assert_eq!(watch_out, check_out, "watch --flush end must match check");
}

#[test]
fn watch_rejects_unknown_flush_policy() {
    let (_, stderr, code) = home_cli(&["watch", "programs/figure2.hmp", "--flush", "bogus"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown flush policy"), "{stderr}");
}

#[test]
fn watch_reports_failed_seeds_and_exits_3() {
    let (stdout, _, code) = home_cli(&[
        "watch",
        "programs/figure2.hmp",
        "--seeds",
        "1,2,3",
        "--fail-seed",
        "2",
    ]);
    assert_eq!(code, Some(3), "{stdout}");
    assert!(stdout.contains("watch: seed 2 FAILED:"), "{stdout}");
    assert!(stdout.contains("PARTIAL"), "{stdout}");
}

#[test]
fn record_without_output_path_exits_2() {
    let (_, stderr, code) = home_cli(&["record", "programs/figure1.hmp"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("-o"), "{stderr}");
}

#[test]
fn watch_survives_a_closed_stdout_pipe() {
    // `home watch prog.hmp | head -1`: once the pipe closes, further output
    // must be suppressed (no panic, no broken-pipe abort) and the exit code
    // must still reflect the verdict.
    use std::io::Read;
    let mut child = Command::new(env!("CARGO_BIN_EXE_home"))
        .args(["watch", "programs/figure2.hmp", "--seeds", "1,2,3,4"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn watch");
    // Read one byte, then drop the read end so later writes hit EPIPE.
    let mut stdout = child.stdout.take().expect("stdout pipe");
    let mut byte = [0u8; 1];
    stdout.read_exact(&mut byte).expect("first output byte");
    drop(stdout);
    let out = child.wait_with_output().expect("watch exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "watch panicked on EPIPE: {stderr}"
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "verdict exit code survives the closed pipe: {stderr}"
    );
}

#[test]
fn serve_and_submit_roundtrip_matches_replay() {
    let dir = tmp_dir("serve_cli");
    let trace = dir.join("figure2.hbt");
    let socket = dir.join("collector.sock");
    let _ = std::fs::remove_file(&socket);
    let trace_arg = trace.to_str().unwrap();
    let socket_arg = socket.to_str().unwrap();

    let (_, stderr, code) = home_cli(&[
        "record",
        "programs/figure2.hmp",
        "-o",
        trace_arg,
        "--seeds",
        "1,2",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    std::fs::write(&trace, hbt_v1::v1_twin(&std::fs::read(&trace).unwrap())).unwrap();

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_home"))
        .args(["serve", "--socket", socket_arg])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    // Wait for the socket to come up.
    let mut ready = false;
    for _ in 0..100 {
        if std::os::unix::net::UnixStream::connect(&socket).is_ok() {
            ready = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(ready, "daemon never bound its socket");

    let (replay_out, _, replay_code) = home_cli(&["replay", trace_arg]);
    let (submit_out, submit_err, submit_code) =
        home_cli(&["submit", trace_arg, "--socket", socket_arg]);
    assert_eq!(submit_code, replay_code, "{submit_out}{submit_err}");
    assert_eq!(
        violation_lines(&submit_out),
        violation_lines(&replay_out),
        "daemon verdict differs from replay:\n{submit_out}\nvs\n{replay_out}"
    );

    let (json_out, _, json_code) =
        home_cli(&["submit", trace_arg, "--socket", socket_arg, "--json"]);
    assert_eq!(json_code, submit_code);
    assert!(json_out.contains("\"ok\":true"), "{json_out}");

    let (status_out, _, status_code) = home_cli(&["serve", "--socket", socket_arg, "--status"]);
    assert_eq!(status_code, Some(0), "{status_out}");
    assert!(status_out.contains("\"submissions\":2"), "{status_out}");
    assert!(status_out.contains("predicate"), "{status_out}");

    let (_, stop_err, stop_code) = home_cli(&["serve", "--socket", socket_arg, "--stop"]);
    assert_eq!(stop_code, Some(0), "{stop_err}");
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "daemon exits cleanly after --stop");
}

/// Whatever listens on the socket is untrusted: a fake daemon that answers
/// `STATUS` with a million `[` gets a malformed-reply error and exit 2 from
/// the client, not a stack overflow.
#[test]
fn a_deeply_nested_reply_is_malformed_not_a_crash() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixListener;
    let dir = tmp_dir("hostile_reply");
    let socket = dir.join("fake.sock");
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket).unwrap();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut request = String::new();
        BufReader::new(&stream).read_line(&mut request).unwrap();
        assert_eq!(request, "STATUS\n");
        // The client may stop reading once it has seen enough.
        let _ = (&stream).write_all(&vec![b'['; 1_000_000]);
    });
    let (stdout, stderr, code) =
        home_cli(&["serve", "--socket", socket.to_str().unwrap(), "--status"]);
    fake.join().unwrap();
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(
        stderr,
        "home: malformed reply from daemon: nesting deeper than 64 levels at byte 64\n"
    );
    assert!(stdout.is_empty(), "{stdout}");
}

#[test]
fn submit_without_socket_exits_2() {
    let (_, stderr, code) = home_cli(&["submit", "programs/figure1.hmp"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--socket"), "{stderr}");
}

#[test]
fn serve_without_socket_exits_2() {
    let (_, stderr, code) = home_cli(&["serve"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--socket"), "{stderr}");
}

/// Run `home` with `stdin` piped in.
fn home_cli_stdin(args: &[&str], stdin: &[u8]) -> (String, String, Option<i32>) {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_home"))
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("failed to launch home binary");
    // A command that exits before reading its input closes the pipe early.
    let _ = child.stdin.take().expect("stdin handle").write_all(stdin);
    let out = child.wait_with_output().expect("home exits");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

const FIG1: &str = "programs/figure1.hmp";

/// Every usage error `home` prints: the argv, the first stderr line after
/// `home: `, exit 2. Each one is followed by the same pointer to the help.
const USAGE_ERRORS: &[(&[&str], &str)] = &[
    (&["check", FIG1, "--procs", "two"], "invalid value `two` for --procs: expected a non-negative integer"),
    (&["check", FIG1, "--threads", "-1"], "invalid value `-1` for --threads: expected a non-negative integer"),
    (&["check", FIG1, "--seeds", "1,x"], "invalid seed `x` in --seeds: expected a comma-separated list of integers"),
    (&["check", FIG1, "--seeds", ""], "invalid seed `` in --seeds: expected a comma-separated list of integers"),
    (&["check", FIG1, "--seeds"], "missing value for --seeds"),
    (&["check", FIG1, "--jobs", "fast"], "invalid value `fast` for --jobs: expected a non-negative integer"),
    (&["check", FIG1, "--jobs", "0"], "invalid value `0` for --jobs: expected at least 1"),
    (&["check", FIG1, "--pct-depth", "300"], "invalid value `300` for --pct-depth: expected an integer in 0..=255"),
    (&["check", FIG1, "--pins", "a"], "invalid pin `a` in --pins: expected thread:priority"),
    (&["check", FIG1, "--pins", ":3"], "invalid pin `:3` in --pins: empty thread name"),
    (&["check", FIG1, "--pins", "a:x"], "invalid priority `x` in --pins: expected an integer"),
    (&["check", FIG1, "--pins", "a:1", "--faithful"], "--pct-depth/--pins select the priority scheduler and cannot combine with --faithful"),
    (&["check", FIG1, "--pct-depth", "2", "--faithful"], "--pct-depth/--pins select the priority scheduler and cannot combine with --faithful"),
    (&["check", FIG1, "--faithful", "--pct-depth", "2"], "--pct-depth/--pins select the priority scheduler and cannot combine with --faithful"),
    (&["check", FIG1, "--fail-seed", "one"], "invalid seed `one` in --fail-seed: expected a comma-separated list of integers"),
    (&["explore", FIG1, "--budget", "0"], "invalid value `0` for --budget: expected at least 1"),
    (&["explore", FIG1, "--budget", "x"], "invalid value `x` for --budget: expected a non-negative integer"),
    (&["explore", FIG1, "--strategy", "foo"], "unknown strategy `foo`: expected `pct`, `random`, `directed`, or `all`"),
    (&["explore", FIG1, "--depth", "300"], "invalid value `300` for --depth: expected 0..=255"),
    (&["explore", FIG1, "--depth", "x"], "invalid value `x` for --depth: expected a non-negative integer"),
    (&["explore", FIG1, "--jobs", "0"], "invalid value `0` for --jobs: expected at least 1"),
    (&["explore", FIG1, "--seed", "x"], "invalid value `x` for --seed: expected an unsigned integer"),
    (&["watch", FIG1, "--jobs", "2"], "watch runs seeds serially so live output is deterministic; --jobs 2 is not supported (use `check --jobs 2` for a parallel batch verdict)"),
    (&["watch", FIG1, "--jobs", "0"], "watch runs seeds serially so live output is deterministic; --jobs 0 is not supported (use `check --jobs 0` for a parallel batch verdict)"),
    (&["watch", FIG1, "--flush", "bogus"], "unknown flush policy `bogus`: expected `every`, `seed`, or `end`"),
    (&["run", FIG1, "--seed", "abc"], "invalid value `abc` for --seed: expected a non-negative integer"),
    (&["run", FIG1, "--procs", "2.5"], "invalid value `2.5` for --procs: expected a non-negative integer"),
    (&["run", FIG1, "--tool", "bogus"], "unknown tool `bogus`"),
    (&["record", FIG1], "record needs an output path: -o trace.hbt"),
    (&["record", FIG1, "-o"], "missing value for -o"),
    (&["replay", "x.hbt", "--jobs", "0"], "invalid value `0` for --jobs: expected at least 1"),
    (&["replay", "x.hbt", "--run", "abc"], "invalid value `abc` for --run: expected a scheduler seed (unsigned integer)"),
    (&["replay", "-", "--run", "1"], "--run needs a seekable trace file; a stdin pipe cannot seek (save the trace to a file and replay that)"),
    (&["submit", "x.hbt"], "submit needs the daemon socket: --socket path.sock"),
    (&["submit", "x.hbt", "--socket"], "missing value for --socket"),
    (&["serve"], "serve needs a socket path: --socket path.sock"),
    (&["serve", "--socket"], "missing value for --socket"),
    (&["serve", "--socket", "s", "--max-sessions", "0"], "invalid value `0` for --max-sessions: expected at least 1"),
    (&["serve", "--socket", "s", "--max-sessions", "x"], "invalid value `x` for --max-sessions: expected a non-negative integer"),
];

#[test]
fn usage_errors_are_pinned() {
    // A recorded trace on stdin, so `replay - --run` gets past the magic.
    let trace = tmp_dir("usage_errors").join("fig1.hbt");
    let (_, stderr, code) = home_cli(&[
        "record",
        "programs/figure1.hmp",
        "-o",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let stdin = std::fs::read(&trace).unwrap();
    for (argv, message) in USAGE_ERRORS {
        let (stdout, stderr, code) = home_cli_stdin(argv, &stdin);
        assert_eq!(code, Some(2), "{argv:?}: {stderr}");
        assert_eq!(stdout, "", "{argv:?}");
        assert_eq!(
            stderr,
            format!("home: {message}\nrun `home help` for details\n"),
            "{argv:?}"
        );
    }
    let (_, stderr, code) = home_cli(&["bogus", "programs/figure1.hmp"]);
    assert_eq!(code, Some(2));
    assert_eq!(stderr, "home: unknown command `bogus`\n");
}

/// Inputs the command table rejects: a flag the command does not take, a
/// second file, a repeated flag, a flag in place of a value, a count of 0.
/// The argv, the first stderr line after `home: `, exit 2.
const STRICT_USAGE_ERRORS: &[(&[&str], &str)] = &[
    (&["check", FIG1, "--json"], "check does not take --json"),
    (
        &["check", FIG1, "--engine", "stream"],
        "check does not take --engine",
    ),
    (
        &["record", FIG1, "-o", "x.hbt", "--jobs", "2"],
        "record does not take --jobs",
    ),
    (
        &["run", FIG1, "--trace-out", "t.json"],
        "run does not take --trace-out",
    ),
    (
        &["check", FIG1, "programs/figure2.hmp"],
        "unexpected argument `programs/figure2.hmp`",
    ),
    (&["serve", "x.sock"], "unexpected argument `x.sock`"),
    (
        &["check", FIG1, "--seeds", "1", "--seeds", "2,3"],
        "--seeds is given more than once",
    ),
    (
        &["record", FIG1, "-o", "--compress"],
        "missing value for -o",
    ),
    (
        &["run", FIG1, "--procs", "0"],
        "invalid value `0` for --procs: expected at least 1",
    ),
    (
        &["record", FIG1, "-o", "x.hbt", "--procs", "0"],
        "invalid value `0` for --procs: expected at least 1",
    ),
    (
        &["check", FIG1, "--procs", "0"],
        "invalid value `0` for --procs: expected at least 1",
    ),
    (
        &["explore", FIG1, "--procs", "0"],
        "invalid value `0` for --procs: expected at least 1",
    ),
    (
        &["watch", FIG1, "--threads", "0"],
        "invalid value `0` for --threads: expected at least 1",
    ),
];

#[test]
fn strict_parser_names_the_offending_argument() {
    let dir = tmp_dir("strict_usage");
    for (argv, message) in STRICT_USAGE_ERRORS {
        // In a scratch directory, so a regression writes nothing into the
        // repository.
        let out = Command::new(env!("CARGO_BIN_EXE_home"))
            .args(argv.iter().map(|a| match *a {
                FIG1 => std::fs::canonicalize(a).unwrap().into_os_string(),
                _ => a.into(),
            }))
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert_eq!(
            stderr,
            format!("home: {message}\nrun `home help` for details\n"),
            "{argv:?}"
        );
    }
    assert!(!dir.join("x.hbt").exists() && !dir.join("--compress").exists());
    let (_, stderr, code) = home_cli(&["analyze", "x.hbt"]);
    assert_eq!(code, Some(2));
    assert_eq!(
        stderr,
        "home: unknown command `analyze`: offline analysis of a recorded trace is `home replay`\n"
    );
}

/// Every `reproduce:` line `explore` prints is a `check` command line that
/// finds the violation it follows, also away from the default 2 × 2 shape
/// (at 3 ranks `interproc2` has a violation on rank 2 that 2 ranks lack).
#[test]
fn explore_reproduce_lines_rerun_to_the_same_violations() {
    let (stdout, stderr, code) = home_cli(&[
        "explore",
        "programs/interproc2.hmp",
        "--procs",
        "3",
        "--jobs",
        "1",
    ]);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    let mut reproduced = 0;
    for pair in lines.windows(2) {
        let Some(finding) = pair[0].strip_prefix("  - ") else {
            continue;
        };
        let violation = finding.split(" [found by ").next().unwrap();
        let command = pair[1]
            .trim()
            .strip_prefix("reproduce: home ")
            .unwrap_or_else(|| panic!("no reproduce line after {finding}"));
        let argv: Vec<&str> = command.split_whitespace().collect();
        let (check_out, check_err, check_code) = home_cli(&argv);
        assert_eq!(check_code, Some(1), "{command}: {check_err}");
        assert!(
            violation_lines(&check_out).contains(&format!("  - {violation}")),
            "`{command}` does not reproduce {violation}:\n{check_out}"
        );
        reproduced += 1;
    }
    assert!(reproduced >= 3, "{stdout}");
}

/// Every `--flag` README.md, docs/LANGUAGE.md and src/lib.rs name is one
/// `home help` lists, or one of cargo's own.
#[test]
fn docs_name_only_flags_that_help_lists() {
    const CARGO_FLAGS: &[&str] = &["--bin", "--release", "--example", "--offline"];
    fn flags(text: &str) -> std::collections::BTreeSet<String> {
        text.match_indices("--")
            .map(|(at, _)| {
                text[at + 2..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect::<String>()
            })
            .filter(|name| name.starts_with(|c: char| c.is_ascii_lowercase()))
            .map(|name| format!("--{name}"))
            .collect()
    }
    let (help, _, code) = home_cli(&["help"]);
    assert_eq!(code, Some(0));
    let listed = flags(&help);
    for doc in ["README.md", "docs/LANGUAGE.md", "src/lib.rs"] {
        let text = std::fs::read_to_string(doc).unwrap();
        for flag in flags(&text) {
            assert!(
                listed.contains(&flag) || CARGO_FLAGS.contains(&flag.as_str()),
                "{doc} names {flag}, which `home help` does not list"
            );
        }
    }
}
