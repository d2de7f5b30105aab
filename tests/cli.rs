//! Integration tests of the `home` CLI binary against the bundled sample
//! programs.

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
            "check", "watch", "serve", "static", "run", "analyze", "submit", "fmt", "help",
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
    assert!(
        stderr.contains("analyze"),
        "usage must list analyze: {stderr}"
    );
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
fn run_dumps_trace_and_analyze_reads_it_back() {
    let dir = std::env::temp_dir().join("home_cli_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("fig2.json");
    let (stdout, _, code) = home_cli(&[
        "run",
        "programs/figure2.hmp",
        "--tool",
        "home",
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("trace written"));

    let (stdout, _, code) = home_cli(&["analyze", trace_path.to_str().unwrap()]);
    assert_eq!(code, Some(1), "offline analysis finds the violation");
    assert!(stdout.contains("isConcurrentRecvViolation"), "{stdout}");

    // Clean trace → exit 0.
    let clean_path = dir.join("fixed.json");
    home_cli(&[
        "run",
        "programs/figure2_fixed.hmp",
        "--tool",
        "home",
        "--trace-out",
        clean_path.to_str().unwrap(),
    ]);
    let (_, _, code) = home_cli(&["analyze", clean_path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
}

#[test]
fn analyze_rejects_garbage() {
    let dir = std::env::temp_dir().join("home_cli_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("garbage.json");
    std::fs::write(&bad, "not json").unwrap();
    let (_, stderr, code) = home_cli(&["analyze", bad.to_str().unwrap()]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("invalid trace"));
}

#[test]
fn analyze_names_file_and_byte_offset_on_truncated_trace() {
    // Dump a real trace, truncate it mid-stream, and check the diagnostic:
    // one stderr line naming the file and the byte offset, exit code 2.
    let dir = std::env::temp_dir().join("home_cli_truncated");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("whole.json");
    let (_, _, code) = home_cli(&[
        "run",
        "programs/figure2.hmp",
        "--tool",
        "home",
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));
    let json = std::fs::read_to_string(&trace_path).unwrap();
    let cut = dir.join("truncated.json");
    std::fs::write(&cut, &json[..json.len() / 2]).unwrap();

    let (_, stderr, code) = home_cli(&["analyze", cut.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stderr}");
    let diagnostic = stderr.lines().next().unwrap_or_default();
    assert!(
        diagnostic.contains("truncated.json"),
        "diagnostic must name the file: {stderr}"
    );
    assert!(
        diagnostic.contains("byte "),
        "diagnostic must carry the byte offset: {stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "one-line diagnostic: {stderr}");
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

        let (_, stderr, code) = home_cli(&["record", program, "-o", v1.to_str().unwrap()]);
        assert_eq!(code, Some(0), "{program}: {stderr}");
        let (_, stderr, code) =
            home_cli(&["record", program, "-o", v2.to_str().unwrap(), "--compress"]);
        assert_eq!(code, Some(0), "{program}: {stderr}");

        let v1_len = std::fs::metadata(&v1).unwrap().len();
        let v2_len = std::fs::metadata(&v2).unwrap().len();
        assert!(
            v2_len < v1_len,
            "{program}: --compress must shrink the trace ({v2_len} vs {v1_len})"
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
fn analyze_reads_hbt_from_stdin() {
    use std::io::Write;
    let dir = tmp_dir("analyze_stdin");
    let trace = dir.join("fig2.hbt");
    let (_, stderr, code) = home_cli(&[
        "record",
        "programs/figure2.hmp",
        "-o",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");

    let bytes = std::fs::read(&trace).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_home"))
        .args(["analyze", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(&bytes).unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("offline analysis"), "{stdout}");
    assert!(stdout.contains("isConcurrentRecvViolation"), "{stdout}");
}

#[test]
fn analyze_autodetects_hbt_files() {
    let dir = tmp_dir("analyze_hbt");
    let trace = dir.join("fig1.hbt");
    home_cli(&[
        "record",
        "programs/figure1.hmp",
        "-o",
        trace.to_str().unwrap(),
    ]);
    let (stdout, _, code) = home_cli(&["analyze", trace.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("isInitializationViolation"), "{stdout}");
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
    let bytes = std::fs::read(&trace).unwrap();
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
    let commands: [&[&str]; 3] = [
        &["replay"],
        &["analyze"],
        &["submit", "--socket", "no.sock"],
    ];
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
