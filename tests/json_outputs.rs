//! The JSON `home` writes is part of its contract: `home static --json`,
//! the daemon's reply lines that `home submit --json` and `home serve
//! --status` print, and the error a rejected submission reports. FNV-1a 64
//! of those bytes and the exit codes, taken through the CLI binary, are
//! pinned here to constants captured before the JSON writer was replaced;
//! the writer that replaced it must give the same bytes.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PROGRAMS: [&str; 7] = [
    "figure1",
    "figure2",
    "figure2_fixed",
    "hidden",
    "interproc",
    "interproc2",
    "pipeline",
];

/// FNV-1a 64 of the standard output of `home static <program> --json`, and
/// its exit code: per bundled program in [`PROGRAMS`] order, then for the
/// injected LU-MZ, BT-MZ and SP-MZ class-S programs.
const STATIC_JSON: [(u64, i32); 10] = [
    (0x2cb9_62f3_97b2_fa4c, 1),
    (0x9561_5a3a_b47c_690b, 1),
    (0x9a83_e840_b2bf_8f77, 0),
    (0x281d_04fa_5aab_feb3, 1),
    (0xa311_723d_90ba_c623, 1),
    (0xe26b_4d38_5022_c8a2, 1),
    (0x9342_a463_5d84_1251, 0),
    (0xfc05_ed17_ad41_0577, 1),
    (0x2426_923a_e06f_203f, 1),
    (0x8eb6_297c_ad53_114f, 1),
];

/// FNV-1a 64 and exit code of each step of one `home serve` session, in
/// order: `submit --json` of a `figure2` recording; the same file again
/// (every run already known to the daemon); a truncated copy (the hash is of
/// standard error: the daemon's error reply as the client reports it); a
/// recording of a program whose file name holds `"`, `\` and `é`, so the
/// violation strings need escaping; `serve --status` after all of them; and
/// the raw reply line to `PING`.
const SERVE_SESSION: [(u64, i32); 6] = [
    (0x4d25_0353_e1e1_b8c9, 1),
    (0x4d25_0353_e1e1_b8c9, 1),
    (0x2619_3592_b4c1_0e0c, 2),
    (0x0f91_3e9d_aa42_7dcf, 1),
    (0xc225_85a3_f7d1_30a7, 0),
    (0xe6c8_7b6c_0b83_36bd, 0),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("home-json-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Run `home` inside `dir` (so every path it echoes is a short relative
/// name): standard output, standard error, exit code.
fn home_in(dir: &Path, args: &[&str]) -> (Vec<u8>, Vec<u8>, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_home"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("failed to launch home binary");
    (out.stdout, out.stderr, out.status.code().unwrap_or(-1))
}

#[test]
fn static_json_hashes_to_the_pinned_constants() {
    use home::prelude::{build_injected, print_program, Benchmark, Class};
    let dir = scratch_dir("static");
    let mut files: Vec<String> = PROGRAMS
        .iter()
        .map(|name| {
            let file = format!("{name}.hmp");
            std::fs::copy(format!("programs/{file}"), dir.join(&file)).expect("program copied");
            file
        })
        .collect();
    for (benchmark, file) in [
        (Benchmark::LuMz, "lu.hmp"),
        (Benchmark::BtMz, "bt.hmp"),
        (Benchmark::SpMz, "sp.hmp"),
    ] {
        let program = build_injected(benchmark, Class::S).program;
        std::fs::write(dir.join(file), print_program(&program)).expect("program written");
        files.push(file.to_string());
    }
    let actual: Vec<(u64, i32)> = files
        .iter()
        .map(|file| {
            let (stdout, _, code) = home_in(&dir, &["static", file, "--json"]);
            (fnv1a(&stdout), code)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(actual, STATIC_JSON, "actual: {actual:x?}");
}

/// A `home serve` child that is stopped however the test ends.
struct Daemon {
    child: Child,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Write `programs/figure2.hmp`, renamed `name`, as `home record --seeds 1,2`
/// would. The parser admits only identifiers as program names, so a name
/// that needs escaping in JSON has to be set on the parsed program.
fn record_renamed_figure2(name: &str, out: &Path) {
    use home::prelude::*;
    use home::stream::HbtWriter;
    let source = std::fs::read_to_string("programs/figure2.hmp").expect("sample program");
    let mut program = parse(&source).expect("sample program parses");
    program.name = name.to_string();
    let checklist = Arc::new(analyze(&program).checklist.clone());
    let mut writer = HbtWriter::new(Vec::new()).expect("header write");
    for seed in [1, 2] {
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
    std::fs::write(out, writer.finish().expect("trailer write")).expect("trace written");
}

#[test]
fn serve_replies_hash_to_the_pinned_constants() {
    let dir = scratch_dir("serve");
    std::fs::copy("programs/figure2.hmp", dir.join("figure2.hmp")).expect("program copied");
    let (_, _, code) = home_in(
        &dir,
        &["record", "figure2.hmp", "-o", "fig2.hbt", "--seeds", "1,2"],
    );
    assert_eq!(code, 0, "record");
    let trace = std::fs::read(dir.join("fig2.hbt")).expect("trace written");
    std::fs::write(dir.join("cut.hbt"), &trace[..trace.len() / 2]).expect("truncated copy");
    record_renamed_figure2("fig\"2\\é", &dir.join("esc.hbt"));

    let socket = dir.join("s.sock");
    let _daemon = Daemon {
        child: Command::new(env!("CARGO_BIN_EXE_home"))
            .current_dir(&dir)
            .args(["serve", "--socket", "s.sock"])
            .stdout(Stdio::null())
            .spawn()
            .expect("daemon starts"),
    };
    let start = Instant::now();
    while !socket.exists() {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "daemon never bound"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut actual = Vec::new();
    for file in ["fig2.hbt", "fig2.hbt", "cut.hbt", "esc.hbt"] {
        let (stdout, stderr, code) =
            home_in(&dir, &["submit", file, "--socket", "s.sock", "--json"]);
        let bytes = if file == "cut.hbt" { stderr } else { stdout };
        actual.push((fnv1a(&bytes), code));
    }
    let (stdout, _, code) = home_in(&dir, &["serve", "--socket", "s.sock", "--status"]);
    actual.push((fnv1a(&stdout), code));
    let mut ping = UnixStream::connect(&socket).expect("daemon accepts");
    ping.write_all(b"PING\n").expect("ping sent");
    let mut line = String::new();
    BufReader::new(ping)
        .read_line(&mut line)
        .expect("ping reply");
    actual.push((fnv1a(line.as_bytes()), 0));

    let (_, _, code) = home_in(&dir, &["serve", "--socket", "s.sock", "--stop"]);
    assert_eq!(code, 0, "stop");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(actual, SERVE_SESSION, "actual: {actual:x?}");
}
