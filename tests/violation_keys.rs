//! What reaches a user from the session layer, pinned byte for byte: the
//! live `home watch` output (each emission printed as it fires, or each
//! seed's findings when it ends), every replayed section's keyed verdicts
//! (each violation with the `EmitOrder` key it was kept under), and the
//! daemon's `serve --status` reply once those recordings are submitted.
//! FNV-1a 64 of those bytes, captured on the commit before the session
//! stopped forwarding to a sink and the rule engine became the one place
//! that keys a violation.

#[path = "support/hbt_v1.rs"]
mod hbt_v1;

use home::serve::{analyze_stream, analyze_trace};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
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

/// FNV-1a 64 and exit code of `home watch <program> --seeds 1,2,3,4`, per
/// program in [`PROGRAMS`] order: `--flush every`, then `--flush seed`.
const WATCH: [[(u64, i32); 2]; 7] = [
    [(0xf1a2_73d0_7a41_db0a, 1), (0xf1a2_73d0_7a41_db0a, 1)],
    [(0x744e_a0cf_7d1e_5f1e, 1), (0xd4e6_574d_5548_6b1e, 1)],
    [(0x4a72_df87_6b07_711c, 0), (0x4a72_df87_6b07_711c, 0)],
    [(0xb282_34f1_cdb3_1480, 0), (0xb282_34f1_cdb3_1480, 0)],
    [(0xdcf1_216b_36f2_b71f, 1), (0x47dc_69c3_0c44_82e3, 1)],
    [(0xa3f2_d993_3356_73ee, 1), (0x90f8_8dd2_111f_29be, 1)],
    [(0xf445_0b34_3f51_6afc, 0), (0xf445_0b34_3f51_6afc, 0)],
];

/// FNV-1a 64 of `format!("{:?}", outcome.sections)` over a recording of
/// seeds 1–3, per program in [`PROGRAMS`] order: the v1 recording (the
/// [`hbt_v1::v1_twin`] of the v2 one), then the v2 one. `analyze_trace` at
/// one and two jobs and `analyze_stream` must all give these bytes.
const SECTIONS: [[u64; 2]; 7] = [
    [0xe5ab_b503_024f_f1c0, 0xe5ab_b503_024f_f1c0],
    [0x37bf_1764_7961_adc7, 0x37bf_1764_7961_adc7],
    [0xfe42_0b98_05a8_2dcc, 0xfe42_0b98_05a8_2dcc],
    [0x17b4_5b0b_2f24_d82e, 0x17b4_5b0b_2f24_d82e],
    [0x1a3a_98ed_a600_8444, 0x1a3a_98ed_a600_8444],
    [0x8eb6_4b51_3902_3850, 0x8eb6_4b51_3902_3850],
    [0x487a_fe09_eada_c4ca, 0x487a_fe09_eada_c4ca],
];

/// Every recording of [`SECTIONS`] submitted once to one daemon, in the
/// same order: FNV-1a 64 of each `submit`'s standard output, standard
/// error and exit code in turn, then FNV-1a 64 and exit code of `serve
/// --status`. Re-captured when the daemon's known-run cache came to be
/// keyed by section content: every submit now exits as `home replay` of
/// its file does.
const STATUS: [(u64, i32); 2] = [(0x3ff4_552a_f301_1c13, 0), (0x434e_7b93_9fbc_b9d7, 0)];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("home-keys-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for name in PROGRAMS {
        let file = format!("{name}.hmp");
        std::fs::copy(format!("programs/{file}"), dir.join(&file)).expect("program copied");
    }
    dir
}

/// Run `home` inside `dir` (so every path it echoes is a short relative
/// name): standard output and exit code.
fn home_in(dir: &Path, args: &[&str]) -> (Vec<u8>, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_home"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("failed to launch home binary");
    (out.stdout, out.status.code().unwrap_or(-1))
}

#[test]
fn watch_output_hashes_to_the_pinned_constants() {
    let dir = scratch_dir("watch");
    let actual: Vec<[(u64, i32); 2]> = PROGRAMS
        .iter()
        .map(|name| {
            let file = format!("{name}.hmp");
            ["every", "seed"].map(|flush| {
                let (stdout, code) = home_in(
                    &dir,
                    &["watch", &file, "--seeds", "1,2,3,4", "--flush", flush],
                );
                (fnv1a(&stdout), code)
            })
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(actual, WATCH, "actual: {actual:x?}");
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

#[test]
fn replayed_keys_and_serve_status_hash_to_the_pinned_constants() {
    let dir = scratch_dir("replay");
    let mut files = Vec::new();
    let mut actual = Vec::new();
    for name in PROGRAMS {
        let program = format!("{name}.hmp");
        let hashes = ["v1", "v2"].map(|version| {
            let out = format!("{name}.{version}.hbt");
            let args = ["record", &program, "-o", &out, "--seeds", "1,2,3"];
            assert_eq!(home_in(&dir, &args).1, 0, "record {out}");
            let mut bytes = std::fs::read(dir.join(&out)).expect("recording written");
            if version == "v1" {
                bytes = hbt_v1::v1_twin(&bytes);
                std::fs::write(dir.join(&out), &bytes).expect("v1 twin written");
            }
            let keyed = |outcome: home::serve::TraceOutcome| format!("{:?}", outcome.sections);
            let one = keyed(analyze_trace(&bytes, 1).expect("replays"));
            let two = keyed(analyze_trace(&bytes, 2).expect("replays"));
            let piped = keyed(analyze_stream(bytes.as_slice()).expect("replays"));
            assert_eq!(one, two, "{out}: jobs 1 vs 2");
            assert_eq!(one, piped, "{out}: file vs pipe");
            files.push(out);
            fnv1a(one.as_bytes())
        });
        actual.push(hashes);
    }
    assert_eq!(actual, SECTIONS, "actual: {actual:x?}");

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
    // One daemon takes every program's runs: a later recording reusing a
    // seed with other records is analyzed like any other, and its reply
    // is the verdict of its own bytes.
    let mut submits = Vec::new();
    for file in &files {
        let out = Command::new(env!("CARGO_BIN_EXE_home"))
            .current_dir(&dir)
            .args(["submit", file, "--socket", "s.sock"])
            .output()
            .expect("failed to launch home binary");
        submits.extend_from_slice(&out.stdout);
        submits.extend_from_slice(&out.stderr);
        submits.extend_from_slice(&out.status.code().unwrap_or(-1).to_le_bytes());
    }
    let (stdout, code) = home_in(&dir, &["serve", "--socket", "s.sock", "--status"]);
    let status = [(fnv1a(&submits), 0), (fnv1a(&stdout), code)];
    assert_eq!(
        home_in(&dir, &["serve", "--socket", "s.sock", "--stop"]).1,
        0,
        "stop"
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(status, STATUS, "actual: {status:x?}");
}
