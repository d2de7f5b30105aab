//! The `report` binary regenerates the paper's evaluation: the accuracy
//! table, Figures 4–7 and the ablations. FNV-1a 64 of what `report all
//! --class S --json report.json` prints and of the JSON file it writes, and
//! its exit code, are pinned here, so moving or reshaping the report cannot
//! change a byte of what it renders.

use std::path::{Path, PathBuf};
use std::process::Command;

/// FNV-1a 64 of standard output, FNV-1a 64 of the `--json` file, and the
/// exit code of `report all --class S --json report.json`, run in an empty
/// directory (the last line of standard output names the relative path).
const ALL_CLASS_S: (u64, u64, i32) = (0x12fe_87e5_948d_1a95, 0x7d43_1f48_c378_649d, 0);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("home-report-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Run `report` inside `dir`: standard output, standard error, exit code.
fn report_in(dir: &Path, args: &[&str]) -> (Vec<u8>, Vec<u8>, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("failed to launch report binary");
    (out.stdout, out.stderr, out.status.code().unwrap_or(-1))
}

#[test]
fn report_all_class_s_is_pinned() {
    let dir = scratch_dir("all");
    let (stdout, stderr, code) = report_in(&dir, &["all", "--class", "S", "--json", "report.json"]);
    let json = std::fs::read(dir.join("report.json")).expect("report wrote no JSON file");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        stderr.is_empty(),
        "report wrote to standard error: {}",
        String::from_utf8_lossy(&stderr)
    );
    let actual = (fnv1a(&stdout), fnv1a(&json), code);
    assert_eq!(
        actual,
        ALL_CLASS_S,
        "report output moved from the pinned bytes; stdout:\n{}",
        String::from_utf8_lossy(&stdout)
    );
}

/// Arguments `report` must refuse before it runs anything: each exits 2
/// with nothing on standard output and this one line on standard error.
const USAGE_ERRORS: [(&[&str], &str); 7] = [
    (
        &["figure4", "--class", "Q"],
        "report: invalid value `Q` for --class: expected S, W, A, B or C\n",
    ),
    (
        &["figure4", "--class"],
        "report: missing value for --class\n",
    ),
    (
        &["accuracy", "--json"],
        "report: missing value for --json\n",
    ),
    (
        &["accuracy", "--json", "--class", "S"],
        "report: missing value for --json\n",
    ),
    (
        &["accuracy", "stray"],
        "report: unexpected argument `stray`\n",
    ),
    (
        &["figure7", "--class", "S", "--class", "A"],
        "report: --class is given more than once\n",
    ),
    (&["figure9"], "unknown command `figure9`; see module docs\n"),
];

#[test]
fn bad_arguments_exit_2_naming_the_argument() {
    let dir = scratch_dir("usage");
    for (args, message) in USAGE_ERRORS {
        let (stdout, stderr, code) = report_in(&dir, args);
        assert_eq!(
            (String::from_utf8_lossy(&stderr).as_ref(), code),
            (message, 2),
            "report {args:?}"
        );
        assert!(
            stdout.is_empty(),
            "report {args:?} printed to standard output"
        );
    }
    let leftovers = std::fs::read_dir(&dir).map_or(0, Iterator::count);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(leftovers, 0, "a refused invocation wrote a file");
}

#[test]
fn an_unwritable_json_path_exits_2() {
    let dir = scratch_dir("unwritable");
    let (_, stderr, code) = report_in(&dir, &["accuracy", "--json", "missing/report.json"]);
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&stderr);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(
        stderr.starts_with("report: cannot write missing/report.json: "),
        "stderr: {stderr}"
    );
}
