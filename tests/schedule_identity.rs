//! The schedule is part of the contract: for every `(seed, policy, depth,
//! pins)` the scheduler must take the same decisions, so every byte `home`
//! derives from a run — recorded traces, `check` reports, `explore`
//! reports and their `reproduce:` tokens — is pinned here to constants
//! captured before the hand-off was rebuilt on park/unpark and pooled
//! carrier threads. A scheduler change that moves any of them renames
//! every schedule users have stored.

use std::process::Command;

const PROGRAMS: [&str; 7] = [
    "figure1",
    "figure2",
    "figure2_fixed",
    "hidden",
    "interproc",
    "interproc2",
    "pipeline",
];

/// FNV-1a 64 of `home record <program> --seeds <seed>` for seeds 1, 2, 3,
/// in [`PROGRAMS`] order.
const RECORD_HASHES: [[u64; 3]; 7] = [
    [
        0xde54_f104_6c37_f2e2,
        0xde86_9b2e_61f9_a214,
        0x5ff8_9221_9edf_60ca,
    ],
    [
        0x7e7a_e9df_5e7f_61be,
        0x7e1b_32dc_5239_3f9e,
        0x8a71_f82a_5d70_ab4a,
    ],
    [
        0x235d_bbd1_afea_4d88,
        0x5f5d_00e0_2d29_7bfa,
        0xd9fc_dd1e_7a92_781a,
    ],
    [
        0x0a05_15e2_7b26_d013,
        0xfa80_58a0_b936_67c9,
        0x8330_bc39_342d_d787,
    ],
    [
        0xebb1_ecc3_68d7_2a02,
        0x2a80_6fe2_de3a_3868,
        0xb435_ef8d_efaf_2454,
    ],
    [
        0xf3bb_2e0c_bcfa_8ddf,
        0x7dc8_e8fc_57d7_f161,
        0x6119_cbcb_a005_c221,
    ],
    [
        0x1af9_b29a_6a5f_55e6,
        0x2ded_55ed_ab18_d62e,
        0x114c_c38f_d752_77c0,
    ],
];

/// FNV-1a 64 of, per program in [`PROGRAMS`] order: the standard output of
/// `home check <program> --seeds 1,2,3` and of `home explore <program>
/// --budget 32` (captured at PR 11); then of `check --json --seeds 1,2,3`
/// (no `--json` exists on `check`, so the flag is skipped like any unknown
/// one and the text report is what is pinned), of `check --faithful --seeds
/// 1,2,3`, and — in-process, since `home run --tool` prints only a timing
/// line — of the rendered report followed by the `Debug` of the race list
/// of `run_tool(Tool::Itc, ..)` and `run_tool(Tool::Marmot, ..)` over seeds
/// 1,2,3. The last four columns were captured while `check`, `explore` and
/// the ITC model still ran the since-deleted batch detector; the
/// stream detector that replaced it must reproduce every one of them.
const REPORT_HASHES: [[u64; 6]; 7] = [
    [
        0x0239_e778_c1a0_4e77,
        0x8390_60e9_2068_d4c0,
        0x0239_e778_c1a0_4e77,
        0x0239_e778_c1a0_4e77,
        0x78cf_0261_269f_bff4,
        0x78cf_0261_269f_bff4,
    ],
    [
        0x6a95_d54d_447d_23a1,
        0x7883_e056_a303_e9b2,
        0x6a95_d54d_447d_23a1,
        0x6a95_d54d_447d_23a1,
        0x18a5_ef88_1fa3_4dc5,
        0x312d_aef4_f480_8dfe,
    ],
    [
        0xed7d_9b04_9248_8a0a,
        0x051c_28c5_8659_2550,
        0xed7d_9b04_9248_8a0a,
        0xed7d_9b04_9248_8a0a,
        0x4814_3416_ad0e_45a4,
        0x69f1_5181_c5fe_544c,
    ],
    [
        0x8bd7_eda2_50d5_80cd,
        0x5e83_158a_5932_7e80,
        0x8bd7_eda2_50d5_80cd,
        0x8bd7_eda2_50d5_80cd,
        0x5346_8b76_a979_0daf,
        0x1132_8c88_81d7_64d1,
    ],
    [
        0x9676_220d_c7fa_03ae,
        0xcfc2_296d_eeb8_c569,
        0x9676_220d_c7fa_03ae,
        0x9676_220d_c7fa_03ae,
        0x12ad_8587_fd55_87c3,
        0x12ad_8587_fd55_87c3,
    ],
    [
        0x09cf_de42_68f2_6b58,
        0xb773_368e_225f_10e8,
        0x09cf_de42_68f2_6b58,
        0x09cf_de42_68f2_6b58,
        0x33a4_dbf3_3410_6e61,
        0xcce3_64be_f73a_4bb7,
    ],
    [
        0x5be9_8b9d_4e5d_ff5f,
        0x9bbb_013c_0f99_a713,
        0x5be9_8b9d_4e5d_ff5f,
        0x5be9_8b9d_4e5d_ff5f,
        0x40bd_e0cf_7f7b_14f1,
        0x046d_2847_5df4_9219,
    ],
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn home_stdout(args: &[&str]) -> Vec<u8> {
    Command::new(env!("CARGO_BIN_EXE_home"))
        .args(args)
        .output()
        .expect("failed to launch home binary")
        .stdout
}

/// The class-S injected NPB-MZ programs, the ones whose runs go through
/// `omp for`, `critical`, `allreduce` and `isend`/`wait`: FNV-1a 64 of
/// `home record --seeds <seed>` for seeds 1, 2, 3 and then of the standard
/// output of `home check --seeds 1,2,3`, per benchmark (LU, BT, SP) at
/// 2 ranks x 2 threads and then at 8 x 2. Captured, like everything below,
/// while each virtual thread still ran on a parked OS thread.
const NPB_HASHES: [[[u64; 4]; 2]; 3] = [
    [
        [
            0x0678_e42e_cef0_8750,
            0x01c3_ef0b_0cd1_3b33,
            0x503e_21af_977f_0841,
            0xef57_a18a_c633_5c83,
        ],
        [
            0xb804_3451_9c52_cefb,
            0x1d38_bda4_23d4_b96e,
            0xf412_a530_5ae8_e02c,
            0x9323_b21c_c83d_37b8,
        ],
    ],
    [
        [
            0x4b61_d290_d963_3752,
            0x2abd_0aab_1411_4690,
            0x74a9_0ac4_1cf7_385e,
            0xdd72_3be7_b34c_926f,
        ],
        [
            0x0d82_1a06_55b1_ea5b,
            0x3a22_ceb5_2836_5963,
            0x5a01_1967_aa37_d123,
            0xa17a_7ff1_2ee5_11b5,
        ],
    ],
    [
        [
            0xd693_cf9e_42a0_f049,
            0x0501_8d0a_77c5_59b3,
            0x9af3_caec_03fb_f151,
            0xe73f_7151_ab06_8960,
        ],
        [
            0x92d0_ce42_4bde_72b3,
            0xec62_3c4a_a8eb_85d1,
            0x4bbd_6bda_9192_4a3c,
            0xeb92_6ca8_c653_d82e,
        ],
    ],
];

/// FNV-1a 64 of the standard output of `home explore lu.hmp --budget 64`
/// (the injected LU-MZ class-S program), of `home explore hidden.hmp
/// --strategy directed --budget 64`, whose one finding prints a `reproduce:`
/// token with priority pins, of the `home check` command that token names,
/// and of the same command at `--pct-depth 3`.
const TOKEN_HASHES: [u64; 4] = [
    0x0dc3_bcfc_4c39_c63c,
    0x2c17_d23d_c30c_0aec,
    0x48b9_6ad1_a424_f6a3,
    0x48b9_6ad1_a424_f6a3,
];

/// Two programs every schedule of which deadlocks: a four-rank ring whose
/// threads all receive before they send, and `tests/case_studies.rs`'s
/// `stuck` (one message, two receivers).
const DEADLOCKING: [(&str, &str, &[&str]); 2] = [
    (
        "dl.hmp",
        "program dl { mpi_init_thread(multiple); omp parallel num_threads(2) { \
         mpi_recv(from: (rank + 1) % size, tag: tid); \
         mpi_send(to: (rank + 1) % size, tag: tid, count: 1); } mpi_finalize(); }",
        &["--procs", "4", "--seeds", "1,2,3"],
    ),
    (
        "stuck.hmp",
        "program stuck { mpi_init_thread(multiple); \
         if (rank == 0) { mpi_send(to: 1, tag: 0, count: 1); } \
         if (rank == 1) { omp parallel num_threads(2) { mpi_recv(from: 0, tag: 0); } } \
         mpi_finalize(); }",
        &["--seeds", "1,2,3"],
    ),
];

/// FNV-1a 64 of the standard output of `home check` on each
/// [`DEADLOCKING`] program: who was blocked on what, at which step.
const DEADLOCK_CHECK_HASHES: [u64; 2] = [0xa6c1_2b37_c390_7e4c, 0xbc5b_8b76_ea45_c75f];

/// FNV-1a 64 of the trace `home record` writes for each [`DEADLOCKING`]
/// program. Pinned with the single-thread executor: while every blocked
/// thread unwound on an OS thread of its own, the events they still emitted
/// on the way out interleaved differently from run to run (the ring gave
/// some two dozen traces in thirty runs), so there was nothing to pin.
const DEADLOCK_RECORD_HASHES: [u64; 2] = [0x7733_cdd1_221d_ac34, 0xf150_0cdf_21cb_2a40];

/// FNV-1a 64 of the v2 file `home record --compress --seeds 1,2,3` writes
/// (three sections through one writer, one compressor): per bundled program
/// in [`PROGRAMS`] order; per class-S benchmark (LU, BT, SP) at 2 ranks x 2
/// threads and then at 8 x 2; per [`DEADLOCKING`] program under its own
/// flags. Captured on the commit before the LZ match finder was rewritten
/// (the parent of PR 23): the finder may get cheaper, the bytes it picks may
/// not move, or every stored v2 trace and every `serve` fingerprint would.
const COMPRESSED_RECORD_HASHES: [u64; 7] = [
    0xe6f1_e877_80bb_7194,
    0xc6e4_94af_dab7_de6c,
    0x50c0_b8a2_5fb8_2995,
    0xd191_d10b_e93f_051a,
    0xed5e_7a5e_55d7_f4b7,
    0xfdc3_dc7e_9813_a109,
    0x422f_44f2_9685_8c13,
];
const NPB_COMPRESSED_RECORD_HASHES: [[u64; 2]; 3] = [
    [0xd159_bad0_b846_3ca3, 0x8d46_3dc3_b06f_da48],
    [0x228b_b9d5_289c_2d20, 0x9882_9896_aa26_a5d8],
    [0x4f3c_1605_50a4_e4c9, 0x893b_3b30_d0a6_ef66],
];
const DEADLOCK_COMPRESSED_RECORD_HASHES: [u64; 2] = [0x2328_8b77_8637_4788, 0x4953_8b88_bea3_9294];

/// FNV-1a 64 of what the race detector reports over one full-instrumentation
/// recording (seed 1, 2 ranks x 2 threads) of each bundled program in
/// [`PROGRAMS`] order and then of LU, BT and SP class S: the `Debug` bytes of
/// the race list, in order, followed by those of every `StreamStats` counter
/// but the wall-clock rate. One column per [`detector_configs`] entry; every
/// batch cut of [`BATCH_CUTS`] must give the same bytes. Captured on the
/// commit before the access history was made compact (fff7871),
/// so a race rebuilt from a compact record must come back as the access that
/// was recorded.
const RACE_LIST_HASHES: [[u64; 6]; 10] = [
    [
        0xb817_1f76_5ec4_e29d,
        0x285d_baa7_b741_1981,
        0xb817_1f76_5ec4_e29d,
        0xb817_1f76_5ec4_e29d,
        0xb817_1f76_5ec4_e29d,
        0xb817_1f76_5ec4_e29d,
    ],
    [
        0x1e43_9be9_0127_46c8,
        0x3008_48c8_0cbb_f734,
        0x1e43_9be9_0127_46c8,
        0x1e43_9be9_0127_46c8,
        0xa809_0dd9_72de_1667,
        0xf51e_0115_5b3c_002d,
    ],
    [
        0x9503_ce2f_eefd_c3f8,
        0x6665_4fdc_cf99_d864,
        0x9503_ce2f_eefd_c3f8,
        0x9503_ce2f_eefd_c3f8,
        0x33e8_7b48_2934_4fb5,
        0x5764_202a_a61b_c87d,
    ],
    [
        0xd893_e1bd_0e3d_b68a,
        0x6921_5889_e5ea_7224,
        0xd893_e1bd_0e3d_b68a,
        0xd893_e1bd_0e3d_b68a,
        0xd893_e1bd_0e3d_b68a,
        0xd893_e1bd_0e3d_b68a,
    ],
    [
        0x0aec_ca7a_962c_9c94,
        0xf680_3ba4_f5b7_ac3a,
        0x0aec_ca7a_962c_9c94,
        0x0aec_ca7a_962c_9c94,
        0x0aec_ca7a_962c_9c94,
        0x0aec_ca7a_962c_9c94,
    ],
    [
        0xbe26_adfc_98c9_1e8d,
        0xbde8_9539_36fd_8e9d,
        0xbe26_adfc_98c9_1e8d,
        0xd5f4_da91_8f27_c603,
        0xbe26_adfc_98c9_1e8d,
        0xa893_9687_5598_5da6,
    ],
    [
        0xcaca_8bc2_39c9_6539,
        0xffa9_5caf_6d93_3c63,
        0xcaca_8bc2_39c9_6539,
        0xcaca_8bc2_39c9_6539,
        0xcaca_8bc2_39c9_6539,
        0xb8a6_5e33_1f4b_6b0a,
    ],
    [
        0x1970_7714_131e_28f3,
        0xec9c_1bbc_04fe_ef4d,
        0x1970_7714_131e_28f3,
        0x1970_7714_131e_28f3,
        0x5e81_5057_ae0e_2e66,
        0x1f59_b8af_407b_58ac,
    ],
    [
        0x7b10_24e2_7216_3cb1,
        0x74a1_007b_1ee1_93d4,
        0x7b10_24e2_7216_3cb1,
        0xa6aa_de36_ffa6_f366,
        0xdae0_e8c7_8146_78e6,
        0xa7e7_ba95_ca73_0b18,
    ],
    [
        0xddc6_63c7_6dfe_51c0,
        0x3ea1_7571_d742_2c43,
        0xddc6_63c7_6dfe_51c0,
        0xddc6_63c7_6dfe_51c0,
        0xfd28_f26a_4664_0b93,
        0xaec1_a825_c702_0448,
    ],
];

/// Hybrid, lockset-only, HB-only, lock-blind, dedupe off, history cap 3.
fn detector_configs() -> [home::prelude::DetectorConfig; 6] {
    use home::prelude::DetectorConfig;
    let hybrid = DetectorConfig::hybrid();
    [
        hybrid.clone(),
        DetectorConfig::lockset_only(),
        DetectorConfig::hb_only(),
        DetectorConfig {
            ignore_locks: true,
            ..hybrid.clone()
        },
        DetectorConfig {
            dedupe_pairs: false,
            ..hybrid.clone()
        },
        DetectorConfig {
            history_cap: 3,
            ..hybrid
        },
    ]
}

/// Events per `consume_batch` call (`usize::MAX`: the whole recording).
const BATCH_CUTS: [usize; 3] = [1, 7, usize::MAX];

/// Run `home` from inside `dir`, so the program paths a report echoes (its
/// `reproduce:` lines) are the same relative names on every machine.
fn home_stdout_in(dir: &std::path::Path, args: &[&str]) -> Vec<u8> {
    Command::new(env!("CARGO_BIN_EXE_home"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("failed to launch home binary")
        .stdout
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("home-identity-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn injected_npb_runs_hash_to_the_pinned_constants() {
    use home::prelude::{build_injected, print_program, Benchmark, Class};
    let dir = scratch_dir("npb");
    let mut actual = [[[0u64; 4]; 2]; 3];
    for (b, (benchmark, name)) in [
        (Benchmark::LuMz, "lu.hmp"),
        (Benchmark::BtMz, "bt.hmp"),
        (Benchmark::SpMz, "sp.hmp"),
    ]
    .into_iter()
    .enumerate()
    {
        let program = build_injected(benchmark, Class::S).program;
        std::fs::write(dir.join(name), print_program(&program)).expect("program written");
        for (c, procs) in ["2", "8"].into_iter().enumerate() {
            let shape = ["--procs", procs, "--threads", "2"];
            for seed in ["1", "2", "3"] {
                let record = ["record", name, "-o", "run.hbt", "--seeds", seed];
                home_stdout_in(&dir, &[&record[..], &shape[..]].concat());
                let trace = std::fs::read(dir.join("run.hbt")).expect("trace written");
                actual[b][c][seed.parse::<usize>().expect("seed") - 1] = fnv1a(&trace);
            }
            let check = ["check", name, "--seeds", "1,2,3"];
            actual[b][c][3] = fnv1a(&home_stdout_in(&dir, &[&check[..], &shape[..]].concat()));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(actual, NPB_HASHES, "actual: {actual:#018x?}");
}

#[test]
fn deadlock_reports_hash_to_the_pinned_constants() {
    let dir = scratch_dir("deadlock");
    let mut actual = [0u64; 2];
    for (i, (name, source, shape)) in DEADLOCKING.into_iter().enumerate() {
        std::fs::write(dir.join(name), source).expect("program written");
        let check = home_stdout_in(&dir, &[&["check", name][..], shape].concat());
        assert!(
            String::from_utf8_lossy(&check).contains("deadlock under seed 1"),
            "{name} must deadlock"
        );
        actual[i] = fnv1a(&check);
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(actual, DEADLOCK_CHECK_HASHES, "actual: {actual:#018x?}");
}

/// After a deadlock the unfinished threads unwind in ascending id order,
/// so what they emit on the way out is a function of the seed: thirty
/// recordings of each program are one byte string.
#[test]
fn recording_a_deadlocked_run_is_deterministic() {
    let dir = scratch_dir("deadlock-record");
    let mut actual = [0u64; 2];
    for (i, (name, source, shape)) in DEADLOCKING.into_iter().enumerate() {
        std::fs::write(dir.join(name), source).expect("program written");
        let record = [&["record", name, "-o", "run.hbt"][..], shape].concat();
        let mut traces = std::collections::BTreeSet::new();
        for _ in 0..30 {
            home_stdout_in(&dir, &record);
            traces.insert(std::fs::read(dir.join("run.hbt")).expect("trace written"));
        }
        assert_eq!(traces.len(), 1, "{name}: recordings differ between runs");
        actual[i] = fnv1a(traces.first().expect("one trace"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(actual, DEADLOCK_RECORD_HASHES, "actual: {actual:#018x?}");
}

/// Decision points do not move with the mechanism that passes control:
/// one run of the injected LU-MZ class-C program at 8 ranks x 2 threads
/// under seed 1 takes the 5,501 decisions it took on OS threads.
#[test]
fn lu_class_c_seed_1_takes_5501_decisions() {
    use home::prelude::{build_injected, run, Benchmark, Class, RunConfig};
    let program = build_injected(Benchmark::LuMz, Class::C).program;
    let mut config = RunConfig::test(8, 1);
    config.threads_per_proc = 2;
    assert_eq!(run(&program, &config).steps, 5501);
}

#[test]
fn explore_tokens_reproduce_to_the_pinned_constants() {
    use home::prelude::{build_injected, print_program, Benchmark, Class};
    let dir = scratch_dir("token");
    let lu = build_injected(Benchmark::LuMz, Class::S).program;
    std::fs::write(dir.join("lu.hmp"), print_program(&lu)).expect("program written");
    std::fs::copy("programs/hidden.hmp", dir.join("hidden.hmp")).expect("program copied");

    let directed = home_stdout_in(
        &dir,
        &[
            "explore",
            "hidden.hmp",
            "--strategy",
            "directed",
            "--budget",
            "64",
        ],
    );
    let text = String::from_utf8(directed.clone()).expect("utf-8 report");
    let token = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("reproduce: home "))
        .expect("the directed finding prints a reproduce: token");
    assert!(token.contains(" --pct-depth 0 --pins "), "{token}");
    let deeper = token.replace(" --pct-depth 0 ", " --pct-depth 3 ");
    let run = |command: &str| {
        let args: Vec<&str> = command.split_whitespace().collect();
        home_stdout_in(&dir, &args)
    };

    let actual = [
        fnv1a(&home_stdout_in(
            &dir,
            &["explore", "lu.hmp", "--budget", "64"],
        )),
        fnv1a(&directed),
        fnv1a(&run(token)),
        fnv1a(&run(&deeper)),
    ];
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(actual, TOKEN_HASHES, "actual: {actual:#018x?}");
}

#[test]
fn recorded_traces_hash_to_the_pinned_constants() {
    let dir = std::env::temp_dir().join(format!("home-identity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut actual = [[0u64; 3]; 7];
    for (p, name) in PROGRAMS.iter().enumerate() {
        for seed in 1..=3usize {
            let out = dir.join(format!("{name}.{seed}.hbt"));
            home_stdout(&[
                "record",
                &format!("programs/{name}.hmp"),
                "-o",
                out.to_str().expect("utf-8 temp path"),
                "--seeds",
                &seed.to_string(),
            ]);
            actual[p][seed - 1] = fnv1a(&std::fs::read(&out).expect("trace written"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(actual, RECORD_HASHES, "actual: {actual:#018x?}");
}

#[test]
fn check_and_explore_reports_hash_to_the_pinned_constants() {
    use home::baselines::{run_tool, Tool};
    let options = home::prelude::CheckOptions::default().with_seeds(vec![1, 2, 3]);
    let mut actual = [[0u64; 6]; 7];
    for (p, name) in PROGRAMS.iter().enumerate() {
        let path = format!("programs/{name}.hmp");
        actual[p][0] = fnv1a(&home_stdout(&["check", &path, "--seeds", "1,2,3"]));
        actual[p][1] = fnv1a(&home_stdout(&["explore", &path, "--budget", "32"]));
        actual[p][2] = fnv1a(&home_stdout(&[
            "check", &path, "--json", "--seeds", "1,2,3",
        ]));
        actual[p][3] = fnv1a(&home_stdout(&[
            "check",
            &path,
            "--faithful",
            "--seeds",
            "1,2,3",
        ]));
        let source = std::fs::read_to_string(&path).expect("bundled program");
        let program = home::prelude::parse(&source).expect("bundled program parses");
        for (col, tool) in [(4, Tool::Itc), (5, Tool::Marmot)] {
            let report = run_tool(tool, &program, &options);
            actual[p][col] = fnv1a(format!("{}{:?}", report.render(), report.races).as_bytes());
        }
    }
    assert_eq!(actual, REPORT_HASHES, "actual: {actual:#018x?}");
}

#[test]
fn compressed_recordings_hash_to_the_pinned_constants() {
    use home::prelude::{build_injected, print_program, Benchmark, Class};
    let dir = scratch_dir("compressed");
    let record = |program: &str, shape: &[&str]| {
        let record = ["record", program, "-o", "run.v2.hbt", "--compress"];
        home_stdout_in(&dir, &[&record[..], shape].concat());
        let trace = std::fs::read(dir.join("run.v2.hbt")).expect("trace written");
        assert_eq!(trace[4], 2, "{program}: a v2 stream");
        fnv1a(&trace)
    };

    let mut bundled = [0u64; 7];
    for (p, name) in PROGRAMS.iter().enumerate() {
        let file = format!("{name}.hmp");
        std::fs::copy(format!("programs/{file}"), dir.join(&file)).expect("program copied");
        bundled[p] = record(&file, &["--seeds", "1,2,3"]);
    }

    let mut npb = [[0u64; 2]; 3];
    for (b, (benchmark, name)) in [
        (Benchmark::LuMz, "lu.hmp"),
        (Benchmark::BtMz, "bt.hmp"),
        (Benchmark::SpMz, "sp.hmp"),
    ]
    .into_iter()
    .enumerate()
    {
        let program = build_injected(benchmark, Class::S).program;
        std::fs::write(dir.join(name), print_program(&program)).expect("program written");
        for (c, procs) in ["2", "8"].into_iter().enumerate() {
            npb[b][c] = record(
                name,
                &["--procs", procs, "--threads", "2", "--seeds", "1,2,3"],
            );
        }
    }

    let mut deadlocking = [0u64; 2];
    for (i, (name, source, shape)) in DEADLOCKING.into_iter().enumerate() {
        std::fs::write(dir.join(name), source).expect("program written");
        deadlocking[i] = record(name, shape);
    }

    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        (bundled, npb, deadlocking),
        (
            COMPRESSED_RECORD_HASHES,
            NPB_COMPRESSED_RECORD_HASHES,
            DEADLOCK_COMPRESSED_RECORD_HASHES
        ),
        "actual: {bundled:#018x?} {npb:#018x?} {deadlocking:#018x?}"
    );
}

#[test]
fn detector_race_lists_hash_to_the_pinned_constants() {
    use home::prelude::*;
    let mut programs: Vec<Program> = PROGRAMS
        .iter()
        .map(|name| {
            let source = std::fs::read_to_string(format!("programs/{name}.hmp")).expect("read");
            parse(&source).expect("bundled program parses")
        })
        .collect();
    for benchmark in [Benchmark::LuMz, Benchmark::BtMz, Benchmark::SpMz] {
        programs.push(build_injected(benchmark, Class::S).program);
    }
    let mut actual = [[0u64; 6]; 10];
    for (p, program) in programs.iter().enumerate() {
        let mut cfg = RunConfig::test(2, 1)
            .with_instrumentation(Instrumentation::full())
            .with_checklist(std::sync::Arc::new(analyze(program).checklist.clone()));
        cfg.threads_per_proc = 2;
        let trace = run(program, &cfg).trace;
        for (c, config) in detector_configs().into_iter().enumerate() {
            let mut cuts = BATCH_CUTS.iter().map(|&cut| {
                let mut detector = StreamDetector::new(config.clone());
                for batch in trace.events().chunks(cut) {
                    detector.consume_batch(batch, None);
                }
                let (races, s) = detector.finish().expect("a recorded trace is well formed");
                let counters = (
                    s.events,
                    s.peak_live_segments,
                    s.total_segments,
                    s.retired_segments,
                    s.retired_while_overlapping,
                    s.history_overflow,
                );
                fnv1a(format!("{races:?}{counters:?}").as_bytes())
            });
            actual[p][c] = cuts.next().expect("a cut");
            assert!(cuts.all(|h| h == actual[p][c]), "program {p} config {c}");
        }
    }
    assert_eq!(actual, RACE_LIST_HASHES, "actual: {actual:#018x?}");
}
