//! The system calls the benchmark needs and `std` does not offer — CPU
//! affinity (the noise protocol pins the driver, children inherit it),
//! `wait4` (a child's peak RSS as the kernel accounted it), `mallopt` — as
//! raw `extern "C"` declarations against the libc `std` already links, so
//! no dependency is added; and the CPU-speed calibration of the noise
//! protocol.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Words in the affinity mask: room for 1024 CPUs, the kernel's default
/// `CONFIG_NR_CPUS` ceiling on the platforms this runs on.
const MASK_WORDS: usize = 16;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fix glibc's mmap threshold at its start-up value (128 KiB), which also
/// switches off its dynamic adjustment. For in-process kernels of ops that
/// hold their big allocations until they exit (decode, analyse, print,
/// exit): a fresh `home replay` runs its whole life at the start-up
/// threshold and grows its section vectors with `mremap`, while a
/// long-lived driver, after its first rep has freed them, has a 32 MiB
/// threshold, serves them from the brk heap, copies on every growth, and
/// decodes the wide trace ~50% slower than the CLI (535 vs ~350 ms).
///
/// Not for ops that run the interpreter: those free 512 KiB message buffers
/// from their first milliseconds on, so a fresh process adapts at once and
/// matches a long-lived one (account closes to ~1%). Fixing the threshold
/// there is wrong in both directions measured: at 128 KiB the zeroed
/// buffers become lazy zero pages and runs come out ~17% faster than the
/// CLI's; at 1 MiB every free trims the heap and they come out ~45% slower.
pub fn pin_malloc_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only stores a tuning value inside the allocator;
    // no other thread of this process is allocating while it is called.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
}

/// Steps of the calibration loop, and what it takes on the reference box in
/// its slower (and more common) state: 1.89 ns a step.
const SPIN_STEPS: u64 = 8_000_000;
const SPIN_REFERENCE_MS: f64 = SPIN_STEPS as f64 * 1.89e-6;

/// A fixed register-only loop: its time is the CPU's speed right now and
/// nothing else (no memory, no system call, nothing a change to `home` can
/// touch).
fn spin_ms() -> f64 {
    let start = Instant::now();
    let (mut x, mut acc) = (88_172_645_463_325_252u64, 0u64);
    for _ in 0..SPIN_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// The speed of the CPU around each timed interval. The reference box's
/// CPU flips between two speeds 28% apart, in epochs of seconds to tens of
/// seconds (a neighbour on the host, not anything in this VM), and an op's
/// wall time follows it. A spin before and after every op tells which
/// state the op ran in; scaling its time by `reference / measured` spin
/// takes the epochs out and leaves what the code under test costs.
pub struct Speed {
    last_ms: f64,
}

impl Speed {
    pub fn new() -> Speed {
        Speed { last_ms: spin_ms() }
    }

    /// The factor that scales a wall time measured since the previous call
    /// (or `new`) to reference speed: mean of the spins on both sides.
    pub fn factor(&mut self) -> f64 {
        let now_ms = spin_ms();
        let factor = SPIN_REFERENCE_MS / ((self.last_ms + now_ms) / 2.0);
        self.last_ms = now_ms;
        factor
    }
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread — and every thread or process it starts
/// afterwards — to `cpus`. Returns whether the kernel accepted the mask.
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// What one finished child cost, as seen from outside it.
#[derive(Debug, Clone, Default)]
pub struct ChildRun {
    /// Exit code (`-1` when killed by a signal or never reaped).
    pub code: i32,
    /// Everything the child wrote to standard output.
    pub stdout: String,
    /// Spawn to reaped, seconds.
    pub wall_s: f64,
    /// Peak resident set, MiB (`ru_maxrss`).
    pub peak_rss_mb: f64,
}

/// Peak resident set (`VmHWM`, MiB) of the live process `pid`, or of this
/// process for `"self"`; 0 when `/proc` does not say.
pub fn peak_rss_of(pid: impl std::fmt::Display) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Reap `pid` with `wait4` and return `(exit code, peak RSS in MiB)`.
///
/// Linux folds the spawning process's own high-water mark into a child
/// started with `vfork` + `exec` (what `std::process::Command` does), so
/// the reading is exact only while this driver's peak stays below the
/// child's. The driver therefore keeps its own footprint small and
/// records it (`driver_hwm_mb`) next to every result.
pub fn reap(pid: u32) -> (i32, f64) {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: both out-pointers reference live, correctly sized locals, and
    // `pid` is a child of this process that has not been waited for yet.
    let rc = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
    if rc < 0 {
        return (-1, 0.0);
    }
    // WIFEXITED / WEXITSTATUS: low seven bits clear means a normal exit.
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    (code, usage.maxrss as f64 / 1024.0)
}

/// Run `program args…` to completion, capturing stdout, wall time and the
/// kernel's resource accounting. A spawn failure is an ordinary failed run
/// (code `-1`), never a panic: the caller counts it as a failed op.
pub fn run_child(program: &std::path::Path, args: &[&str]) -> ChildRun {
    let start = Instant::now();
    let spawned = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(_) => {
            return ChildRun {
                code: -1,
                ..ChildRun::default()
            }
        }
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        // Read to EOF before reaping so a full pipe never blocks the child.
        let _ = pipe.read_to_string(&mut stdout);
    }
    let (code, peak_rss_mb) = reap(child.id());
    ChildRun {
        code,
        stdout,
        wall_s: start.elapsed().as_secs_f64(),
        peak_rss_mb,
    }
}
