//! Run configuration: scheduling, network model, and instrumentation scope.

use crate::{OmpCosts, SchedPolicy, SimTime};
use home_static::Checklist;
use home_trace::{EventFilter, ThreadLevel};
use std::sync::Arc;

/// What a checking tool instruments, and what each observation costs.
/// The four paper configurations are provided as constructors; the
/// baselines crate tweaks them further.
#[derive(Debug, Clone)]
pub struct Instrumentation {
    /// Tool label (shows up in reports and benchmark tables).
    pub name: String,
    /// Which event classes get recorded.
    pub filter: EventFilter,
    /// Gate MPI-call wrapping on the static checklist (HOME's selective
    /// instrumentation). When `false`, every MPI call is wrapped.
    pub selective: bool,
    /// Whether `MPI_Probe`/`MPI_Iprobe` calls are wrapped at all (Intel
    /// Thread Checker does not monitor probe arguments — the paper's source
    /// of its LU false negatives).
    pub wrap_probe: bool,
    /// Virtual-time cost of recording one event (binary instrumentation is
    /// much more expensive than a wrapper store).
    pub event_cost: SimTime,
    /// Extra virtual-time cost charged on *every* MPI call (Marmot's
    /// round-trip to its central debug process).
    pub mpi_call_extra: SimTime,
    /// Multiplier on compute virtual time, modelling whole-process binary
    /// instrumentation slowdown (Pin-style JIT for HOME/ITC; 1.0 = none).
    pub compute_slowdown: f64,
}

impl Instrumentation {
    /// No tool attached: nothing recorded, nothing charged.
    pub fn base() -> Self {
        Instrumentation {
            name: "base".into(),
            filter: EventFilter::NONE,
            selective: true,
            wrap_probe: true,
            event_cost: SimTime::ZERO,
            mpi_call_extra: SimTime::ZERO,
            compute_slowdown: 1.0,
        }
    }

    /// HOME: monitored variables + sync events, only at checklist-selected
    /// call sites, cheap wrapper stores, and a modest whole-process
    /// slowdown from the selective binary instrumentation.
    pub fn home() -> Self {
        Instrumentation {
            name: "home".into(),
            filter: EventFilter::MONITORED_AND_SYNC,
            selective: true,
            wrap_probe: true,
            event_cost: SimTime::from_micros(33),
            mpi_call_extra: SimTime::ZERO,
            compute_slowdown: 1.15,
        }
    }

    /// HOME with the static filter disabled (ablation: every MPI call
    /// wrapped regardless of region).
    pub fn home_unselective() -> Self {
        Instrumentation {
            name: "home-unselective".into(),
            selective: false,
            ..Instrumentation::home()
        }
    }

    /// Record everything (used by tests that want full traces).
    pub fn full() -> Self {
        Instrumentation {
            name: "full".into(),
            filter: EventFilter::ALL,
            selective: false,
            wrap_probe: true,
            event_cost: SimTime::ZERO,
            mpi_call_extra: SimTime::ZERO,
            compute_slowdown: 1.0,
        }
    }
}

/// Full configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of MPI processes.
    pub nprocs: usize,
    /// OpenMP threads per process (the `omp parallel` default team size
    /// when the program says `num_threads(nthreads)`; explicit counts in
    /// the program win).
    pub threads_per_proc: usize,
    /// Scheduler configuration (seed controls the interleaving).
    pub sched: SchedConfig,
    /// Network/virtual-time model.
    pub mpi: MpiConfig,
    /// OpenMP construct costs.
    pub omp_costs: OmpCosts,
    /// Tool instrumentation.
    pub instrumentation: Instrumentation,
    /// Static checklist driving selective instrumentation (required when
    /// `instrumentation.selective`; typically `home_static::analyze`'s
    /// output).
    pub checklist: Option<Arc<Checklist>>,
    /// Virtual nanoseconds charged per `compute` flop.
    pub ns_per_flop: f64,
}

impl RunConfig {
    /// A small deterministic test configuration.
    pub fn test(nprocs: usize, seed: u64) -> Self {
        RunConfig {
            nprocs,
            threads_per_proc: 2,
            sched: SchedConfig::deterministic(seed),
            mpi: MpiConfig::test(),
            omp_costs: OmpCosts::zero(),
            instrumentation: Instrumentation::full(),
            checklist: None,
            ns_per_flop: 1.0,
        }
    }

    /// The benchmark configuration: time-faithful scheduling and the
    /// cluster network model.
    pub fn cluster(nprocs: usize, seed: u64) -> Self {
        RunConfig {
            nprocs,
            threads_per_proc: 2,
            sched: SchedConfig::time_faithful(seed),
            mpi: MpiConfig::cluster(),
            omp_costs: OmpCosts::default_costs(),
            instrumentation: Instrumentation::base(),
            checklist: None,
            ns_per_flop: 0.5,
        }
    }

    /// Replace the instrumentation.
    pub fn with_instrumentation(mut self, instr: Instrumentation) -> Self {
        self.instrumentation = instr;
        self
    }

    /// Attach a static checklist.
    pub fn with_checklist(mut self, checklist: Arc<Checklist>) -> Self {
        self.checklist = Some(checklist);
        self
    }

    /// Replace the seed (keeps the scheduling mode/policy).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.sched.seed = seed;
        self
    }
}

/// Configuration for a [`crate::Runtime`].
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Scheduling policy used at yield points.
    pub policy: SchedPolicy,
    /// Seed for the policy's RNG (random picks, priority draws).
    pub seed: u64,
    /// Upper bound on scheduling decisions before the run is aborted, as a
    /// guard against livelock in buggy simulated programs. `None` = no bound.
    pub max_steps: Option<u64>,
    /// [`SchedPolicy::Priority`] only: the scheduling-step range
    /// `[1, pct_horizon]` the priority-change points are drawn from. PCT
    /// wants this near the program's step count; the default covers the
    /// bundled corpus with room to spare.
    pub pct_horizon: u64,
}

/// Smallest priority a thread can draw under
/// [`SchedPolicy::Priority`]. Change-point demotions use values `<= 0`, so
/// every demoted thread ranks below every undemoted one.
pub(crate) const PRIORITY_BASE_MIN: i64 = 1_000;

/// Largest priority a thread can draw under [`SchedPolicy::Priority`].
pub(crate) const PRIORITY_BASE_MAX: i64 = 1_000_000;

impl SchedConfig {
    /// Seeded random interleaving — the default for tests and for the
    /// paper-reproduction harness.
    pub fn deterministic(seed: u64) -> Self {
        SchedConfig {
            policy: SchedPolicy::Random,
            seed,
            max_steps: Some(50_000_000),
            pct_horizon: 1024,
        }
    }

    /// Always run the runnable thread with the smallest virtual clock. This makes the interleaving *time-faithful*:
    /// the simulated makespan approximates what a real parallel execution of
    /// the same costs would produce. Used by the figure-regeneration benches.
    pub(crate) fn time_faithful(seed: u64) -> Self {
        SchedConfig {
            policy: SchedPolicy::EarliestClockFirst,
            ..SchedConfig::deterministic(seed)
        }
    }

    /// Replace the scheduling policy.
    pub fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the change-point horizon (see [`SchedConfig::pct_horizon`]).
    pub fn with_pct_horizon(mut self, horizon: u64) -> Self {
        self.pct_horizon = horizon.max(1);
        self
    }
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig::deterministic(0)
    }
}

/// Virtual-time costs of communication, patterned on a small commodity
/// cluster (the paper's EC2 C3 instances): a few microseconds of base
/// latency plus a per-byte transfer cost.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Fixed per-message latency (network + stack traversal).
    pub base_latency: SimTime,
    /// Transfer cost per payload element (8-byte word).
    pub per_word: SimTime,
    /// CPU overhead charged to the sender per send call.
    pub send_overhead: SimTime,
    /// CPU overhead charged to the receiver per receive completion.
    pub recv_overhead: SimTime,
}

impl LatencyModel {
    /// Roughly 10 GbE-class numbers: 20 µs latency, ~1 ns/word on the wire,
    /// 1 µs of CPU per call on each side.
    pub(crate) fn ethernet() -> Self {
        LatencyModel {
            base_latency: SimTime::from_micros(20),
            per_word: SimTime::from_nanos(1),
            send_overhead: SimTime::from_micros(1),
            recv_overhead: SimTime::from_micros(1),
        }
    }

    /// Zero-cost model for pure-semantics tests.
    pub fn zero() -> Self {
        LatencyModel {
            base_latency: SimTime::ZERO,
            per_word: SimTime::ZERO,
            send_overhead: SimTime::ZERO,
            recv_overhead: SimTime::ZERO,
        }
    }

    /// Total in-flight time for a message of `words` payload words.
    pub(crate) fn transfer_time(&self, words: usize) -> SimTime {
        self.base_latency + SimTime::from_nanos(self.per_word.as_nanos() * words as u64)
    }
}

/// Configuration of an MPI [`crate::World`].
#[derive(Debug, Clone)]
pub struct MpiConfig {
    /// Highest thread level `MPI_Init_thread` will provide (the *provided*
    /// argument is `min(required, max_thread_level)`), mirroring
    /// implementations built without full `MPI_THREAD_MULTIPLE` support.
    pub max_thread_level: ThreadLevel,
    /// Network cost model.
    pub latency: LatencyModel,
    /// Cost of one collective operation synchronization per participant
    /// (on top of the implied wait time).
    pub collective_overhead: SimTime,
}

impl MpiConfig {
    /// Defaults used by the paper-reproduction harness.
    pub fn cluster() -> Self {
        MpiConfig {
            max_thread_level: ThreadLevel::Multiple,
            latency: LatencyModel::ethernet(),
            collective_overhead: SimTime::from_micros(5),
        }
    }

    /// Zero-cost semantics-only configuration for unit tests.
    pub fn test() -> Self {
        MpiConfig {
            max_thread_level: ThreadLevel::Multiple,
            latency: LatencyModel::zero(),
            collective_overhead: SimTime::ZERO,
        }
    }
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig::cluster()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tool_presets_differ_as_expected() {
        let base = Instrumentation::base();
        let home = Instrumentation::home();
        assert_eq!(base.filter, EventFilter::NONE);
        assert!(home.filter.monitored && home.filter.sync && !home.filter.accesses);
        assert!(home.selective);
        assert!(!Instrumentation::home_unselective().selective);
    }

    #[test]
    fn builders() {
        let cfg = RunConfig::test(4, 7)
            .with_instrumentation(Instrumentation::home())
            .with_seed(9);
        assert_eq!(cfg.nprocs, 4);
        assert_eq!(cfg.sched.seed, 9);
        assert_eq!(cfg.instrumentation.name, "home");
    }

    #[test]
    fn constructors() {
        let d = SchedConfig::deterministic(9);
        assert_eq!(d.seed, 9);
        assert_eq!(d.policy, SchedPolicy::Random);

        let t = SchedConfig::time_faithful(1);
        assert_eq!(t.policy, SchedPolicy::EarliestClockFirst);
    }

    #[test]
    fn sched_builders() {
        let c = SchedConfig::deterministic(0).with_policy(SchedPolicy::EarliestClockFirst);
        assert_eq!(c.policy, SchedPolicy::EarliestClockFirst);
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let m = LatencyModel::ethernet();
        let small = m.transfer_time(1);
        let big = m.transfer_time(100_000);
        assert!(big > small);
        assert_eq!(
            big.as_nanos() - small.as_nanos(),
            m.per_word.as_nanos() * 99_999
        );
    }

    #[test]
    fn zero_model_is_free() {
        assert_eq!(LatencyModel::zero().transfer_time(1_000_000), SimTime::ZERO);
    }
}
