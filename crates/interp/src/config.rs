//! Run configuration: scheduling, network model, and instrumentation scope.

use home_mpi::MpiConfig;
use home_omp::OmpCosts;
use home_sched::{SchedConfig, SimTime};
use home_static::Checklist;
use home_trace::EventFilter;
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
}
