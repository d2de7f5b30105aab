//! Scheduler configuration.

use crate::policy::SchedPolicy;

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
    /// [`SchedPolicy::Priority`] only: exact thread-name → priority
    /// overrides, applied at spawn before any random draw. Unpinned threads
    /// draw from `[PRIORITY_BASE_MIN, PRIORITY_BASE_MAX]`; pin above that
    /// range to force a thread to the front, below zero to starve it.
    /// Directed rescheduling uses one high and one low pin to flip the
    /// order of two racing accesses.
    pub priority_pins: Vec<(String, i64)>,
}

/// Smallest priority an unpinned thread can draw under
/// [`SchedPolicy::Priority`]. Change-point demotions use values `<= 0`, so
/// every demoted thread ranks below every undemoted one.
pub const PRIORITY_BASE_MIN: i64 = 1_000;

/// Largest priority an unpinned thread can draw under
/// [`SchedPolicy::Priority`]. Pins above this always run first.
pub const PRIORITY_BASE_MAX: i64 = 1_000_000;

impl SchedConfig {
    /// Seeded random interleaving — the default for tests and for the
    /// paper-reproduction harness.
    pub fn deterministic(seed: u64) -> Self {
        SchedConfig {
            policy: SchedPolicy::Random,
            seed,
            max_steps: Some(50_000_000),
            pct_horizon: 1024,
            priority_pins: Vec::new(),
        }
    }

    /// Always run the runnable thread with the smallest virtual clock. This makes the interleaving *time-faithful*:
    /// the simulated makespan approximates what a real parallel execution of
    /// the same costs would produce. Used by the figure-regeneration benches.
    pub fn time_faithful(seed: u64) -> Self {
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

    /// Replace the step bound.
    pub fn with_max_steps(mut self, max_steps: Option<u64>) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Replace the priority pins (see [`SchedConfig::priority_pins`]).
    pub fn with_priority_pins(mut self, pins: Vec<(String, i64)>) -> Self {
        self.priority_pins = pins;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let d = SchedConfig::deterministic(9);
        assert_eq!(d.seed, 9);
        assert_eq!(d.policy, SchedPolicy::Random);

        let t = SchedConfig::time_faithful(1);
        assert_eq!(t.policy, SchedPolicy::EarliestClockFirst);
    }

    #[test]
    fn builders() {
        let c = SchedConfig::deterministic(0)
            .with_policy(SchedPolicy::RoundRobin)
            .with_max_steps(Some(10));
        assert_eq!(c.policy, SchedPolicy::RoundRobin);
        assert_eq!(c.max_steps, Some(10));
    }
}
