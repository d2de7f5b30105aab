//! Scheduling policies.

use crate::clock::SimTime;
use crate::vtid::Vtid;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Policy deciding which runnable virtual thread runs next at a yield point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Uniform seeded random choice among runnable threads. Good default for
    /// exploring interleavings reproducibly.
    Random,
    /// Cycle through runnable threads in id order.
    RoundRobin,
    /// Always pick the runnable thread with the smallest virtual clock.
    /// Ties broken by thread id. This yields a *time-faithful* serialization
    /// used by the virtual-time benchmarks.
    EarliestClockFirst,
    /// PCT-style priority scheduling: every thread draws a random priority
    /// at spawn (or takes a pinned one from
    /// [`crate::SchedConfig::priority_pins`]), the highest-priority runnable
    /// thread always runs, and `depth` priority-change points — scheduling
    /// steps drawn from the seed — demote the would-be winner below every
    /// other thread. One `(seed, depth)` pair names one schedule, so a
    /// priority schedule is a reproducible exploration token.
    Priority {
        /// Number of priority-change points (PCT's `d`). `0` = a pure
        /// fixed-priority schedule, which is what directed rescheduling
        /// pins use.
        depth: u8,
    },
}

impl SchedPolicy {
    /// Choose the next thread among `runnable` (non-empty, ascending — the
    /// run queue's order), given each thread's current virtual clock,
    /// priority, and the id of the last thread that ran.
    pub(crate) fn choose(
        self,
        runnable: &[Vtid],
        clock_of: impl Fn(Vtid) -> SimTime,
        priority_of: impl Fn(Vtid) -> i64,
        last: Option<Vtid>,
        rng: &mut ChaCha8Rng,
    ) -> Vtid {
        debug_assert!(!runnable.is_empty());
        match self {
            SchedPolicy::Random => runnable[rng.gen_range(0..runnable.len())],
            SchedPolicy::Priority { .. } => {
                // Highest priority wins; ties break toward the smaller
                // thread id so the schedule is a total function of the
                // priority assignment.
                let mut best = runnable[0];
                let mut best_prio = priority_of(best);
                for &v in &runnable[1..] {
                    let p = priority_of(v);
                    if p > best_prio || (p == best_prio && v < best) {
                        best = v;
                        best_prio = p;
                    }
                }
                best
            }
            SchedPolicy::RoundRobin => {
                // Smallest id strictly greater than `last`, wrapping.
                let after_last = last.and_then(|l| runnable.iter().copied().find(|&v| v > l));
                after_last.unwrap_or(runnable[0])
            }
            SchedPolicy::EarliestClockFirst => {
                let mut best = runnable[0];
                let mut best_clock = clock_of(best);
                for &v in &runnable[1..] {
                    let c = clock_of(v);
                    if c < best_clock || (c == best_clock && v < best) {
                        best = v;
                        best_clock = c;
                    }
                }
                best
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn vt(i: usize) -> Vtid {
        Vtid::from_index(i)
    }

    fn no_prio(_v: Vtid) -> i64 {
        0
    }

    #[test]
    fn round_robin_cycles() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let runnable = vec![vt(0), vt(1), vt(2)];
        let clock = |_v: Vtid| SimTime::ZERO;
        let p = SchedPolicy::RoundRobin;
        assert_eq!(p.choose(&runnable, clock, no_prio, None, &mut rng), vt(0));
        assert_eq!(
            p.choose(&runnable, clock, no_prio, Some(vt(0)), &mut rng),
            vt(1)
        );
        assert_eq!(
            p.choose(&runnable, clock, no_prio, Some(vt(2)), &mut rng),
            vt(0)
        );
    }

    #[test]
    fn round_robin_skips_missing() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let runnable = vec![vt(0), vt(2)];
        let clock = |_v: Vtid| SimTime::ZERO;
        assert_eq!(
            SchedPolicy::RoundRobin.choose(&runnable, clock, no_prio, Some(vt(0)), &mut rng),
            vt(2)
        );
    }

    #[test]
    fn earliest_clock_first_picks_min() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let runnable = vec![vt(0), vt(1), vt(2)];
        let clock = |v: Vtid| SimTime::from_nanos([50, 10, 30][v.index()]);
        assert_eq!(
            SchedPolicy::EarliestClockFirst.choose(&runnable, clock, no_prio, None, &mut rng),
            vt(1)
        );
    }

    #[test]
    fn earliest_clock_ties_break_by_id() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let runnable = vec![vt(2), vt(1)];
        let clock = |_v: Vtid| SimTime::from_nanos(5);
        assert_eq!(
            SchedPolicy::EarliestClockFirst.choose(&runnable, clock, no_prio, None, &mut rng),
            vt(1)
        );
    }

    #[test]
    fn random_is_reproducible() {
        let runnable = vec![vt(0), vt(1), vt(2), vt(3)];
        let clock = |_v: Vtid| SimTime::ZERO;
        let seq = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..16)
                .map(|_| SchedPolicy::Random.choose(&runnable, clock, no_prio, None, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(
            seq(7),
            seq(8),
            "different seeds should differ (very likely)"
        );
    }

    #[test]
    fn priority_picks_max_and_breaks_ties_by_id() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let runnable = vec![vt(0), vt(1), vt(2)];
        let clock = |_v: Vtid| SimTime::ZERO;
        let prio = |v: Vtid| [10i64, 30, 20][v.index()];
        assert_eq!(
            SchedPolicy::Priority { depth: 0 }.choose(&runnable, clock, prio, None, &mut rng),
            vt(1)
        );
        let tied = |_v: Vtid| 5i64;
        assert_eq!(
            SchedPolicy::Priority { depth: 3 }.choose(&[vt(2), vt(1)], clock, tied, None, &mut rng),
            vt(1)
        );
    }
}
