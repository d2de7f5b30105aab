//! Reproducible schedule tokens.
//!
//! A token is everything needed to replay one explored schedule through
//! `home check`: the scheduler seed and, when the schedule was a PCT
//! priority schedule, its depth.

use home_interp::SchedPolicy;
use std::fmt;

/// One explored schedule, as a reproducible token.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ScheduleToken {
    /// Scheduler seed.
    pub seed: u64,
    /// `Some(d)` = PCT priority schedule with `d` change points; `None` =
    /// plain seeded-random schedule.
    pub depth: Option<u8>,
}

impl ScheduleToken {
    /// A seeded uniform-random schedule.
    pub fn random(seed: u64) -> ScheduleToken {
        ScheduleToken { seed, depth: None }
    }

    /// A PCT priority schedule with `depth` change points.
    pub fn pct(seed: u64, depth: u8) -> ScheduleToken {
        ScheduleToken {
            seed,
            depth: Some(depth),
        }
    }

    /// The scheduling policy this token replays under.
    pub fn policy(&self) -> SchedPolicy {
        match self.depth {
            Some(depth) => SchedPolicy::Priority { depth },
            None => SchedPolicy::Random,
        }
    }

    /// The `home check` flags that replay this schedule, e.g.
    /// `--seeds 5 --pct-depth 3`.
    pub(crate) fn repro_flags(&self) -> String {
        let mut s = format!("--seeds {}", self.seed);
        if let Some(d) = self.depth {
            s.push_str(&format!(" --pct-depth {d}"));
        }
        s
    }
}

impl fmt::Display for ScheduleToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        if let Some(d) = self.depth {
            write!(f, " depth={d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_follow_token_shape() {
        assert_eq!(ScheduleToken::random(3).policy(), SchedPolicy::Random);
        assert_eq!(
            ScheduleToken::pct(3, 4).policy(),
            SchedPolicy::Priority { depth: 4 }
        );
    }

    #[test]
    fn repro_flags_round_trip_the_fields() {
        assert_eq!(ScheduleToken::random(7).repro_flags(), "--seeds 7");
        assert_eq!(ScheduleToken::random(7).to_string(), "seed=7");
        assert_eq!(
            ScheduleToken::pct(7, 3).repro_flags(),
            "--seeds 7 --pct-depth 3"
        );
        assert_eq!(ScheduleToken::pct(7, 3).to_string(), "seed=7 depth=3");
    }
}
