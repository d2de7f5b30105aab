//! Reproducible schedule tokens.
//!
//! A token is everything needed to replay one explored schedule through
//! `home check`: the scheduler seed, the PCT depth (when the schedule was
//! a priority schedule), and any directed-rescheduling priority pins.

use home_interp::{SchedPolicy, ThreadName};
use std::fmt;

/// Priority a directed flip pins the *later* racing access's thread to:
/// above every unpinned draw ([`home_interp::PRIORITY_BASE_MAX`]), so it
/// runs first.
pub const DIRECTED_HIGH: i64 = 1 << 40;

/// Priority a directed flip pins the *earlier* racing access's thread to:
/// below zero and below every change-point demotion, so it runs last.
pub const DIRECTED_LOW: i64 = -(1 << 40);

/// One explored schedule, as a reproducible token.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ScheduleToken {
    /// Scheduler seed.
    pub seed: u64,
    /// `Some(d)` = PCT priority schedule with `d` change points; `None` =
    /// plain seeded-random schedule.
    pub depth: Option<u8>,
    /// Thread-name priority pins (directed flips). Non-empty pins imply
    /// the priority policy even when `depth` is `None`.
    pub pins: Vec<(ThreadName, i64)>,
}

impl ScheduleToken {
    /// A seeded uniform-random schedule.
    pub fn random(seed: u64) -> ScheduleToken {
        ScheduleToken {
            seed,
            depth: None,
            pins: Vec::new(),
        }
    }

    /// A PCT priority schedule with `depth` change points.
    pub fn pct(seed: u64, depth: u8) -> ScheduleToken {
        ScheduleToken {
            seed,
            depth: Some(depth),
            pins: Vec::new(),
        }
    }

    /// A directed reschedule: fixed priorities (depth 0) with two racing
    /// threads pinned to flip their observed access order.
    pub fn directed(seed: u64, pins: Vec<(ThreadName, i64)>) -> ScheduleToken {
        ScheduleToken {
            seed,
            depth: Some(0),
            pins,
        }
    }

    /// The scheduling policy this token replays under.
    pub fn policy(&self) -> SchedPolicy {
        match self.depth {
            Some(d) => SchedPolicy::Priority { depth: d },
            None if !self.pins.is_empty() => SchedPolicy::Priority { depth: 0 },
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
        if !self.pins.is_empty() {
            s.push_str(" --pins ");
            for (i, (name, prio)) in self.pins.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("{name}:{prio}"));
            }
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
        for (name, prio) in &self.pins {
            write!(f, " pin={name}:{prio}")?;
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
        assert_eq!(
            ScheduleToken::directed(3, vec![("rank1".into(), DIRECTED_HIGH)]).policy(),
            SchedPolicy::Priority { depth: 0 }
        );
    }

    #[test]
    fn repro_flags_round_trip_the_fields() {
        assert_eq!(ScheduleToken::random(7).repro_flags(), "--seeds 7");
        assert_eq!(
            ScheduleToken::pct(7, 3).repro_flags(),
            "--seeds 7 --pct-depth 3"
        );
        let t = ScheduleToken::directed(
            9,
            vec![
                ("rank1.r0.t1".into(), DIRECTED_HIGH),
                ("rank1".into(), DIRECTED_LOW),
            ],
        );
        assert_eq!(
            t.repro_flags(),
            format!(
                "--seeds 9 --pct-depth 0 --pins rank1.r0.t1:{DIRECTED_HIGH},rank1:{DIRECTED_LOW}"
            )
        );
        assert_eq!(
            t.to_string(),
            format!("seed=9 depth=0 pin=rank1.r0.t1:{DIRECTED_HIGH} pin=rank1:{DIRECTED_LOW}")
        );
    }
}
