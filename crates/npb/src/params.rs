//! Benchmark identities and class scaling.

use std::fmt;

/// The three NPB-MZ benchmarks the paper evaluates (hybrid MPI/OpenMP
/// multi-zone versions of LU, BT, and SP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// LU-MZ: SSOR-style lower/upper sweeps.
    LuMz,
    /// BT-MZ: block-tridiagonal ADI solves (heaviest compute).
    BtMz,
    /// SP-MZ: scalar-pentadiagonal ADI solves.
    SpMz,
}

impl Benchmark {
    /// All three, in the paper's order.
    pub const ALL: [Benchmark; 3] = [Benchmark::LuMz, Benchmark::BtMz, Benchmark::SpMz];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::LuMz => "LU-MZ",
            Benchmark::BtMz => "BT-MZ",
            Benchmark::SpMz => "SP-MZ",
        }
    }

    /// Directional solve phases per time step (LU: two sweeps;
    /// BT/SP: x-, y-, z-solve).
    pub fn phases(self) -> usize {
        match self {
            Benchmark::LuMz => 2,
            Benchmark::BtMz | Benchmark::SpMz => 3,
        }
    }

    /// Relative compute weight per row (BT's block solves are the
    /// heaviest; SP is lighter; LU in between).
    pub fn compute_weight(self) -> u64 {
        match self {
            Benchmark::LuMz => 3,
            Benchmark::BtMz => 5,
            Benchmark::SpMz => 2,
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// NPB problem classes, scaled down so the whole evaluation runs on a
/// laptop while preserving the compute/communication ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    S,
    W,
    A,
    B,
    C,
}

impl Class {
    /// All classes, smallest first.
    pub const ALL: [Class; 5] = [Class::S, Class::W, Class::A, Class::B, Class::C];

    /// Display letter.
    pub fn letter(self) -> &'static str {
        match self {
            Class::S => "S",
            Class::W => "W",
            Class::A => "A",
            Class::B => "B",
            Class::C => "C",
        }
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.letter())
    }
}

/// Concrete size parameters of one (benchmark, class) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeParams {
    /// Time steps.
    pub steps: u64,
    /// Total rows across all ranks (each rank's worksharing loop handles
    /// `ceil(rows / size)` — strong scaling, like the paper's fixed-class
    /// runs over growing process counts).
    pub rows: u64,
    /// Virtual flops per row per phase (before the benchmark's weight).
    pub flops_per_row: u64,
    /// Words per halo-exchange message.
    pub msg_words: u64,
    /// Residual allreduce every this many steps.
    pub allreduce_every: u64,
}

impl SizeParams {
    /// Parameters for a (benchmark, class) pair.
    pub fn of(benchmark: Benchmark, class: Class) -> SizeParams {
        let (steps, rows, flops_per_row, msg_words) = match class {
            Class::S => (2, 16, 2_000, 256),
            Class::W => (3, 32, 10_000, 1_024),
            Class::A => (4, 64, 40_000, 4_096),
            Class::B => (6, 128, 160_000, 16_384),
            Class::C => (8, 256, 640_000, 65_536),
        };
        SizeParams {
            steps,
            rows,
            flops_per_row: flops_per_row * benchmark.compute_weight(),
            msg_words,
            allreduce_every: 2,
        }
    }

    /// Total virtual flops per rank (rough, for sanity checks).
    pub fn total_flops(&self, phases: usize) -> u64 {
        self.steps * phases as u64 * self.rows * self.flops_per_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_scaling_is_monotone() {
        for b in Benchmark::ALL {
            let mut last = 0;
            for c in Class::ALL {
                let p = SizeParams::of(b, c);
                let total = p.total_flops(b.phases());
                assert!(total > last, "{b} {c} must grow");
                last = total;
            }
        }
    }

    #[test]
    fn bt_is_heavier_than_sp() {
        let bt = SizeParams::of(Benchmark::BtMz, Class::A);
        let sp = SizeParams::of(Benchmark::SpMz, Class::A);
        assert!(
            bt.total_flops(Benchmark::BtMz.phases()) > sp.total_flops(Benchmark::SpMz.phases())
        );
    }

    #[test]
    fn names_and_phases() {
        assert_eq!(Benchmark::LuMz.name(), "LU-MZ");
        assert_eq!(Benchmark::LuMz.phases(), 2);
        assert_eq!(Benchmark::BtMz.phases(), 3);
        assert_eq!(Class::C.letter(), "C");
    }
}
