//! The workspace-wide typed error taxonomy.
//!
//! Every layer of the pipeline reports failures through [`HomeError`]
//! instead of panicking: the trace layer for malformed input, the dynamic
//! detector for structurally inconsistent traces, the interpreter for
//! execution failures, and the check pipeline for per-seed faults. The
//! taxonomy lives here, in the lowest crate of the dependency DAG, so every
//! other crate can return it without cycles; the `home` facade re-exports
//! it as `home::HomeError`.
//!
//! The design goal is graceful degradation: one poisoned input (a corrupt
//! offline trace, a panicking seed worker) must never abort the whole run —
//! it becomes a typed error the caller can attach to a partial report.

use std::fmt;

/// Convenience alias used across the workspace.
pub type HomeResult<T> = Result<T, HomeError>;

/// Everything that can go wrong on a fallible path of the HOME pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HomeError {
    /// Trace bytes could not be parsed: a stream cut short or unreadable,
    /// or a seek the trace cannot serve.
    TraceParse {
        /// What the parser objected to.
        message: String,
        /// Byte offset into the input, when the parser knows it.
        offset: Option<usize>,
    },
    /// The trace parsed but is structurally inconsistent — e.g. a join
    /// event references a region that was never forked. Produced by the
    /// dynamic detector when an offline trace was hand-built or corrupted.
    CorruptTrace {
        /// What invariant the trace violates.
        message: String,
    },
    /// The interpreter / simulation layer failed.
    Exec {
        /// The MPI rank the failure occurred on, when attributable.
        rank: Option<u32>,
        /// Failure description.
        message: String,
    },
    /// One seed's simulate→detect→match chain failed (panic or error);
    /// the remaining seeds' results are unaffected.
    Seed {
        /// The scheduler seed whose chain failed.
        seed: u64,
        /// Failure description (panic payload or wrapped error).
        message: String,
    },
}

impl HomeError {
    /// Build a [`HomeError::TraceParse`], extracting the byte offset from
    /// parser messages of the form `... at byte N`.
    pub fn trace_parse(message: impl Into<String>) -> HomeError {
        let message = message.into();
        let offset = message
            .rsplit_once(" at byte ")
            .and_then(|(_, n)| n.trim().parse::<usize>().ok());
        HomeError::TraceParse { message, offset }
    }

    /// Build a [`HomeError::CorruptTrace`].
    pub fn corrupt_trace(message: impl Into<String>) -> HomeError {
        HomeError::CorruptTrace {
            message: message.into(),
        }
    }

    /// Build a [`HomeError::Seed`] for `seed`.
    pub fn seed(seed: u64, message: impl Into<String>) -> HomeError {
        HomeError::Seed {
            seed,
            message: message.into(),
        }
    }

    /// Byte offset into the offending input, for parse errors that carry
    /// one (`home replay` puts it in its one-line diagnostic).
    pub fn byte_offset(&self) -> Option<usize> {
        match self {
            HomeError::TraceParse { offset, .. } => *offset,
            _ => None,
        }
    }

    /// Short machine-readable category label (stable across messages).
    pub fn category(&self) -> &'static str {
        match self {
            HomeError::TraceParse { .. } => "trace-parse",
            HomeError::CorruptTrace { .. } => "corrupt-trace",
            HomeError::Exec { .. } => "exec",
            HomeError::Seed { .. } => "seed",
        }
    }
}

impl fmt::Display for HomeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HomeError::TraceParse { message, .. } => write!(f, "invalid trace: {message}"),
            HomeError::CorruptTrace { message } => write!(f, "corrupt trace: {message}"),
            HomeError::Exec {
                rank: Some(r),
                message,
            } => write!(f, "execution failed on rank {r}: {message}"),
            HomeError::Exec {
                rank: None,
                message,
            } => write!(f, "execution failed: {message}"),
            HomeError::Seed { seed, message } => write!(f, "seed {seed} failed: {message}"),
        }
    }
}

impl std::error::Error for HomeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_parse_extracts_byte_offset() {
        let e = HomeError::trace_parse("expected `,` or `]` in array at byte 17");
        assert_eq!(e.byte_offset(), Some(17));
        assert_eq!(e.category(), "trace-parse");
        assert!(e.to_string().contains("at byte 17"));
    }

    #[test]
    fn trace_parse_without_offset() {
        let e = HomeError::trace_parse("missing field `seq` while decoding Event");
        assert_eq!(e.byte_offset(), None);
    }

    #[test]
    fn display_formats_every_variant() {
        assert!(HomeError::corrupt_trace("join of unknown region")
            .to_string()
            .starts_with("corrupt trace:"));
        assert!(HomeError::seed(7, "boom").to_string().contains("seed 7"));
        let e = HomeError::Exec {
            rank: Some(3),
            message: "undeclared variable".into(),
        };
        assert!(e.to_string().contains("rank 3"));
        let e = HomeError::Exec {
            rank: None,
            message: "x".into(),
        };
        assert_eq!(e.category(), "exec");
        assert!(e.byte_offset().is_none());
    }
}
