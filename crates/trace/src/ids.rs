//! Identifier newtypes shared across the HOME stack.

use std::fmt;
use std::sync::Arc;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $prefix:expr, $repr:ty) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord,
            Default,
        )]
        pub struct $name(pub $repr);

        impl $name {
            /// Raw value.
            #[inline]
            pub fn raw(self) -> $repr {
                self.0
            }

            /// Raw value as `usize`, for indexing.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$repr> for $name {
            fn from(v: $repr) -> Self {
                $name(v)
            }
        }
    };
}

id_newtype!(
    /// An MPI process rank.
    Rank, "rank", u32
);
id_newtype!(
    /// An OpenMP thread id within one MPI process (master is 0).
    Tid, "tid", u32
);
id_newtype!(
    /// A dynamic instance of an OpenMP parallel region.
    RegionId, "region", u64
);
id_newtype!(
    /// A barrier object (named or implicit).
    BarrierId, "barrier", u32
);
id_newtype!(
    /// An MPI communicator.
    CommId, "comm", u32
);
id_newtype!(
    /// An MPI request object (nonblocking operations).
    ReqId, "req", u64
);
id_newtype!(
    /// A lock (OpenMP critical section or runtime lock), interned by name.
    LockId, "lock", u32
);
id_newtype!(
    /// A shared program variable, interned by name.
    VarId, "var", u32
);

/// `MPI_COMM_WORLD`.
pub const COMM_WORLD: CommId = CommId(0);

/// A source location inside a simulated program (DSL file/line or a builder
/// label). Used to point violation reports back at code.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct SrcLoc {
    /// File (or synthetic unit) name. Shared: every event of a run names
    /// the same file, so cloning a location (the decoder does it per
    /// event, the detector per remembered access) bumps a refcount
    /// instead of copying the name.
    pub file: Arc<str>,
    /// 1-based line number; 0 when unknown.
    pub line: u32,
}

impl SrcLoc {
    /// Construct a location.
    pub fn new(file: impl Into<Arc<str>>, line: u32) -> Self {
        SrcLoc {
            file: file.into(),
            line,
        }
    }

    /// An unknown location.
    pub fn unknown() -> Self {
        SrcLoc::default()
    }
}

impl fmt::Display for SrcLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.file.is_empty() {
            write!(f, "<unknown>")
        } else {
            write!(f, "{}:{}", self.file, self.line)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes() {
        assert_eq!(Rank(3).to_string(), "rank3");
        assert_eq!(Tid(1).to_string(), "tid1");
        assert_eq!(LockId(0).to_string(), "lock0");
        assert_eq!(COMM_WORLD.to_string(), "comm0");
    }

    #[test]
    fn indexing() {
        assert_eq!(Rank(5).index(), 5);
        assert_eq!(ReqId(9).raw(), 9);
        assert_eq!(Tid::from(2), Tid(2));
    }

    #[test]
    fn srcloc_display() {
        assert_eq!(SrcLoc::new("lu.hmp", 12).to_string(), "lu.hmp:12");
        assert_eq!(SrcLoc::unknown().to_string(), "<unknown>");
    }
}
