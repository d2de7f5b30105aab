//! Virtual thread identifiers and names.

use std::fmt;

/// Identifier of a virtual thread managed by a [`crate::Runtime`].
///
/// Ids are dense, starting at 0, in spawn order. They are only meaningful
/// within the runtime that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Vtid(pub(crate) u32);

impl Vtid {
    /// Raw index of this virtual thread (dense, spawn order).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct a `Vtid` from a raw index.
    ///
    /// Intended for tests and for components that persist thread ids into
    /// traces and later need to refer back to them.
    #[inline]
    pub(crate) fn from_index(ix: usize) -> Self {
        Vtid(u32::try_from(ix).unwrap_or_else(|_| panic!("vtid index {ix} overflows u32")))
    }
}

impl fmt::Display for Vtid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vt{}", self.0)
    }
}

/// A virtual thread's name. The interpreter's threads are named by the
/// numbers they stand for — an MPI process's main thread `rank{r}`, member
/// `t` of the `g`-th parallel region instance of rank `r`
/// `rank{r}.r{g}.t{t}` — and spelled only when printed: in a deadlock
/// report or a fingerprint's deadlock shape. A name given as text (a
/// thread spawned straight on a [`crate::Runtime`]) is kept as given.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadName(Name);

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Name {
    Rank(u32),
    Member { rank: u32, region: u64, tid: u32 },
    Text(Box<str>),
}

impl ThreadName {
    /// `rank{rank}`: an MPI process's main thread.
    pub fn rank(rank: u32) -> ThreadName {
        ThreadName(Name::Rank(rank))
    }

    /// `rank{rank}.r{region}.t{tid}`: one member of a parallel region
    /// instance.
    pub fn member(rank: u32, region: u64, tid: u32) -> ThreadName {
        ThreadName(Name::Member { rank, region, tid })
    }
}

impl From<&str> for ThreadName {
    fn from(text: &str) -> ThreadName {
        ThreadName(Name::Text(text.into()))
    }
}

impl From<String> for ThreadName {
    fn from(text: String) -> ThreadName {
        ThreadName(Name::Text(text.into()))
    }
}

impl fmt::Display for ThreadName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Name::Rank(rank) => write!(f, "rank{rank}"),
            Name::Member { rank, region, tid } => write!(f, "rank{rank}.r{region}.t{tid}"),
            Name::Text(text) => f.write_str(text),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A structured name prints its numbers; a name given as text prints
    /// as given.
    #[test]
    fn thread_names_print_their_numbers_or_their_text() {
        assert_eq!(ThreadName::rank(12).to_string(), "rank12");
        assert_eq!(ThreadName::member(1, 4, 1).to_string(), "rank1.r4.t1");
        for text in ["t0", "kid2", "rank01", ""] {
            assert_eq!(ThreadName::from(text).to_string(), text);
            assert_eq!(ThreadName::from(text), ThreadName::from(text.to_string()));
        }
    }

    #[test]
    fn roundtrip_index() {
        let v = Vtid::from_index(7);
        assert_eq!(v.index(), 7);
        assert_eq!(v.to_string(), "vt7");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(Vtid::from_index(1) < Vtid::from_index(2));
    }
}
