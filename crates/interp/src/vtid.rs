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
/// report, a fingerprint's deadlock shape or a `--pins` reproduction line.
/// A name given as text reads back as those numbers when it spells them,
/// and is kept as given otherwise, so two names are equal exactly when
/// they print the same.
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

    /// The numbers `text` spells, if it spells them the way
    /// [`fmt::Display`] does (decimal, no sign, no leading zero).
    fn parse(text: &str) -> Option<Name> {
        fn number<T: std::str::FromStr>(digits: &str) -> Option<T> {
            let canonical = digits == "0"
                || (digits.bytes().all(|b| b.is_ascii_digit()) && !digits.starts_with(['0']));
            if canonical && !digits.is_empty() {
                digits.parse().ok()
            } else {
                None
            }
        }
        let rest = text.strip_prefix("rank")?;
        let Some((rank, member)) = rest.split_once(".r") else {
            return Some(Name::Rank(number(rest)?));
        };
        let (region, tid) = member.split_once(".t")?;
        Some(Name::Member {
            rank: number(rank)?,
            region: number(region)?,
            tid: number(tid)?,
        })
    }
}

impl From<&str> for ThreadName {
    fn from(text: &str) -> ThreadName {
        ThreadName(ThreadName::parse(text).unwrap_or_else(|| Name::Text(text.into())))
    }
}

impl From<String> for ThreadName {
    fn from(text: String) -> ThreadName {
        ThreadName(ThreadName::parse(&text).unwrap_or_else(|| Name::Text(text.into())))
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

    /// A name given as text prints as given and equals the structured name
    /// it spells, and only that one.
    #[test]
    fn thread_names_equal_exactly_when_they_print_the_same() {
        let spelled = [
            ("rank0", Some(ThreadName::rank(0))),
            ("rank12", Some(ThreadName::rank(12))),
            ("rank1.r4.t1", Some(ThreadName::member(1, 4, 1))),
            ("rank0.r0.t0", Some(ThreadName::member(0, 0, 0))),
            ("rank01", None),
            ("rank-1", None),
            ("rank+1", None),
            ("rank", None),
            ("rank1.r4", None),
            ("rank1.r4.t", None),
            ("rank1.r04.t1", None),
            ("rank4294967296", None),
            ("rank1.r4.t1.x", None),
            ("worker-0", None),
            ("", None),
        ];
        for (text, structured) in spelled {
            let name = ThreadName::from(text);
            assert_eq!(name.to_string(), text);
            assert_eq!(name, ThreadName::from(text.to_string()));
            match structured {
                Some(s) => assert_eq!(name, s, "{text}"),
                None => assert!(matches!(name.0, Name::Text(_)), "{text}"),
            }
        }
        assert_ne!(ThreadName::from("rank01"), ThreadName::rank(1));
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
