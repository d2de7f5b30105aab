//! Virtual thread identifiers.

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

#[cfg(test)]
mod tests {
    use super::*;

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
