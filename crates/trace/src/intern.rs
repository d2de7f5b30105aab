//! String interners for lock and variable names.

use crate::fxhash::FxHashMap;
use std::cell::RefCell;

/// A string → dense-id interner, interning through `&self`.
///
/// The trace layer stores interned `u32` ids in events, numbered in the
/// order the names are first seen; the clones of one [`crate::Collector`]
/// share its interners on the run's one thread. Every recorded access
/// looks its variable's name up here, so the map hashes with
/// [`crate::fxhash::FxHasher`]: the names are the program's own, and the
/// ids do not depend on the hash.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    by_name: RefCell<FxHashMap<Box<str>, u32>>,
}

impl Interner {
    /// Create an empty interner.
    pub(crate) fn new() -> Self {
        Interner::default()
    }

    /// Intern `name`, returning its stable dense id.
    pub(crate) fn intern(&self, name: &str) -> u32 {
        let mut by_name = self.by_name.borrow_mut();
        if let Some(&id) = by_name.get(name) {
            return id;
        }
        let id = by_name.len() as u32;
        by_name.insert(name.into(), id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_eq!((a, b), (0, 1));
        assert_eq!(i.intern("alpha"), a);
    }
}
