//! String interners for lock and variable names.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// A string ↔ dense-id interner, interning through `&self`.
///
/// The trace layer stores interned `u32` ids in events; reports resolve them
/// back to names through the interner held by the [`crate::Collector`],
/// whose clones share it on the run's one thread.
#[derive(Debug, Default)]
pub struct Interner {
    inner: RefCell<InternerInner>,
}

/// Both the map key and the dense-index entry share one `Arc<str>`
/// allocation per distinct name, so interning a new string allocates it
/// exactly once.
#[derive(Debug, Default)]
struct InternerInner {
    by_name: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern `name`, returning its stable dense id.
    pub fn intern(&self, name: &str) -> u32 {
        let mut w = self.inner.borrow_mut();
        if let Some(&id) = w.by_name.get(name) {
            return id;
        }
        let id = w.names.len() as u32;
        let shared: Arc<str> = Arc::from(name);
        w.names.push(Arc::clone(&shared));
        w.by_name.insert(shared, id);
        id
    }

    /// Resolve an id back to its name (panics on unknown id).
    pub fn resolve(&self, id: u32) -> String {
        self.inner.borrow().names[id as usize].to_string()
    }

    /// Resolve without panicking.
    pub fn try_resolve(&self, id: u32) -> Option<String> {
        self.inner
            .borrow()
            .names
            .get(id as usize)
            .map(|name| name.to_string())
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.inner.borrow().names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        assert_ne!(a, b);
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.resolve(a), "alpha");
        assert_eq!(i.resolve(b), "beta");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn try_resolve_unknown() {
        let i = Interner::new();
        assert_eq!(i.try_resolve(5), None);
        assert!(i.is_empty());
    }
}
