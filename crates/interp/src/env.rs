//! Variable environments with OpenMP shared/private semantics.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

/// Storage slot: private values are per-thread copies; shared values are a
/// single per-process cell.
#[derive(Debug, Clone)]
pub enum Slot {
    Private(i64),
    Shared(Rc<Cell<i64>>),
}

/// A lexical environment. On parallel-region entry each worker receives a
/// [`Env::fork`] copy: private slots are copied by value (firstprivate
/// semantics), shared slots alias the same cell.
#[derive(Debug, Clone, Default)]
pub struct Env {
    scopes: Vec<HashMap<String, Slot>>,
}

impl Env {
    /// A fresh environment with one global scope.
    pub fn new() -> Env {
        Env {
            scopes: vec![HashMap::new()],
        }
    }

    /// Enter a lexical scope.
    pub fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }

    /// Leave the innermost scope.
    pub fn pop(&mut self) {
        assert!(self.scopes.len() > 1, "cannot pop the global scope");
        self.scopes.pop();
    }

    /// Declare a variable in the innermost scope.
    pub fn declare(&mut self, name: &str, shared: bool, value: i64) {
        let slot = if shared {
            Slot::Shared(Rc::new(Cell::new(value)))
        } else {
            Slot::Private(value)
        };
        // `pop` keeps the global scope, so there always is a last one.
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(name.to_string(), slot);
        }
    }

    /// Read a variable (innermost scope wins). `None` if undeclared.
    pub fn get(&self, name: &str) -> Option<i64> {
        for scope in self.scopes.iter().rev() {
            if let Some(slot) = scope.get(name) {
                return Some(match slot {
                    Slot::Private(v) => *v,
                    Slot::Shared(cell) => cell.get(),
                });
            }
        }
        None
    }

    /// Write a variable. Returns false if undeclared.
    pub fn set(&mut self, name: &str, value: i64) -> bool {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                match slot {
                    Slot::Private(v) => *v = value,
                    Slot::Shared(cell) => cell.set(value),
                }
                return true;
            }
        }
        false
    }

    /// Is `name` declared shared (innermost declaration wins)?
    pub fn is_shared(&self, name: &str) -> Option<bool> {
        for scope in self.scopes.iter().rev() {
            if let Some(slot) = scope.get(name) {
                return Some(matches!(slot, Slot::Shared(_)));
            }
        }
        None
    }

    /// Snapshot for a forked OpenMP worker: flattens scopes; private slots
    /// are copied, shared slots alias.
    pub fn fork(&self) -> Env {
        let mut flat: HashMap<String, Slot> = HashMap::new();
        for scope in &self.scopes {
            for (k, v) in scope {
                flat.insert(k.clone(), v.clone());
            }
        }
        Env { scopes: vec![flat] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_get_set() {
        let mut env = Env::new();
        env.declare("x", false, 1);
        assert_eq!(env.get("x"), Some(1));
        assert!(env.set("x", 5));
        assert_eq!(env.get("x"), Some(5));
        assert_eq!(env.get("y"), None);
        assert!(!env.set("y", 1));
    }

    #[test]
    fn scoping_shadows_and_pops() {
        let mut env = Env::new();
        env.declare("x", false, 1);
        env.push();
        env.declare("x", false, 2);
        assert_eq!(env.get("x"), Some(2));
        env.pop();
        assert_eq!(env.get("x"), Some(1));
    }

    #[test]
    fn fork_copies_private_and_aliases_shared() {
        let mut env = Env::new();
        env.declare("p", false, 10);
        env.declare("s", true, 20);
        let mut worker = env.fork();
        worker.set("p", 11);
        worker.set("s", 21);
        assert_eq!(env.get("p"), Some(10), "private copy isolated");
        assert_eq!(env.get("s"), Some(21), "shared cell aliased");
        assert_eq!(env.is_shared("p"), Some(false));
        assert_eq!(env.is_shared("s"), Some(true));
    }

    #[test]
    fn fork_flattens_scopes() {
        let mut env = Env::new();
        env.declare("a", false, 1);
        env.push();
        env.declare("b", false, 2);
        let w = env.fork();
        assert_eq!(w.get("a"), Some(1));
        assert_eq!(w.get("b"), Some(2));
    }

    #[test]
    #[should_panic(expected = "cannot pop the global scope")]
    fn popping_global_scope_panics() {
        let mut env = Env::new();
        env.pop();
    }
}
