//! Variable environments with OpenMP shared/private semantics.
//!
//! An [`Env`] is one flat stack of `(name, slot)` bindings, outermost first,
//! plus the height at which each open scope starts. A lookup scans the stack
//! from the top comparing names, so the innermost binding wins without
//! hashing; a name is bound at most once per scope (redeclaring it replaces
//! the binding). Leaving a scope only lowers the stack's height: the popped
//! entries keep their name buffers, and the next declaration at that height
//! rewrites one in place, so a loop that binds its index once per iteration
//! allocates nothing after the first. A team member's environment is a
//! [`Env::fork_into`] copy written over an environment an earlier member
//! left, the same way: entry by entry into the buffers already there.

use std::cell::Cell;
use std::rc::Rc;

/// Storage slot: private values are per-thread copies; shared values are a
/// single per-process cell.
#[derive(Debug, Clone)]
pub(crate) enum Slot {
    Private(i64),
    Shared(Rc<Cell<i64>>),
}

/// A lexical environment. On parallel-region entry each worker receives a
/// [`Env::fork`] copy: private slots are copied by value (firstprivate
/// semantics), shared slots alias the same cell.
#[derive(Debug, Default)]
pub(crate) struct Env {
    /// The first `len` are in scope; the rest were popped and are reused.
    bindings: Vec<(String, Slot)>,
    len: usize,
    /// Where each scope inside the global one starts in `bindings`.
    marks: Vec<usize>,
}

impl Env {
    /// A fresh environment with one global scope.
    pub(crate) fn new() -> Env {
        Env::default()
    }

    /// Enter a lexical scope.
    pub(crate) fn push(&mut self) {
        self.marks.push(self.len);
    }

    /// Leave the innermost scope.
    pub(crate) fn pop(&mut self) {
        let Some(mark) = self.marks.pop() else {
            panic!("cannot pop the global scope");
        };
        self.len = mark;
    }

    /// Declare a variable in the innermost scope.
    pub(crate) fn declare(&mut self, name: &str, shared: bool, value: i64) {
        let slot = if shared {
            Slot::Shared(Rc::new(Cell::new(value)))
        } else {
            Slot::Private(value)
        };
        let scope = self.marks.last().copied().unwrap_or(0);
        let in_scope = &mut self.bindings[scope..self.len];
        if let Some((_, bound)) = in_scope.iter_mut().find(|(n, _)| n == name) {
            *bound = slot;
            return;
        }
        match self.bindings.get_mut(self.len) {
            Some((popped, old)) => {
                if popped != name {
                    popped.clear();
                    popped.push_str(name);
                }
                *old = slot;
            }
            None => self.bindings.push((name.to_owned(), slot)),
        }
        self.len += 1;
    }

    fn slot(&self, name: &str) -> Option<&Slot> {
        let (_, slot) = self.bindings[..self.len]
            .iter()
            .rev()
            .find(|(n, _)| n == name)?;
        Some(slot)
    }

    /// Read a variable (innermost scope wins). `None` if undeclared.
    pub(crate) fn get(&self, name: &str) -> Option<i64> {
        Some(match self.slot(name)? {
            Slot::Private(v) => *v,
            Slot::Shared(cell) => cell.get(),
        })
    }

    /// Write a variable. Returns false if undeclared.
    pub(crate) fn set(&mut self, name: &str, value: i64) -> bool {
        let in_scope = &mut self.bindings[..self.len];
        match in_scope.iter_mut().rev().find(|(n, _)| n == name) {
            Some((_, Slot::Private(v))) => *v = value,
            Some((_, Slot::Shared(cell))) => cell.set(value),
            None => return false,
        }
        true
    }

    /// Make `into` the environment of a forked OpenMP worker: this one's
    /// scopes flattened into one, the innermost binding of each name
    /// winning; private slots are copied, shared slots alias. Whatever
    /// `into` held is gone; its buffers take the copy.
    pub(crate) fn fork_into(&self, into: &mut Env) {
        let in_scope = &self.bindings[..self.len];
        let innermost = in_scope
            .iter()
            .enumerate()
            .filter(|(at, (name, _))| !in_scope[at + 1..].iter().any(|(n, _)| n == name))
            .map(|(_, binding)| binding);
        into.len = 0;
        into.marks.clear();
        for (name, slot) in innermost {
            match into.bindings.get_mut(into.len) {
                Some((mine, my_slot)) => {
                    mine.clone_from(name);
                    my_slot.clone_from(slot);
                }
                None => into.bindings.push((name.clone(), slot.clone())),
            }
            into.len += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Env {
        /// Is `name` declared shared (innermost declaration wins)?
        fn is_shared(&self, name: &str) -> Option<bool> {
            Some(matches!(self.slot(name)?, Slot::Shared(_)))
        }

        /// A fresh worker environment forked from this one.
        fn fork(&self) -> Env {
            let mut worker = Env::new();
            self.fork_into(&mut worker);
            worker
        }
    }

    /// A fork written over a used environment reads as a fresh fork: none
    /// of its bindings, scopes or popped entries show through, and its name
    /// buffers take the copied names in place.
    #[test]
    fn fork_into_a_used_environment_is_a_fresh_fork() {
        let mut master = Env::new();
        master.declare("x", false, 1);
        master.declare("s", true, 2);
        master.push();
        master.declare("x", false, 3);
        let mut used = Env::new();
        for name in ["a_long_name", "b", "c", "d"] {
            used.declare(name, true, 9);
        }
        used.push();
        used.declare("e", false, 9);
        let buffer = used.bindings[0].0.as_ptr();
        master.fork_into(&mut used);
        let fresh = master.fork();
        assert_eq!((used.len, used.marks.len()), (fresh.len, 0));
        for name in ["x", "s", "a_long_name", "b", "c", "d", "e"] {
            assert_eq!(used.get(name), fresh.get(name), "{name}");
            assert_eq!(used.is_shared(name), fresh.is_shared(name), "{name}");
        }
        assert_eq!(used.bindings[0].0.as_ptr(), buffer, "rewritten in place");
        assert!(used.set("s", 4));
        assert_eq!(master.get("s"), Some(4), "the shared slot aliases");
        assert!(used.set("x", 5));
        assert_eq!(master.get("x"), Some(3), "the private slot is a copy");
    }

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
    fn redeclaring_in_the_same_scope_replaces() {
        let mut env = Env::new();
        env.declare("x", true, 1);
        env.push();
        env.declare("x", false, 2);
        env.declare("x", true, 3);
        assert_eq!((env.get("x"), env.is_shared("x")), (Some(3), Some(true)));
        assert_eq!(env.len, 2, "one binding per name and scope");
        env.pop();
        assert_eq!((env.get("x"), env.is_shared("x")), (Some(1), Some(true)));
        env.declare("x", false, 4);
        assert_eq!((env.get("x"), env.is_shared("x")), (Some(4), Some(false)));
        assert_eq!(env.len, 1);
    }

    #[test]
    fn pop_drops_exactly_the_inner_scope() {
        let mut env = Env::new();
        env.declare("a", false, 1);
        env.push();
        env.declare("b", false, 2);
        env.push();
        env.declare("c", false, 3);
        env.declare("d", false, 4);
        env.pop();
        assert_eq!(
            ["a", "b", "c", "d"].map(|n| env.get(n)),
            [Some(1), Some(2), None, None]
        );
        env.pop();
        assert_eq!(
            ["a", "b", "c", "d"].map(|n| env.get(n)),
            [Some(1), None, None, None]
        );
    }

    /// A popped name buffer is rewritten by the next declaration: with a
    /// longer name (it grows once), a shorter one and the same one, in a
    /// scope entered and left like a loop iteration's.
    #[test]
    fn a_reused_name_buffer_takes_longer_shorter_and_equal_names() {
        let mut env = Env::new();
        env.declare("n", false, 0);
        env.push();
        env.declare("i", false, 0);
        env.pop();
        for (name, value) in [("loop_index_variable", 1), ("k", 2), ("k", 3)] {
            let buffer = env.bindings[1].0.as_ptr();
            env.push();
            env.declare(name, false, value);
            assert_eq!(env.get(name), Some(value));
            assert_eq!(env.bindings.len(), 2, "{name}: the popped entry was reused");
            if value > 1 {
                assert_eq!(env.bindings[1].0.as_ptr(), buffer, "{name}: in place");
            }
            env.pop();
            assert_eq!(env.get(name), None);
            assert_eq!((env.get("n"), env.len), (Some(0), 1));
        }
        assert_eq!(env.get("i"), None);
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
    fn fork_of_shadowed_scopes_keeps_the_innermost_binding() {
        let mut env = Env::new();
        env.declare("x", false, 1);
        env.declare("s", true, 5);
        env.push();
        env.declare("x", true, 2);
        env.push();
        env.declare("x", false, 3);
        env.declare("y", false, 4);
        let mut worker = env.fork();
        assert_eq!(worker.len, 3, "one binding per name");
        assert_eq!(
            (worker.get("x"), worker.is_shared("x")),
            (Some(3), Some(false))
        );
        assert!(worker.set("s", 6) && worker.set("x", 7));
        assert_eq!((env.get("s"), env.get("x")), (Some(6), Some(3)));
        // A redeclaration in the worker's one scope replaces, as before.
        worker.declare("x", false, 8);
        assert_eq!((worker.get("x"), worker.len), (Some(8), 3));

        env.pop();
        let shared_x = env.fork();
        assert_eq!(shared_x.is_shared("x"), Some(true));
        assert_eq!(shared_x.get("x"), Some(2));
        let mut second = shared_x.fork();
        second.set("x", 9);
        assert_eq!(
            env.get("x"),
            Some(9),
            "a shared slot aliases through two forks"
        );
    }

    #[test]
    #[should_panic(expected = "cannot pop the global scope")]
    fn popping_global_scope_panics() {
        let mut env = Env::new();
        env.pop();
    }
}
