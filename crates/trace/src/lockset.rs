//! Lock sets for the Eraser-style analysis, plus the hash-consing
//! [`LocksetTable`] the detectors use to avoid per-event set clones.

use crate::fxhash::FxHashMap;
use crate::ids::LockId;
use std::fmt;

/// A set of locks, kept as a small sorted vector (lock sets are tiny in
/// practice — a handful of critical sections at most).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LockSet {
    locks: Vec<LockId>,
}

impl LockSet {
    /// The empty lock set.
    pub fn new() -> Self {
        LockSet::default()
    }

    /// Insert a lock; returns true if newly added.
    pub fn insert(&mut self, lock: LockId) -> bool {
        match self.locks.binary_search(&lock) {
            Ok(_) => false,
            Err(pos) => {
                self.locks.insert(pos, lock);
                true
            }
        }
    }

    /// Remove a lock; returns true if it was present.
    pub fn remove(&mut self, lock: LockId) -> bool {
        match self.locks.binary_search(&lock) {
            Ok(pos) => {
                self.locks.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, lock: LockId) -> bool {
        self.locks.binary_search(&lock).is_ok()
    }

    /// Set intersection (the candidate-lockset refinement step of Eraser).
    pub fn intersect(&self, other: &LockSet) -> LockSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.locks.len() && j < other.locks.len() {
            match self.locks[i].cmp(&other.locks[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.locks[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        LockSet { locks: out }
    }

    /// True if the intersection with `other` is empty — the Eraser race
    /// condition on two conflicting accesses.
    pub fn disjoint(&self, other: &LockSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.locks.len() && j < other.locks.len() {
            match self.locks[i].cmp(&other.locks[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }

    /// Number of locks held.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// True if no locks are held.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// Iterate the locks in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = LockId> + '_ {
        self.locks.iter().copied()
    }
}

impl FromIterator<LockId> for LockSet {
    fn from_iter<I: IntoIterator<Item = LockId>>(iter: I) -> Self {
        let mut ls = LockSet::new();
        for l in iter {
            ls.insert(l);
        }
        ls
    }
}

impl fmt::Display for LockSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, l) in self.locks.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "}}")
    }
}

/// Identifier of an interned [`LockSet`] in a [`LocksetTable`].
///
/// Ids are only meaningful relative to the table that produced them; id `0`
/// is always the empty set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocksetId(pub u32);

/// A per-run hash-consing table for lock sets.
///
/// Detector segment state stores [`LocksetId`]s instead of owned
/// [`LockSet`]s: the distinct lock sets a run ever holds number a handful
/// (nesting depth × lock count), while access events number millions, so
/// interning turns the per-event lockset clone into a `u32` copy and the
/// per-pair disjointness walk into a memoized table lookup.
#[derive(Debug)]
pub struct LocksetTable {
    sets: Vec<LockSet>,
    ids: FxHashMap<LockSet, LocksetId>,
    /// Memoized symmetric disjointness, keyed with the smaller id first.
    disjoint: FxHashMap<(LocksetId, LocksetId), bool>,
    /// Working set of [`LocksetTable::derive`], kept for its capacity.
    scratch: LockSet,
}

impl Default for LocksetTable {
    /// A table containing only the empty set, as [`LocksetTable::EMPTY`].
    fn default() -> Self {
        LocksetTable {
            sets: vec![LockSet::new()],
            ids: [(LockSet::new(), LocksetTable::EMPTY)]
                .into_iter()
                .collect(),
            disjoint: FxHashMap::default(),
            scratch: LockSet::new(),
        }
    }
}

impl LocksetTable {
    /// The id every table assigns to the empty set.
    pub const EMPTY: LocksetId = LocksetId(0);

    /// A table containing only the empty set.
    pub fn new() -> Self {
        LocksetTable::default()
    }

    /// Intern a set, returning its stable id (the same set always maps to
    /// the same id within one table).
    pub fn intern(&mut self, set: LockSet) -> LocksetId {
        if let Some(&id) = self.ids.get(&set) {
            return id;
        }
        let id = LocksetId(self.sets.len() as u32);
        self.ids.insert(set.clone(), id);
        self.sets.push(set);
        id
    }

    /// Resolve an id back to its set. Ids from another table may panic or
    /// alias arbitrary sets.
    pub fn get(&self, id: LocksetId) -> &LockSet {
        &self.sets[id.0 as usize]
    }

    /// Id of `id`'s set with `lock` added.
    pub fn with_insert(&mut self, id: LocksetId, lock: LockId) -> LocksetId {
        if self.get(id).contains(lock) {
            return id;
        }
        self.derive(id, |set| {
            set.insert(lock);
        })
    }

    /// Id of `id`'s set with `lock` removed.
    pub fn with_remove(&mut self, id: LocksetId, lock: LockId) -> LocksetId {
        if !self.get(id).contains(lock) {
            return id;
        }
        self.derive(id, |set| {
            set.remove(lock);
        })
    }

    /// Id of `id`'s set after `edit`. The edited set is built in a buffer
    /// the table keeps, so the acquire/release of an already seen set (all
    /// but the first few of a run) is a lookup, not a clone.
    fn derive(&mut self, id: LocksetId, edit: impl FnOnce(&mut LockSet)) -> LocksetId {
        let mut set = std::mem::take(&mut self.scratch);
        set.locks.clone_from(&self.sets[id.0 as usize].locks);
        edit(&mut set);
        let derived = match self.ids.get(&set) {
            Some(&known) => known,
            None => self.intern(set.clone()),
        };
        self.scratch = set;
        derived
    }

    /// Memoized [`LockSet::disjoint`] on interned ids.
    pub fn disjoint(&mut self, a: LocksetId, b: LocksetId) -> bool {
        if a == b {
            // A set intersects itself unless it is empty.
            return self.get(a).is_empty();
        }
        let key = (a.min(b), a.max(b));
        if let Some(&cached) = self.disjoint.get(&key) {
            return cached;
        }
        let result = self.get(a).disjoint(self.get(b));
        self.disjoint.insert(key, result);
        result
    }

    /// Forget every set but the empty one (and every memoized answer),
    /// keeping the table's capacity: a table reused for another run holds
    /// nothing of the earlier one.
    pub fn clear(&mut self) {
        self.sets.truncate(1);
        self.ids.retain(|_, id| *id == LocksetTable::EMPTY);
        self.disjoint.clear();
    }

    /// Number of distinct sets interned (≥ 1: the empty set).
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Never true — the empty set is always interned.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LockId {
        LockId(i)
    }

    #[test]
    fn insert_remove_contains() {
        let mut ls = LockSet::new();
        assert!(ls.insert(l(2)));
        assert!(ls.insert(l(1)));
        assert!(!ls.insert(l(2)), "duplicate insert is a no-op");
        assert!(ls.contains(l(1)));
        assert_eq!(ls.len(), 2);
        assert!(ls.remove(l(1)));
        assert!(!ls.remove(l(1)));
        assert!(!ls.contains(l(1)));
    }

    #[test]
    fn intersection() {
        let a = LockSet::from_iter([l(1), l(2), l(3)]);
        let b = LockSet::from_iter([l(2), l(3), l(4)]);
        let i = a.intersect(&b);
        assert_eq!(i, LockSet::from_iter([l(2), l(3)]));
        assert!(!a.disjoint(&b));
    }

    #[test]
    fn disjointness() {
        let a = LockSet::from_iter([l(1), l(3)]);
        let b = LockSet::from_iter([l(2), l(4)]);
        assert!(a.disjoint(&b));
        assert!(a.intersect(&b).is_empty());
        assert!(
            LockSet::new().disjoint(&a),
            "empty set is disjoint from all"
        );
    }

    #[test]
    fn display() {
        let a = LockSet::from_iter([l(2), l(0)]);
        assert_eq!(a.to_string(), "{lock0, lock2}");
    }

    #[test]
    fn table_interns_stable_ids() {
        let mut t = LocksetTable::new();
        assert_eq!(t.intern(LockSet::new()), LocksetTable::EMPTY);
        let mut d = LocksetTable::default();
        assert_eq!(
            d.intern(LockSet::new()),
            LocksetTable::EMPTY,
            "default == new"
        );
        let a = t.with_insert(LocksetTable::EMPTY, l(1));
        let b = t.with_insert(a, l(2));
        assert_ne!(a, b);
        assert_eq!(
            t.with_insert(LocksetTable::EMPTY, l(1)),
            a,
            "same set, same id"
        );
        assert_eq!(t.with_remove(b, l(2)), a, "remove returns to the prior set");
        assert_eq!(
            t.with_remove(a, l(9)),
            a,
            "removing an absent lock is a no-op"
        );
        assert_eq!(t.get(b), &LockSet::from_iter([l(1), l(2)]));
    }

    #[test]
    fn table_disjointness_matches_sets() {
        let mut t = LocksetTable::new();
        let a = t.intern(LockSet::from_iter([l(1), l(3)]));
        let b = t.intern(LockSet::from_iter([l(2), l(4)]));
        let c = t.intern(LockSet::from_iter([l(3)]));
        assert!(t.disjoint(a, b));
        assert!(t.disjoint(b, a), "symmetric");
        assert!(!t.disjoint(a, c));
        assert!(!t.disjoint(a, a), "nonempty set intersects itself");
        assert!(t.disjoint(LocksetTable::EMPTY, LocksetTable::EMPTY));
        assert!(t.disjoint(LocksetTable::EMPTY, a));
        // Cached answers stay correct on repeat queries.
        assert!(t.disjoint(a, b));
        assert!(!t.disjoint(c, a));
    }
}
