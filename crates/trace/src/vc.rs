//! Vector clocks for happens-before analysis.
//!
//! Slots are dense thread-segment indices assigned by the analysis (one per
//! `(region, tid)` segment plus one per rank's sequential master segment).
//! The representation auto-grows; missing entries are zero.
//!
//! # Adaptive representation
//!
//! Most clocks a detection run touches are *epochs* in the FastTrack sense:
//! a single nonzero `(slot, value)` component — a fresh segment that has
//! only ever ticked its own slot. Those are kept inline as a two-word
//! [`Repr::Epoch`]; cloning one copies two machine words instead of a heap
//! vector. The clock lazily promotes to the dense `Vec<u64>` form the first
//! time a second slot becomes nonzero. All public operations are
//! representation-independent: `a == b`, `a.leq(&b)` and hashing answer
//! the same regardless of which form each side is in.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

#[derive(Debug, Clone)]
enum Repr {
    /// At most one nonzero component, `slot ↦ value` (the zero clock when
    /// `value == 0`).
    Epoch { slot: u32, value: u64 },
    /// Dense component vector (may carry interior or trailing zeros).
    Dense(Vec<u64>),
}

/// A vector clock: a map from thread-segment slot to logical time.
#[derive(Debug)]
pub struct VectorClock {
    repr: Repr,
}

impl Clone for VectorClock {
    fn clone(&self) -> Self {
        VectorClock {
            repr: self.repr.clone(),
        }
    }

    /// Overwrite with `source`, keeping a dense clock's buffer: the
    /// detectors overwrite release and recycled segment clocks constantly.
    fn clone_from(&mut self, source: &Self) {
        match (&mut self.repr, &source.repr) {
            (Repr::Dense(mine), Repr::Dense(theirs)) => mine.clone_from(theirs),
            (mine, theirs) => *mine = theirs.clone(),
        }
    }
}

impl Default for VectorClock {
    fn default() -> Self {
        VectorClock {
            repr: Repr::Epoch { slot: 0, value: 0 },
        }
    }
}

impl VectorClock {
    /// The zero clock.
    pub fn new() -> Self {
        VectorClock::default()
    }

    /// Reset to the zero clock, keeping a dense clock's buffer.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Epoch { value, .. } => *value = 0,
            Repr::Dense(entries) => entries.clear(),
        }
    }

    /// Component for `slot` (zero if absent).
    #[inline]
    pub fn get(&self, slot: usize) -> u64 {
        match &self.repr {
            Repr::Epoch { slot: s, value } => {
                if *s as usize == slot {
                    *value
                } else {
                    0
                }
            }
            Repr::Dense(entries) => entries.get(slot).copied().unwrap_or(0),
        }
    }

    /// Switch to the dense representation, returning its entry vector.
    fn promote(&mut self) -> &mut Vec<u64> {
        if let Repr::Epoch { slot, value } = self.repr {
            let mut entries = Vec::new();
            if value > 0 {
                entries.resize(slot as usize + 1, 0);
                entries[slot as usize] = value;
            }
            self.repr = Repr::Dense(entries);
        }
        match &mut self.repr {
            Repr::Dense(entries) => entries,
            Repr::Epoch { .. } => unreachable!("promote just installed Dense"),
        }
    }

    /// Set the component for `slot`.
    pub fn set(&mut self, slot: usize, value: u64) {
        if let Repr::Epoch { slot: s, value: v } = &mut self.repr {
            if *s as usize == slot {
                *v = value;
                return;
            }
            if *v == 0 {
                if let Ok(slot) = u32::try_from(slot) {
                    *s = slot;
                    *v = value;
                    return;
                }
            }
            if value == 0 {
                // Writing a zero to an absent slot leaves the map unchanged.
                return;
            }
        }
        let entries = self.promote();
        if entries.len() <= slot {
            entries.resize(slot + 1, 0);
        }
        entries[slot] = value;
    }

    /// Increment the component for `slot` by one, returning the new value —
    /// a single in-place increment with one resize check.
    pub fn tick(&mut self, slot: usize) -> u64 {
        if let Repr::Epoch { slot: s, value: v } = &mut self.repr {
            if *s as usize == slot {
                *v += 1;
                return *v;
            }
            if *v == 0 {
                if let Ok(slot) = u32::try_from(slot) {
                    *s = slot;
                    *v = 1;
                    return 1;
                }
            }
        }
        let entries = self.promote();
        if entries.len() <= slot {
            entries.resize(slot + 1, 0);
        }
        entries[slot] += 1;
        entries[slot]
    }

    /// Pointwise maximum with `other` (the classic VC join).
    pub fn join(&mut self, other: &VectorClock) {
        match &other.repr {
            Repr::Epoch { value: 0, .. } => {} // joining the zero clock
            Repr::Epoch { slot, value } => {
                let (oslot, ov) = (*slot, *value);
                match &mut self.repr {
                    Repr::Epoch { slot: s, value: v } if *v == 0 => {
                        *s = oslot;
                        *v = ov;
                    }
                    Repr::Epoch { slot: s, value: v } if *s == oslot => {
                        if ov > *v {
                            *v = ov;
                        }
                    }
                    _ => {
                        let entries = self.promote();
                        let oslot = oslot as usize;
                        if entries.len() <= oslot {
                            entries.resize(oslot + 1, 0);
                        }
                        if ov > entries[oslot] {
                            entries[oslot] = ov;
                        }
                    }
                }
            }
            Repr::Dense(o) => {
                if let Repr::Epoch { value: 0, .. } = self.repr {
                    self.repr = Repr::Dense(o.clone());
                    return;
                }
                let entries = self.promote();
                if entries.len() < o.len() {
                    entries.resize(o.len(), 0);
                }
                for (e, &v) in entries.iter_mut().zip(o.iter()) {
                    if v > *e {
                        *e = v;
                    }
                }
            }
        }
    }

    /// One fused comparison pass: for each side, does it exceed the other in
    /// some component? `(false, false)` ⇒ equal, `(false, true)` ⇒ strictly
    /// less, `(true, false)` ⇒ strictly greater, `(true, true)` ⇒
    /// concurrent.
    fn dominance(&self, other: &VectorClock) -> (bool, bool) {
        match (&self.repr, &other.repr) {
            (Repr::Epoch { slot: a, value: va }, Repr::Epoch { slot: b, value: vb }) => {
                if a == b || *va == 0 || *vb == 0 {
                    // Comparable on a single axis.
                    let (x, y) = if a == b {
                        (*va, *vb)
                    } else if *va == 0 {
                        (0, *vb)
                    } else {
                        (*va, 0)
                    };
                    (x > y, y > x)
                } else {
                    // Two distinct nonzero slots: each exceeds the other's
                    // zero component.
                    (true, true)
                }
            }
            (Repr::Epoch { slot, value }, Repr::Dense(o)) => {
                let s = *slot as usize;
                let at = o.get(s).copied().unwrap_or(0);
                let self_exceeds = *value > at;
                let other_exceeds =
                    at > *value || o.iter().enumerate().any(|(i, &v)| v > 0 && i != s);
                (self_exceeds, other_exceeds)
            }
            (Repr::Dense(_), Repr::Epoch { .. }) => {
                let (o, s) = other.dominance(self);
                (s, o)
            }
            (Repr::Dense(a), Repr::Dense(b)) => {
                let mut self_exceeds = false;
                let mut other_exceeds = false;
                for i in 0..a.len().max(b.len()) {
                    let x = a.get(i).copied().unwrap_or(0);
                    let y = b.get(i).copied().unwrap_or(0);
                    if x > y {
                        self_exceeds = true;
                        if other_exceeds {
                            break;
                        }
                    } else if y > x {
                        other_exceeds = true;
                        if self_exceeds {
                            break;
                        }
                    }
                }
                (self_exceeds, other_exceeds)
            }
        }
    }

    /// `self ≤ other` in the pointwise partial order: every component of
    /// `self` is ≤ the corresponding component of `other`.
    pub fn leq(&self, other: &VectorClock) -> bool {
        !self.dominance(other).0
    }

    /// Happens-before: `self ≤ other` and `self ≠ other`.
    pub fn happens_before(&self, other: &VectorClock) -> bool {
        let (self_exceeds, other_exceeds) = self.dominance(other);
        !self_exceeds && other_exceeds
    }

    /// Neither clock happens-before the other — the events are concurrent.
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        let (self_exceeds, other_exceeds) = self.dominance(other);
        self_exceeds && other_exceeds
    }

    /// Partial-order comparison (`None` for concurrent clocks).
    pub fn partial_cmp_vc(&self, other: &VectorClock) -> Option<Ordering> {
        match self.dominance(other) {
            (false, false) => Some(Ordering::Equal),
            (false, true) => Some(Ordering::Less),
            (true, false) => Some(Ordering::Greater),
            (true, true) => None,
        }
    }

    /// Number of allocated components (trailing zeros excluded is not
    /// guaranteed; this is the raw storage width).
    pub fn width(&self) -> usize {
        match &self.repr {
            Repr::Epoch { value: 0, .. } => 0,
            Repr::Epoch { slot, .. } => *slot as usize + 1,
            Repr::Dense(entries) => entries.len(),
        }
    }

    /// Iterate over `(slot, value)` pairs with nonzero value, ascending.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        static EMPTY: [u64; 0] = [];
        let (epoch, dense) = match &self.repr {
            Repr::Epoch { slot, value } if *value > 0 => {
                (Some((*slot as usize, *value)), EMPTY.iter())
            }
            Repr::Epoch { .. } => (None, EMPTY.iter()),
            Repr::Dense(entries) => (None, entries.iter()),
        };
        epoch.into_iter().chain(
            dense
                .enumerate()
                .filter(|(_, &v)| v > 0)
                .map(|(i, &v)| (i, v)),
        )
    }
}

/// Equality is semantic (same slot ↦ value map), independent of both the
/// representation and any stored trailing zeros.
impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        self.dominance(other) == (false, false)
    }
}

impl Eq for VectorClock {}

impl Hash for VectorClock {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for (slot, value) in self.iter_nonzero() {
            slot.hash(state);
            value.hash(state);
        }
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (slot, v)) in self.iter_nonzero().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{slot}:{v}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock with one nonzero component (`slot` ↦ `value`).
    fn singleton(slot: usize, value: u64) -> VectorClock {
        match u32::try_from(slot) {
            Ok(slot) => VectorClock {
                repr: Repr::Epoch { slot, value },
            },
            Err(_) => {
                let mut vc = VectorClock::new();
                vc.set(slot, value);
                vc
            }
        }
    }

    #[test]
    fn zero_is_leq_everything() {
        let z = VectorClock::new();
        let mut a = VectorClock::new();
        a.tick(3);
        assert!(z.leq(&a));
        assert!(z.happens_before(&a));
        assert!(!a.leq(&z));
    }

    #[test]
    fn recycled_clocks_are_indistinguishable_from_fresh_ones() {
        let mut dense = singleton(0, 3);
        dense.join(&singleton(5, 7));
        let epoch = singleton(2, 4);
        // `clone_from` over either representation equals `clone`.
        for source in [&dense, &epoch] {
            for mut target in [dense.clone(), epoch.clone(), VectorClock::new()] {
                target.clone_from(source);
                assert_eq!(&target, source);
            }
        }
        // A cleared clock is the zero clock and joins like one.
        for mut cleared in [dense.clone(), epoch.clone()] {
            cleared.clear();
            assert_eq!(cleared, VectorClock::new());
            assert!(cleared.leq(&epoch));
            cleared.join(&dense);
            assert_eq!(cleared, dense);
        }
    }

    #[test]
    fn concurrent_clocks() {
        let a = singleton(0, 1);
        let b = singleton(1, 1);
        assert!(a.concurrent_with(&b));
        assert!(b.concurrent_with(&a));
        assert_eq!(a.partial_cmp_vc(&b), None);
    }

    #[test]
    fn join_is_lub() {
        let a = singleton(0, 3);
        let b = singleton(1, 5);
        let mut j = a.clone();
        j.join(&b);
        assert!(a.leq(&j));
        assert!(b.leq(&j));
        assert_eq!(j.get(0), 3);
        assert_eq!(j.get(1), 5);
    }

    #[test]
    fn tick_monotone() {
        let mut a = VectorClock::new();
        let before = a.clone();
        a.tick(2);
        assert!(before.happens_before(&a));
        assert_eq!(a.get(2), 1);
        assert_eq!(a.tick(2), 2);
    }

    #[test]
    fn partial_cmp_cases() {
        let mut a = VectorClock::new();
        a.set(0, 1);
        let mut b = a.clone();
        b.set(1, 4);
        assert_eq!(a.partial_cmp_vc(&b), Some(Ordering::Less));
        assert_eq!(b.partial_cmp_vc(&a), Some(Ordering::Greater));
        assert_eq!(a.partial_cmp_vc(&a.clone()), Some(Ordering::Equal));
    }

    #[test]
    fn growth_treats_missing_as_zero() {
        let short = singleton(0, 1);
        let mut long = singleton(5, 1);
        long.set(0, 1);
        assert!(short.leq(&long));
    }

    #[test]
    fn display_nonzero_only() {
        let mut a = VectorClock::new();
        a.set(1, 2);
        a.set(4, 7);
        assert_eq!(a.to_string(), "⟨1:2, 4:7⟩");
    }

    #[test]
    fn epoch_stays_small_until_second_slot() {
        let mut a = VectorClock::new();
        a.tick(3);
        a.tick(3);
        assert!(matches!(a.repr, Repr::Epoch { slot: 3, value: 2 }));
        a.tick(1);
        assert!(matches!(a.repr, Repr::Dense(_)));
        assert_eq!(a.get(3), 2);
        assert_eq!(a.get(1), 1);
    }

    #[test]
    fn equality_is_representation_independent() {
        // Same logical map through an epoch and through a dense detour.
        let epoch = singleton(2, 9);
        let mut dense = VectorClock::new();
        dense.set(2, 9);
        dense.set(5, 1); // second nonzero slot promotes to Dense
        dense.set(5, 0); // leaves Dense with trailing zeros
        assert!(matches!(dense.repr, Repr::Dense(_)));
        assert_eq!(epoch, dense);
        assert_eq!(epoch.partial_cmp_vc(&dense), Some(Ordering::Equal));
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        epoch.hash(&mut h1);
        dense.hash(&mut h2);
        assert_eq!(
            std::hash::Hasher::finish(&h1),
            std::hash::Hasher::finish(&h2)
        );
    }
}
