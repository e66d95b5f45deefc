//! Dense bit sets and bit matrices.
//!
//! The analysis algorithms in this workspace are dominated by reachability
//! and set-intersection queries over node sets of a few thousand elements.
//! A dense `u64`-word bitset answers those in `O(n/64)` and keeps the
//! transitive closure of a transaction cache-resident, which is what makes
//! the paper's `O(n²)` tests actually run in `O(n²)`.

use std::fmt;

/// A fixed-capacity dense set of `usize` indices backed by `u64` words.
/// The default is the empty set of capacity 0.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity (exclusive upper bound on storable indices).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`, returning whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.capacity, "bitset index {i} out of range");
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes `i`, returning whether it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.capacity, "bitset index {i} out of range");
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Empties the set and re-sizes it to hold `0..capacity`, keeping its
    /// storage: no allocation unless `capacity` needs more words than the
    /// set has ever held.
    pub fn reset(&mut self, capacity: usize) {
        self.words.clear();
        self.words.resize(capacity.div_ceil(64), 0);
        self.capacity = capacity;
    }

    /// `self ∪= other`. Both sets must have the same capacity.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self ∩= other`. Both sets must have the same capacity.
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self -= other`. Both sets must have the same capacity.
    pub fn difference_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Whether the two sets share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// `|self ∩ other|`, without materializing the intersection.
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Returns the first element of `self ∩ other`, if any, without
    /// materializing the intersection.
    pub fn first_common(&self, other: &BitSet) -> Option<usize> {
        debug_assert_eq!(self.capacity, other.capacity);
        for (wi, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let x = a & b;
            if x != 0 {
                return Some(wi * 64 + x.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> BitSetIter<'_> {
        BitSetIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The raw backing words (LSB-first). Useful for hashing whole states
    /// in search algorithms.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Builds a set from an iterator of indices.
    pub fn from_indices(capacity: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut s = Self::new(capacity);
        for i in indices {
            s.insert(i);
        }
        s
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the elements of a [`BitSet`].
pub struct BitSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// A square boolean matrix stored as one [`BitSet`] row per vertex, used for
/// transitive closures (`row(u).contains(v)` ⇔ `u` reaches `v`).
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: Vec<BitSet>,
    n: usize,
}

impl BitMatrix {
    /// Creates an `n × n` all-zero matrix.
    pub fn new(n: usize) -> Self {
        Self {
            rows: vec![BitSet::new(n); n],
            n,
        }
    }

    /// Matrix dimension.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix has zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sets entry `(u, v)`.
    #[inline]
    pub fn set(&mut self, u: usize, v: usize) {
        self.rows[u].insert(v);
    }

    /// Reads entry `(u, v)`.
    #[inline]
    pub fn get(&self, u: usize, v: usize) -> bool {
        self.rows[u].contains(v)
    }

    /// Borrows row `u` as a set of reachable vertices.
    #[inline]
    pub fn row(&self, u: usize) -> &BitSet {
        &self.rows[u]
    }

    /// `row(u) ∪= row(v)`; used when propagating reachability in reverse
    /// topological order.
    pub fn union_row_into(&mut self, src: usize, dst: usize) {
        if src == dst {
            return;
        }
        let (a, b) = if src < dst {
            let (lo, hi) = self.rows.split_at_mut(dst);
            (&lo[src], &mut hi[0])
        } else {
            let (lo, hi) = self.rows.split_at_mut(src);
            (&hi[0], &mut lo[dst])
        };
        b.union_with(a);
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix({}x{})", self.n, self.n)?;
        for (i, row) in self.rows.iter().enumerate() {
            writeln!(f, "  {i}: {row:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_indices(100, [1, 5, 70]);
        let b = BitSet::from_indices(100, [5, 70, 99]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 5, 70, 99]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![5, 70]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1]);
        assert!(i.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(BitSet::new(100).is_disjoint(&a));
        assert_eq!(a.first_common(&b), Some(5));
        assert_eq!(a.intersection_len(&b), 2);
        assert_eq!(
            BitSet::from_indices(100, [1]).first_common(&BitSet::from_indices(100, [2])),
            None
        );
    }

    #[test]
    fn iter_order() {
        let s = BitSet::from_indices(200, [199, 0, 63, 64, 65]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 199]);
    }

    #[test]
    fn empty_set() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn matrix_union_rows() {
        let mut m = BitMatrix::new(5);
        m.set(1, 2);
        m.set(2, 3);
        m.set(2, 4);
        m.union_row_into(2, 1);
        assert!(m.get(1, 3) && m.get(1, 4) && m.get(1, 2));
        assert!(!m.get(3, 1));
        assert_eq!(m.row(1).len(), 3);
    }

    #[test]
    fn matrix_self_union_is_noop() {
        let mut m = BitMatrix::new(3);
        m.set(1, 2);
        m.union_row_into(1, 1);
        assert!(m.get(1, 2));
        assert_eq!(m.row(1).len(), 1);
    }
}
