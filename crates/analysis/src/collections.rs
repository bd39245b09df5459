//! Flat, allocation-friendly containers for the allocation hot path.
//!
//! The allocators' per-temporary state used to live in nested structures —
//! `Vec<Vec<Segment>>` lifetime rows, boolean vectors cleared at every
//! block — whose pointer-chasing and O(universe) resets dominate at
//! 10^5–10^6 instructions. This module holds the flat replacements, shared
//! by the analyses and the allocators. Register occupancy is not here: the
//! point allocators share `lsra_core::point::RegFile`, rows of point bits
//! per register.
//!
//! * [`Csr`] — compressed-sparse-row storage: all rows in one backing
//!   array plus an offsets array (the regalloc2-style layout);
//! * [`SmallVec`] — a fixed inline buffer that spills to the heap, for the
//!   tiny per-instruction scratch lists;
//! * [`EpochSet`] — a stamped membership set whose per-block reset is O(1)
//!   instead of O(universe).

use std::mem::MaybeUninit;

/// Compressed-sparse-row storage: `rows()` slices share one flat backing
/// array, indexed through an offsets array of row boundaries.
///
/// Rows are appended in order with [`Csr::push`] + [`Csr::finish_row`];
/// a cleared `Csr` keeps its capacity, so a scratch arena can recycle it
/// across functions.
///
/// # Examples
///
/// ```
/// use lsra_analysis::collections::Csr;
///
/// let mut c: Csr<u32> = Csr::new();
/// c.push(1);
/// c.push(2);
/// c.finish_row();
/// c.finish_row(); // an empty row
/// c.push(3);
/// c.finish_row();
/// assert_eq!(c.rows(), 3);
/// assert_eq!(c.row(0), &[1, 2]);
/// assert_eq!(c.row(1), &[]);
/// assert_eq!(c.row(2), &[3]);
/// ```
#[derive(Clone, Debug)]
pub struct Csr<T> {
    /// Row boundaries: row `r` is `data[offsets[r] as usize..offsets[r + 1] as usize]`.
    offsets: Vec<u32>,
    data: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr::new()
    }
}

impl<T> Csr<T> {
    /// An empty container with zero rows.
    pub fn new() -> Self {
        Csr { offsets: vec![0], data: Vec::new() }
    }

    /// Removes every row, keeping both buffers' capacity.
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.data.clear();
    }

    /// Number of finished rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total elements across all rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if no element has been pushed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends `v` to the currently open row.
    #[inline]
    pub fn push(&mut self, v: T) {
        self.data.push(v);
    }

    /// Closes the open row (possibly empty) and opens the next.
    #[inline]
    pub fn finish_row(&mut self) {
        self.offsets.push(self.data.len() as u32);
    }

    /// The finished row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Mutable view of the currently open (unfinished) row, e.g. to sort it
    /// before [`Csr::finish_row`].
    #[inline]
    pub fn open_row_mut(&mut self) -> &mut [T] {
        let start = *self.offsets.last().unwrap() as usize;
        &mut self.data[start..]
    }

    /// Assembles a `Csr` from raw parts (for counting-sort style builds
    /// that compute all offsets up front).
    ///
    /// `offsets` must be monotone, start at 0, and end at `data.len()`.
    pub fn from_parts(offsets: Vec<u32>, data: Vec<T>) -> Self {
        debug_assert!(offsets.first() == Some(&0));
        debug_assert!(offsets.last() == Some(&(data.len() as u32)));
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Csr { offsets, data }
    }

    /// Rows `0..rows` holding the values that `pairs` files as `(row,
    /// value)`, built by counting sort: each row keeps its values in the
    /// order `pairs` yields them. `pairs` is called twice, once to count
    /// and once to fill, and must yield the same sequence both times.
    ///
    /// ```
    /// use lsra_analysis::collections::Csr;
    ///
    /// let c = Csr::group(3, || [(2, 'a'), (0, 'b'), (2, 'c')].into_iter());
    /// assert_eq!(c.row(0), &['b']);
    /// assert_eq!(c.row(1), &[]);
    /// assert_eq!(c.row(2), &['a', 'c']);
    /// ```
    pub fn group<I>(rows: usize, pairs: impl Fn() -> I) -> Self
    where
        T: Clone + Default,
        I: Iterator<Item = (usize, T)>,
    {
        let mut offsets = vec![0u32; rows + 1];
        for (r, _) in pairs() {
            offsets[r + 1] += 1;
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        let mut fill = offsets[..rows].to_vec();
        let mut data = vec![T::default(); offsets[rows] as usize];
        for (r, v) in pairs() {
            data[fill[r] as usize] = v;
            fill[r] += 1;
        }
        Csr { offsets, data }
    }

    /// Dismantles the container so its buffers can be recycled.
    pub fn into_parts(self) -> (Vec<u32>, Vec<T>) {
        (self.offsets, self.data)
    }
}

/// A vector with `N` elements of inline storage that spills to the heap.
///
/// Restricted to `Copy` element types (all hot-path uses are small `Copy`
/// tuples), which keeps the inline buffer free of drop obligations.
///
/// # Examples
///
/// ```
/// use lsra_analysis::collections::SmallVec;
///
/// let mut v: SmallVec<u32, 4> = SmallVec::new();
/// for i in 0..6 {
///     v.push(i);
/// }
/// assert_eq!(&v[..], &[0, 1, 2, 3, 4, 5]);
/// assert!(v.spilled());
/// v.clear();
/// assert!(v.is_empty());
/// ```
#[derive(Debug)]
pub struct SmallVec<T: Copy, const N: usize> {
    inline: [MaybeUninit<T>; N],
    /// Length of the inline prefix; ignored once spilled.
    len: usize,
    spill: Option<Vec<T>>,
}

impl<T: Copy, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        SmallVec::new()
    }
}

impl<T: Copy, const N: usize> SmallVec<T, N> {
    /// An empty vector using inline storage.
    pub fn new() -> Self {
        SmallVec { inline: [MaybeUninit::uninit(); N], len: 0, spill: None }
    }

    /// Appends an element, moving to the heap when the inline buffer fills.
    #[inline]
    pub fn push(&mut self, v: T) {
        if let Some(s) = &mut self.spill {
            s.push(v);
        } else if self.len < N {
            self.inline[self.len] = MaybeUninit::new(v);
            self.len += 1;
        } else {
            let mut s = Vec::with_capacity(N * 2);
            s.extend_from_slice(self.as_slice());
            s.push(v);
            self.len = 0;
            self.spill = Some(s);
        }
    }

    /// Removes and returns the element at `i`, replacing it with the last
    /// element (O(1), order not preserved).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn swap_remove(&mut self, i: usize) -> T {
        if let Some(s) = &mut self.spill {
            return s.swap_remove(i);
        }
        assert!(i < self.len, "swap_remove index {i} out of bounds {}", self.len);
        // SAFETY: `inline[..len]` is initialised and `i < len`.
        let v = unsafe { self.inline[i].assume_init() };
        self.len -= 1;
        self.inline[i] = self.inline[self.len];
        v
    }

    /// Removes all elements. A heap spill keeps its capacity.
    pub fn clear(&mut self) {
        self.len = 0;
        if let Some(s) = &mut self.spill {
            s.clear();
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.spill {
            Some(s) => s.len(),
            None => self.len,
        }
    }

    /// True if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once elements have moved to the heap.
    pub fn spilled(&self) -> bool {
        self.spill.is_some()
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.spill {
            Some(s) => s,
            // SAFETY: `inline[..len]` was written by `push` and `T: Copy`.
            None => unsafe {
                std::slice::from_raw_parts(self.inline.as_ptr() as *const T, self.len)
            },
        }
    }
}

impl<T: Copy, const N: usize> std::ops::Deref for SmallVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A set over `0..universe` whose `clear` is O(1): membership is "stamp
/// equals current epoch", so advancing the epoch empties the set without
/// touching the stamp array.
///
/// The set also records insertion order, so a sparse iteration over the
/// members costs O(members) rather than O(universe).
///
/// # Examples
///
/// ```
/// use lsra_analysis::collections::EpochSet;
///
/// let mut s = EpochSet::new(100);
/// s.insert(7);
/// s.insert(42);
/// assert!(s.contains(7));
/// assert_eq!(s.touched(), &[7, 42]);
/// s.advance(); // O(1) clear
/// assert!(!s.contains(7));
/// ```
#[derive(Clone, Debug, Default)]
pub struct EpochSet {
    stamp: Vec<u32>,
    epoch: u32,
    touched: Vec<u32>,
}

impl EpochSet {
    /// An empty set over `0..universe`.
    pub fn new(universe: usize) -> Self {
        EpochSet { stamp: vec![0; universe], epoch: 1, touched: Vec::new() }
    }

    /// Re-sizes to `universe` and empties the set, reusing the stamp buffer.
    pub fn reset(&mut self, universe: usize) {
        self.stamp.clear();
        self.stamp.resize(universe, 0);
        self.epoch = 1;
        self.touched.clear();
    }

    /// Empties the set in O(1) by advancing the epoch.
    pub fn advance(&mut self) {
        self.touched.clear();
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // One O(universe) re-zero every 2^32 advances.
                self.stamp.fill(0);
                1
            }
        };
    }

    /// Inserts `i`; returns true if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        if self.stamp[i] == self.epoch {
            return false;
        }
        self.stamp[i] = self.epoch;
        self.touched.push(i as u32);
        true
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }

    /// The members inserted this epoch, in insertion order.
    #[inline]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_round_trip() {
        let mut c: Csr<(u32, u32)> = Csr::new();
        for r in 0..5u32 {
            for k in 0..r {
                c.push((r, k));
            }
            c.finish_row();
        }
        assert_eq!(c.rows(), 5);
        assert_eq!(c.row(0), &[]);
        assert_eq!(c.row(3), &[(3, 0), (3, 1), (3, 2)]);
        assert_eq!(c.len(), 10);
        let (off, data) = c.into_parts();
        let c2 = Csr::from_parts(off, data);
        assert_eq!(c2.row(4).len(), 4);
    }

    #[test]
    fn csr_open_row_mut_sorts_in_place() {
        let mut c: Csr<u32> = Csr::new();
        c.push(3);
        c.push(1);
        c.push(2);
        c.open_row_mut().sort_unstable();
        c.finish_row();
        assert_eq!(c.row(0), &[1, 2, 3]);
        c.clear();
        assert_eq!(c.rows(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn smallvec_inline_then_spill() {
        let mut v: SmallVec<u64, 3> = SmallVec::new();
        assert!(v.is_empty());
        v.push(10);
        v.push(20);
        v.push(30);
        assert!(!v.spilled());
        assert_eq!(&v[..], &[10, 20, 30]);
        v.push(40);
        assert!(v.spilled());
        assert_eq!(&v[..], &[10, 20, 30, 40]);
        assert_eq!(v.iter().sum::<u64>(), 100);
        v.clear();
        assert_eq!(v.len(), 0);
        v.push(1);
        assert_eq!(&v[..], &[1]);
    }

    #[test]
    fn epoch_set_advances_in_constant_time() {
        let mut s = EpochSet::new(10);
        assert!(s.insert(3));
        assert!(!s.insert(3), "double insert reports no change");
        s.insert(9);
        assert_eq!(s.touched(), &[3, 9]);
        s.advance();
        assert!(!s.contains(3));
        assert!(s.touched().is_empty());
        s.insert(0);
        assert_eq!(s.touched(), &[0]);
        s.reset(4);
        assert!(!s.contains(0));
    }

    #[test]
    fn epoch_set_survives_epoch_wraparound() {
        let mut s = EpochSet::new(4);
        s.insert(2);
        s.epoch = u32::MAX; // simulate 2^32 - 1 advances
        s.insert(1);
        s.advance(); // wraps: stamps re-zeroed
        assert!(!s.contains(1));
        assert!(!s.contains(2));
        s.insert(3);
        assert!(s.contains(3));
    }
}
