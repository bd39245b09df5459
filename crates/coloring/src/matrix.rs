//! The lower-triangular bit matrix recording the interference adjacency
//! relation — the representation choice the paper calls out as one of its
//! two departures from George & Appel's published implementation (§3:
//! "We use a lower-triangular bit matrix, rather than a hash table").

/// A symmetric boolean relation over `n` nodes stored as a lower-triangular
/// bit matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriangularBitMatrix {
    bits: Vec<u64>,
    n: usize,
}

impl TriangularBitMatrix {
    /// Creates an empty relation over `n` nodes.
    pub fn new(n: usize) -> Self {
        let cells = n * (n + 1) / 2;
        TriangularBitMatrix { bits: vec![0; cells.div_ceil(64)], n }
    }

    #[inline]
    fn index(&self, u: usize, v: usize) -> usize {
        debug_assert!(u < self.n && v < self.n, "node out of range");
        let (hi, lo) = if u >= v { (u, v) } else { (v, u) };
        hi * (hi + 1) / 2 + lo
    }

    /// Tests whether `u` and `v` are related.
    #[inline]
    pub fn contains(&self, u: usize, v: usize) -> bool {
        let i = self.index(u, v);
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Relates `u` and `v`; returns true if the pair was new.
    #[inline]
    pub fn insert(&mut self, u: usize, v: usize) -> bool {
        let i = self.index(u, v);
        let w = &mut self.bits[i / 64];
        let mask = 1 << (i % 64);
        let newly = *w & mask == 0;
        *w |= mask;
        newly
    }

    /// The number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric() {
        let mut m = TriangularBitMatrix::new(10);
        assert!(m.insert(3, 7));
        assert!(m.contains(3, 7));
        assert!(m.contains(7, 3));
        assert!(!m.insert(7, 3), "same pair, either order");
        assert!(!m.contains(3, 4));
    }

    #[test]
    fn diagonal_and_bounds() {
        let mut m = TriangularBitMatrix::new(5);
        assert!(m.insert(4, 4));
        assert!(m.contains(4, 4));
        assert!(m.insert(0, 0));
        assert!(m.insert(4, 0));
        assert!(m.contains(0, 4));
    }

    #[test]
    fn dense_insertion() {
        let n = 40;
        let mut m = TriangularBitMatrix::new(n);
        let mut fresh = 0;
        for u in 0..n {
            for v in 0..=u {
                if m.insert(u, v) {
                    fresh += 1;
                }
            }
        }
        assert_eq!(fresh, n * (n + 1) / 2);
        for u in 0..n {
            for v in 0..n {
                assert!(m.contains(u, v));
            }
        }
    }
}
