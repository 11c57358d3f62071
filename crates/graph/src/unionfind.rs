//! Disjoint-set (union-find) data structure with path compression and union by rank.

/// Union-find over elements `0..n`.
///
/// Parents are stored as `u32` and ranks as `u8`, which halves the memory
/// traffic of a `usize` parent array on the CSR hot path; the API stays in
/// `usize`. The universe must fit in `u32` (the ingest cap is 2^24 vertices).
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    num_sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32` indexing.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "UnionFind universe exceeds u32");
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            num_sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently maintained.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Representative of the set containing `x` (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x as u32;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x as u32;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root as usize
    }

    /// Merges the sets containing `x` and `y`. Returns `true` if they were distinct.
    pub fn union(&mut self, x: usize, y: usize) -> bool {
        let (rx, ry) = (self.find(x), self.find(y));
        if rx == ry {
            return false;
        }
        let (hi, lo) = if self.rank[rx] >= self.rank[ry] {
            (rx, ry)
        } else {
            (ry, rx)
        };
        self.parent[lo] = hi as u32;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.num_sets -= 1;
        true
    }

    /// Returns `true` if `x` and `y` are in the same set.
    pub fn connected(&mut self, x: usize, y: usize) -> bool {
        self.find(x) == self.find(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.num_sets(), 4);
        for i in 0..4 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_reduces_set_count() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.num_sets(), 3);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
    }

    #[test]
    fn transitive_connectivity() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(3, 4);
        assert!(uf.connected(0, 2));
        assert!(uf.connected(4, 3));
        assert!(!uf.connected(2, 3));
        uf.union(2, 3);
        assert!(uf.connected(0, 4));
        assert_eq!(uf.num_sets(), 2);
    }

    #[test]
    fn empty_union_find() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.num_sets(), 0);
    }

    #[test]
    fn chain_path_compression() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.num_sets(), 1);
        let r = uf.find(0);
        for i in 0..100 {
            assert_eq!(uf.find(i), r);
        }
    }
}
