//! Union-find (disjoint set union) with path halving and union by size.
//! Used by the graph generator's bottleneck computation (the union of the
//! short pairs and the Kruskal tail that finishes it), the sequential
//! Kruskal baseline, and the local phase of the parallel MST.

/// Disjoint-set forest over `0..n`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets remaining.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Size of `x`'s set.
    pub fn set_size(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        self.size[r as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unions_reduce_component_count() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.components(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0), "repeat union is a no-op");
        assert_eq!(uf.components(), 3);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
        assert!(uf.union(1, 3));
        assert!(uf.connected(0, 2));
        assert_eq!(uf.set_size(3), 4);
        assert_eq!(uf.set_size(4), 1);
    }

    #[test]
    fn long_chain_flattens() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 1..n as u32 {
            uf.union(i - 1, i);
        }
        assert_eq!(uf.components(), 1);
        for i in 0..n as u32 {
            assert_eq!(uf.find(i), uf.find(0));
        }
    }
}
