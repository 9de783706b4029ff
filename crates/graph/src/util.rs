//! Small utilities shared by the graph algorithms.

use std::cmp::{Ordering, Reverse};

/// An `f64` with a total order, for use as a priority-queue key. The graph
/// algorithms never produce NaN weights or distances; comparing an
/// [`OrdF64`] holding NaN panics in debug builds.
///
/// [`OrdF64`] and [`MinEntry`] order only the sequential baselines in
/// [`crate::seq`]. The tests and the benchmark's oracles check the BSP
/// algorithms against those baselines, so the BSP algorithms order by the
/// integer keys below instead and share no ordering code with them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        debug_assert!(!self.0.is_nan() && !other.0.is_nan());
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

/// A min-heap entry `(distance, payload)`: the standard library heap is a
/// max-heap, so the ordering is reversed here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MinEntry<T: Eq> {
    /// Priority (smaller pops first).
    pub dist: OrdF64,
    /// Payload.
    pub item: T,
}

impl<T: Eq + Ord> PartialOrd for MinEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Eq + Ord> Ord for MinEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap behaviour; tie-break on payload for
        // determinism.
        other
            .dist
            .cmp(&self.dist)
            .then_with(|| other.item.cmp(&self.item))
    }
}

/// Heap key of the BSP shortest-path heaps: pops the smallest `dist` first,
/// ties to the smaller `lid`, as [`MinEntry`] does. For `dist ≥ +0.0` (not
/// NaN) `to_bits` orders as the value does, so one packed integer,
/// `bits << 32 | lid`, orders as the pair; `f64::from_bits(key >> 32)` and
/// `key as u32` recover them.
#[inline]
pub(crate) fn heap_key(dist: f64, lid: u32) -> Reverse<u128> {
    debug_assert!(dist.is_sign_positive() && !dist.is_nan(), "heap key {dist}");
    Reverse((dist.to_bits() as u128) << 32 | lid as u128)
}

/// Sort key of an mst edge `(weight, a, b)`: by weight, then `a`, then `b`,
/// with the weight's bits standing in for it as in [`heap_key`]. mst's
/// mixed phase sorts by the whole key (its endpoints are global labels);
/// the local phase by the weight bits, ties by its endpoints' global ids.
#[inline]
pub(crate) fn edge_key(&(w, a, b): &(f64, u32, u32)) -> (u64, u32, u32) {
    debug_assert!(w.is_sign_positive() && !w.is_nan(), "edge key {w}");
    (w.to_bits(), a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn ord_f64_total_order() {
        let mut v = [OrdF64(3.0), OrdF64(-1.0), OrdF64(0.0), OrdF64(2.5)];
        v.sort();
        assert_eq!(
            v.iter().map(|x| x.0).collect::<Vec<_>>(),
            vec![-1.0, 0.0, 2.5, 3.0]
        );
    }

    #[test]
    fn min_entry_pops_smallest_first() {
        let mut h = BinaryHeap::new();
        for (d, i) in [(3.0, 1u32), (1.0, 2), (2.0, 3)] {
            h.push(MinEntry {
                dist: OrdF64(d),
                item: i,
            });
        }
        assert_eq!(h.pop().unwrap().item, 2);
        assert_eq!(h.pop().unwrap().item, 3);
        assert_eq!(h.pop().unwrap().item, 1);
    }

    #[test]
    fn ties_break_on_payload() {
        let mut h = BinaryHeap::new();
        h.push(MinEntry {
            dist: OrdF64(1.0),
            item: 9u32,
        });
        h.push(MinEntry {
            dist: OrdF64(1.0),
            item: 2u32,
        });
        assert_eq!(h.pop().unwrap().item, 2, "smaller payload first on ties");
    }

    /// Values the keys must order like `partial_cmp`: zero, subnormals,
    /// ordinary and large magnitudes, infinity, each appearing repeatedly.
    const VALUES: [f64; 8] = [
        0.0,
        f64::from_bits(1),
        2.2e-308,
        0.5,
        0.5000000000000001,
        1.0,
        1.7e308,
        f64::INFINITY,
    ];

    /// A fixed scramble of `len` `(value, id, id)` triples with many ties.
    fn scrambled(len: u32) -> Vec<(f64, u32, u32)> {
        (0..len)
            .map(|i| {
                let r = i.wrapping_mul(2_654_435_761).rotate_left(13);
                (VALUES[(r % 8) as usize], (r >> 3) % 7, (r >> 6) % 5)
            })
            .collect()
    }

    #[test]
    fn heap_key_pops_the_min_entry_sequence() {
        let mut keyed = BinaryHeap::new();
        let mut entries = BinaryHeap::new();
        for (d, lid, _) in scrambled(200) {
            keyed.push(heap_key(d, lid));
            entries.push(MinEntry {
                dist: OrdF64(d),
                item: lid,
            });
        }
        while let Some(MinEntry {
            dist: OrdF64(d),
            item,
        }) = entries.pop()
        {
            let Reverse(key) = keyed.pop().expect("same length");
            assert_eq!(((key >> 32) as u64, key as u32), (d.to_bits(), item));
        }
        assert!(keyed.is_empty());
    }

    #[test]
    fn edge_key_sort_equals_the_comparator_sort() {
        let mut keyed = scrambled(200);
        let mut compared = keyed.clone();
        keyed.sort_unstable_by_key(edge_key);
        compared.sort_by(|x, y| {
            x.0.partial_cmp(&y.0)
                .unwrap()
                .then(x.1.cmp(&y.1))
                .then(x.2.cmp(&y.2))
        });
        let bits = |v: &[(f64, u32, u32)]| -> Vec<(u64, u32, u32)> {
            v.iter().map(|&(w, a, b)| (w.to_bits(), a, b)).collect()
        };
        assert_eq!(bits(&keyed), bits(&compared));
    }
}
