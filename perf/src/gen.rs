//! Seeded input generators owned by the benchmark: the key stream of the
//! sort, the payload pattern and the message-size order of the byte
//! exchange. (The apps' own generators — `plummer`, `geometric_graph`,
//! `Mat::random` — take the seed directly; see `apps.rs`.)

/// splitmix64: a full-period 64-bit generator, one multiply-xorshift per
/// value; the same stream for the same seed on every platform.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is irrelevant at the
    /// sizes shuffled here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// `n` pseudo-random `u64` sort keys.
pub fn keys(n: usize, seed: u64) -> Vec<u64> {
    let mut g = SplitMix::new(seed);
    (0..n).map(|_| g.next_u64()).collect()
}

/// `n` pseudo-random bytes (the payload pool messages are cut from).
pub fn bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut g = SplitMix::new(seed);
    let mut out = Vec::with_capacity(n + 8);
    while out.len() < n {
        out.extend_from_slice(&g.next_u64().to_le_bytes());
    }
    out.truncate(n);
    out
}

/// The message sizes of one superstep of the byte exchange: every
/// `(count, size)` class of `mix` expanded and shuffled by `seed`.
pub fn size_order(mix: &[(usize, usize)], seed: u64) -> Vec<u32> {
    let mut sizes: Vec<u32> = mix
        .iter()
        .flat_map(|&(count, size)| std::iter::repeat_n(size as u32, count))
        .collect();
    SplitMix::new(seed).shuffle(&mut sizes);
    sizes
}

/// Order-sensitive 64-bit digest step (the mixing the harness's result
/// digests use).
#[inline]
pub fn mix(acc: u64, bits: u64) -> u64 {
    (acc.rotate_left(21) ^ bits).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(keys(100, 7), keys(100, 7));
        assert_ne!(keys(100, 7), keys(100, 8));
        assert_eq!(bytes(33, 1).len(), 33);
        assert_eq!(bytes(33, 1), bytes(33, 1));
        let mix = [(5, 64), (3, 1024), (1, 65536)];
        let a = size_order(&mix, 3);
        assert_eq!(a, size_order(&mix, 3));
        assert_ne!(a, size_order(&mix, 4));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [64, 64, 64, 64, 64, 1024, 1024, 1024, 65536]);
    }
}
