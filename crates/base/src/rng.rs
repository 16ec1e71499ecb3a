//! Deterministic pseudo-random number generation.
//!
//! Every stochastic choice in the simulator (workload address streams,
//! branch outcome patterns, layout randomization) flows through [`SimRng`],
//! an xoshiro256++ generator seeded from a single `u64` via SplitMix64.
//! Two runs with the same [`crate::MachineConfig::seed`] therefore produce
//! bit-identical results, which the integration tests rely on.

/// A small, fast, deterministic PRNG (xoshiro256++).
///
/// Not cryptographically secure; the simulator only needs statistical
/// quality and reproducibility.
///
/// # Examples
///
/// ```
/// use pl_base::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.gen_range(10..20);
/// assert!((10..20).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a seed. Any seed (including zero) produces
    /// a full-quality stream because the state is expanded via SplitMix64.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[range.start, range.end)`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(
            range.start < range.end,
            "gen_range requires a nonempty range"
        );
        let span = range.end - range.start;
        // Lemire's method: rejection-sample the biased zone.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(span as u128);
        let mut low = m as u64;
        if low < span {
            let threshold = span.wrapping_neg() % span;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(span as u128);
                low = m as u64;
            }
        }
        range.start + (m >> 64) as u64
    }

    /// Returns a uniformly distributed `usize` below `bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(0..bound as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    ///
    /// # Examples
    ///
    /// ```
    /// use pl_base::SimRng;
    /// let mut rng = SimRng::new(7);
    /// assert!(!rng.gen_bool(0.0));
    /// assert!(rng.gen_bool(1.0));
    /// ```
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Forks an independent generator deterministically derived from this
    /// one; useful for giving each core or workload its own stream.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut rng = SimRng::new(0);
        let x = rng.next_u64();
        let y = rng.next_u64();
        assert_ne!(x, 0);
        assert_ne!(x, y);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SimRng::new(9);
        for _ in 0..1000 {
            let v = rng.gen_range(100..110);
            assert!((100..110).contains(&v));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = SimRng::new(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_range_panics() {
        SimRng::new(0).gen_range(5..5);
    }

    #[test]
    fn gen_bool_probability_roughly_holds() {
        let mut rng = SimRng::new(77);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(3);
        let mut v: Vec<u32> = (0..32).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(v, sorted, "32-element shuffle should not be identity");
    }

    #[test]
    fn fork_produces_independent_deterministic_streams() {
        let mut parent1 = SimRng::new(42);
        let mut parent2 = SimRng::new(42);
        let mut child1 = parent1.fork();
        let mut child2 = parent2.fork();
        assert_eq!(child1.next_u64(), child2.next_u64());
        assert_ne!(child1.next_u64(), parent1.next_u64());
    }
}
