//! Deterministic pseudo-random numbers, dependency-free.
//!
//! Everything in this workspace that needs randomness — graph generators,
//! the deterministic simulation transport's scheduler and fault injector,
//! the property-test drivers — must be *reproducible from a seed*: the
//! whole point of a seeded schedule explorer is that a failing seed can be
//! replayed bit-for-bit. A tiny local generator gives us that without an
//! external crate, and guarantees the stream never changes under us the
//! way a third-party `rand` upgrade could.
//!
//! The core is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a 64-bit
//! state advanced by a Weyl constant and finalized with a murmur-style
//! mixer. It passes BigCrush, is trivially seedable from any `u64`
//! (including 0), and every call advances the state by a constant, so
//! streams can be split deterministically with [`SmallRng::split`].

/// A small, fast, seedable PRNG (SplitMix64). Not cryptographic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    state: u64,
}

const WEYL: u64 = 0x9E37_79B9_7F4A_7C15;

impl SmallRng {
    /// Deterministic generator for `seed` (any value, including 0).
    pub fn seed_from_u64(seed: u64) -> Self {
        SmallRng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(WEYL);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A derived, statistically independent generator. Splitting then
    /// drawing is deterministic: the child stream depends only on the
    /// parent's state at the split point.
    pub fn split(&mut self) -> SmallRng {
        SmallRng::seed_from_u64(self.next_u64())
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Modulo reduction has bias ≤ `bound / 2^64` — irrelevant for
    /// scheduling and test-case generation, which is all we use it for.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below(0)");
        self.next_u64() % bound
    }

    /// Uniform value in the closed range `[lo, hi]`.
    pub fn gen_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "inverted range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.gen_below(hi - lo + 1)
    }

    /// Uniform `i64` in the half-open range `[lo, hi)`.
    pub fn gen_range_i64(&mut self, range: std::ops::Range<i64>) -> i64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add(self.gen_below(span) as i64)
    }

    /// Uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// A uniformly chosen element of `xs` (`None` when empty).
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.gen_below(xs.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        assert!((0..10).any(|_| a.next_u64() != b.next_u64()));
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = SmallRng::seed_from_u64(0);
        let xs: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert!(xs.iter().any(|&x| x != 0));
        assert_eq!(xs.len(), 4);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let w = r.gen_range_i64(-5..5);
            assert!((-5..5).contains(&w));
            let u = r.gen_inclusive(2, 2);
            assert_eq!(u, 2);
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bool_probability_edges() {
        let mut r = SmallRng::seed_from_u64(3);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
        // p = 0.5 produces both outcomes over a reasonable sample.
        let flips: Vec<bool> = (0..64).map(|_| r.gen_bool(0.5)).collect();
        assert!(flips.iter().any(|&b| b) && flips.iter().any(|&b| !b));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SmallRng::seed_from_u64(9);
        let mut xs: Vec<u64> = (0..20).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let mut a = SmallRng::seed_from_u64(11);
        let mut b = SmallRng::seed_from_u64(11);
        let mut ca = a.split();
        let mut cb = b.split();
        assert_eq!(ca.next_u64(), cb.next_u64());
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
