//! Mergeable log-bucketed histograms.
//!
//! Profiling a parallel run needs distribution shape — p50/p95/p99 round
//! latency, batch sizes, chunk service times — not just totals, and it
//! needs them *mergeable*: every worker records locally and the
//! coordinator folds the per-worker histograms into one without keeping
//! raw samples. [`Histogram`] uses power-of-two buckets (bucket `i ≥ 1`
//! covers `[2^(i-1), 2^i)`; bucket 0 is exactly the value 0), so `merge`
//! is element-wise addition and quantiles are conservative upper bounds
//! with at most one octave of error. Everything is integer arithmetic on
//! whatever unit the caller records (microseconds, virtual ticks, bytes),
//! so merged results are bit-deterministic for deterministic inputs.

/// Number of buckets: bucket 0 for zero, buckets 1..=63 for each octave.
pub const HIST_BUCKETS: usize = 64;

/// A fixed-size log-bucketed histogram of `u64` samples.
///
/// Unit-agnostic: callers record microseconds, virtual ticks, bytes or
/// counts; the histogram only assumes "non-negative integer". Two
/// histograms over the same unit merge by element-wise addition, which is
/// associative and commutative — the property tests in this module pin
/// that, because the runtime relies on it when folding per-worker
/// profiles in arbitrary completion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Sample count per bucket.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total number of recorded samples.
    pub count: u64,
    /// Saturating sum of all recorded samples.
    pub sum: u64,
    /// Smallest recorded sample (0 when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0u64; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

/// Bucket index for a value: 0 for 0, otherwise `floor(log2(v)) + 1`,
/// clamped into the table (the last bucket absorbs the top octave).
fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` — what `quantile` reports for a
/// rank that lands in that bucket.
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fold `other` into `self`: element-wise bucket addition plus
    /// combined count/sum/min/max. Associative and commutative.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (slot, &n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Conservative `q`-quantile (`0.0 ..= 1.0`): the inclusive upper
    /// bound of the bucket holding the sample of rank `ceil(q · count)`,
    /// clamped to the observed `max`. The result is never below the true
    /// quantile and overshoots by less than one octave (2×). Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based; q=0 means the first sample.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean of recorded samples, rounded down. 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Nonzero buckets as `(bucket_index, count)` pairs — the sparse
    /// representation used by the wire codec and the JSON export.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
    }

    /// Rebuild from the sparse representation plus scalar summary fields.
    /// Out-of-range bucket indices land in the last bucket (the decoder
    /// must never panic on adversarial input).
    pub fn from_sparse(pairs: &[(usize, u64)], count: u64, sum: u64, min: u64, max: u64) -> Self {
        let mut h = Histogram {
            count,
            sum,
            min,
            max,
            ..Default::default()
        };
        for &(i, n) in pairs {
            h.buckets[i.min(HIST_BUCKETS - 1)] += n;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    fn seeded_samples(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Mix magnitudes: small counts, mid-range, and an
                // occasional huge outlier, so every regime is exercised.
                match rng.next_u64() % 10 {
                    0 => 0,
                    1..=5 => rng.next_u64() % 100,
                    6..=8 => rng.next_u64() % 1_000_000,
                    _ => rng.next_u64(),
                }
            })
            .collect()
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        for i in 1..HIST_BUCKETS {
            assert_eq!(bucket_index(1u64 << (i - 1)), i, "lower bound of {i}");
            if i < 63 {
                assert_eq!(bucket_index(bucket_upper(i)), i, "upper bound of {i}");
            }
        }
    }

    #[test]
    fn record_tracks_summary_fields() {
        let mut h = Histogram::new();
        h.record(7);
        h.record(0);
        h.record(900);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 907);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 900);
        assert_eq!(h.mean(), 302);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    /// Quantile bound property on seeded inputs: the reported quantile is
    /// at least the true quantile and at most the upper bound of the true
    /// quantile's bucket (≤ one octave overshoot), clamped to max.
    #[test]
    fn quantile_bounds_on_seeded_inputs() {
        for seed in 0..20u64 {
            let samples = seeded_samples(seed, 500);
            let mut h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for &q in &[0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let truth = sorted[rank - 1];
                let est = h.quantile(q);
                assert!(
                    est >= truth,
                    "seed {seed} q {q}: estimate {est} below true {truth}"
                );
                let ceiling = bucket_upper(bucket_index(truth)).min(h.max);
                assert!(
                    est <= ceiling,
                    "seed {seed} q {q}: estimate {est} above bucket ceiling {ceiling}"
                );
            }
        }
    }

    /// Merge associativity on seeded inputs: (a ∪ b) ∪ c == a ∪ (b ∪ c),
    /// and merging in either order equals recording every sample into one
    /// histogram directly.
    #[test]
    fn merge_is_associative_and_commutative() {
        for seed in 0..20u64 {
            let parts: Vec<Vec<u64>> = (0..3)
                .map(|i| seeded_samples(seed * 3 + i, 200))
                .collect();
            let hist_of = |samples: &[u64]| {
                let mut h = Histogram::new();
                for &s in samples {
                    h.record(s);
                }
                h
            };
            let (a, b, c) = (hist_of(&parts[0]), hist_of(&parts[1]), hist_of(&parts[2]));

            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);

            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);

            let mut direct = Histogram::new();
            for part in &parts {
                for &s in part {
                    direct.record(s);
                }
            }

            let mut reversed = c.clone();
            reversed.merge(&b);
            reversed.merge(&a);

            assert_eq!(left, right, "seed {seed}: merge not associative");
            assert_eq!(left, direct, "seed {seed}: merge differs from direct recording");
            assert_eq!(left, reversed, "seed {seed}: merge not commutative");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Histogram::new();
        h.record(42);
        let snapshot = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, snapshot);
        let mut empty = Histogram::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn sparse_round_trip() {
        let mut h = Histogram::new();
        for v in [0, 1, 5, 5, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        let pairs: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        let back = Histogram::from_sparse(&pairs, h.count, h.sum, h.min, h.max);
        assert_eq!(h, back);
    }

    #[test]
    fn from_sparse_clamps_wild_indices() {
        let h = Histogram::from_sparse(&[(usize::MAX, 3)], 3, 9, 1, 5);
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 3);
    }
}
