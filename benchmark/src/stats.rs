//! Order statistics over timing samples.

/// Sort a sample in place (timings are never NaN).
fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the sample at or below it. With fewer than `100 / (100 - p)`
/// samples this is the maximum.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p));
    let mut v = values.to_vec();
    sort(&mut v);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Too few samples to support p95: the maximum.
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 95.0), 5.0);
        // 600 samples, as the point-query workload produces.
        let w: Vec<f64> = (1..=600).map(f64::from).collect();
        assert_eq!(percentile(&w, 95.0), 570.0);
    }
}
