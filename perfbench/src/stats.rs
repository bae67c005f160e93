//! Small statistics helpers shared by the workloads.

use std::collections::BTreeMap;

/// Named metric values of one run, in name order.
pub type Metrics = BTreeMap<String, f64>;

/// Nearest-rank percentile `p` (0..=100) of `values`; 0 for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `values`; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Mean of `values`; 0 for no values. Sums in sorted order, so the
/// result does not depend on the order threads recorded the values in.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.iter().sum::<f64>() / v.len() as f64
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn mean_does_not_depend_on_input_order() {
        let v = [0.1, 17.3, 1e-9, 3.3, 250.7, 0.7];
        let mut r = v;
        r.reverse();
        assert_eq!(mean(&v).to_bits(), mean(&r).to_bits());
        assert_eq!(mean(&[]), 0.0);
    }
}
