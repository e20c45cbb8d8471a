//! Order statistics for the report.

/// Percentile `p` (0..=100) of `values`, linear between closest ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// A timing's sample count, median, and the highest of p50/p90/p99/p99.9
/// that has at least ten samples beyond it (`None` below 20 samples).
pub fn summary(values: &[f64]) -> serde_json::Value {
    if values.is_empty() {
        return serde_json::json!({ "n": 0 });
    }
    let n = values.len() as f64;
    let tail = [99.9, 99.0, 90.0, 50.0].into_iter().find(|p| n * (100.0 - p) / 100.0 >= 10.0);
    serde_json::json!({
        "n": values.len(),
        "median": median(values),
        "min": percentile(values, 0.0),
        "max": percentile(values, 100.0),
        "tail": tail.map(|p| serde_json::json!({ "p": p, "value": percentile(values, p) })),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_tail_needs_ten_beyond() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(summary(&few)["tail"].is_null());
        let many: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(summary(&many)["tail"]["p"], 90.0);
    }
}
