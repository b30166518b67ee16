//! Order statistics over samples.

/// Nearest-rank percentile (`p` in `0..=100`) of unsorted samples; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}
