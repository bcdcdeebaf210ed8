//! Order statistics over timing samples.

/// Nearest-rank percentile `p` (in `[0, 1]`) of `xs`: the smallest
/// sample with at least a share `p` of the samples at or below it.
/// `None` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// How many samples lie strictly beyond the nearest-rank percentile
/// position `p` — the count a percentile must have at least ten of
/// before it is worth reporting.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The median (nearest-rank p50); 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5).unwrap_or(0.0)
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
