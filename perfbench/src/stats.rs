//! Order statistics over timing samples.

/// The `p`-quantile (`0 < p <= 1`) by the nearest-rank rule: the
/// smallest sample with at least `p` of all samples at or below it.
/// 0 for no samples.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (nearest-rank, lower middle for even counts).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How many samples lie strictly above the `p`-quantile.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    let q = quantile(samples, p);
    samples.iter().filter(|&&s| s > q).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(beyond(&v, 0.95), 5);
    }
}
