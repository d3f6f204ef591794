//! Order statistics over raw samples.
//!
//! Percentiles are nearest-rank over every sample, never read off a
//! bucketed histogram, and each one travels with the number of samples
//! it was taken from and the number that lie beyond it.

/// The median of `samples` (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty slice or a NaN sample: both are bugs in the caller.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A nearest-rank percentile with its sample accounting.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    /// The percentile's value.
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
    /// Samples strictly above its rank.
    pub beyond: usize,
}

/// The nearest-rank `p`th percentile (`0 < p <= 100`) of `samples`.
///
/// # Panics
///
/// On an empty slice, a NaN sample or `p` outside `(0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> Percentile {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let sorted = sorted(samples);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&samples, 90.0);
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.samples, 100);
        assert_eq!(p90.beyond, 10);
        let p50 = percentile(&samples[..3], 50.0);
        assert_eq!((p50.value, p50.beyond), (2.0, 1));
    }
}
