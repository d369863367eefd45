//! Medians and percentiles that refuse to overstate their sample.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `sorted` (ascending) by nearest
/// rank, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it:
/// a p99 of 200 samples is two samples wide and is not a p99.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must be inside (0, 1)");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    let beyond = sorted.len().checked_sub(rank)?;
    if rank == 0 || beyond < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Sorts ascending; the benchmark never produces NaN samples.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// A percentile of a log₂-bucketed histogram delta (`after - before`),
/// reported as the upper bound of the bucket it falls in.
pub fn bucket_percentile(before: &[u64], after: &[u64], q: f64) -> Option<f64> {
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let total: u64 = delta.iter().sum();
    let rank = (q * total as f64).ceil() as u64;
    if rank == 0 || total - rank < MIN_BEYOND as u64 {
        return None;
    }
    let mut seen = 0;
    for (index, count) in delta.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return Some(epidemic_telemetry::bucket_bounds(index).1 as f64);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(500.0));
        assert_eq!(percentile(&sorted, 0.99), Some(990.0));
        // 1,000 samples leave exactly one beyond p99.9.
        assert_eq!(percentile(&sorted, 0.999), None);
        assert_eq!(percentile(&sorted[..19], 0.5), None);
        assert_eq!(percentile(&sorted[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn bucket_percentile_reads_the_delta_only() {
        let mut before = [0u64; 65];
        let mut after = [0u64; 65];
        before[3] = 1_000; // history the window must not see
        after[3] = 1_000;
        after[0] = 900; // 900 samples of 0
        after[11] = 100; // 100 samples in [1024, 2047]
        assert_eq!(bucket_percentile(&before, &after, 0.5), Some(0.0));
        assert_eq!(bucket_percentile(&before, &after, 0.95), Some(2047.0));
        assert_eq!(bucket_percentile(&before, &before, 0.5), None);
    }
}
