//! Registry concurrency and histogram bucket-boundary properties.

use epidemic_telemetry::{bucket_bounds, bucket_index, Registry};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Eight writer threads hammer one counter, one gauge, and one histogram
/// while a reader snapshots continuously: counter reads and histogram
/// totals must be monotone, gauge reads must never tear (every read is a
/// value some thread actually wrote), and the final totals must be exact.
#[test]
fn registry_is_consistent_under_8_thread_hammering() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 50_000;
    let registry = Registry::new();
    let counter = registry.counter("hammer.counter");
    let gauge = registry.gauge("hammer.gauge");
    let histogram = registry.histogram("hammer.histogram");
    let stop = Arc::new(AtomicBool::new(false));

    let reader = {
        let counter = counter.clone();
        let gauge = gauge.clone();
        let histogram = histogram.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = 0u64;
            let mut last_count = 0u64;
            let mut snapshots = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let now = counter.get();
                assert!(now >= last, "counter went backwards: {last} -> {now}");
                last = now;
                let g = gauge.get();
                assert!(
                    g == 0.0 || (1.0..=f64::from(u32::MAX)).contains(&g),
                    "torn gauge read: {g}"
                );
                // The histogram count is derived from its buckets, each
                // read on its own while the writers run: two snapshots
                // need not agree, but buckets only grow, so a later
                // snapshot never totals less than an earlier one.
                let before = histogram.count();
                let buckets: u64 = histogram.bucket_counts().iter().sum();
                let after = histogram.count();
                assert!(
                    last_count <= before && before <= buckets && buckets <= after,
                    "histogram shrank: {last_count}, {before}, {buckets}, {after}"
                );
                last_count = after;
                snapshots += 1;
            }
            snapshots
        })
    };

    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let counter = counter.clone();
            let gauge = gauge.clone();
            let histogram = histogram.clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    gauge.set((t * PER_THREAD + i + 1) as f64);
                    histogram.record(i % 1024);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let snapshots = reader.join().unwrap();
    assert!(snapshots > 0, "reader never snapshotted");

    assert_eq!(counter.get(), THREADS * PER_THREAD);
    assert_eq!(histogram.count(), THREADS * PER_THREAD);
    let per_thread_sum: u64 = (0..PER_THREAD).map(|i| i % 1024).sum();
    assert_eq!(histogram.sum(), THREADS * per_thread_sum);
    // Registering the same series again sees the same cells.
    assert_eq!(
        registry.counter_value("hammer.counter"),
        THREADS * PER_THREAD
    );
}

proptest! {
    /// Every u64 lands in exactly one bucket, and that bucket's bounds
    /// contain it.
    #[test]
    fn histogram_bucket_bounds_contain_their_values(value in any::<u64>()) {
        let idx = bucket_index(value);
        prop_assert!(idx < 65);
        let (lo, hi) = bucket_bounds(idx);
        prop_assert!(lo <= value && value <= hi, "{value} outside [{lo}, {hi}]");
        // Boundaries are exclusive between adjacent buckets.
        if lo > 0 {
            prop_assert_eq!(bucket_index(lo - 1), idx - 1);
        }
        if hi < u64::MAX {
            prop_assert_eq!(bucket_index(hi + 1), idx + 1);
        }
    }

    /// Recording any sample set yields count == Σ buckets and an exact sum.
    #[test]
    fn histogram_totals_match_recorded_samples(values in prop::collection::vec(any::<u32>(), 1..64)) {
        let registry = Registry::new();
        let histogram = registry.histogram("prop.histogram");
        let mut expected_sum = 0u64;
        for &v in &values {
            histogram.record(u64::from(v));
            expected_sum += u64::from(v);
        }
        prop_assert_eq!(histogram.count(), values.len() as u64);
        prop_assert_eq!(histogram.sum(), expected_sum);
        let counts = histogram.bucket_counts();
        for &v in &values {
            prop_assert!(counts[bucket_index(u64::from(v))] > 0);
        }
    }
}
