//! End-to-end benchmarks: one full 30-cycle COUNT epoch over NEWSCAST —
//! the workload behind every robustness figure — plus the event-driven
//! engine's queue-bound inner loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use epidemic_aggregation::{InstanceSpec, NodeConfig};
use epidemic_sim::event::EventConfig;
use epidemic_sim::experiment::{AggregateSetup, ExperimentConfig};
use epidemic_sim::failure::{CommFailure, FailureModel};
use epidemic_sim::scenario::{OverlaySpec, Scenario, ValueInit};

fn bench_full_epoch(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_epoch");
    group.sample_size(10);
    for n in [1_000usize, 10_000] {
        group.throughput(Throughput::Elements(n as u64 * 30));
        group.bench_with_input(BenchmarkId::new("count_newscast", n), &n, |b, &n| {
            let config = ExperimentConfig {
                scenario: Scenario {
                    n,
                    overlay: OverlaySpec::Newscast { c: 30 },
                    values: ValueInit::Constant(0.0),
                    ..Scenario::default()
                },
                cycles: 30,
                aggregate: AggregateSetup::CountPeak,
            };
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                config.run(seed)
            });
        });
        group.bench_with_input(BenchmarkId::new("average_complete", n), &n, |b, &n| {
            let config = ExperimentConfig {
                scenario: Scenario {
                    n,
                    overlay: OverlaySpec::Complete,
                    values: ValueInit::Peak { total: n as f64 },
                    ..Scenario::default()
                },
                cycles: 30,
                aggregate: AggregateSetup::Average,
            };
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                config.run(seed)
            });
        });
    }
    group.finish();
}

fn bench_event_epoch(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_epoch");
    group.sample_size(10);
    for n in [64usize, 512] {
        // ~40 cycles of gamma=15 epochs: the hottest loop in the repo is
        // the event queue push/pop under message delay, loss, and drift.
        let node = NodeConfig::builder()
            .gamma(15)
            .cycle_length(1_000)
            .timeout(200)
            .instance(InstanceSpec::AVERAGE)
            .build()
            .unwrap();
        group.throughput(Throughput::Elements(40 * n as u64));
        group.bench_with_input(BenchmarkId::new("complete_lossy", n), &n, |b, &n| {
            let config = EventConfig {
                scenario: Scenario {
                    n,
                    values: ValueInit::Linear,
                    comm: CommFailure::messages(0.05),
                    ..Scenario::default()
                },
                node: node.clone(),
                delay: (10, 50),
                drift: 0.02,
                duration: 40_000,
                ..EventConfig::default()
            };
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                config.run(seed)
            });
        });
    }
    // The ledger's `sim_churn` in miniature: gossiped NEWSCAST under churn
    // puts the membership exchange path (view merges, delta bookkeeping)
    // on the queue next to the aggregation traffic.
    let n = 512usize;
    group.throughput(Throughput::Elements(40 * n as u64));
    group.bench_with_input(BenchmarkId::new("newscast_churn", n), &n, |b, &n| {
        let config = EventConfig {
            scenario: Scenario {
                n,
                overlay: OverlaySpec::Newscast { c: 30 },
                values: ValueInit::Linear,
                failure: FailureModel::Churn { per_cycle: 2 },
                comm: CommFailure::messages(0.01),
                ..Scenario::default()
            },
            delay: (10, 50),
            drift: 0.01,
            duration: 40_000,
            ..EventConfig::default()
        };
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            config.run(seed)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_full_epoch, bench_event_epoch);
criterion_main!(benches);
