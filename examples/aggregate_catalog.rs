//! The full aggregate catalogue of the paper's Section 5, side by side —
//! on the real node.
//!
//! For each aggregate the event simulator runs 1500 [`GossipNode`]s (the
//! sans-io state machine every wire runtime embeds) over gossiped NEWSCAST
//! for two epochs and compares what the nodes reported for the second one
//! against the exact value computed centrally — demonstrating that
//! AVERAGE, MIN, MAX, COUNT, SUM, VARIANCE, GEOMETRIC MEAN and PRODUCT are
//! all the same protocol with different update functions and compositions.
//! Nothing about the practical protocol is idealized: COUNT leaders
//! self-elect at `P_lead = C/N̂`, epochs restart and synchronize
//! epidemically, messages are delayed and exchanges time out.
//!
//! The run is a check, not a printout: an aggregate whose relative error
//! exceeds its bound fails the process.
//!
//! Run with: `cargo run --release --example aggregate_catalog`
//!
//! [`GossipNode`]: epidemic::aggregation::node::GossipNode

use epidemic::aggregation::{AggregateKind, NodeConfig};
use epidemic::common::rng::Xoshiro256;
use epidemic::common::stats;
use epidemic::sim::event::EventConfig;
use epidemic::sim::scenario::{OverlaySpec, Scenario, ValueInit};
use std::process::ExitCode;

const N: usize = 1_500;
const GAMMA: u32 = 30;
const CYCLE: u64 = 1_000;
const SEED: u64 = 7;

/// Largest acceptable relative error of the mean reported estimate.
fn bound(kind: AggregateKind) -> f64 {
    match kind {
        // An extreme spreads like a broadcast: every node holds it exactly
        // (the slack is the rounding of the mean over the reports).
        AggregateKind::Minimum | AggregateKind::Maximum => 1e-12,
        AggregateKind::Average | AggregateKind::Variance | AggregateKind::GeometricMean => 0.01,
        // A Poisson number of self-elected leaders adds its own noise.
        AggregateKind::Count => 0.10,
        AggregateKind::Sum => 0.15,
        // geomean^count: the COUNT error sits in the exponent.
        AggregateKind::Product => 0.25,
    }
}

fn main() -> ExitCode {
    println!("aggregate       |   gossip estimate |       exact value | rel. error | reporting");
    println!("----------------+-------------------+-------------------+------------+----------");
    let mut missed = 0;
    for kind in AggregateKind::ALL {
        // Positive values so the geometric family is defined. PRODUCT
        // gets values near 1 — the product of 1500 values only fits in
        // an f64 when the geometric mean is close to 1 (a real
        // deployment would report the log-product instead).
        let hi = if kind == AggregateKind::Product {
            1.01
        } else {
            3.0
        };
        let mut node = NodeConfig::builder();
        node.gamma(GAMMA).cycle_length(CYCLE).timeout(200);
        for spec in kind.instances(15.0) {
            node.instance(spec);
        }
        let scenario = Scenario {
            n: N,
            overlay: OverlaySpec::Newscast { c: 30 },
            values: ValueInit::Uniform { lo: 1.0, hi },
            ..Scenario::default()
        };
        // The local values are the scenario stream's first draw.
        let values = scenario
            .values
            .materialize(N, &mut Xoshiro256::seed_from_u64(SEED));
        let exact = kind.compute_exact(&values).unwrap_or(f64::NAN);
        // Epoch 0 calibrates every node's size estimate N̂ for the
        // composed aggregates (SUM, PRODUCT); epoch 1 is measured. Its
        // reports land when the nodes cross into epoch 2.
        let outcome = EventConfig {
            scenario,
            node: node.build().expect("catalogue config is valid"),
            duration: u64::from(2 * GAMMA + 2) * CYCLE,
            ..EventConfig::default()
        }
        .run(SEED);
        let estimates: Vec<f64> = outcome
            .reports
            .iter()
            .flatten()
            .filter(|report| report.epoch == 1)
            .filter_map(|report| kind.extract(report, 0))
            .filter(|estimate| estimate.is_finite())
            .collect();
        let estimate = if estimates.is_empty() {
            f64::NAN
        } else {
            stats::mean(&estimates)
        };
        let rel = ((estimate - exact) / exact).abs();
        // NaN (nobody reported) misses every bound.
        let ok = rel <= bound(kind);
        missed += usize::from(!ok);
        println!(
            "{:<15} | {:>17.6} | {:>17.6} | {:>9.4}% | {:>4}/{N}{}",
            kind.to_string(),
            estimate,
            exact,
            rel * 100.0,
            estimates.len(),
            if ok { "" } else { "  <-- outside bound" },
        );
    }
    println!("\n(each line = two epochs of {N} gossip nodes over NEWSCAST; the estimate is");
    println!(" the mean of what the nodes that completed epoch 1 reported for it)");
    if missed > 0 {
        eprintln!("{missed} aggregate(s) outside their error bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
