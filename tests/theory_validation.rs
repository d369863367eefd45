//! Cross-crate validation of the paper's analytical claims (Sections 3,
//! 4.5 and 6) against simulation.

use epidemic::aggregation::theory;
use epidemic::common::stats;
use epidemic::sim::event::{run_many as run_many_events, EventConfig, MembershipModel};
use epidemic::sim::experiment::{run_many, AggregateSetup, ExperimentConfig};
use epidemic::sim::metrics::{convergence_factor, exchange_moments, per_cycle_factors};
use epidemic::sim::scenario::{OverlaySpec, Scenario, ValueInit};

fn average_peak(n: usize) -> ExperimentConfig {
    ExperimentConfig {
        scenario: Scenario {
            n,
            overlay: OverlaySpec::Complete,
            values: ValueInit::Peak { total: n as f64 },
            ..Scenario::default()
        },
        cycles: 20,
        aggregate: AggregateSetup::Average,
    }
}

#[test]
fn rho_matches_one_over_two_sqrt_e() {
    let seeds: Vec<u64> = (0..10).collect();
    let outcomes = run_many(&average_peak(20_000), &seeds);
    let factors: Vec<f64> = outcomes.iter().map(|o| o.convergence_factor(20)).collect();
    let mean = stats::mean(&factors);
    assert!(
        (mean - theory::RHO_PUSH_PULL).abs() < 0.01,
        "measured rho {mean} vs theory {}",
        theory::RHO_PUSH_PULL
    );
}

#[test]
fn rho_is_independent_of_network_size() {
    // The O(1)-time claim: the factor does not change with N.
    let mut factors = Vec::new();
    for n in [1_000usize, 10_000, 50_000] {
        let out = average_peak(n).run(3);
        factors.push(out.convergence_factor(20));
    }
    let spread = factors.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - factors.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(spread < 0.03, "rho varies with N: {factors:?}");
}

#[test]
fn per_cycle_factor_is_constant_on_random_overlays() {
    // Fig. 3(b)'s "straight line on log scale": every cycle reduces the
    // variance by the same factor (after the first couple of cycles).
    let out = average_peak(20_000).run(4);
    let factors = per_cycle_factors(&out.variance);
    for (i, &f) in factors.iter().enumerate().take(15).skip(2) {
        assert!(
            (f - theory::RHO_PUSH_PULL).abs() < 0.12,
            "cycle {i}: factor {f} far from constant"
        );
    }
}

#[test]
fn gamma_from_cycles_for_accuracy_is_sufficient() {
    // Pick epsilon, derive gamma, run gamma cycles, check accuracy.
    let epsilon = 1e-8;
    let gamma = theory::cycles_for_accuracy(epsilon, theory::RHO_PUSH_PULL);
    let config = ExperimentConfig {
        cycles: gamma,
        ..average_peak(10_000)
    };
    let seeds: Vec<u64> = (0..5).collect();
    for out in run_many(&config, &seeds) {
        let achieved = out.variance[gamma as usize] / out.variance[0];
        // Statistical fluctuation allows a small factor above epsilon.
        assert!(
            achieved < epsilon * 30.0,
            "gamma={gamma} left variance ratio {achieved:.3e}"
        );
    }
}

#[test]
fn exchange_count_moments_match_poisson() {
    use epidemic::aggregation::rule::Rule;
    use epidemic::common::rng::Xoshiro256;
    use epidemic::sim::network::{CycleOptions, Network};
    use epidemic::topology::CompleteSampler;

    let n = 30_000;
    let mut net = Network::new(n);
    net.add_scalar_field(Rule::Average, |_| 0.0);
    net.enable_tally();
    let sampler = CompleteSampler::new(n);
    let mut rng = Xoshiro256::seed_from_u64(5);
    net.run_cycle(&sampler, CycleOptions::default(), &mut rng);
    let tally = net.take_tally();
    let (mean, variance) = exchange_moments(&tally);
    assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    assert!((variance - 1.0).abs() < 0.08, "variance {variance}");
}

#[test]
fn convergence_factor_helper_consistency() {
    let out = average_peak(5_000).run(6);
    let direct = out.convergence_factor(20);
    let helper = convergence_factor(out.variance[0], out.variance[20], 20);
    assert!((direct - helper).abs() < 1e-12);
}

#[test]
fn link_failure_behaves_like_slowdown() {
    // Section 6.2: P_d > 0 is "the same system, slower". Verify that the
    // variance after k cycles at P_d=0.5 is comparable to the variance
    // after ~k/2 cycles without failures.
    let clean = average_peak(10_000).run(7);
    let mut lossy_cfg = average_peak(10_000);
    lossy_cfg.scenario.comm = epidemic::sim::failure::CommFailure::links(0.5);
    let lossy = lossy_cfg.run(7);
    let clean_at_10 = clean.variance[10] / clean.variance[0];
    let lossy_at_20 = lossy.variance[20] / lossy.variance[0];
    let ratio = lossy_at_20.ln() / clean_at_10.ln();
    assert!(
        (0.6..1.6).contains(&ratio),
        "half-speed equivalence violated: ratio {ratio}"
    );
}

/// `epoch.variance_reduction_rho` of an event run over NEWSCAST (c = 30),
/// lossless and without churn, under `membership`: 1,000 nodes, γ = 15,
/// two whole epochs (every node reports epoch 1 before the run stops and
/// none reports epoch 2), so the gauge is epoch 1's ρ over all nodes.
fn newscast_rho(membership: MembershipModel, seeds: &[u64]) -> Vec<f64> {
    let config = EventConfig {
        scenario: Scenario {
            n: 1_000,
            overlay: OverlaySpec::Newscast { c: 30 },
            values: ValueInit::Uniform { lo: 0.0, hi: 2.0 },
            ..Scenario::default()
        },
        duration: 30_000,
        membership,
        ..EventConfig::default()
    };
    run_many_events(&config, seeds)
        .iter()
        .map(|out| {
            out.registry
                .gauge_value("epoch.variance_reduction_rho")
                .expect("no epoch reported")
        })
        .collect()
}

#[test]
fn gossiped_newscast_mixes_like_uniform_sampling() {
    // The theory assumes GETNEIGHBOR() samples uniformly; the idealized
    // model does exactly that, the gossiped model draws from each node's
    // partial view. The partner choice must not move the per-cycle
    // variance reduction by more than 10 % on the same seeds. Over ten
    // groups of four seeds (1..=40) the gossiped/idealized ratio of the
    // group means spread over 1.022–1.047 (ρ ≈ 0.320–0.325 against
    // 0.308–0.315) with view exchanges on their own timer, and over
    // 1.024–1.049 with view requests riding the aggregation exchanges, so
    // the band needs no widening. Sending the view request to the
    // exchange's own partner read 1.29 on seeds 1–4 (ρ 0.401).
    let seeds = [1, 2, 3, 4];
    let gossiped = stats::mean(&newscast_rho(MembershipModel::Gossip, &seeds));
    let idealized = stats::mean(&newscast_rho(MembershipModel::Idealized, &seeds));
    assert!(
        (gossiped / idealized - 1.0).abs() <= 0.10,
        "gossiped rho {gossiped:.4} vs idealized {idealized:.4}"
    );
}
