//! The shared epoch-window estimator behind every embedding's
//! `epoch.variance_reduction_rho` and `epoch.estimate_drift` gauges.

use epidemic_aggregation::convergence::{observed_rho, EpochWindow};
use epidemic_aggregation::theory::RHO_PUSH_PULL;

#[test]
fn publishes_the_newest_epoch_with_at_least_two_estimates() {
    let mut window = EpochWindow::default();
    // One report has no spread to speak of.
    assert_eq!(window.observe(3, 10.0), None);
    let stats = window.observe(3, 14.0).expect("two estimates");
    assert_eq!((stats.count(), stats.spread()), (2, 4.0));
    assert_eq!(stats.population_variance(), 4.0);
    // A newer epoch's first report does not displace epoch 3 yet…
    assert_eq!(window.observe(4, 1.0).map(|s| s.spread()), Some(4.0));
    // …its second does, and a straggler for epoch 3 no longer shows.
    assert_eq!(window.observe(4, 1.5).map(|s| s.spread()), Some(0.5));
    assert_eq!(window.observe(3, 99.0).map(|s| s.spread()), Some(0.5));
}

#[test]
fn window_keeps_only_recent_epochs() {
    let mut window = EpochWindow::default();
    window.observe(1, 0.0);
    window.observe(1, 8.0);
    // Epoch 1 is still the newest with two estimates while it is inside
    // the window of the newest epoch seen…
    let newest_inside = 1 + EpochWindow::EPOCHS - 1;
    assert_eq!(
        window.observe(newest_inside, 5.0).map(|s| s.spread()),
        Some(8.0)
    );
    // …and is published one last time by the report that evicts it.
    assert_eq!(
        window.observe(newest_inside + 1, 5.0).map(|s| s.spread()),
        Some(8.0)
    );
    assert_eq!(window.observe(newest_inside + 2, 5.0), None);
    // A late report for the evicted epoch starts over from one estimate
    // and is itself dropped at once: state stays O(window).
    assert_eq!(window.observe(1, 3.0), None);
    assert_eq!(window.observe(1, 4.0), None);
}

#[test]
fn rho_needs_two_positive_variances() {
    // Eq. (3) backwards: var_E = ρ^γ · var_0 gives ρ back.
    let (var0, gamma) = (21.25, 20);
    let var_e = RHO_PUSH_PULL.powi(20) * var0;
    let rho = observed_rho(var0, var_e, gamma).expect("both positive");
    assert!((rho - RHO_PUSH_PULL).abs() < 1e-12, "rho {rho}");
    // Identical start values, or an epoch that converged to the last
    // bit, leave no ratio to take.
    assert_eq!(observed_rho(0.0, var_e, gamma), None);
    assert_eq!(observed_rho(var0, 0.0, gamma), None);
}
