//! Observed convergence — the empirical counterpart of [`crate::theory`].
//!
//! Every embedding sees the same stream: one `(epoch, estimate)` pair per
//! node per completed epoch, arriving in no particular order. Folding it
//! per epoch yields the two convergence-health figures the telemetry
//! plane exports: the spread of one epoch's estimates across nodes (the
//! drift of values that should all agree) and, against the variance the
//! epoch started from, the observed per-cycle reduction factor to hold
//! next to [`crate::theory::RHO_PUSH_PULL`].

use epidemic_common::stats::OnlineStats;

/// Per-epoch estimate accumulators over a sliding window of recent
/// epochs, so a long-running cluster holds O(1) state.
#[derive(Debug, Clone, Default)]
pub struct EpochWindow {
    epochs: Vec<(u64, OnlineStats)>,
}

impl EpochWindow {
    /// Number of recent epochs kept live.
    pub const EPOCHS: u64 = 4;

    /// Folds one node's end-of-epoch estimate in and returns the
    /// accumulator of the newest epoch holding at least two estimates —
    /// a single report has no variance or spread to speak of — or `None`
    /// while no epoch has two. Epochs [`Self::EPOCHS`] or more behind the
    /// newest are then dropped.
    pub fn observe(&mut self, epoch: u64, estimate: f64) -> Option<OnlineStats> {
        match self.epochs.iter_mut().find(|(e, _)| *e == epoch) {
            Some((_, stats)) => stats.push(estimate),
            None => self.epochs.push((epoch, [estimate].into_iter().collect())),
        }
        let published = self
            .epochs
            .iter()
            .filter(|(_, stats)| stats.count() >= 2)
            .max_by_key(|(e, _)| *e)
            .map(|(_, stats)| *stats);
        if let Some(newest) = self.epochs.iter().map(|(e, _)| *e).max() {
            self.epochs.retain(|(e, _)| *e + Self::EPOCHS > newest);
        }
        published
    }
}

/// The observed per-cycle variance reduction factor
/// ρ = (var_E / var_0)^(1/γ) — Eq. (3) run backwards from an epoch's
/// end-of-epoch variance `var_e`, the variance `var0` it started from and
/// its length `gamma` in cycles. `None` unless both variances are
/// positive: identical start values or a fully converged epoch leave
/// nothing to take a ratio of.
pub fn observed_rho(var0: f64, var_e: f64, gamma: u32) -> Option<f64> {
    (var0 > 0.0 && var_e > 0.0).then(|| (var_e / var0).powf(1.0 / f64::from(gamma)))
}
