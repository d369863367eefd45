//! One-call experiment driver for the cycle-driven engine.
//!
//! [`ExperimentConfig`] is a thin wrapper over the engine-independent
//! [`Scenario`]: it adds the two cycle-engine-specific choices — a cycle
//! budget (the epoch length γ) and which aggregate to compute — in the
//! style of the paper's Section 7 experiments. [`ExperimentConfig::run`]
//! executes it deterministically from a seed and returns per-cycle
//! statistics plus final per-node estimates; [`run_many`] fans repetitions
//! out over OS threads.

use crate::network::{CycleOptions, CycleReport, Network};
use crate::scenario::Scenario;
use epidemic_aggregation::rule::Rule;
use epidemic_common::rng::Xoshiro256;
use epidemic_common::sample::{CompleteSampler, NeighborSampling};
use epidemic_common::stats::Summary;
use epidemic_newscast::Overlay;
use epidemic_topology::Graph;

pub use crate::scenario::{OverlaySpec, ValueInit};

/// Which aggregate the experiment exercises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggregateSetup {
    /// Scalar averaging over the initial values.
    Average,
    /// COUNT with a single leader, run as a scalar peak instance
    /// (leader = 1, others = 0; the size estimate is `1/value`).
    CountPeak,
    /// COUNT with `leaders` concurrent instances in an instance map; the
    /// reported estimate is the per-node trimmed mean (Section 7.3).
    CountMap {
        /// Number of concurrent instances `t`.
        leaders: usize,
    },
}

/// Complete description of a single-epoch cycle-driven experiment: a
/// [`Scenario`] plus the cycle budget and aggregate under test.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Conditions shared with the event-driven engine.
    pub scenario: Scenario,
    /// Number of cycles to run (the epoch length γ).
    pub cycles: u32,
    /// Aggregate under test.
    pub aggregate: AggregateSetup,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scenario: Scenario::default(),
            cycles: 30,
            aggregate: AggregateSetup::Average,
        }
    }
}

/// Everything measured during one experiment run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Estimate variance per cycle (`variance[0]` is the initial state,
    /// `variance[k]` after cycle `k`), over live participating nodes.
    pub variance: Vec<f64>,
    /// Estimate mean per cycle (µ_i of Eq. (1)).
    pub mean: Vec<f64>,
    /// Minimum estimate per cycle.
    pub min: Vec<f64>,
    /// Maximum estimate per cycle.
    pub max: Vec<f64>,
    /// Live node count per cycle.
    pub alive: Vec<usize>,
    /// Communication report per cycle.
    pub reports: Vec<CycleReport>,
    /// Final per-node aggregate estimates, interpreted per
    /// [`AggregateSetup`]: raw averages, `1/value` size estimates, or
    /// trimmed multi-instance size estimates.
    pub final_estimates: Vec<f64>,
}

impl RunOutcome {
    /// Average per-cycle convergence factor over the first `k` cycles:
    /// `(σ²_k / σ²_0)^(1/k)` — the quantity plotted in Figures 3(a), 4
    /// and 7(a).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k` cycles were recorded or `k == 0`.
    pub fn convergence_factor(&self, k: u32) -> f64 {
        assert!(k > 0, "need at least one cycle");
        let k = k as usize;
        assert!(
            self.variance.len() > k,
            "only {} cycles recorded",
            self.variance.len() - 1
        );
        (self.variance[k] / self.variance[0]).powf(1.0 / k as f64)
    }

    /// Normalized variance series `σ²_i / σ²_0` (Figure 3(b)).
    pub fn variance_reduction(&self) -> Vec<f64> {
        let v0 = self.variance[0];
        self.variance.iter().map(|&v| v / v0).collect()
    }

    /// Mean of the final per-node estimates (one experiment dot in
    /// Figures 6 and 8).
    pub fn mean_final_estimate(&self) -> f64 {
        epidemic_common::stats::mean(&self.final_estimates)
    }

    /// Summary of the final per-node estimates.
    pub fn final_summary(&self) -> Summary {
        let stats: epidemic_common::stats::OnlineStats =
            self.final_estimates.iter().copied().collect();
        stats.summary()
    }
}

enum OverlayState {
    Complete(usize),
    Static(Graph),
    Newscast(Overlay),
}

impl OverlayState {
    fn sampler(&self) -> &dyn NeighborSampling {
        match self {
            OverlayState::Complete(_) => panic!("complete sampler materialized on demand"),
            OverlayState::Static(g) => g,
            OverlayState::Newscast(o) => o,
        }
    }
}

/// Uniform sampling over the current live population — the idealized
/// fully connected overlay of the paper, whose membership adapts to
/// crashes instantly (a dead node is in nobody's neighbor set). Static
/// graphs and NEWSCAST instead model the realistic behaviour: dead
/// neighbors are discovered by timeout.
///
/// `live` must be sorted ascending (it is built by filtering an index
/// range in order).
pub(crate) struct LiveSampler<'a> {
    pub(crate) live: &'a [u32],
    pub(crate) slots: usize,
}

impl NeighborSampling for LiveSampler<'_> {
    fn node_count(&self) -> usize {
        self.slots
    }

    fn sample_neighbor(&self, node: usize, rng: &mut Xoshiro256) -> Option<usize> {
        // Draw from the live set minus the initiator by skipping over its
        // position — no rejection loop, and `None` (rather than a spin)
        // when the initiator is the only live node.
        let me = self.live.binary_search(&(node as u32)).ok();
        let idx = epidemic_common::sample::index_excluding(rng, self.live.len(), me)?;
        Some(self.live[idx] as usize)
    }
}

/// Picks a uniformly random live overlay member to introduce a joiner, or
/// `None` when nobody is alive (the join is then impossible and must be
/// skipped instead of spinning).
fn random_live_introducer(overlay: &Overlay, rng: &mut Xoshiro256) -> Option<usize> {
    if overlay.alive_count() == 0 {
        return None;
    }
    // Rejection is fast while a reasonable fraction of slots is live.
    for _ in 0..64 {
        let cand = rng.index(overlay.slot_count());
        if overlay.is_alive(cand) {
            return Some(cand);
        }
    }
    // Mostly-dead overlay: fall back to an explicit live list.
    let live: Vec<usize> = (0..overlay.slot_count())
        .filter(|&i| overlay.is_alive(i))
        .collect();
    rng.choose(&live).copied()
}

impl ExperimentConfig {
    /// Runs the experiment deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (e.g. churn over a
    /// static overlay, `n < 2`, or an invalid topology parameter).
    pub fn run(&self, seed: u64) -> RunOutcome {
        let scenario = &self.scenario;
        scenario.validate();
        let n = scenario.n;
        let mut rng = Xoshiro256::seed_from_u64(seed);

        // --- Overlay -----------------------------------------------------
        let mut clock: u32 = 0;
        let mut overlay = match scenario.overlay {
            OverlaySpec::Complete => OverlayState::Complete(n),
            OverlaySpec::Static(kind) => OverlayState::Static(
                kind.generate(n, &mut rng)
                    .expect("invalid topology parameters"),
            ),
            OverlaySpec::Newscast { c } => {
                let mut o = Overlay::random_init(n, c, &mut rng);
                for _ in 0..scenario.newscast_warmup {
                    clock += 1;
                    o.run_cycle(clock, &mut rng);
                }
                OverlayState::Newscast(o)
            }
        };

        // --- Aggregation state -------------------------------------------
        let mut net = Network::new(n);
        let field = match self.aggregate {
            AggregateSetup::Average => {
                let values = scenario.values.materialize(n, &mut rng);
                net.add_scalar_field(Rule::Average, |i| values[i])
            }
            AggregateSetup::CountPeak => {
                let leader = rng.index(n);
                net.add_scalar_field(Rule::Average, |i| if i == leader { 1.0 } else { 0.0 })
            }
            AggregateSetup::CountMap { leaders } => {
                let chosen = rng.sample_distinct(n, leaders);
                net.add_map_field(&chosen)
            }
        };
        let opts = CycleOptions {
            link_failure: scenario.comm.link_failure,
            message_loss: scenario.comm.message_loss,
        };

        let cap = self.cycles as usize + 1;
        let mut outcome = RunOutcome {
            variance: Vec::with_capacity(cap),
            mean: Vec::with_capacity(cap),
            min: Vec::with_capacity(cap),
            max: Vec::with_capacity(cap),
            alive: Vec::with_capacity(cap),
            reports: Vec::with_capacity(self.cycles as usize),
            final_estimates: Vec::new(),
        };
        record_stats(&net, field, self.aggregate, &mut outcome);

        // --- Cycle loop ---------------------------------------------------
        for cycle in 0..self.cycles {
            // Failures strike before the cycle (worst case, Section 6.1).
            let crashes = scenario.failure.crashes_at(cycle, net.alive_count());
            if crashes > 0 {
                let alive_idx: Vec<u32> = (0..net.slot_count() as u32)
                    .filter(|&i| net.is_alive(i as usize))
                    .collect();
                for pick in rng.sample_distinct(alive_idx.len(), crashes.min(alive_idx.len())) {
                    let victim = alive_idx[pick] as usize;
                    net.crash(victim);
                    if let OverlayState::Newscast(o) = &mut overlay {
                        o.crash(victim);
                    }
                }
            }
            let joins = scenario.failure.joins_at(cycle);
            for _ in 0..joins {
                if let OverlayState::Newscast(o) = &mut overlay {
                    // Bootstrap through a random live member; without one
                    // the join is impossible this cycle.
                    let Some(introducer) = random_live_introducer(o, &mut rng) else {
                        break;
                    };
                    let idx = net.add_node();
                    let joined = o.join_via(introducer, clock);
                    debug_assert_eq!(joined, idx);
                }
            }

            clock += 1;
            // Membership gossip first, then aggregation over fresh views.
            if let OverlayState::Newscast(o) = &mut overlay {
                o.run_cycle(clock, &mut rng);
            }
            let report = match &overlay {
                OverlayState::Complete(n) => {
                    if matches!(scenario.failure, crate::failure::FailureModel::None) {
                        let sampler = CompleteSampler::new(*n);
                        net.run_cycle(&sampler, opts, &mut rng)
                    } else {
                        // Perfect membership: sample among live nodes only.
                        let live: Vec<u32> = (0..net.slot_count() as u32)
                            .filter(|&i| net.is_alive(i as usize))
                            .collect();
                        let sampler = LiveSampler {
                            live: &live,
                            slots: net.slot_count(),
                        };
                        net.run_cycle(&sampler, opts, &mut rng)
                    }
                }
                _ => net.run_cycle(overlay.sampler(), opts, &mut rng),
            };
            outcome.reports.push(report);
            record_stats(&net, field, self.aggregate, &mut outcome);
        }

        outcome.final_estimates = match self.aggregate {
            AggregateSetup::Average => net.scalar_values(field),
            AggregateSetup::CountPeak => net
                .scalar_values(field)
                .into_iter()
                .map(|v| if v > 0.0 { 1.0 / v } else { f64::INFINITY })
                .collect(),
            AggregateSetup::CountMap { .. } => net.count_estimates(field),
        };
        outcome
    }
}

fn record_stats(
    net: &Network,
    field: crate::network::FieldId,
    aggregate: AggregateSetup,
    outcome: &mut RunOutcome,
) {
    let summary = match aggregate {
        AggregateSetup::Average | AggregateSetup::CountPeak => net.scalar_summary(field),
        AggregateSetup::CountMap { .. } => {
            // Track the per-node total instance mass: its variance decays
            // at the same rate as the underlying averaging.
            let stats: epidemic_common::stats::OnlineStats = (0..net.slot_count())
                .filter(|&i| net.is_alive(i) && net.is_participating(i))
                .map(|i| net.map_value(field, i).total())
                .collect();
            stats.summary()
        }
    };
    outcome.variance.push(summary.variance);
    outcome.mean.push(summary.mean);
    outcome.min.push(summary.min);
    outcome.max.push(summary.max);
    outcome.alive.push(net.alive_count());
}

/// Runs `seeds.len()` independent repetitions across OS threads, returning
/// outcomes in seed order.
pub fn run_many(config: &ExperimentConfig, seeds: &[u64]) -> Vec<RunOutcome> {
    crate::pool::parallel_map_seeds(seeds, |seed| config.run(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{CommFailure, FailureModel};
    use crate::scenario::Scenario;
    use epidemic_aggregation::theory::RHO_PUSH_PULL;
    use epidemic_topology::TopologyKind;

    fn base(n: usize) -> ExperimentConfig {
        ExperimentConfig {
            scenario: Scenario {
                n,
                values: ValueInit::Peak { total: n as f64 },
                ..Scenario::default()
            },
            ..ExperimentConfig::default()
        }
    }

    fn with_overlay(n: usize, overlay: OverlaySpec) -> ExperimentConfig {
        let mut config = base(n);
        config.scenario.overlay = overlay;
        config
    }

    #[test]
    fn average_converges_on_complete_graph() {
        let cfg = base(2000);
        let out = cfg.run(1);
        assert_eq!(out.variance.len(), 31);
        assert!((out.mean[0] - 1.0).abs() < 1e-9);
        assert!((out.mean[30] - 1.0).abs() < 1e-9, "mean drifted");
        let factor = out.convergence_factor(20);
        assert!((factor - RHO_PUSH_PULL).abs() < 0.05, "factor {factor}");
    }

    #[test]
    fn average_converges_on_newscast() {
        let cfg = with_overlay(2000, OverlaySpec::Newscast { c: 30 });
        let out = cfg.run(2);
        let factor = out.convergence_factor(20);
        assert!(factor < 0.45, "newscast convergence factor {factor}");
    }

    #[test]
    fn average_on_static_random_topology() {
        let cfg = with_overlay(2000, OverlaySpec::Static(TopologyKind::Random { k: 20 }));
        let out = cfg.run(3);
        let factor = out.convergence_factor(20);
        assert!(factor < 0.42, "random-20 convergence factor {factor}");
    }

    #[test]
    fn lattice_is_much_slower() {
        let fast = with_overlay(2000, OverlaySpec::Static(TopologyKind::Random { k: 20 }))
            .run(4)
            .convergence_factor(20);
        let slow = with_overlay(
            2000,
            OverlaySpec::Static(TopologyKind::RingLattice { k: 20 }),
        )
        .run(4)
        .convergence_factor(20);
        assert!(
            slow > fast + 0.2,
            "lattice should converge much slower: lattice {slow} vs random {fast}"
        );
    }

    #[test]
    fn determinism() {
        let cfg = base(500);
        let a = cfg.run(42);
        let b = cfg.run(42);
        assert_eq!(a.variance, b.variance);
        assert_eq!(a.final_estimates, b.final_estimates);
    }

    #[test]
    fn count_peak_estimates_network_size() {
        let mut cfg = with_overlay(1000, OverlaySpec::Newscast { c: 30 });
        cfg.aggregate = AggregateSetup::CountPeak;
        let out = cfg.run(5);
        let est = out.mean_final_estimate();
        assert!((est - 1000.0).abs() < 20.0, "size estimate {est}");
    }

    #[test]
    fn count_map_estimates_network_size() {
        let mut cfg = with_overlay(1000, OverlaySpec::Newscast { c: 30 });
        cfg.aggregate = AggregateSetup::CountMap { leaders: 10 };
        let out = cfg.run(6);
        assert_eq!(out.final_estimates.len(), 1000);
        let est = out.mean_final_estimate();
        assert!((est - 1000.0).abs() < 25.0, "size estimate {est}");
    }

    #[test]
    fn sudden_death_late_in_epoch_is_harmless() {
        let mut cfg = with_overlay(1000, OverlaySpec::Newscast { c: 30 });
        cfg.aggregate = AggregateSetup::CountPeak;
        cfg.scenario.failure = FailureModel::SuddenDeath {
            fraction: 0.5,
            at_cycle: 25,
        };
        let out = cfg.run(7);
        assert_eq!(*out.alive.last().unwrap(), 500);
        let est = out.mean_final_estimate();
        // Crash at cycle 25: variance is tiny, damage negligible; the
        // protocol reports the size at epoch start.
        assert!((est - 1000.0).abs() < 50.0, "estimate {est}");
    }

    #[test]
    fn churn_keeps_size_constant() {
        let mut cfg = with_overlay(1000, OverlaySpec::Newscast { c: 30 });
        cfg.aggregate = AggregateSetup::CountPeak;
        cfg.scenario.failure = FailureModel::Churn { per_cycle: 20 };
        let out = cfg.run(8);
        for &alive in &out.alive {
            assert_eq!(alive, 1000);
        }
        // Estimates remain in a sane band despite 60% substitution.
        let est = out.mean_final_estimate();
        assert!(est > 500.0 && est < 2000.0, "estimate {est}");
    }

    #[test]
    #[should_panic(expected = "churn requires a NEWSCAST overlay")]
    fn churn_rejected_on_static_overlay() {
        let mut cfg = base(100);
        cfg.scenario.failure = FailureModel::Churn { per_cycle: 5 };
        cfg.run(9);
    }

    #[test]
    fn link_failure_slows_convergence() {
        let clean = base(2000).run(10).convergence_factor(20);
        let mut lossy_cfg = base(2000);
        lossy_cfg.scenario.comm = CommFailure::links(0.6);
        let lossy = lossy_cfg.run(10).convergence_factor(20);
        assert!(
            lossy > clean + 0.15,
            "link failure too cheap: {clean} -> {lossy}"
        );
        // But the mean is unbiased.
        let out = lossy_cfg.run(11);
        assert!((out.mean[30] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn run_many_matches_sequential_and_is_ordered() {
        let cfg = base(300);
        let seeds = [1u64, 2, 3, 4, 5, 6, 7];
        let parallel = run_many(&cfg, &seeds);
        for (i, &seed) in seeds.iter().enumerate() {
            let solo = cfg.run(seed);
            assert_eq!(parallel[i].variance, solo.variance, "seed {seed}");
        }
    }

    #[test]
    fn variance_reduction_is_normalized() {
        let out = base(500).run(12);
        let series = out.variance_reduction();
        assert_eq!(series[0], 1.0);
        assert!(series[20] < 1e-8);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn tiny_network_rejected() {
        base(1).run(0);
    }

    #[test]
    fn live_sampler_returns_none_when_alone() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let live = [3u32];
        let sampler = LiveSampler {
            live: &live,
            slots: 10,
        };
        assert_eq!(sampler.sample_neighbor(3, &mut rng), None);
        // A dead initiator among one live node still has a peer.
        assert_eq!(sampler.sample_neighbor(4, &mut rng), Some(3));
    }

    #[test]
    fn live_sampler_skips_initiator_uniformly() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let live = [1u32, 4, 7, 9];
        let sampler = LiveSampler {
            live: &live,
            slots: 10,
        };
        let mut counts = std::collections::HashMap::new();
        for _ in 0..40_000 {
            let peer = sampler.sample_neighbor(4, &mut rng).unwrap();
            *counts.entry(peer).or_insert(0usize) += 1;
        }
        assert!(!counts.contains_key(&4));
        for &p in &[1usize, 7, 9] {
            let c = counts[&p] as i64;
            assert!((c - 13_333).abs() < 1_200, "peer {p} count {c}");
        }
    }

    #[test]
    fn introducer_none_when_all_dead() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut overlay = Overlay::random_init(10, 3, &mut rng);
        for i in 0..10 {
            overlay.crash(i);
        }
        assert_eq!(random_live_introducer(&overlay, &mut rng), None);
    }

    #[test]
    fn introducer_found_in_mostly_dead_overlay() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let mut overlay = Overlay::random_init(200, 3, &mut rng);
        for i in 0..199 {
            overlay.crash(i);
        }
        // Only node 199 is alive; both the rejection and fallback paths
        // must find it.
        for _ in 0..10 {
            assert_eq!(random_live_introducer(&overlay, &mut rng), Some(199));
        }
    }
}
