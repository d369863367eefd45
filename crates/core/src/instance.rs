//! Protocol instances: what a node gossips about within one epoch.
//!
//! The paper composes aggregates out of concurrent averaging instances
//! (Section 5): VARIANCE runs one instance over the values and one over
//! their squares, SUM runs an AVERAGE instance next to a COUNT instance,
//! and so on. [`InstanceSpec`] describes one such instance; every exchange
//! merges the corresponding [`InstanceState`]s of the two peers.

use crate::rule::{Rule, UpdateRule};
use crate::value::InstanceMap;

/// How a scalar instance is initialized from the node's local value at the
/// start of each epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitPolicy {
    /// Start from the local value itself (AVERAGE, MIN, MAX, GEOMETRICMEAN).
    LocalValue,
    /// Start from the square of the local value (the second moment used by
    /// VARIANCE).
    SquaredLocalValue,
    /// Start from a constant, independent of the local value.
    Constant(f64),
}

impl InitPolicy {
    /// Computes the initial estimate from the node's current local value.
    pub fn initial(self, local_value: f64) -> f64 {
        match self {
            InitPolicy::LocalValue => local_value,
            InitPolicy::SquaredLocalValue => local_value * local_value,
            InitPolicy::Constant(c) => c,
        }
    }
}

/// How a node decides whether to lead a COUNT instance in a new epoch
/// (paper Section 5, COUNT: `P_lead = C / N̂`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LeaderPolicy {
    /// Lead with probability `concurrency / N̂`, where `N̂` is the size
    /// estimate from the previous epoch (or the configured initial guess).
    /// Yields approximately `Poisson(concurrency)` leaders per epoch.
    Probability {
        /// Desired expected number of concurrent instances, `C`.
        concurrency: f64,
    },
    /// Always lead (used for single-leader experiments and tests).
    Always,
    /// Never lead (pure follower; leaders are designated externally).
    Never,
}

impl LeaderPolicy {
    /// Leader probability given the current network-size estimate.
    pub fn probability(self, size_estimate: f64) -> f64 {
        match self {
            LeaderPolicy::Probability { concurrency } => {
                if size_estimate > 0.0 {
                    (concurrency / size_estimate).clamp(0.0, 1.0)
                } else {
                    1.0
                }
            }
            LeaderPolicy::Always => 1.0,
            LeaderPolicy::Never => 0.0,
        }
    }
}

/// Specification of one gossip instance running within an epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InstanceSpec {
    /// A scalar estimate merged with `rule`, initialized by `init`.
    Scalar {
        /// Update rule applied at every exchange.
        rule: Rule,
        /// Epoch initialization policy.
        init: InitPolicy,
    },
    /// A COUNT instance map (multi-leader network size estimation).
    CountMap {
        /// Leader election policy applied at every epoch start.
        leader: LeaderPolicy,
    },
}

impl InstanceSpec {
    /// Convenience spec: plain averaging of local values.
    pub const AVERAGE: InstanceSpec = InstanceSpec::Scalar {
        rule: Rule::Average,
        init: InitPolicy::LocalValue,
    };

    /// Convenience spec: averaging of squared local values (for VARIANCE).
    pub const MEAN_OF_SQUARES: InstanceSpec = InstanceSpec::Scalar {
        rule: Rule::Average,
        init: InitPolicy::SquaredLocalValue,
    };

    /// Convenience spec: global minimum.
    pub const MIN: InstanceSpec = InstanceSpec::Scalar {
        rule: Rule::Min,
        init: InitPolicy::LocalValue,
    };

    /// Convenience spec: global maximum.
    pub const MAX: InstanceSpec = InstanceSpec::Scalar {
        rule: Rule::Max,
        init: InitPolicy::LocalValue,
    };

    /// Convenience spec: geometric mean of local values (for PRODUCT).
    pub const GEOMETRIC_MEAN: InstanceSpec = InstanceSpec::Scalar {
        rule: Rule::GeometricMean,
        init: InitPolicy::LocalValue,
    };

    /// Convenience spec: COUNT with the given expected instance count.
    pub const fn count(concurrency: f64) -> InstanceSpec {
        InstanceSpec::CountMap {
            leader: LeaderPolicy::Probability { concurrency },
        }
    }

    /// Builds the epoch-start state for this instance.
    ///
    /// `is_leader` is only consulted for [`InstanceSpec::CountMap`]; the
    /// node id becomes the instance identifier when leading.
    pub fn init_state(&self, local_value: f64, node_id: u64, is_leader: bool) -> InstanceState {
        match self {
            InstanceSpec::Scalar { init, .. } => InstanceState::Scalar(init.initial(local_value)),
            InstanceSpec::CountMap { .. } => {
                if is_leader {
                    InstanceState::Map(InstanceMap::leader(node_id))
                } else {
                    InstanceState::Map(InstanceMap::new())
                }
            }
        }
    }

    /// Merges the two exchanged states; both peers install the result.
    ///
    /// # Panics
    ///
    /// Panics if the states' shapes do not match the spec (scalar vs map) —
    /// that indicates a protocol bug, not a runtime condition.
    pub fn merge(&self, a: &InstanceState, b: &InstanceState) -> InstanceState {
        match (self, a, b) {
            (
                InstanceSpec::Scalar { rule, .. },
                InstanceState::Scalar(x),
                InstanceState::Scalar(y),
            ) => InstanceState::Scalar(rule.merge(*x, *y)),
            (InstanceSpec::CountMap { .. }, InstanceState::Map(x), InstanceState::Map(y)) => {
                InstanceState::Map(InstanceMap::merge(x, y))
            }
            _ => panic!("instance state shape mismatch for spec {self:?}"),
        }
    }
}

/// Runtime state of one instance at one node.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceState {
    /// Scalar estimate.
    Scalar(f64),
    /// COUNT instance map.
    Map(InstanceMap),
}

impl InstanceState {
    /// The scalar estimate, or `None` for a map state.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            InstanceState::Scalar(v) => Some(*v),
            InstanceState::Map(_) => None,
        }
    }

    /// The instance map, or `None` for a scalar state.
    pub fn as_map(&self) -> Option<&InstanceMap> {
        match self {
            InstanceState::Scalar(_) => None,
            InstanceState::Map(m) => Some(m),
        }
    }

    /// `true` when every estimate the state holds is finite — a NaN or
    /// ±∞ merged in would spread to every estimate it meets.
    pub fn is_finite(&self) -> bool {
        match self {
            InstanceState::Scalar(v) => v.is_finite(),
            InstanceState::Map(m) => m.iter().all(|(_, v)| v.is_finite()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_policies() {
        assert_eq!(InitPolicy::LocalValue.initial(3.0), 3.0);
        assert_eq!(InitPolicy::SquaredLocalValue.initial(3.0), 9.0);
        assert_eq!(InitPolicy::Constant(7.5).initial(3.0), 7.5);
    }

    #[test]
    fn leader_probabilities() {
        let p = LeaderPolicy::Probability { concurrency: 10.0 };
        assert!((p.probability(1000.0) - 0.01).abs() < 1e-12);
        assert_eq!(p.probability(5.0), 1.0); // clamped
        assert_eq!(p.probability(0.0), 1.0); // degenerate estimate
        assert_eq!(LeaderPolicy::Always.probability(1e9), 1.0);
        assert_eq!(LeaderPolicy::Never.probability(10.0), 0.0);
    }

    #[test]
    fn scalar_init_and_merge() {
        let spec = InstanceSpec::AVERAGE;
        let a = spec.init_state(4.0, 0, false);
        let b = spec.init_state(8.0, 1, false);
        assert_eq!(spec.merge(&a, &b), InstanceState::Scalar(6.0));
    }

    #[test]
    fn mean_of_squares_init() {
        let spec = InstanceSpec::MEAN_OF_SQUARES;
        assert_eq!(spec.init_state(3.0, 0, false), InstanceState::Scalar(9.0));
    }

    #[test]
    fn count_map_init_respects_leadership() {
        let spec = InstanceSpec::count(5.0);
        let leader = spec.init_state(0.0, 42, true);
        let follower = spec.init_state(0.0, 43, false);
        assert_eq!(leader.as_map().unwrap().get(42), Some(1.0));
        assert!(follower.as_map().unwrap().is_empty());
    }

    #[test]
    fn count_map_merge_halves() {
        let spec = InstanceSpec::count(5.0);
        let leader = spec.init_state(0.0, 42, true);
        let follower = spec.init_state(0.0, 43, false);
        let merged = spec.merge(&leader, &follower);
        assert_eq!(merged.as_map().unwrap().get(42), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn merge_rejects_shape_mismatch() {
        let spec = InstanceSpec::AVERAGE;
        spec.merge(
            &InstanceState::Scalar(1.0),
            &InstanceState::Map(InstanceMap::new()),
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(InstanceState::Scalar(2.0).as_scalar(), Some(2.0));
        assert!(InstanceState::Scalar(2.0).as_map().is_none());
        let m = InstanceState::Map(InstanceMap::leader(1));
        assert!(m.as_scalar().is_none());
        assert_eq!(m.as_map().unwrap().len(), 1);
    }

    #[test]
    fn min_max_specs_converge_to_extremes() {
        let min_spec = InstanceSpec::MIN;
        let a = min_spec.init_state(4.0, 0, false);
        let b = min_spec.init_state(-2.0, 1, false);
        assert_eq!(min_spec.merge(&a, &b), InstanceState::Scalar(-2.0));

        let max_spec = InstanceSpec::MAX;
        assert_eq!(max_spec.merge(&a, &b), InstanceState::Scalar(4.0));
    }
}
