//! Robust proactive gossip aggregation.
//!
//! This crate implements the contribution of *Montresor, Jelasity, Babaoglu:
//! "Robust Aggregation Protocols for Large-Scale Overlay Networks" (DSN
//! 2004)*: an anti-entropy, push-pull epidemic protocol that continuously
//! provides every node of a large dynamic overlay with estimates of global
//! aggregates — average, minimum/maximum, network size (COUNT), sum,
//! product/geometric mean, and variance.
//!
//! # Protocol in one paragraph
//!
//! Every node holds an estimate initialized from its local value. Once per
//! cycle (length δ) it contacts a random neighbor; the two nodes exchange
//! estimates and both apply an update rule — `(a+b)/2` for averaging — which
//! conserves the global sum while shrinking the variance of estimates by a
//! factor ρ ≈ 1/(2√e) per cycle. Execution is split into *epochs* of γ
//! cycles: at each epoch boundary the converged estimate is reported and the
//! protocol restarts from fresh local values, making the output adaptive.
//! Epoch identifiers propagate epidemically, keeping the network loosely
//! synchronized. COUNT runs averaging over a *peak* distribution (a leader
//! starts at 1, everyone else at 0, so the average is 1/N), generalized to
//! multiple concurrent leaders via per-leader instance maps.
//!
//! # Module map
//!
//! * [`rule`] — scalar update rules (average, min, max, geometric mean).
//! * [`value`] — COUNT instance maps with the paper's merge formula.
//! * [`instance`] — instance specifications and state merging.
//! * [`config`] — protocol configuration (γ, δ, timeout, instances).
//! * [`node`] — the sans-io [`GossipNode`] state machine (ticks, messages,
//!   timeouts, epochs) used by the event-driven simulator and the UDP
//!   runtime.
//! * [`message`] — wire-level protocol messages.
//! * [`report`] — per-epoch outputs.
//! * [`estimator`] — turning epoch outputs into aggregate estimates
//!   (COUNT/SUM/PRODUCT/VARIANCE, trimmed combination of instances).
//! * [`theory`] — closed-form results: convergence factors, Theorem 1
//!   (crash-induced error), the link-failure bound.
//! * [`convergence`] — the observed counterpart: per-epoch estimate
//!   windows and the measured ρ every embedding exports.
//! * [`baseline`] — the push-sum protocol of Kempe et al. (FOCS'03), the
//!   paper's closest related work, used as an ablation baseline.
//!
//! # Examples
//!
//! ```
//! use epidemic_aggregation::rule::{Average, UpdateRule};
//!
//! // One push-pull exchange conserves the sum and halves the gap.
//! let (a, b) = (10.0, 2.0);
//! let merged = Average.merge(a, b);
//! assert_eq!(merged, 6.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aggregates;
pub mod baseline;
pub mod config;
pub mod convergence;
pub mod error;
pub mod estimator;
pub mod instance;
pub mod message;
pub mod node;
pub mod report;
pub mod rule;
pub mod theory;
pub mod value;

pub use aggregates::AggregateKind;
pub use config::{NodeConfig, NodeConfigBuilder};
pub use error::ConfigError;
pub use instance::{InitPolicy, InstanceSpec, InstanceState, LeaderPolicy};
pub use message::{Message, MessageBody};
pub use node::{GossipNode, PeerSampler};
pub use report::EpochReport;
pub use rule::{Rule, UpdateRule};
pub use value::{InstanceMap, MAX_MAP_LEADERS};
