//! Epidemic — robust gossip aggregation for large-scale overlay networks.
//!
//! A from-scratch, production-quality Rust reproduction of
//! *Montresor, Jelasity, Babaoglu: "Robust Aggregation Protocols for
//! Large-Scale Overlay Networks" (DSN 2004)*, packaged as one façade crate
//! over a workspace of focused libraries:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`aggregation`] | `epidemic-aggregation` | the paper's contribution: push-pull averaging, COUNT/SUM/PRODUCT/VARIANCE, epochs, epoch synchronization, crash/link-failure theory |
//! | [`query`] | `epidemic-query` | multi-tenant query plane: named query catalog, per-query epoch schedules, client RPC vocabulary, token-bucket admission |
//! | [`newscast`] | `epidemic-newscast` | the NEWSCAST gossip membership protocol |
//! | [`topology`] | `epidemic-topology` | static overlay generators and graph analysis |
//! | [`sim`] | `epidemic-sim` | cycle-driven and event-driven simulators with failure injection |
//! | [`net`] | `epidemic-net` | real-network layer: the `Cluster` operator seam, the `PeerDirectory` membership seam (static or NEWSCAST-gossiped), the multiplexed/sharded UDP runtime (one loop per node up to thousands of nodes per loop), binary wire codec |
//! | [`common`] | `epidemic-common` | node ids, deterministic RNG, statistics |
//!
//! # Quickstart
//!
//! Estimate the average of values scattered over a 1000-node dynamic
//! overlay:
//!
//! ```
//! use epidemic::sim::experiment::{AggregateSetup, ExperimentConfig};
//! use epidemic::sim::scenario::{OverlaySpec, Scenario, ValueInit};
//!
//! let config = ExperimentConfig {
//!     scenario: Scenario {
//!         n: 1_000,
//!         overlay: OverlaySpec::Newscast { c: 30 },
//!         values: ValueInit::Uniform { lo: 0.0, hi: 10.0 },
//!         ..Scenario::default()
//!     },
//!     cycles: 30,
//!     aggregate: AggregateSetup::Average,
//! };
//! let outcome = config.run(1);
//! let estimate = outcome.mean_final_estimate();
//! assert!((estimate - 5.0).abs() < 0.5); // true mean of U[0,10) is 5
//! ```
//!
//! The [`sim::Scenario`] describing the conditions — overlay, value
//! distribution, failures — is engine-independent: the same value also
//! drives the event-driven simulator ([`sim::EventConfig`]) under message
//! delay, clock drift, and loss.
//!
//! See the `examples/` directory for runnable scenarios: a quickstart, a
//! proactive network-size monitor under churn, gossip-driven load
//! balancing, a sensor fleet with adaptive restart, and a real UDP
//! cluster on localhost.

#![warn(missing_docs)]

pub use epidemic_aggregation as aggregation;
pub use epidemic_common as common;
pub use epidemic_net as net;
pub use epidemic_newscast as newscast;
pub use epidemic_query as query;
pub use epidemic_sim as sim;
pub use epidemic_topology as topology;
