//! PeerSim-style simulation engines for epidemic aggregation.
//!
//! The paper's evaluation (Section 7) was produced with PeerSim, the
//! authors' cycle-driven overlay simulator. This crate rebuilds that
//! substrate in Rust and adds an event-driven engine for the asynchronous
//! aspects the cycle model abstracts away:
//!
//! * [`scenario`] — engine-independent experiment conditions
//!   ([`Scenario`]): overlay, initial values, crash/churn schedule,
//!   communication failures. One `Scenario` value drives both engines.
//! * [`network`] — the cycle-driven kernel: per-cycle random-permutation
//!   push-pull exchanges over SoA state fields, with link-failure and
//!   asymmetric message-loss injection.
//! * [`failure`] — failure schedules: proportional crashes, sudden death,
//!   churn (crash + join at constant size).
//! * [`experiment`] — one-call cycle-driven experiment driver: a thin
//!   wrapper adding a cycle budget and an aggregate to a [`Scenario`];
//!   plus a thread-pooled repetition runner.
//! * [`event`] — event-driven engine (message delay, clock drift, loss,
//!   timeouts) stepping one sans-io [`epidemic_net::stack::NodeStack`]
//!   per node — the wire runtimes' own wiring — under the same
//!   [`Scenario`] conditions; measures epoch-synchronization spread.
//!   The only multi-epoch engine: Section 4 is written once, in the node.
//!   (`directory`, private, is each stack's `GETNEIGHBOR()`: live set,
//!   static graph, or the real gossiped NEWSCAST directory.)
//! * [`metrics`] — convergence factors and exchange-count distributions
//!   (the `1 + Poisson(1)` cost analysis of Section 4.5).
//!
//! # Examples
//!
//! ```
//! use epidemic_sim::experiment::{AggregateSetup, ExperimentConfig};
//! use epidemic_sim::scenario::{OverlaySpec, Scenario, ValueInit};
//!
//! let config = ExperimentConfig {
//!     scenario: Scenario {
//!         n: 1000,
//!         overlay: OverlaySpec::Newscast { c: 30 },
//!         values: ValueInit::Peak { total: 1000.0 },
//!         ..Scenario::default()
//!     },
//!     cycles: 20,
//!     aggregate: AggregateSetup::Average,
//! };
//! let outcome = config.run(42);
//! // Variance decays by roughly 1/(2 sqrt e) per cycle.
//! assert!(outcome.variance[20] < outcome.variance[0] * 1e-8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod directory;
pub mod event;
pub mod experiment;
pub mod failure;
pub mod metrics;
pub mod network;
mod pool;
pub mod scenario;

pub use event::{EventConfig, EventOutcome, EventSim};
pub use experiment::{AggregateSetup, ExperimentConfig, RunOutcome};
pub use failure::{CommFailure, FailureModel};
pub use network::{FieldId, Network};
pub use scenario::{OverlaySpec, Scenario, ValueInit};
