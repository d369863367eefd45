//! Overlay topologies for epidemic aggregation.
//!
//! The DSN 2004 paper evaluates the aggregation protocol over a family of
//! overlay topologies (Section 4.4): complete graphs, random k-out graphs,
//! ring lattices, Watts–Strogatz small worlds, Barabási–Albert scale-free
//! graphs, and the dynamic NEWSCAST overlay (in its own crate). This crate
//! provides:
//!
//! * [`Graph`] — a compact CSR adjacency structure sized for millions of
//!   nodes ([`graph`]).
//! * [`generate`] — deterministic generators for every static topology in
//!   the paper.
//! * [`metrics`] — weak connectivity, the oracle the generator tests
//!   check every topology against.
//! * [`NeighborSampling`] — the one-method abstraction the aggregation
//!   protocol needs from a topology: "give me a uniformly random neighbor".
//!   The trait itself lives in [`epidemic_common::sample`] (so membership
//!   and topology stay sibling layers) and is re-exported here.
//!
//! # Examples
//!
//! ```
//! use epidemic_common::rng::Xoshiro256;
//! use epidemic_topology::generate;
//! use epidemic_topology::metrics;
//! use epidemic_topology::NeighborSampling;
//!
//! let mut rng = Xoshiro256::seed_from_u64(1);
//! let g = generate::watts_strogatz(1_000, 20, 0.25, &mut rng)?;
//! assert!(metrics::is_connected(&g));
//! let peer = g.sample_neighbor(0, &mut rng);
//! assert!(peer.is_some());
//! # Ok::<(), epidemic_topology::TopologyError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod generate;
pub mod graph;
pub mod metrics;
pub mod sample;

pub use generate::{TopologyError, TopologyKind};
pub use graph::{Graph, GraphBuilder};
pub use sample::{CompleteSampler, NeighborSampling};
