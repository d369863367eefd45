//! NEWSCAST views and descriptors, and a whole-network overlay.
//!
//! NEWSCAST (Jelasity, Kowalczyk, van Steen, 2003) is the decentralized
//! membership protocol the DSN 2004 aggregation paper uses to keep the
//! overlay "sufficiently random" in the face of churn (Section 4.4). Each
//! node maintains a *view*: a fixed-size set of `(node, timestamp)`
//! descriptors. Periodically a node exchanges views with a random member of
//! its own view; both sides then keep the `c` freshest descriptors from the
//! union, always injecting a fresh descriptor of their exchange partner.
//! Crashed nodes stop injecting fresh descriptors of themselves, so their
//! stale entries age out of the system — the overlay is self-healing.
//!
//! This crate provides:
//!
//! * [`Descriptor`] and [`View`] — the protocol state and its merge rule
//!   ([`view`]).
//! * [`Overlay`] — a whole-network simulation substrate that runs NEWSCAST
//!   cycles over millions of nodes and implements
//!   [`epidemic_common::sample::NeighborSampling`], so the aggregation
//!   protocol can draw peers from live views ([`overlay`]).
//!
//! One node's NEWSCAST protocol on the wire — view exchanges, delta
//! knowledge, join/introduce — is
//! `epidemic_net::directory::GossipDirectory`, built on these two types.
//!
//! # Examples
//!
//! ```
//! use epidemic_common::rng::Xoshiro256;
//! use epidemic_common::sample::NeighborSampling;
//! use epidemic_newscast::Overlay;
//!
//! let mut rng = Xoshiro256::seed_from_u64(1);
//! let mut overlay = Overlay::random_init(500, 30, &mut rng);
//! for cycle in 1..=20 {
//!     overlay.run_cycle(cycle, &mut rng);
//! }
//! let peer = overlay.sample_neighbor(0, &mut rng);
//! assert!(peer.is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod overlay;
pub mod view;

pub use overlay::Overlay;
pub use view::{Descriptor, View};
