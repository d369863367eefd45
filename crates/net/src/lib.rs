//! Real-network runtime for epidemic aggregation.
//!
//! The paper presents the aggregation protocol as a deployable system
//! (Figure 1: an active thread gossiping every δ and a passive thread
//! answering) over an overlay-agnostic membership service — all the
//! protocol ever asks of it is `GETNEIGHBOR()`. This crate provides
//! exactly that embedding for the sans-io
//! [`epidemic_aggregation::GossipNode`]: one [`stack::NodeStack`] that
//! wires the node's three planes together, two seams around it, and one
//! transport under it:
//!
//! * [`stack`] — the **node**: [`stack::NodeStack`] owns the base
//!   aggregate, its directory and the query plane, and is the only place
//!   that decides poll order, deadline folding and which traffic ledger
//!   a frame lands on. Sans-io: `step(input, now,
//!   sink)` in, borrowed frames out. The mux runtime embeds it, and so
//!   does the event simulator (`epidemic-sim`); [`stack::Convergence`] and
//!   [`stack::Traffic`] publish the `epoch.*` and `io.*{plane}` series.
//! * [`directory`] — the **membership seam**: [`directory::PeerDirectory`]
//!   answers `GETNEIGHBOR()` by node id. Implementations:
//!   [`directory::StaticDirectory`] (a static table, the out-of-band
//!   discovery the paper assumes) and [`directory::GossipDirectory`]
//!   (NEWSCAST membership gossiped over the same sockets, bootstrapped
//!   from introducers — no static table anywhere).
//! * [`cluster`] — the **operator seam**: the [`cluster::Cluster`] trait
//!   (addresses, reports, local values, named queries, the registry and
//!   its [`cluster::TrafficCounts`] read, shutdown), its operator verbs
//!   written once over [`cluster::Cluster::with_stack`].
//! * [`codec`] — a compact, versioned binary wire format for protocol
//!   messages (hand-rolled little-endian framing, no codec dependency):
//!   aggregation exchanges, NEWSCAST view exchanges, join/introduce
//!   bootstrap, virtual-node-routed mux frames, and exact `*_len` size
//!   twins for traffic accounting.
//! * [`mux`] — the wire runtime ([`mux::MuxCluster`]): N virtual nodes on
//!   a few **loops** (vnode `i` homed on loop `i % loops`), each owning,
//!   behind one lock, its vnodes and a [`timer::TimerWheel`], and taking
//!   one turn at a time: receive, step, fire, flush. The turn's transport
//!   is the seam: a UDP socket per loop, turned by one thread per core
//!   (`spawn`), or a port
//!   on an in-memory network stepped in virtual milliseconds
//!   ([`mux::MemNetwork`]). Shardable via a [`mux::PeerTable`] mapping
//!   vnode-id ranges to shard addresses.
//! * [`batch`] — syscall-batched datagram I/O ([`batch::IoBackend`]):
//!   `recvmmsg`/`sendmmsg` on Linux with a portable one-per-syscall
//!   fallback, runtime-selectable for A/B measurement.
//! * [`timer`] — the hashed timer wheel behind each [`mux`] loop's lock.
//!
//! # Examples
//!
//! A two-node loopback cluster computing an average — one socket per
//! node, and one thread per core for them — driven through the operator
//! seam:
//!
//! ```no_run
//! use epidemic_aggregation::{InstanceSpec, NodeConfig};
//! use epidemic_net::cluster::Cluster;
//! use epidemic_net::mux::{MuxCluster, MuxClusterConfig};
//!
//! let node_config = NodeConfig::builder()
//!     .gamma(10)
//!     .cycle_length(50)   // milliseconds
//!     .timeout(20)
//!     .instance(InstanceSpec::AVERAGE)
//!     .build()?;
//! let config = MuxClusterConfig::new(2, node_config).with_readers(2);
//! let cluster = MuxCluster::spawn(config, |i| (i * 10) as f64)?;
//! std::thread::sleep(std::time::Duration::from_millis(1200));
//! for (node, reports) in cluster.take_all_reports().into_iter().enumerate() {
//!     for report in reports {
//!         println!("node {node} epoch {} -> {:?}", report.epoch, report.scalar(0));
//!     }
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The same protocol with **no static peer table**: membership is
//! NEWSCAST gossip bootstrapped from one introducer, riding the same
//! socket as the aggregation traffic:
//!
//! ```no_run
//! use epidemic_aggregation::{InstanceSpec, NodeConfig};
//! use epidemic_net::cluster::Cluster;
//! use epidemic_net::directory::{DirectorySpec, GossipDirectoryConfig};
//! use epidemic_net::mux::{MuxCluster, MuxClusterConfig};
//!
//! let node_config = NodeConfig::builder()
//!     .gamma(10)
//!     .cycle_length(50)
//!     .timeout(20)
//!     .instance(InstanceSpec::AVERAGE)
//!     .build()?;
//! let directory = DirectorySpec::Gossip(
//!     GossipDirectoryConfig::new(20, 40).with_introducer_node(0),
//! );
//! let cluster = MuxCluster::spawn(
//!     MuxClusterConfig::new(256, node_config).with_directory(directory),
//!     |i| i as f64,
//! )?;
//! # cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod cluster;
pub mod codec;
pub mod directory;
pub mod mux;
pub mod stack;
pub mod timer;

pub use batch::IoBackend;
pub use cluster::{Cluster, TrafficCounts};
pub use codec::{decode_message, encode_message, DecodeError};
pub use directory::{
    DirectorySpec, GossipDirectory, GossipDirectoryConfig, PeerDirectory, StaticDirectory,
};
pub use mux::{MemNetwork, MuxCluster, MuxClusterConfig, PeerTable, SyscallCounts};

// The telemetry plane's vocabulary, re-exported so operators of this
// crate need no direct `epidemic-telemetry` dependency.
pub use epidemic_telemetry::{
    write_jsonl, MetricsServer, Registry, TraceEvent, TraceKind, ViewHealth,
};
