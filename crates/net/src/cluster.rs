//! The operator seam: the `Cluster` API over the wire runtime.
//!
//! A cluster of real-network aggregation nodes — one vnode per loop and
//! socket, thousands of vnodes on a few loops ([`crate::mux::MuxCluster`]),
//! or vnodes sharded across processes and hosts — is operated through the
//! [`Cluster`] trait: addresses, report draining, local-value updates,
//! named queries, traffic accounting, shutdown. A runtime implements six
//! methods; the one that reaches protocol state is
//! [`Cluster::with_stack`], which runs a closure on a node's [`NodeStack`]
//! under its loop's lock at the runtime's current tick and re-arms the
//! node's timer afterwards. The operator verbs are provided methods over
//! it, so what "install a query at node 3" means is written once, next to
//! the stack it drives.
//!
//! Traffic is counted once per runtime, per plane, in the runtime's
//! [`Cluster::registry`] ([`crate::stack::Traffic`]): aggregation frames
//! (the paper's push-pull exchanges) separately from membership frames
//! (NEWSCAST views, join/introduce bootstrap) and from query-plane frames
//! (catalog gossip, named-query exchanges), so the overhead of gossiped
//! membership and of the multi-tenant query plane are both directly
//! measurable. [`TrafficCounts`] is a read of those series.

use crate::stack::{NodeStack, Traffic};
use epidemic_aggregation::EpochReport;
use epidemic_common::NodeId;
use epidemic_query::{QueryDescriptor, QueryError, QueryEstimate};
use epidemic_telemetry::{Registry, TraceEvent};
use std::net::SocketAddr;
use std::ops::Add;

/// A runtime's traffic, split by protocol plane, in *frames*: logical
/// protocol messages and their bytes on the wire — a read of the
/// `io.*{plane}` series ([`TrafficCounts::read`]). The mux runtime
/// bundles frames into datagrams ([`crate::codec::push_bundle_frame`])
/// and charges a bundle's header byte to its first frame, so bytes still
/// sum to the UDP payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCounts {
    /// Aggregation-plane frames sent (requests, replies, notices).
    pub aggregation_sent: u64,
    /// Aggregation-plane frames received.
    pub aggregation_received: u64,
    /// Membership-plane frames sent (views, joins, introductions).
    pub membership_sent: u64,
    /// Membership-plane frames received.
    pub membership_received: u64,
    /// Query-plane frames sent (catalog gossip, named-query exchanges).
    pub query_sent: u64,
    /// Query-plane frames received.
    pub query_received: u64,
    /// Wire bytes of the aggregation frames sent.
    pub aggregation_bytes_sent: u64,
    /// Wire bytes of the membership frames sent.
    pub membership_bytes_sent: u64,
    /// Wire bytes of the query-plane frames sent.
    pub query_bytes_sent: u64,
    /// Frames (any plane) in datagrams the kernel refused to send — the
    /// visible face of outbound backpressure. A send that fails is NOT
    /// counted in the per-plane `*_sent` fields, so at high load loss
    /// shows up here instead of silently vanishing.
    pub send_errors: u64,
    /// Bootstrap `Join` frames re-sent after the first went unanswered
    /// (counted inside `membership_sent`). Non-zero means the introducer
    /// path lost datagrams — visible here instead of as a silent hang.
    pub join_retries: u64,
    /// Client RPCs answered with a non-`Ok` status (unknown query,
    /// admission rejection, conflict, …): `rpc.rejects`. Rejections are
    /// counted here — and surfaced to the caller in the response — never
    /// silently swallowed.
    pub rpc_rejects: u64,
}

impl TrafficCounts {
    /// Reads the traffic series of `registry` (`join_retries` reads 0: the
    /// directories own it, see [`Cluster::total_datagram_counts`]).
    pub fn read(registry: &Registry) -> TrafficCounts {
        Traffic::new(registry).counts()
    }

    /// Total frames sent across all planes.
    pub fn sent(&self) -> u64 {
        self.aggregation_sent + self.membership_sent + self.query_sent
    }

    /// Total frames received across all planes.
    pub fn received(&self) -> u64 {
        self.aggregation_received + self.membership_received + self.query_received
    }

    /// Membership bytes sent per aggregation byte sent — the wire
    /// overhead of gossiped membership (0 for a static directory).
    pub fn membership_byte_overhead(&self) -> f64 {
        if self.aggregation_bytes_sent == 0 {
            return 0.0;
        }
        self.membership_bytes_sent as f64 / self.aggregation_bytes_sent as f64
    }

    /// Query-plane bytes sent per aggregation byte sent — the wire
    /// overhead of the multi-tenant query plane (0 when no query is
    /// installed).
    pub fn query_byte_overhead(&self) -> f64 {
        if self.aggregation_bytes_sent == 0 {
            return 0.0;
        }
        self.query_bytes_sent as f64 / self.aggregation_bytes_sent as f64
    }
}

impl Add for TrafficCounts {
    type Output = TrafficCounts;

    fn add(self, rhs: TrafficCounts) -> TrafficCounts {
        TrafficCounts {
            aggregation_sent: self.aggregation_sent + rhs.aggregation_sent,
            aggregation_received: self.aggregation_received + rhs.aggregation_received,
            membership_sent: self.membership_sent + rhs.membership_sent,
            membership_received: self.membership_received + rhs.membership_received,
            query_sent: self.query_sent + rhs.query_sent,
            query_received: self.query_received + rhs.query_received,
            aggregation_bytes_sent: self.aggregation_bytes_sent + rhs.aggregation_bytes_sent,
            membership_bytes_sent: self.membership_bytes_sent + rhs.membership_bytes_sent,
            query_bytes_sent: self.query_bytes_sent + rhs.query_bytes_sent,
            send_errors: self.send_errors + rhs.send_errors,
            join_retries: self.join_retries + rhs.join_retries,
            rpc_rejects: self.rpc_rejects + rhs.rpc_rejects,
        }
    }
}

/// A running cluster of real-network aggregation nodes.
///
/// Node indices are *local*: `0..node_count()` addresses the nodes this
/// handle hosts. In a sharded deployment those map to a contiguous range
/// of cluster-wide identifiers, exposed by [`Cluster::node_id`].
pub trait Cluster: Sized {
    /// Number of nodes hosted by this handle.
    fn node_count(&self) -> usize;

    /// Cluster-wide identifier of local node `index`.
    fn node_id(&self, index: usize) -> NodeId;

    /// The socket addresses this handle receives on: a mux shard's loop
    /// sockets, its advertised address first.
    fn addrs(&self) -> Vec<SocketAddr>;

    /// The metrics registry this handle's nodes publish to: traffic,
    /// `rpc.*` and per-query series, and the runtime's own.
    fn registry(&self) -> &Registry;

    /// Runs `f` on local node `index`'s protocol stack, under the lock of
    /// the loop that homes it, at the runtime's current tick (the second
    /// argument — the `now` the stack's own steps are given). When `f`
    /// returns the runtime re-arms the node's timer from
    /// [`NodeStack::next_deadline`] straight into that loop's wheel, so a
    /// call that moves the deadline earlier (an install, a remove) needs
    /// no wake of its own. The whole loop — every node it homes — waits
    /// on the lock meanwhile: keep `f` short.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    fn with_stack<R>(&self, index: usize, f: impl FnOnce(&mut NodeStack, u64) -> R) -> R;

    /// Stops every node and waits for the runtime's threads to exit.
    fn shutdown(self);

    /// Drains the epoch reports local node `index` produced since the
    /// last call.
    fn take_reports(&self, index: usize) -> Vec<EpochReport> {
        self.with_stack(index, |stack, _| stack.take_reports())
    }

    /// Updates local node `index`'s local value (takes effect at its
    /// next epoch).
    fn set_local_value(&self, index: usize, value: f64) {
        self.with_stack(index, |stack, _| stack.set_local_value(value));
    }

    /// Drains the protocol trace events local node `index` recorded since
    /// the last call. Empty unless the runtime was configured with
    /// tracing enabled ([`crate::mux::MuxClusterConfig::with_trace`]).
    fn take_trace(&self, index: usize) -> Vec<TraceEvent> {
        self.with_stack(index, |stack, _| stack.take_trace())
    }

    /// Installs a named query at local node `index`; catalog gossip
    /// spreads it to the rest of the cluster epidemically.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidDescriptor`] on a malformed descriptor,
    /// [`QueryError::Conflict`] when a live query of the same name has a
    /// different descriptor.
    fn install_query(&self, index: usize, descriptor: QueryDescriptor) -> Result<(), QueryError> {
        self.with_stack(index, |stack, now| stack.install(descriptor, now))
    }

    /// Removes (tombstones) a named query at local node `index`; the
    /// removal spreads like the install did.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownQuery`] when no live query of that name is
    /// installed at the node yet.
    fn remove_query(&self, index: usize, name: &str) -> Result<(), QueryError> {
        self.with_stack(index, |stack, now| stack.remove(name, now))
    }

    /// Submits local node `index`'s contribution to a named query,
    /// subject to the query's admission limits.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownQuery`] when the query is not installed at
    /// the node, [`QueryError::AdmissionRejected`] when the node's token
    /// bucket for the query is empty.
    fn submit_query(&self, index: usize, name: &str, value: f64) -> Result<(), QueryError> {
        self.with_stack(index, |stack, now| stack.submit(name, value, now))
    }

    /// Reads the named query's current estimate at local node `index`.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownQuery`] when the query is not installed at
    /// the node, [`QueryError::NotReady`] before the first readable
    /// state exists.
    fn query_estimate(&self, index: usize, name: &str) -> Result<QueryEstimate, QueryError> {
        self.with_stack(index, |stack, _| stack.estimate(name))
    }

    /// Drains every local node's epoch reports, indexed by local node.
    fn take_all_reports(&self) -> Vec<Vec<EpochReport>> {
        (0..self.node_count())
            .map(|i| self.take_reports(i))
            .collect()
    }

    /// This handle's [`TrafficCounts`]: its registry's traffic series,
    /// plus every local node's bootstrap join retries.
    fn total_datagram_counts(&self) -> TrafficCounts {
        let join_retries = (0..self.node_count())
            .map(|i| self.with_stack(i, |stack, _| stack.join_retries()))
            .sum();
        TrafficCounts {
            join_retries,
            ..TrafficCounts::read(self.registry())
        }
    }
}
