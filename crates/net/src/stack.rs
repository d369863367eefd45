//! The sans-io node stack every embedding steps.
//!
//! The paper's node is one thing: Figure 1's active and passive behavior
//! over `GETNEIGHBOR()`, with every concurrent aggregate sharing that
//! substrate. [`NodeStack`] is that thing — the base [`GossipNode`], its
//! [`PeerDirectory`] and the multi-tenant [`QueryPlane`] — wired once:
//! which plane is polled first, how the three deadlines fold into one,
//! which ledger a frame's bytes land on. An embedding supplies what is
//! left: a clock, a transport, and a lock if it shares the stack with an
//! operator handle. It feeds [`NodeStack::step`] a timer wake or a decoded
//! frame and receives every outbound as a borrowed
//! `(NodeId, WireFrame, Plane)` through a sink — nothing is encoded,
//! buffered or allocated on the embedding's behalf, and the embedding
//! owns the id → socket map.
//!
//! Two embeddings do: the mux runtime ([`crate::mux`]) and the event
//! simulator (`epidemic-sim`), whose delay/loss/crash/churn model is the
//! seeded in-memory transport under the very same wiring; `tests/stack.rs`
//! steps it on a counter clock with no transport at all. [`Convergence`]
//! and [`Traffic`] are what the embeddings publish about it: the
//! convergence-health series and the per-plane traffic series, each
//! computed in one place.

use crate::cluster::TrafficCounts;
use crate::codec::{WireFrame, WirePayload};
use crate::directory::{Destination, DirectoryMessage, DirectoryPayload, PeerDirectory};
use epidemic_aggregation::convergence::{observed_rho, EpochWindow};
use epidemic_aggregation::node::GossipNode;
use epidemic_aggregation::{EpochReport, NodeConfig};
use epidemic_common::NodeId;
use epidemic_query::{
    QueryDescriptor, QueryEpoch, QueryError, QueryEstimate, QueryOutbound, QueryPlane,
    QueryPlaneConfig, RpcRequest, RpcResponse,
};
use epidemic_telemetry::{Counter, Gauge, Registry, TraceEvent, ViewHealth};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// What an embedding feeds [`NodeStack::step`].
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// A timer deadline fired (or the embedding polls on a fixed tick):
    /// run the active behavior of every plane.
    Wake,
    /// A decoded frame arrived.
    Frame(&'a WirePayload),
}

/// The traffic ledger a frame belongs to (see [`Traffic`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// A push-pull exchange of the base aggregate.
    Aggregation,
    /// View gossip and join/introduce bootstrap.
    Membership,
    /// Catalog gossip or a named query's exchange.
    Query,
}

impl Plane {
    /// The ledger an outbound frame is charged to.
    pub fn of(frame: &WireFrame<'_>) -> Plane {
        match frame {
            WireFrame::Aggregation(_) => Plane::Aggregation,
            WireFrame::Directory(_) => Plane::Membership,
            WireFrame::Catalog(..) | WireFrame::Query(..) => Plane::Query,
        }
    }

    /// The ledger a received frame counts on; `None` for client RPC,
    /// which is not protocol traffic.
    pub fn of_received(payload: &WirePayload) -> Option<Plane> {
        match payload {
            WirePayload::Aggregation(_) => Some(Plane::Aggregation),
            WirePayload::Directory(_) => Some(Plane::Membership),
            WirePayload::Catalog { .. } | WirePayload::Query { .. } => Some(Plane::Query),
            WirePayload::Rpc(_) | WirePayload::RpcReply(_) => None,
        }
    }

    /// Index of the ledger this plane's frames count on — aggregation,
    /// membership, query.
    pub fn ledger(self) -> usize {
        self as usize
    }
}

/// One node's protocol state: base aggregate, membership, query plane.
///
/// The directory is stored inline. The mux runtime picks its directory at
/// run time and takes the boxed default; an embedding with one directory type
/// names it and reads it back typed through [`NodeStack::directory`].
#[derive(Debug)]
pub struct NodeStack<D = Box<dyn PeerDirectory>> {
    gossip: GossipNode,
    directory: D,
    plane: QueryPlane,
    /// Membership frames of the step in progress (always drained before
    /// `step` returns; kept for its capacity).
    dir_out: Vec<DirectoryMessage>,
}

impl<D: PeerDirectory> NodeStack<D> {
    /// Builds the stack of founding node `id`: every plane derives its
    /// randomness from `seed` and the id, so a node's behavior is a
    /// function of those two alone — not of which runtime hosts it.
    /// Per-query metrics go to `registry`.
    pub fn founder(
        id: NodeId,
        node_config: NodeConfig,
        local_value: f64,
        seed: u64,
        directory: D,
        query: QueryPlaneConfig,
        registry: Registry,
    ) -> Self {
        let gossip = GossipNode::founder(id, node_config, local_value, seed);
        Self::assemble(gossip, seed, directory, query, registry)
    }

    /// Builds the stack of a node joining a running system (Section 4.2):
    /// the contacted member supplied the running epoch `current_epoch`
    /// and the tick `next_epoch_at` at which the next one is expected, so
    /// the base aggregate sits out the running epoch
    /// ([`GossipNode::joiner`]). Membership bootstraps through
    /// `directory`'s introducers and the query catalog arrives by gossip,
    /// both from the first [`Input::Wake`] on.
    #[allow(clippy::too_many_arguments)]
    pub fn joiner(
        id: NodeId,
        node_config: NodeConfig,
        local_value: f64,
        seed: u64,
        current_epoch: u64,
        next_epoch_at: u64,
        directory: D,
        query: QueryPlaneConfig,
        registry: Registry,
    ) -> Self {
        let gossip = GossipNode::joiner(
            id,
            node_config,
            local_value,
            seed,
            current_epoch,
            next_epoch_at,
        );
        Self::assemble(gossip, seed, directory, query, registry)
    }

    fn assemble(
        mut gossip: GossipNode,
        seed: u64,
        directory: D,
        query: QueryPlaneConfig,
        registry: Registry,
    ) -> Self {
        gossip.set_registry(registry.clone());
        NodeStack {
            plane: QueryPlane::new(gossip.id(), query, seed, registry),
            gossip,
            directory,
            dir_out: Vec::new(),
        }
    }

    /// Keeps a bounded ring of `capacity` protocol events per plane,
    /// drained by [`NodeStack::take_trace`]; 0, the initial state, records
    /// nothing.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.gossip.set_trace_capacity(capacity);
        self.directory.set_trace_capacity(capacity);
    }

    /// Advances the stack by one input at tick `now`, handing every frame
    /// to transmit to `sink` in order, with the node it is for: the base
    /// aggregate's, then membership's, then the query plane's.
    ///
    /// Client RPC is not a step input (see [`NodeStack::rpc`]); such a
    /// frame is dropped.
    pub fn step(
        &mut self,
        input: Input<'_>,
        now: u64,
        mut sink: impl FnMut(NodeId, WireFrame<'_>, Plane),
    ) {
        let mut query_out = Vec::new();
        let mut query_reply = None;
        let outbound = match input {
            Input::Wake => {
                // Peers are drawn lazily, one per initiated exchange, so
                // this order fixes every plane's draw sequence.
                let out = self.gossip.poll_sampler(now, &mut self.directory);
                query_out = self.plane.poll(now, &mut self.directory);
                self.directory.poll(now, &mut self.dir_out);
                out
            }
            Input::Frame(payload) => match payload {
                WirePayload::Aggregation(msg) => self.gossip.handle(msg, now),
                WirePayload::Directory(payload) => {
                    self.directory.handle(payload, None, now, &mut self.dir_out);
                    None
                }
                WirePayload::Catalog { entries, .. } => {
                    self.plane.handle_catalog(entries, now);
                    None
                }
                WirePayload::Query { query, message } => {
                    query_reply = self.plane.handle_aggregation(query, message, now);
                    None
                }
                WirePayload::Rpc(_) | WirePayload::RpcReply(_) => None,
            },
        };
        let me = self.gossip.id();
        let mut emit = |to: NodeId, frame: WireFrame<'_>| sink(to, frame, Plane::of(&frame));
        if let Some(out) = &outbound {
            emit(out.to, WireFrame::Aggregation(&out.message));
        }
        for msg in self.dir_out.drain(..) {
            let Destination::Node(to) = msg.to;
            emit(to, WireFrame::Directory(&msg.payload));
        }
        for out in query_out.iter().chain(&query_reply) {
            let (to, frame) = match out {
                QueryOutbound::Aggregation { to, query, message } => {
                    (*to, WireFrame::Query(query, message))
                }
                QueryOutbound::Catalog { to, entries } => (*to, WireFrame::Catalog(me, entries)),
            };
            emit(to, frame);
        }
    }

    /// Serves one client RPC — every node holds the aggregate, so any
    /// stack is a valid endpoint. An install or remove moves
    /// [`NodeStack::next_deadline`].
    pub fn rpc(&mut self, request: &RpcRequest, now: u64) -> RpcResponse {
        self.plane.handle_rpc(request, now)
    }

    /// The earliest tick any plane needs a [`Input::Wake`] at.
    pub fn next_deadline(&self) -> u64 {
        self.gossip
            .next_deadline()
            .min(self.directory.next_deadline())
            .min(self.plane.next_deadline())
    }

    /// Updates the base aggregate's local value (takes effect at the next
    /// epoch).
    pub fn set_local_value(&mut self, value: f64) {
        self.gossip.set_local_value(value);
    }

    /// Installs a named query here; catalog gossip spreads it. Moves
    /// [`NodeStack::next_deadline`].
    ///
    /// # Errors
    ///
    /// Propagates [`QueryPlane::install`] failures.
    pub fn install(&mut self, descriptor: QueryDescriptor, now: u64) -> Result<(), QueryError> {
        self.plane.install(descriptor, now)
    }

    /// Removes (tombstones) a named query here. Moves
    /// [`NodeStack::next_deadline`].
    ///
    /// # Errors
    ///
    /// Propagates [`QueryPlane::remove`] failures.
    pub fn remove(&mut self, name: &str, now: u64) -> Result<(), QueryError> {
        self.plane.remove(name, now)
    }

    /// Submits this node's contribution to a named query, subject to its
    /// admission limits.
    ///
    /// # Errors
    ///
    /// Propagates [`QueryPlane::submit`] failures.
    pub fn submit(&mut self, name: &str, value: f64, now: u64) -> Result<(), QueryError> {
        self.plane.submit(name, value, now)
    }

    /// Reads a named query's current estimate at this node.
    ///
    /// # Errors
    ///
    /// Propagates [`QueryPlane::estimate`] failures.
    pub fn estimate(&mut self, name: &str) -> Result<QueryEstimate, QueryError> {
        self.plane.estimate(name)
    }

    /// Drains the base aggregate's epoch reports.
    pub fn take_reports(&mut self) -> Vec<EpochReport> {
        self.gossip.take_reports()
    }

    /// Drains the completed query epochs (per-query drift telemetry; an
    /// embedding without a registry still drains them to bound memory).
    pub fn take_query_epochs(&mut self) -> Vec<QueryEpoch> {
        self.plane.take_epochs()
    }

    /// Drains the recorded protocol events, aggregation plane first
    /// (empty unless [`NodeStack::set_trace_capacity`] enabled tracing).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        let mut events = self.gossip.take_trace();
        events.extend(self.directory.take_trace());
        events
    }

    /// The membership view's health (`None` for a static directory).
    pub fn view_health(&self, now: u64) -> Option<ViewHealth> {
        self.directory.view_health(now)
    }

    /// Bootstrap `Join`s re-sent after the first went unanswered.
    pub fn join_retries(&self) -> u64 {
        self.directory.join_retries()
    }

    /// The membership directory, as the type the embedding built it with.
    pub fn directory(&self) -> &D {
        &self.directory
    }

    /// Epoch the base aggregate participates in (or, joining, waits out).
    pub fn epoch(&self) -> u64 {
        self.gossip.epoch()
    }

    /// Cycles the base aggregate completed in its current epoch — with
    /// [`NodeStack::epoch`], what an introducer tells a joiner.
    pub fn cycles_run(&self) -> u32 {
        self.gossip.cycles_run()
    }

    /// Names of the queries installed here, in catalog order.
    pub fn installed_queries(&self) -> Vec<String> {
        self.plane.installed()
    }
}

/// The convergence-health series of one cluster, whichever embedding
/// hosts it: `epoch.variance_reduction_rho` next to the `epoch.rho_theory`
/// bound 1/(2√e), `epoch.estimate_drift` (and its `{query=…}` twins), and
/// the counters `agg.exchanges`, `membership.delta_bytes`, `agg.*_refused`.
/// An embedding feeds it what it drains from its stacks and what its
/// sinks are handed; nothing here is per node.
#[derive(Debug)]
pub struct Convergence {
    registry: Registry,
    /// Variance of the spawn-time local values — every epoch's var_0,
    /// since epochs restart from fresh local values.
    var0: f64,
    /// Epoch length γ in cycles.
    gamma: u32,
    epochs: Mutex<EpochWindow>,
    rho: Gauge,
    drift: Gauge,
    queries: Mutex<BTreeMap<String, (EpochWindow, Gauge)>>,
    exchanges: Counter,
    delta_bytes: Counter,
}

impl Convergence {
    /// Registers the series in `registry` for a cluster whose local
    /// values start with population variance `var0` and whose epochs last
    /// `gamma` cycles.
    pub fn new(registry: &Registry, var0: f64, gamma: u32) -> Self {
        registry
            .gauge("epoch.rho_theory")
            .set(0.5 / std::f64::consts::E.sqrt());
        registry.counter_with("agg.states_refused", &[("reason", "non_finite")]);
        registry.counter_with("agg.states_refused", &[("reason", "map_too_large")]);
        registry.counter("agg.epoch_jumps_refused");
        Convergence {
            var0,
            gamma,
            epochs: Mutex::default(),
            rho: registry.gauge("epoch.variance_reduction_rho"),
            drift: registry.gauge("epoch.estimate_drift"),
            queries: Mutex::default(),
            exchanges: registry.counter("agg.exchanges"),
            delta_bytes: registry.counter("membership.delta_bytes"),
            registry: registry.clone(),
        }
    }

    /// Folds drained base-aggregate reports in: each is one node's
    /// end-of-epoch estimate, so the cross-node variance of one epoch's
    /// reports against `var0` yields the observed per-cycle ρ, and their
    /// spread the drift.
    pub fn observe_reports(&self, reports: &[EpochReport]) {
        if reports.is_empty() || !self.registry.is_enabled() {
            return;
        }
        let mut epochs = self.epochs.lock().expect("epoch window poisoned");
        for r in reports {
            let Some(stats) = r.scalar(0).and_then(|est| epochs.observe(r.epoch, est)) else {
                continue;
            };
            if let Some(rho) = observed_rho(self.var0, stats.population_variance(), self.gamma) {
                self.rho.set(rho);
            }
            self.drift.set(stats.spread());
        }
    }

    /// Folds drained query epochs into `epoch.estimate_drift{query=…}` —
    /// the spread of each query's newest epoch with two estimates.
    pub fn observe_query_epochs(&self, epochs: &[QueryEpoch]) {
        if epochs.is_empty() || !self.registry.is_enabled() {
            return;
        }
        let mut queries = self.queries.lock().expect("query windows poisoned");
        for e in epochs {
            let Some(est) = e.estimate else { continue };
            let (window, gauge) = queries.entry(e.query.clone()).or_insert_with(|| {
                let labels = [("query", e.query.as_str())];
                let gauge = self.registry.gauge_with("epoch.estimate_drift", &labels);
                (EpochWindow::default(), gauge)
            });
            if let Some(stats) = window.observe(e.epoch, est) {
                gauge.set(stats.spread());
            }
        }
    }

    /// Counts one frame a sink was handed and charged `bytes` for: a
    /// base-aggregate request is one exchange initiated; a delta view's
    /// bytes are delta bytes.
    pub fn count(&self, frame: &WireFrame<'_>, bytes: u64) {
        match frame {
            WireFrame::Aggregation(_) if frame.opens_exchange() => self.exchanges.inc(),
            WireFrame::Directory(DirectoryPayload::View { delta: true, .. }) => {
                self.delta_bytes.add(bytes);
            }
            _ => {}
        }
    }
}

/// The traffic series of one embedding, resolved once in its registry for
/// every stack it hosts: `io.{frames_sent,bytes_sent,frames_received}`
/// per [`Plane`] ledger (and `sim.frames_lost` in the simulator),
/// `io.send_errors`, `rpc.{requests,rejects}`. The one place a plane
/// becomes a series; [`TrafficCounts`] is a read of these series.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// Per ledger, indexed by [`Plane::ledger`].
    sent: [Counter; 3],
    bytes: [Counter; 3],
    received: [Counter; 3],
    lost: [Counter; 3],
    send_errors: Counter,
    rpc_requests: Counter,
    rpc_rejects: Counter,
}

impl Traffic {
    /// The `plane` label values, indexed by [`Plane::ledger`].
    const PLANES: [&'static str; 3] = ["aggregation", "membership", "query"];

    /// Registers a wire runtime's traffic series in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self::register(registry, &Registry::disabled())
    }

    /// [`Traffic::new`] plus `sim.frames_lost{plane}`: the frames the
    /// simulated loss model dropped.
    pub fn simulated(registry: &Registry) -> Self {
        Self::register(registry, registry)
    }

    /// `sim.frames_lost` goes to `loss` (disabled outside the simulator).
    fn register(registry: &Registry, loss: &Registry) -> Self {
        let series = |registry: &Registry, name| {
            Self::PLANES.map(|plane| registry.counter_with(name, &[("plane", plane)]))
        };
        Traffic {
            sent: series(registry, "io.frames_sent"),
            bytes: series(registry, "io.bytes_sent"),
            received: series(registry, "io.frames_received"),
            lost: series(loss, "sim.frames_lost"),
            send_errors: registry.counter("io.send_errors"),
            rpc_requests: registry.counter("rpc.requests"),
            rpc_rejects: registry.counter("rpc.rejects"),
        }
    }

    /// Counts one frame of `bytes` wire bytes sent on `plane`.
    pub fn sent(&self, plane: Plane, bytes: u64) {
        self.sent[plane.ledger()].inc();
        self.bytes[plane.ledger()].add(bytes);
    }

    /// Counts one frame received on `plane`.
    pub fn received(&self, plane: Plane) {
        self.received[plane.ledger()].inc();
    }

    /// Counts one frame sent on `plane` that the simulated loss model
    /// dropped (a no-op outside [`Traffic::simulated`]).
    pub fn lost(&self, plane: Plane) {
        self.lost[plane.ledger()].inc();
    }

    /// Counts one frame in a datagram the kernel refused: it is on no
    /// plane's sent ledger, so outbound backpressure shows here instead.
    pub fn send_error(&self) {
        self.send_errors.inc();
    }

    /// Counts one client RPC served and, if `response` rejects it, one
    /// rejection — surfaced here as well as to the caller.
    pub fn rpc(&self, response: &RpcResponse) {
        self.rpc_requests.inc();
        if response.status.is_reject() {
            self.rpc_rejects.inc();
        }
    }

    /// Frames the simulated loss model dropped so far, per ledger.
    pub fn frames_lost(&self) -> [u64; 3] {
        std::array::from_fn(|i| self.lost[i].get())
    }

    /// The series' current values (`join_retries` is 0: the directories
    /// own that count).
    pub(crate) fn counts(&self) -> TrafficCounts {
        TrafficCounts {
            aggregation_sent: self.sent[0].get(),
            aggregation_received: self.received[0].get(),
            membership_sent: self.sent[1].get(),
            membership_received: self.received[1].get(),
            query_sent: self.sent[2].get(),
            query_received: self.received[2].get(),
            aggregation_bytes_sent: self.bytes[0].get(),
            membership_bytes_sent: self.bytes[1].get(),
            query_bytes_sent: self.bytes[2].get(),
            send_errors: self.send_errors.get(),
            join_retries: 0,
            rpc_rejects: self.rpc_rejects.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_query::RpcStatus;

    #[test]
    fn traffic_charges_every_plane() {
        let registry = Registry::new();
        let traffic = Traffic::simulated(&registry);
        traffic.sent(Plane::Aggregation, 40);
        traffic.sent(Plane::Aggregation, 70);
        traffic.sent(Plane::Membership, 38);
        traffic.sent(Plane::Query, 24);
        for plane in [
            Plane::Aggregation,
            Plane::Aggregation,
            Plane::Membership,
            Plane::Query,
        ] {
            traffic.received(plane);
        }
        traffic.lost(Plane::Query);
        traffic.send_error();
        traffic.rpc(&RpcResponse::reject(1, RpcStatus::UnknownQuery));
        traffic.rpc(&RpcResponse::ack(2));
        let c = TrafficCounts::read(&registry);
        assert_eq!((c.aggregation_sent, c.aggregation_bytes_sent), (2, 110));
        assert_eq!((c.membership_sent, c.membership_bytes_sent), (1, 38));
        assert_eq!((c.query_sent, c.query_bytes_sent), (1, 24));
        assert_eq!((c.aggregation_received, c.received()), (2, 4));
        assert_eq!((c.send_errors, c.rpc_rejects), (1, 1));
        assert_eq!(registry.counter_value("rpc.requests"), 2);
        assert_eq!(traffic.frames_lost(), [0, 0, 1]);
        // Reads add up, and their ratios are per aggregation byte.
        let mut more = c;
        more.join_retries = 3;
        let sum = c + more;
        assert_eq!((sum.sent(), sum.received(), sum.send_errors), (8, 8, 2));
        assert_eq!((sum.join_retries, sum.rpc_rejects), (3, 2));
        assert_eq!(sum.membership_byte_overhead(), 38.0 / 110.0);
        assert_eq!(sum.query_byte_overhead(), 24.0 / 110.0);
        let zero = TrafficCounts::default();
        assert_eq!(zero.membership_byte_overhead(), 0.0);
        assert_eq!(zero.query_byte_overhead(), 0.0);
        // No byte is lost, and scrapers see the labelled series.
        assert_eq!(registry.counter_value("io.bytes_sent"), 172);
        let text = registry.render_prometheus();
        assert!(text.contains("io_frames_sent{plane=\"aggregation\"} 2"));
        // A wire runtime publishes no simulated loss.
        let wire = Registry::new();
        Traffic::new(&wire).lost(Plane::Aggregation);
        assert!(!wire.render_prometheus().contains("sim_frames_lost"));
    }
}
