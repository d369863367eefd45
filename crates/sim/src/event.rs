//! Event-driven engine.
//!
//! The cycle model of [`crate::network`] abstracts away everything the
//! *practical* protocol of Section 4 exists to handle: message delay,
//! clock drift, exchange timeouts, and epoch synchronization. This engine
//! simulates those effects faithfully by driving the sans-io
//! [`GossipNode`] state machine with a timestamped event queue:
//!
//! * every node runs on its own skewed clock (`local = global × drift_i`);
//! * messages arrive after a uniformly random delay, or never (loss);
//! * nodes are woken exactly at their next self-reported deadline, by one
//!   live timer each: a deadline that moves earlier queues a new wake and
//!   strands the old one, which is skipped when it pops.
//!
//! Conditions come from the same engine-independent
//! [`Scenario`](crate::scenario::Scenario) the cycle engine consumes:
//! pluggable overlays (complete, static [`Graph`], NEWSCAST), a
//! [`ValueInit`](crate::scenario::ValueInit)-driven local value per node,
//! crash/churn schedules applied at cycle-boundary ticks by killing nodes
//! (dropping their in-flight deliveries) and bootstrapping joiners
//! through live introducers, and message/link loss probabilities.
//!
//! `OverlaySpec::Newscast` is simulated *event by event* (Section 4.4):
//! every node runs a [`MembershipNode`] next to its aggregation state
//! machine, view exchanges travel through the same delay/loss model as
//! aggregation messages, `GETNEIGHBOR()` draws from the node's own
//! partial view (so stale entries really do cost timeouts), and churn
//! joiners bootstrap their view from an introducer's snapshot. The
//! pre-PR-3 idealization — uniform sampling over the global live set —
//! is kept as [`MembershipModel::Idealized`] for ablations.
//!
//! The event queue is a single binary heap of ordered [`Event`] structs
//! carrying their payloads inline — one push and one pop per event, no
//! side-table bookkeeping on the hottest loop in the repo.
//!
//! The headline measurement is the *epoch entry spread* `T_j` (Section
//! 4.3): the global-time window within which all live nodes enter epoch
//! `j`. With epidemic epoch synchronization the spread stays bounded by a
//! few message delays; without it, clock drift widens it without bound —
//! the ablation `repro ablation-sync` demonstrates exactly this.

use crate::scenario::{OverlaySpec, Scenario};
use epidemic_aggregation::convergence::{observed_rho, EpochWindow};
use epidemic_aggregation::message::MessageBody;
use epidemic_aggregation::node::GossipNode;
use epidemic_aggregation::{EpochReport, InstanceSpec, Message, NodeConfig, PeerSampler};
use epidemic_common::rng::Xoshiro256;
use epidemic_common::sample::NeighborSampling;
use epidemic_common::stats::OnlineStats;
use epidemic_common::NodeId;
use epidemic_newscast::node::{MembershipConfig, MembershipNode, ViewPayload};
use epidemic_newscast::Descriptor;
use epidemic_query::{
    QueryEstimate, QueryOutbound, QueryPlane, QueryPlaneConfig, RpcRequest, RpcResponse, RpcStatus,
};
use epidemic_telemetry::{write_snapshot, Counter, Gauge, Registry, TraceEvent};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::path::PathBuf;

use epidemic_topology::Graph;

/// How the event engine realizes `OverlaySpec::Newscast`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MembershipModel {
    /// Simulate NEWSCAST membership event by event: per-node partial
    /// views, view exchanges through the same delay/loss model as
    /// aggregation traffic, peers drawn from the local view. Exchanges
    /// ship *delta* views — only the descriptors the partner has not
    /// seen — with a periodic full-view anti-entropy fallback.
    #[default]
    Gossip,
    /// Like [`MembershipModel::Gossip`] but every exchange ships the
    /// full view, as the protocol did before delta gossip. Kept for
    /// bandwidth ablations against the delta model.
    FullViews,
    /// Idealize membership as uniform sampling over the global live set —
    /// the "sufficiently random" overlay NEWSCAST maintains, with the
    /// maintenance cost and staleness effects abstracted away. Kept for
    /// ablations against the gossiped model.
    Idealized,
}

/// Configuration of an event-driven simulation: the shared [`Scenario`]
/// plus the timing model only this engine has.
#[derive(Debug, Clone)]
pub struct EventConfig {
    /// Conditions shared with the cycle-driven engine.
    pub scenario: Scenario,
    /// Protocol configuration shared by all nodes.
    pub node: NodeConfig,
    /// Uniform message delay range `[min, max)` in ticks.
    pub delay: (u64, u64),
    /// Maximum relative clock drift: node clocks run at a rate drawn
    /// uniformly from `[1 − drift, 1 + drift]`.
    pub drift: f64,
    /// Global simulation duration in ticks.
    pub duration: u64,
    /// How `OverlaySpec::Newscast` is simulated (gossiped by default).
    pub membership: MembershipModel,
    /// Per-node protocol event ring capacity; 0 disables tracing. When
    /// enabled, the drained events come back in
    /// [`EventOutcome::traces`].
    pub trace_capacity: usize,
    /// Periodic Prometheus-text snapshots of the sim's metrics registry
    /// (the cycle-driven twin of the wire runtimes' `/metrics`
    /// endpoint); `None` still populates [`EventOutcome::registry`].
    pub snapshot: Option<SnapshotSpec>,
    /// Query-plane tuning shared by every node (catalog gossip cadence,
    /// rumor boost, COUNT concurrency).
    pub query: QueryPlaneConfig,
    /// Scripted client RPCs against the query plane, the sim twin of a
    /// client datagram arriving at one node's RPC endpoint. An empty
    /// script (the default) leaves the run event-for-event identical to
    /// a build without the query plane: query traffic draws from its own
    /// RNG stream and schedules no events until a query exists.
    pub query_script: Vec<QueryAction>,
}

/// One scripted query-plane RPC: `request` hits `node`'s endpoint at
/// global tick `at`, exactly as if a client datagram had arrived there.
/// Responses come back in script order in [`EventOutcome::query_responses`].
#[derive(Debug, Clone)]
pub struct QueryAction {
    /// Global tick the request arrives.
    pub at: u64,
    /// Node whose RPC endpoint serves the request (any node is valid —
    /// that is the point of the paper).
    pub node: u32,
    /// The client request.
    pub request: RpcRequest,
}

/// Where and how often [`EventConfig::snapshot`] writes the registry.
#[derive(Debug, Clone)]
pub struct SnapshotSpec {
    /// Destination file, atomically replaced on every write.
    pub path: PathBuf,
    /// Global-tick interval between writes (a final snapshot is always
    /// written when the run ends).
    pub every_ticks: u64,
}

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig {
            scenario: Scenario::default(),
            node: NodeConfig::builder()
                .gamma(15)
                .cycle_length(1_000)
                .timeout(200)
                .instance(InstanceSpec::AVERAGE)
                .build()
                .expect("default node config is valid"),
            delay: (10, 50),
            drift: 0.0,
            duration: 40_000,
            membership: MembershipModel::Gossip,
            trace_capacity: 0,
            snapshot: None,
            query: QueryPlaneConfig::default(),
            query_script: Vec::new(),
        }
    }
}

impl EventConfig {
    /// Runs the simulation deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent scenario (see
    /// [`Scenario::validate`](crate::scenario::Scenario::validate)) or an
    /// empty delay range.
    pub fn run(&self, seed: u64) -> EventOutcome {
        EventSim::new(self, seed).run()
    }
}

/// Runs `seeds.len()` independent repetitions across OS threads, returning
/// outcomes in seed order — the event-engine twin of
/// [`crate::experiment::run_many`].
pub fn run_many(config: &EventConfig, seeds: &[u64]) -> Vec<EventOutcome> {
    crate::pool::parallel_map_seeds(seeds, |seed| config.run(seed))
}

/// Result of an event-driven simulation.
#[derive(Debug)]
pub struct EventOutcome {
    /// Per-node epoch reports, indexed by node.
    pub reports: Vec<Vec<EpochReport>>,
    /// For each observed epoch: `(epoch, first_entry, last_entry)` in
    /// global ticks over nodes that entered it.
    pub epoch_entries: Vec<(u64, u64, u64)>,
    /// Aggregation messages transmitted.
    pub messages_sent: usize,
    /// Aggregation messages dropped by the loss model.
    pub messages_lost: usize,
    /// Membership view-exchange messages transmitted (gossiped NEWSCAST
    /// only; the cost the idealized model hides).
    pub view_messages_sent: usize,
    /// Wire bytes of the transmitted view exchanges, priced by the real
    /// codec ([`epidemic_net::codec::view_message_len`]): a full view
    /// carries the sender's `c` descriptors plus a fresh self-descriptor
    /// (`view_message_len(c + 1)` per direction); a delta
    /// ([`MembershipModel::Gossip`]) carries only the descriptors the
    /// partner has not seen, and is priced accordingly.
    pub view_bytes_sent: usize,
    /// Membership view-exchange messages dropped by the loss model.
    pub view_messages_lost: usize,
    /// Health of the live population's partial views when the simulation
    /// ended (`None` unless membership was gossiped).
    pub view_health: Option<crate::metrics::ViewHealth>,
    /// Nodes alive when the simulation ended.
    pub final_alive: usize,
    /// Per-node protocol event traces (aggregation plane, then
    /// membership plane); all empty unless
    /// [`EventConfig::trace_capacity`] was set.
    pub traces: Vec<Vec<TraceEvent>>,
    /// The run's metrics registry: traffic counters plus the derived
    /// convergence gauges (`epoch.variance_reduction_rho` vs the
    /// `epoch.rho_theory` bound 1/(2√e), `epoch.estimate_drift`) — the
    /// same namespace the wire runtimes expose over `/metrics`.
    pub registry: Registry,
    /// Responses to the scripted query RPCs, in script order. A request
    /// aimed at a crashed node is answered `NotReady`, the sim stand-in
    /// for a client timeout.
    pub query_responses: Vec<RpcResponse>,
    /// Final per-node readout of every query still installed when the
    /// run ended: `(query name, node, estimate)`, nodes in ascending
    /// order.
    pub query_estimates: Vec<(String, u32, QueryEstimate)>,
    /// Query-plane messages transmitted (catalog gossip + per-query
    /// aggregation exchanges).
    pub query_messages_sent: usize,
    /// Query-plane messages dropped by the loss model.
    pub query_messages_lost: usize,
    /// Wire bytes of the transmitted query-plane messages, priced by the
    /// real codec ([`epidemic_net::codec::catalog_message_len`] /
    /// [`epidemic_net::codec::query_message_len`]).
    pub query_bytes_sent: usize,
}

impl EventOutcome {
    /// Spread `T_j = last − first` of epoch `j`'s entry window, if
    /// observed.
    pub fn epoch_spread(&self, epoch: u64) -> Option<u64> {
        self.epoch_entries
            .iter()
            .find(|&&(e, _, _)| e == epoch)
            .map(|&(_, first, last)| last - first)
    }

    /// All scalar estimates (instance 0) reported for `epoch`, across
    /// nodes.
    pub fn epoch_estimates(&self, epoch: u64) -> Vec<f64> {
        self.reports
            .iter()
            .flatten()
            .filter(|r| r.epoch == epoch)
            .filter_map(|r| r.scalar(0))
            .collect()
    }

    /// Mean of the scalar estimates reported for `epoch`, or `None` if no
    /// node completed it.
    pub fn mean_epoch_estimate(&self, epoch: u64) -> Option<f64> {
        let estimates = self.epoch_estimates(epoch);
        if estimates.is_empty() {
            None
        } else {
            Some(epidemic_common::stats::mean(&estimates))
        }
    }

    /// Final per-node values of the named query, in ascending node order.
    pub fn query_values(&self, name: &str) -> Vec<f64> {
        self.query_estimates
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, _, est)| est.value)
            .collect()
    }
}

/// One scheduled event, payload inline. Ordered as a *min*-heap key on
/// `(at, seq)` so `BinaryHeap::pop` yields events in time order without a
/// `Reverse` wrapper or a side table of payloads.
#[derive(Debug)]
struct Event {
    at: u64,
    seq: u64,
    kind: EventKind,
}

#[derive(Debug)]
enum EventKind {
    /// Poll node `i` (its clock reached a self-reported deadline).
    Wake(u32),
    /// Deliver a message to node `i`.
    Deliver(u32, Message),
    /// Apply the failure schedule for cycle `k` (cycle boundaries in
    /// nominal global time).
    FailureTick(u32),
    /// Poll node `i`'s membership timer (gossiped NEWSCAST only).
    WakeView(u32),
    /// Deliver a membership view exchange to node `to`. `reply` marks the
    /// passive side's answer (absorbed without a response); `full` marks a
    /// complete view rather than a delta (the wire tag's full-vs-delta
    /// bit).
    DeliverView {
        to: u32,
        reply: bool,
        full: bool,
        payload: ViewPayload,
    },
    /// Poll node `i`'s query plane (catalog gossip + per-query schedules).
    QueryWake(u32),
    /// Deliver a query-plane frame (destination is inside the payload).
    QueryDeliver(QueryOutbound),
    /// Apply entry `i` of [`EventConfig::query_script`].
    QueryScript(u32),
}

/// `kind` label values of the `sim.events` counter family.
const EVENT_CLASSES: [&str; 5] = ["wake", "deliver", "view_wake", "view_deliver", "query"];

impl EventKind {
    /// Index into [`EVENT_CLASSES`], or `None` for the scenario's own
    /// `FailureTick`.
    fn class(&self) -> Option<usize> {
        match self {
            EventKind::Wake(_) => Some(0),
            EventKind::Deliver(..) => Some(1),
            EventKind::WakeView(_) => Some(2),
            EventKind::DeliverView { .. } => Some(3),
            EventKind::QueryWake(_) | EventKind::QueryDeliver(_) | EventKind::QueryScript(_) => {
                Some(4)
            }
            EventKind::FailureTick(_) => None,
        }
    }
}

/// The per-node timers whose deadline can move while their wake is queued
/// ([`EventKind::Wake`], [`EventKind::QueryWake`]); [`EventSim::wake_at`]
/// keeps each to one live wake. The membership timer moves only when its
/// own wake fires, so its single chain needs no guard.
#[derive(Debug, Clone, Copy)]
enum Timer {
    Aggregate,
    Query,
}

/// `GETNEIGHBOR()` for `node` over `overlay`. Consulted only when a cycle
/// boundary initiates an exchange, so the sim consumes peer randomness
/// exactly as the wire runtimes do. The query plane samples through it
/// too, over [`EventOverlay::LiveSet`] and its own stream, so the other
/// planes see the same draw sequence with or without queries running.
struct OverlaySampler<'a> {
    overlay: &'a mut EventOverlay,
    rng: &'a mut Xoshiro256,
    live: &'a [u32],
    live_pos: &'a [usize],
    node: usize,
}

impl PeerSampler for OverlaySampler<'_> {
    fn draw_peer(&mut self) -> Option<NodeId> {
        let peer = match self.overlay {
            EventOverlay::LiveSet => {
                // Uniform over live nodes, skipping the initiator's slot.
                let me = Some(self.live_pos[self.node]).filter(|&pos| pos != usize::MAX);
                let idx = epidemic_common::sample::index_excluding(self.rng, self.live.len(), me)?;
                u64::from(self.live[idx])
            }
            // Dead neighbors are sampled too: the request goes out and
            // silently dies, costing the initiator a timeout.
            EventOverlay::Static(g) => g.sample_neighbor(self.node, self.rng)? as u64,
            // A uniform member of the node's own partial view — possibly a
            // crashed peer that has not aged out yet, which costs a timeout
            // exactly like in a real deployment.
            EventOverlay::Newscast { members } => u64::from(members[self.node].sample_peer()?),
        };
        Some(NodeId::new(peer))
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the binary heap is a max-heap, so "greater" must mean
        // "earlier" for pops to come out in time order.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

enum EventOverlay {
    /// Uniform sampling over the live population. Models both the
    /// implicit complete graph and (idealized) NEWSCAST membership, whose
    /// job is precisely to keep the overlay sufficiently random.
    LiveSet,
    /// A static topology; dead neighbors are still sampled and discovered
    /// by timeout, as in a real deployment.
    Static(Graph),
    /// Gossiped NEWSCAST membership: one [`MembershipNode`] per slot
    /// (dead slots keep their state so stale descriptors can point at
    /// them until aged out), exchanging views via queue events.
    Newscast { members: Vec<MembershipNode> },
}

/// Event-driven simulator state, parameterized by a [`Scenario`].
///
/// Construct with [`EventSim::new`], drive to completion with
/// [`EventSim::run`]. Most callers use the [`EventConfig::run`]
/// convenience instead.
pub struct EventSim {
    node_config: NodeConfig,
    delay: (u64, u64),
    duration: u64,
    link_failure: f64,
    message_loss: f64,
    drift_bound: f64,
    failure: crate::failure::FailureModel,
    joiner_value: f64,
    joiner_seed: u64,
    /// `Some` when membership is gossiped; joiners need it to spin up
    /// their own [`MembershipNode`].
    membership_config: Option<MembershipConfig>,
    membership_seed: u64,

    rng: Xoshiro256,
    /// Dedicated stream for membership bootstrap and view-traffic draws:
    /// the main `rng` sees the same draw sequence whether membership is
    /// gossiped or idealized, keeping the two models seed-comparable.
    view_rng: Xoshiro256,
    /// Dedicated stream for query-plane peer draws and traffic: a run
    /// with an empty query script is event-for-event identical to one
    /// without the query plane at all.
    query_rng: Xoshiro256,
    nodes: Vec<GossipNode>,
    drifts: Vec<f64>,
    /// Live node ids, unordered; `live_pos[i]` is `i`'s index in `live`
    /// (or `usize::MAX` when dead, which is also the liveness check) for
    /// O(1) crash removal.
    live: Vec<u32>,
    live_pos: Vec<usize>,
    overlay: EventOverlay,

    queue: BinaryHeap<Event>,
    seq: u64,
    messages_sent: usize,
    messages_lost: usize,
    view_messages_sent: usize,
    view_bytes_sent: usize,
    view_messages_lost: usize,
    epoch_seen: Vec<u64>,
    entries: HashMap<u64, (u64, u64)>,

    /// One query plane per node slot (dead slots keep their state, same
    /// as membership); joiners get an empty plane and catch up through
    /// catalog gossip.
    planes: Vec<QueryPlane>,
    query_config: QueryPlaneConfig,
    /// Seed shared by every plane's per-query gossip nodes.
    query_seed: u64,
    query_script: Vec<QueryAction>,
    /// Earliest scheduled-and-unpopped wake per [`Timer`] per node
    /// (`u64::MAX` when none): wakes are only pushed when they move this
    /// earlier, so stale timers die instead of chaining to the end of the
    /// run.
    wake_at: [Vec<u64>; 2],
    query_messages_sent: usize,
    query_messages_lost: usize,
    query_bytes_sent: usize,
    query_responses: Vec<RpcResponse>,
    /// Per-query epoch windows behind the labeled
    /// `epoch.estimate_drift{query=…}` gauges.
    query_drift: HashMap<String, (EpochWindow, Gauge)>,

    trace_capacity: usize,
    snapshot: Option<SnapshotSpec>,
    next_snapshot: u64,
    registry: Registry,
    /// `agg.exchanges` — push-pull exchanges initiated (request sends).
    agg_exchanges: Counter,
    /// `membership.delta_bytes` — wire bytes of delta view exchanges.
    delta_bytes: Counter,
    /// `sim.live_nodes` — population size after the failure schedule.
    live_gauge: Gauge,
    /// `sim.events{kind=…}` — node events popped, indexed by
    /// [`EventKind::class`]. The scenario's own `FailureTick`s are not
    /// node events and are not counted.
    events: [Counter; 5],
    /// `sim.wakes_idle` — `Wake`s that emitted nothing and crossed no
    /// epoch (stale timers included). Against `sim.events{kind=wake}` it
    /// says how much of the queue traffic is timer churn.
    wakes_idle: Counter,
    /// `sim.queue_depth_max` — high-water mark of the event queue.
    queue_depth_max: Gauge,
    queue_peak: usize,
    rho_gauge: Gauge,
    drift_gauge: Gauge,
    /// Variance of the initial local values — every epoch's var_0, since
    /// epochs restart from fresh local values.
    var0: f64,
    /// Epoch window behind the convergence gauges.
    rho_epochs: EpochWindow,
    /// Epoch reports drained incrementally (at epoch transitions) so the
    /// gauges move while the run is live; merged with the final drain
    /// into [`EventOutcome::reports`].
    collected: Vec<Vec<EpochReport>>,
}

impl std::fmt::Debug for EventSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSim")
            .field("nodes", &self.nodes.len())
            .field("alive", &self.live.len())
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl EventSim {
    /// Builds the initial simulation state for `config` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent scenario or an empty delay range.
    pub fn new(config: &EventConfig, seed: u64) -> Self {
        let scenario = &config.scenario;
        scenario.validate();
        assert!(config.delay.1 > config.delay.0, "empty delay range");
        let n = scenario.n;
        let mut rng = Xoshiro256::seed_from_u64(seed);

        // Everything membership-related draws from its own stream,
        // decorrelated both from the per-node aggregation streams (seeded
        // from `joiner_seed`) and from the main sim RNG. Keeping the main
        // stream untouched here means an Idealized and a Gossip run of
        // the same seed materialize identical values, drifts, and failure
        // draws — the membership models stay comparable pairwise.
        let membership_seed = seed ^ 0x4E57_C057;
        let mut view_rng = Xoshiro256::seed_from_u64(membership_seed);
        let mut membership_config = None;
        let overlay = match (scenario.overlay, config.membership) {
            (OverlaySpec::Complete, _)
            | (OverlaySpec::Newscast { .. }, MembershipModel::Idealized) => EventOverlay::LiveSet,
            (OverlaySpec::Static(kind), _) => EventOverlay::Static(
                kind.generate(n, &mut rng)
                    .expect("invalid topology parameters"),
            ),
            (OverlaySpec::Newscast { c }, model) => {
                assert!(c >= 1 && c < n, "view size must satisfy 1 <= c < n");
                let mcfg = MembershipConfig {
                    view_size: c,
                    cycle_length: config.node.cycle_length(),
                    delta_views: matches!(model, MembershipModel::Gossip),
                    // The sim hosts every node in one process: track the
                    // whole partner universe so deltas stay deltas.
                    knowledge_peers: n,
                };
                membership_config = Some(mcfg);
                let mut members: Vec<MembershipNode> = (0..n)
                    .map(|i| MembershipNode::new(i as u32, mcfg, membership_seed))
                    .collect();
                // Same bootstrap as the cycle engine's `Overlay::random_init`:
                // `c` uniformly random distinct peers at timestamp 0.
                for (node, member) in members.iter_mut().enumerate() {
                    for raw in view_rng.sample_distinct(n - 1, c) {
                        let peer = if raw >= node { raw + 1 } else { raw };
                        member.add_seed(peer as u32, 0);
                    }
                }
                EventOverlay::Newscast { members }
            }
        };
        let values = scenario.values.materialize(n, &mut rng);
        let joiner_seed = seed ^ 0xE7E7;
        let mut nodes: Vec<GossipNode> = (0..n)
            .map(|i| {
                GossipNode::founder(
                    NodeId::new(i as u64),
                    config.node.clone(),
                    values[i],
                    joiner_seed,
                )
            })
            .collect();
        if config.trace_capacity > 0 {
            for node in &mut nodes {
                node.set_trace_capacity(config.trace_capacity);
            }
        }
        let spawn_stats: OnlineStats = values.iter().copied().collect();
        let registry = Registry::new();
        // The query plane's own streams, decorrelated like membership's:
        // an empty script leaves every other stream untouched.
        let query_seed = seed ^ 0x5152_594E;
        let query_rng = Xoshiro256::seed_from_u64(seed ^ 0x0051_4752);
        let planes: Vec<QueryPlane> = (0..n)
            .map(|i| {
                QueryPlane::new(
                    NodeId::new(i as u64),
                    config.query,
                    query_seed,
                    registry.clone(),
                )
            })
            .collect();
        registry
            .gauge("epoch.rho_theory")
            .set(0.5 / std::f64::consts::E.sqrt());
        registry.gauge("sim.live_nodes").set(n as f64);
        let drifts: Vec<f64> = (0..n)
            .map(|_| 1.0 + config.drift * (2.0 * rng.next_f64() - 1.0))
            .collect();
        let epoch_seen: Vec<u64> = nodes.iter().map(GossipNode::epoch).collect();
        let mut entries = HashMap::new();
        entries.insert(0, (0, 0));

        let mut sim = EventSim {
            node_config: config.node.clone(),
            delay: config.delay,
            duration: config.duration,
            link_failure: scenario.comm.link_failure,
            message_loss: scenario.comm.message_loss,
            drift_bound: config.drift,
            failure: scenario.failure,
            joiner_value: scenario.joiner_value,
            joiner_seed,
            membership_config,
            membership_seed,
            rng,
            view_rng,
            query_rng,
            nodes,
            drifts,
            live: (0..n as u32).collect(),
            live_pos: (0..n).collect(),
            overlay,
            queue: BinaryHeap::new(),
            seq: 0,
            messages_sent: 0,
            messages_lost: 0,
            view_messages_sent: 0,
            view_bytes_sent: 0,
            view_messages_lost: 0,
            epoch_seen,
            entries,
            planes,
            query_config: config.query,
            query_seed,
            query_script: config.query_script.clone(),
            wake_at: [vec![u64::MAX; n], vec![u64::MAX; n]],
            query_messages_sent: 0,
            query_messages_lost: 0,
            query_bytes_sent: 0,
            query_responses: Vec::new(),
            query_drift: HashMap::new(),
            trace_capacity: config.trace_capacity,
            next_snapshot: config
                .snapshot
                .as_ref()
                .map_or(u64::MAX, |s| s.every_ticks.max(1)),
            snapshot: config.snapshot.clone(),
            agg_exchanges: registry.counter("agg.exchanges"),
            delta_bytes: registry.counter("membership.delta_bytes"),
            live_gauge: registry.gauge("sim.live_nodes"),
            events: EVENT_CLASSES
                .map(|kind| registry.counter_with("sim.events", &[("kind", kind)])),
            wakes_idle: registry.counter("sim.wakes_idle"),
            queue_depth_max: registry.gauge("sim.queue_depth_max"),
            queue_peak: 0,
            rho_gauge: registry.gauge("epoch.variance_reduction_rho"),
            drift_gauge: registry.gauge("epoch.estimate_drift"),
            registry,
            var0: spawn_stats.population_variance(),
            rho_epochs: EpochWindow::default(),
            collected: (0..n).map(|_| Vec::new()).collect(),
        };
        // The membership plane traces through the same per-node rings.
        if config.trace_capacity > 0 {
            if let EventOverlay::Newscast { members } = &mut sim.overlay {
                for member in members.iter_mut() {
                    member.set_trace_capacity(config.trace_capacity);
                }
            }
        }
        // Failure schedule ticks at nominal cycle boundaries, starting
        // with cycle 0's failures before anything else happens.
        if !matches!(sim.failure, crate::failure::FailureModel::None) {
            sim.push(0, EventKind::FailureTick(0));
        }
        for i in 0..sim.nodes.len() {
            sim.schedule_wake(Timer::Aggregate, i, 0);
        }
        // Membership timers tick independently of the aggregation timers
        // (each node's gossip phase is its own).
        if let EventOverlay::Newscast { members } = &sim.overlay {
            let wakes: Vec<u64> = members
                .iter()
                .enumerate()
                .map(|(i, m)| sim.to_global(m.next_cycle_at(), i))
                .collect();
            for (i, at) in wakes.into_iter().enumerate() {
                sim.push(at, EventKind::WakeView(i as u32));
            }
        }
        // Scripted client RPCs against the query plane. Nothing else is
        // scheduled up front: planes wake only once a query exists.
        let script_times: Vec<u64> = sim.query_script.iter().map(|a| a.at).collect();
        for (i, at) in script_times.into_iter().enumerate() {
            sim.push(at, EventKind::QueryScript(i as u32));
        }
        sim
    }

    fn push(&mut self, at: u64, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Event {
            at,
            seq: self.seq,
            kind,
        });
        if self.queue.len() > self.queue_peak {
            self.queue_peak = self.queue.len();
            self.queue_depth_max.set(self.queue_peak as f64);
        }
    }

    fn to_local(&self, global: u64, node: usize) -> u64 {
        (global as f64 * self.drifts[node]) as u64
    }

    fn to_global(&self, local: u64, node: usize) -> u64 {
        (local as f64 / self.drifts[node]).ceil() as u64
    }

    #[inline]
    fn is_alive(&self, node: usize) -> bool {
        self.live_pos[node] != usize::MAX
    }

    fn kill(&mut self, node: usize) {
        let pos = self.live_pos[node];
        if pos == usize::MAX {
            return;
        }
        self.live.swap_remove(pos);
        if let Some(&moved) = self.live.get(pos) {
            self.live_pos[moved as usize] = pos;
        }
        self.live_pos[node] = usize::MAX;
    }

    /// Applies cycle `k`'s crash/churn schedule at global time `at`.
    fn failure_tick(&mut self, k: u32, at: u64) {
        let crashes = self.failure.crashes_at(k, self.live.len());
        if crashes > 0 {
            let victims: Vec<u32> = self
                .rng
                .sample_distinct(self.live.len(), crashes.min(self.live.len()))
                .into_iter()
                .map(|pos| self.live[pos])
                .collect();
            for v in victims {
                self.kill(v as usize);
            }
        }
        for _ in 0..self.failure.joins_at(k) {
            if self.live.is_empty() {
                break; // nobody left to introduce the joiner
            }
            let introducer = self.live[self.rng.index(self.live.len())] as usize;
            self.join(introducer, at);
        }
        // Schedule the next boundary.
        let next_at = u64::from(k + 1) * self.node_config.cycle_length();
        if next_at <= self.duration {
            self.push(next_at, EventKind::FailureTick(k + 1));
        }
        self.live_gauge.set(self.live.len() as f64);
    }

    /// Adds one joiner bootstrapped through `introducer` at global `at`
    /// (Section 4.2: the contacted member supplies the running epoch and
    /// the expected start of the next one).
    fn join(&mut self, introducer: usize, at: u64) {
        let idx = self.nodes.len();
        let drift = 1.0 + self.drift_bound * (2.0 * self.rng.next_f64() - 1.0);
        // Register the drift first so the joiner shares the same clock
        // conversions as every other node.
        self.drifts.push(drift);
        let intro = &self.nodes[introducer];
        let intro_epoch = intro.epoch();
        let remaining = u64::from(self.node_config.gamma().saturating_sub(intro.cycles_run()));
        let next_epoch_global = at + remaining * self.node_config.cycle_length();
        let mut node = GossipNode::joiner(
            NodeId::new(idx as u64),
            self.node_config.clone(),
            self.joiner_value,
            self.joiner_seed,
            intro_epoch,
            self.to_local(next_epoch_global, idx),
        );
        if self.trace_capacity > 0 {
            node.set_trace_capacity(self.trace_capacity);
        }
        self.epoch_seen.push(node.epoch());
        self.nodes.push(node);
        self.collected.push(Vec::new());
        // The joiner's query plane starts empty and catches up through
        // catalog gossip; its first wake is scheduled by that delivery.
        self.planes.push(QueryPlane::new(
            NodeId::new(idx as u64),
            self.query_config,
            self.query_seed,
            self.registry.clone(),
        ));
        for slots in &mut self.wake_at {
            slots.push(u64::MAX);
        }
        self.live_pos.push(self.live.len());
        self.live.push(idx as u32);
        self.schedule_wake(Timer::Aggregate, idx, at + 1);
        // Under gossiped membership the joiner also bootstraps a view from
        // the introducer's current snapshot plus a fresh descriptor of the
        // introducer itself (the out-of-band discovery of Section 4.2).
        if let Some(mcfg) = self.membership_config {
            let local_at = self.to_local(at, idx);
            let view_wake = match &mut self.overlay {
                EventOverlay::Newscast { members } => {
                    let mut member = MembershipNode::new(idx as u32, mcfg, self.membership_seed);
                    if self.trace_capacity > 0 {
                        member.set_trace_capacity(self.trace_capacity);
                    }
                    let snapshot: Vec<Descriptor> = members[introducer].view().entries().to_vec();
                    member.bootstrap(&snapshot);
                    member.add_seed(introducer as u32, local_at);
                    let next = member.next_cycle_at();
                    members.push(member);
                    next
                }
                _ => unreachable!("membership_config implies a gossiped overlay"),
            };
            let view_at = self.to_global(view_wake, idx);
            self.push(view_at.max(at + 1), EventKind::WakeView(idx as u32));
        }
    }

    /// Sends `out` from the loss models' point of view and schedules its
    /// delivery.
    fn transmit(&mut self, at: u64, message: Message, to: NodeId) {
        self.messages_sent += 1;
        // Link failure drops the whole exchange, i.e. the request.
        let is_request = matches!(message.body, MessageBody::Request(_));
        if is_request {
            self.agg_exchanges.inc();
        }
        if is_request && self.link_failure > 0.0 && self.rng.next_bool(self.link_failure) {
            self.messages_lost += 1;
            return;
        }
        if self.message_loss > 0.0 && self.rng.next_bool(self.message_loss) {
            self.messages_lost += 1;
            return;
        }
        let delay = self.rng.range_u64(self.delay.0, self.delay.1);
        self.push(at + delay, EventKind::Deliver(to.index() as u32, message));
    }

    /// Sends a membership view exchange through the same loss and delay
    /// model as aggregation traffic. A lost request kills the whole
    /// exchange; a lost reply leaves only the passive side updated —
    /// harmless for membership, since views carry no conserved mass.
    fn transmit_view(&mut self, at: u64, to: u32, payload: ViewPayload, reply: bool, full: bool) {
        self.view_messages_sent += 1;
        // Sender-side accounting: lost messages still cost uplink bytes.
        // Full and delta messages share one wire layout, so the codec
        // prices both by descriptor count — deltas are cheaper exactly
        // because they carry fewer descriptors.
        let wire_len = epidemic_net::codec::view_message_len(payload.descriptors.len());
        self.view_bytes_sent += wire_len;
        if !full {
            self.delta_bytes.add(wire_len as u64);
        }
        if !reply && self.link_failure > 0.0 && self.view_rng.next_bool(self.link_failure) {
            self.view_messages_lost += 1;
            return;
        }
        if self.message_loss > 0.0 && self.view_rng.next_bool(self.message_loss) {
            self.view_messages_lost += 1;
            return;
        }
        let delay = self.view_rng.range_u64(self.delay.0, self.delay.1);
        self.push(
            at + delay,
            EventKind::DeliverView {
                to,
                reply,
                full,
                payload,
            },
        );
    }

    /// Sends a query-plane frame (catalog gossip or per-query
    /// aggregation) through the same loss and delay model as the other
    /// planes, priced in real codec bytes, drawing from the query stream.
    fn transmit_query(&mut self, at: u64, frame: QueryOutbound) {
        self.query_messages_sent += 1;
        let wire_len = match &frame {
            QueryOutbound::Aggregation { query, message, .. } => {
                epidemic_net::codec::query_message_len(query, message)
            }
            QueryOutbound::Catalog { entries, .. } => {
                epidemic_net::codec::catalog_message_len(entries)
            }
        };
        self.query_bytes_sent += wire_len;
        // Link failure drops the whole push-pull exchange, i.e. the
        // request; catalog pushes are one-way and only see message loss.
        let is_request = matches!(
            &frame,
            QueryOutbound::Aggregation { message, .. }
                if matches!(message.body, MessageBody::Request(_))
        );
        if is_request && self.link_failure > 0.0 && self.query_rng.next_bool(self.link_failure) {
            self.query_messages_lost += 1;
            return;
        }
        if self.message_loss > 0.0 && self.query_rng.next_bool(self.message_loss) {
            self.query_messages_lost += 1;
            return;
        }
        let delay = self.query_rng.range_u64(self.delay.0, self.delay.1);
        self.push(at + delay, EventKind::QueryDeliver(frame));
    }

    /// Polls node `i`'s query plane and transmits whatever comes out.
    fn poll_query_plane(&mut self, i: usize, at: u64) {
        let local_now = self.to_local(at, i);
        let mut sampler = OverlaySampler {
            overlay: &mut EventOverlay::LiveSet,
            rng: &mut self.query_rng,
            live: &self.live,
            live_pos: &self.live_pos,
            node: i,
        };
        let out = self.planes[i].poll(local_now, &mut sampler);
        for frame in out {
            self.transmit_query(at, frame);
        }
        self.harvest_query_epochs(i);
        self.schedule_wake(Timer::Query, i, at + 1);
    }

    /// Schedules node `i`'s `timer` wake, no sooner than `not_before`, if
    /// the deadline moved earlier than whatever is already queued (a
    /// freshly initiated exchange's timeout or a query install do exactly
    /// that). A deadline that moved *later* leaves the queued wake in
    /// place: it fires, finds nothing due, and reschedules from there.
    fn schedule_wake(&mut self, timer: Timer, i: usize, not_before: u64) {
        let (deadline, kind) = match timer {
            Timer::Aggregate => (self.nodes[i].next_deadline(), EventKind::Wake(i as u32)),
            Timer::Query => (
                self.planes[i].next_deadline(),
                EventKind::QueryWake(i as u32),
            ),
        };
        if deadline == u64::MAX {
            return; // empty plane: nothing to wake for
        }
        let target = self.to_global(deadline, i).max(not_before);
        if target < self.wake_at[timer as usize][i] {
            self.wake_at[timer as usize][i] = target;
            self.push(target, kind);
        }
    }

    /// Claims a popped wake for node `i`'s `timer`: clears the slot when it
    /// is the live one, `false` when an earlier reschedule superseded it.
    fn claim_wake(&mut self, timer: Timer, i: usize, at: u64) -> bool {
        let slot = &mut self.wake_at[timer as usize][i];
        let live = *slot == at;
        if live {
            *slot = u64::MAX;
        }
        live
    }

    /// Feeds node `i`'s freshly completed query epochs into the labeled
    /// per-query drift gauges.
    fn harvest_query_epochs(&mut self, i: usize) {
        for epoch in self.planes[i].take_epochs() {
            if let Some(estimate) = epoch.estimate {
                self.observe_query_estimate(&epoch.query, epoch.epoch, estimate);
            }
        }
    }

    /// Publishes `epoch.estimate_drift{query=…}` — the spread of the
    /// query's newest epoch with at least two estimates.
    fn observe_query_estimate(&mut self, query: &str, epoch: u64, estimate: f64) {
        let registry = &self.registry;
        let (window, gauge) = self
            .query_drift
            .entry(query.to_string())
            .or_insert_with(|| {
                let gauge = registry.gauge_with("epoch.estimate_drift", &[("query", query)]);
                (EpochWindow::default(), gauge)
            });
        if let Some(stats) = window.observe(epoch, estimate) {
            gauge.set(stats.spread());
        }
    }

    /// Drains `node`'s freshly completed epoch reports into `collected`,
    /// feeding each estimate into the convergence gauges so they track
    /// the run live instead of only at the end.
    fn harvest_reports(&mut self, node: usize) {
        let fresh = self.nodes[node].take_reports();
        if fresh.is_empty() {
            return;
        }
        for r in &fresh {
            if let Some(est) = r.scalar(0) {
                self.observe_estimate(r.epoch, est);
            }
        }
        self.collected[node].extend(fresh);
    }

    /// Folds one end-of-epoch estimate into the epoch window and
    /// republishes `epoch.variance_reduction_rho` (to compare against the
    /// 1/(2√e) bound in `epoch.rho_theory`) and `epoch.estimate_drift`.
    fn observe_estimate(&mut self, epoch: u64, estimate: f64) {
        let Some(stats) = self.rho_epochs.observe(epoch, estimate) else {
            return;
        };
        let gamma = self.node_config.gamma();
        if let Some(rho) = observed_rho(self.var0, stats.population_variance(), gamma) {
            self.rho_gauge.set(rho);
        }
        self.drift_gauge.set(stats.spread());
    }

    /// Drives the event loop to `duration` and harvests the outcome.
    pub fn run(mut self) -> EventOutcome {
        while let Some(event) = self.queue.pop() {
            let at = event.at;
            if at > self.duration {
                break;
            }
            // Periodic registry snapshot (next_snapshot is u64::MAX when
            // no snapshot sink is configured).
            while self.next_snapshot <= at {
                if let Some(spec) = &self.snapshot {
                    let _ = write_snapshot(&spec.path, &self.registry);
                }
                self.next_snapshot = self.next_snapshot.saturating_add(
                    self.snapshot
                        .as_ref()
                        .map_or(u64::MAX, |s| s.every_ticks.max(1)),
                );
            }
            if let Some(class) = event.kind.class() {
                self.events[class].inc();
            }
            let is_wake = matches!(event.kind, EventKind::Wake(_));
            let (node_idx, outbound) = match event.kind {
                EventKind::FailureTick(k) => {
                    self.failure_tick(k, at);
                    continue;
                }
                EventKind::WakeView(i) => {
                    let i = i as usize;
                    if self.is_alive(i) {
                        let local_now = self.to_local(at, i);
                        let EventOverlay::Newscast { members } = &mut self.overlay else {
                            unreachable!("WakeView scheduled without a gossiped overlay");
                        };
                        let out = members[i].poll_exchange(local_now);
                        let next = members[i].next_cycle_at();
                        let next_at = self.to_global(next, i).max(at + 1);
                        self.push(next_at, EventKind::WakeView(i as u32));
                        if let Some((peer, payload, full)) = out {
                            self.transmit_view(at, peer, payload, false, full);
                        }
                    }
                    continue; // stale timer of a crashed node: chain ends
                }
                EventKind::DeliverView {
                    to,
                    reply,
                    full,
                    payload,
                } => {
                    let to = to as usize;
                    if self.is_alive(to) {
                        let local_now = self.to_local(at, to);
                        let EventOverlay::Newscast { members } = &mut self.overlay else {
                            unreachable!("DeliverView scheduled without a gossiped overlay");
                        };
                        if reply {
                            // Active side absorbs the responder's pre-merge
                            // view; the exchange is complete.
                            members[to].absorb_reply_delta(&payload, full, local_now);
                        } else {
                            let (response, resp_full) =
                                members[to].handle_exchange_delta(&payload, full, local_now);
                            self.transmit_view(at, payload.from, response, true, resp_full);
                        }
                    }
                    continue; // in-flight view exchange to a crashed node
                }
                EventKind::QueryWake(i) => {
                    let i = i as usize;
                    if self.claim_wake(Timer::Query, i, at) && self.is_alive(i) {
                        self.poll_query_plane(i, at);
                    }
                    continue; // superseded, or a crashed node's: chain ends
                }
                EventKind::QueryDeliver(frame) => {
                    let to = match &frame {
                        QueryOutbound::Aggregation { to, .. }
                        | QueryOutbound::Catalog { to, .. } => to.index(),
                    };
                    if self.is_alive(to) {
                        let local_now = self.to_local(at, to);
                        match frame {
                            QueryOutbound::Catalog { entries, .. } => {
                                self.planes[to].handle_catalog(&entries, local_now);
                            }
                            QueryOutbound::Aggregation { query, message, .. } => {
                                if let Some(reply) =
                                    self.planes[to].handle_aggregation(&query, &message, local_now)
                                {
                                    self.transmit_query(at, reply);
                                }
                            }
                        }
                        self.harvest_query_epochs(to);
                        self.schedule_wake(Timer::Query, to, at + 1);
                    }
                    continue; // in-flight query frame to a crashed node
                }
                EventKind::QueryScript(idx) => {
                    let action = self.query_script[idx as usize].clone();
                    let i = action.node as usize;
                    if self.is_alive(i) {
                        let local_now = self.to_local(at, i);
                        let response = self.planes[i].handle_rpc(&action.request, local_now);
                        self.query_responses.push(response);
                        self.schedule_wake(Timer::Query, i, at + 1);
                    } else {
                        // Client hit a crashed node: the sim stand-in
                        // for a request that times out.
                        self.query_responses.push(RpcResponse::reject(
                            action.request.id(),
                            RpcStatus::NotReady,
                        ));
                    }
                    continue;
                }
                EventKind::Wake(i) => {
                    let i = i as usize;
                    if !(self.claim_wake(Timer::Aggregate, i, at) && self.is_alive(i)) {
                        self.wakes_idle.inc();
                        continue; // superseded, or a crashed node's: chain ends
                    }
                    let local_now = self.to_local(at, i);
                    let mut sampler = OverlaySampler {
                        overlay: &mut self.overlay,
                        rng: &mut self.rng,
                        live: &self.live,
                        live_pos: &self.live_pos,
                        node: i,
                    };
                    let out = self.nodes[i].poll_sampler(local_now, &mut sampler);
                    (i, out)
                }
                EventKind::Deliver(i, msg) => {
                    let i = i as usize;
                    if !self.is_alive(i) {
                        continue; // in-flight delivery to a crashed node
                    }
                    let local_now = self.to_local(at, i);
                    let out = self.nodes[i].handle(&msg, local_now);
                    (i, out)
                }
            };
            // Track epoch transitions for the synchronization measurement.
            let epoch_now = self.nodes[node_idx].epoch();
            if is_wake && outbound.is_none() && epoch_now == self.epoch_seen[node_idx] {
                self.wakes_idle.inc();
            }
            if let Some(out) = outbound {
                self.transmit(at, out.message, out.to);
            }
            if epoch_now != self.epoch_seen[node_idx] {
                self.epoch_seen[node_idx] = epoch_now;
                let entry = self.entries.entry(epoch_now).or_insert((at, at));
                entry.0 = entry.0.min(at);
                entry.1 = entry.1.max(at);
                // A transition means the previous epoch's report just
                // landed: fold it into the convergence gauges now.
                self.harvest_reports(node_idx);
            }
            self.schedule_wake(Timer::Aggregate, node_idx, at + 1);
        }

        let view_health = match &self.overlay {
            EventOverlay::Newscast { members } => Some(crate::metrics::view_health(
                self.live.iter().map(|&i| members[i as usize].view()),
                |peer| self.is_alive(peer as usize),
            )),
            _ => None,
        };
        if let Some(health) = &view_health {
            self.registry
                .gauge("membership.view_mean_size")
                .set(health.mean_size);
            self.registry
                .gauge("membership.view_dead_fraction")
                .set(health.dead_entry_fraction);
        }
        // Drain the tail: reports whose epochs were still open at the end
        // plus everything after the last observed transition.
        for i in 0..self.nodes.len() {
            self.harvest_reports(i);
            self.harvest_query_epochs(i);
        }
        // Final readout of every installed query at every live node.
        let mut live_sorted = self.live.clone();
        live_sorted.sort_unstable();
        let mut query_estimates = Vec::new();
        for &i in &live_sorted {
            let i = i as usize;
            for name in self.planes[i].installed() {
                if let Ok(est) = self.planes[i].estimate(&name) {
                    query_estimates.push((name, i as u32, est));
                }
            }
        }
        self.live_gauge.set(self.live.len() as f64);
        let traces: Vec<Vec<TraceEvent>> = (0..self.nodes.len())
            .map(|i| {
                let mut events = self.nodes[i].take_trace();
                if let EventOverlay::Newscast { members } = &mut self.overlay {
                    events.extend(members[i].take_trace());
                }
                events
            })
            .collect();
        // Final snapshot so a configured sink always ends with the
        // completed run's gauges.
        if let Some(spec) = &self.snapshot {
            let _ = write_snapshot(&spec.path, &self.registry);
        }
        let mut epoch_entries: Vec<(u64, u64, u64)> = self
            .entries
            .into_iter()
            .map(|(e, (first, last))| (e, first, last))
            .collect();
        epoch_entries.sort_unstable();
        EventOutcome {
            reports: self.collected,
            epoch_entries,
            messages_sent: self.messages_sent,
            messages_lost: self.messages_lost,
            view_messages_sent: self.view_messages_sent,
            view_bytes_sent: self.view_bytes_sent,
            view_messages_lost: self.view_messages_lost,
            view_health,
            final_alive: self.live.len(),
            traces,
            registry: self.registry,
            query_responses: self.query_responses,
            query_estimates,
            query_messages_sent: self.query_messages_sent,
            query_messages_lost: self.query_messages_lost,
            query_bytes_sent: self.query_bytes_sent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{CommFailure, FailureModel};
    use crate::scenario::ValueInit;
    use epidemic_topology::TopologyKind;

    fn node_config(gamma: u32) -> NodeConfig {
        NodeConfig::builder()
            .gamma(gamma)
            .cycle_length(1_000)
            .timeout(200)
            .instance(InstanceSpec::AVERAGE)
            .build()
            .unwrap()
    }

    fn base_config() -> EventConfig {
        EventConfig {
            scenario: Scenario {
                n: 64,
                values: ValueInit::Linear,
                ..Scenario::default()
            },
            node: node_config(15),
            delay: (10, 50),
            drift: 0.0,
            duration: 40_000,
            membership: MembershipModel::Gossip,
            ..EventConfig::default()
        }
    }

    #[test]
    fn epochs_complete_and_converge() {
        let out = base_config().run(1);
        let truth = 63.0 / 2.0;
        let mut reported = 0;
        for reports in &out.reports {
            for r in reports {
                reported += 1;
                let v = r.scalar(0).unwrap();
                assert!((v - truth).abs() < 1.0, "epoch estimate {v} vs {truth}");
            }
        }
        assert!(reported >= 64, "only {reported} epoch reports");
        assert_eq!(out.final_alive, 64);
    }

    #[test]
    fn message_loss_only_slows_down() {
        let mut cfg = base_config();
        cfg.scenario.comm = CommFailure::messages(0.2);
        cfg.duration = 60_000;
        cfg.node = node_config(30);
        let out = cfg.run(1);
        assert!(out.messages_lost > 0);
        let truth = 63.0 / 2.0;
        let mut count = 0;
        for reports in &out.reports {
            for r in reports {
                // Loss perturbs the mass slightly; estimates stay close.
                let v = r.scalar(0).unwrap();
                assert!((v - truth).abs() < truth * 0.5, "estimate {v}");
                count += 1;
            }
        }
        assert!(count > 0);
    }

    #[test]
    fn epoch_sync_bounds_spread_under_drift() {
        let mut cfg = base_config();
        cfg.drift = 0.05; // ±5% clock drift
        cfg.duration = 120_000;
        let out = cfg.run(1);
        // Find a mid-simulation epoch and check its entry spread is well
        // below one epoch length (gamma * cycle = 15_000 ticks).
        let spread = out.epoch_spread(3).expect("epoch 3 never entered");
        assert!(
            spread < 15_000 / 2,
            "epoch spread {spread} not bounded by synchronization"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = base_config().run(1);
        let b = base_config().run(1);
        assert_eq!(a.messages_sent, b.messages_sent);
        assert_eq!(a.epoch_entries, b.epoch_entries);
    }

    #[test]
    fn outcome_spread_accessor() {
        let out = base_config().run(1);
        assert!(out.epoch_spread(0).is_some());
        assert_eq!(out.epoch_spread(9_999), None);
    }

    #[test]
    fn static_overlay_converges_with_timeouts() {
        let mut cfg = base_config();
        cfg.scenario.overlay = OverlaySpec::Static(TopologyKind::Random { k: 10 });
        let out = cfg.run(2);
        let est = out.mean_epoch_estimate(0).expect("no epoch completed");
        let truth = 63.0 / 2.0;
        assert!((est - truth).abs() < 1.5, "estimate {est} vs {truth}");
    }

    #[test]
    fn sudden_death_drops_in_flight_messages() {
        let mut cfg = base_config();
        cfg.scenario.failure = FailureModel::SuddenDeath {
            fraction: 0.5,
            at_cycle: 4,
        };
        let out = cfg.run(3);
        assert_eq!(out.final_alive, 32);
        // Survivors keep completing epochs after the wave.
        let late_epochs: usize = out
            .reports
            .iter()
            .flatten()
            .filter(|r| r.epoch >= 1)
            .count();
        assert!(late_epochs > 0, "no epochs completed after the crash wave");
    }

    #[test]
    fn churn_keeps_population_constant() {
        let mut cfg = base_config();
        cfg.scenario.overlay = OverlaySpec::Newscast { c: 15 };
        cfg.scenario.failure = FailureModel::Churn { per_cycle: 2 };
        let out = cfg.run(4);
        assert_eq!(out.final_alive, 64);
        assert!(out.mean_epoch_estimate(0).is_some());
        // Membership really was gossiped, not idealized away.
        assert!(out.view_messages_sent > 0, "no view exchanges happened");
    }

    #[test]
    fn view_bytes_track_codec_sizes() {
        let c = 15;
        let mut cfg = base_config();
        cfg.scenario.overlay = OverlaySpec::Newscast { c };
        let bounds = |out: &EventOutcome| {
            // Every view message carries between 0 (empty delta) and c + 1
            // descriptors; the byte total must price each message inside
            // those codec bounds.
            let lo = out.view_messages_sent * epidemic_net::codec::view_message_len(0);
            let hi = out.view_messages_sent * epidemic_net::codec::view_message_len(c + 1);
            assert!(
                (lo..=hi).contains(&out.view_bytes_sent),
                "view_bytes_sent {} outside [{lo}, {hi}]",
                out.view_bytes_sent
            );
            hi
        };
        let delta = cfg.run(5);
        assert!(delta.view_messages_sent > 0);
        bounds(&delta);
        cfg.membership = MembershipModel::FullViews;
        let full = cfg.run(5);
        let full_hi = bounds(&full);
        // With full views every warm exchange ships the whole view: the
        // mean message must cost more than half the maximum…
        assert!(
            full.view_bytes_sent > full_hi / 2,
            "full-view traffic suspiciously cheap: {} of max {full_hi}",
            full.view_bytes_sent
        );
        // …while delta gossip ships strictly less per message once
        // partners know each other's entries.
        let delta_mean = delta.view_bytes_sent as f64 / delta.view_messages_sent as f64;
        let full_mean = full.view_bytes_sent as f64 / full.view_messages_sent as f64;
        assert!(
            delta_mean < 0.8 * full_mean,
            "deltas not cheaper: {delta_mean:.1} vs {full_mean:.1} bytes/message"
        );
        // Idealized membership hides the entire bandwidth cost.
        cfg.membership = MembershipModel::Idealized;
        assert_eq!(cfg.run(5).view_bytes_sent, 0);
    }

    #[test]
    fn delta_views_converge_like_full_views() {
        // Conformance: the delta path must reach the same view health and
        // aggregation fidelity as full-view gossip — it only saves bytes.
        let mut cfg = base_config();
        cfg.scenario.overlay = OverlaySpec::Newscast { c: 15 };
        let delta = cfg.run(5);
        cfg.membership = MembershipModel::FullViews;
        let full = cfg.run(5);
        let truth = 63.0 / 2.0;
        for (label, out) in [("delta", &delta), ("full", &full)] {
            let est = out.mean_epoch_estimate(0).expect("epoch 0 completed");
            assert!((est - truth).abs() < 1.0, "{label} estimate {est}");
            let health = out.view_health.as_ref().expect("gossiped membership");
            assert_eq!(health.views, 64, "{label} lost views");
            assert!(health.mean_size > 13.0, "{label} views starved: {health:?}");
            assert_eq!(
                health.dead_entry_fraction, 0.0,
                "{label} holds dead entries with no churn"
            );
        }
    }

    #[test]
    fn gossiped_membership_converges_like_idealized() {
        let mut cfg = base_config();
        cfg.scenario.overlay = OverlaySpec::Newscast { c: 15 };
        let gossiped = cfg.run(5);
        cfg.membership = MembershipModel::Idealized;
        let idealized = cfg.run(5);
        let truth = 63.0 / 2.0;
        let g = gossiped.mean_epoch_estimate(0).expect("gossiped epoch 0");
        let i = idealized.mean_epoch_estimate(0).expect("idealized epoch 0");
        assert!((g - truth).abs() < 1.0, "gossiped estimate {g} vs {truth}");
        assert!((i - truth).abs() < 1.0, "idealized estimate {i} vs {truth}");
        // Only the gossiped model pays the membership traffic.
        assert!(gossiped.view_messages_sent > 0);
        assert_eq!(idealized.view_messages_sent, 0);
    }

    #[test]
    fn view_exchanges_respect_loss_model() {
        let mut cfg = base_config();
        cfg.scenario.overlay = OverlaySpec::Newscast { c: 15 };
        cfg.scenario.comm = CommFailure::messages(0.3);
        let out = cfg.run(6);
        assert!(out.view_messages_lost > 0, "loss never hit view traffic");
        assert!(
            out.view_messages_lost < out.view_messages_sent,
            "all view traffic lost"
        );
    }

    #[test]
    fn crashed_nodes_age_out_of_views() {
        // After a 50% crash wave the gossiped overlay keeps the survivors
        // exchanging: fresh descriptors displace the dead, and epochs keep
        // completing on the partial views.
        let mut cfg = base_config();
        cfg.scenario.overlay = OverlaySpec::Newscast { c: 15 };
        cfg.scenario.failure = FailureModel::SuddenDeath {
            fraction: 0.5,
            at_cycle: 4,
        };
        cfg.duration = 60_000;
        cfg.node = node_config(10);
        let out = cfg.run(7);
        assert_eq!(out.final_alive, 32);
        let late_epochs = out
            .reports
            .iter()
            .flatten()
            .filter(|r| r.epoch >= 2)
            .count();
        assert!(late_epochs > 0, "survivors stopped completing epochs");
        // Self-healing: by the end of the run (~56 gossip cycles after the
        // wave) fresh descriptors have displaced most of the dead ones,
        // and views are still usefully full.
        let health = out.view_health.expect("gossiped membership");
        assert_eq!(health.views, 32);
        assert!(
            health.dead_entry_fraction < 0.2,
            "views failed to heal: {health:?}"
        );
        assert!(health.mean_size > 5.0, "views collapsed: {health:?}");
    }

    #[test]
    fn gossiped_membership_is_deterministic() {
        let mut cfg = base_config();
        cfg.scenario.overlay = OverlaySpec::Newscast { c: 15 };
        cfg.scenario.failure = FailureModel::Churn { per_cycle: 2 };
        cfg.scenario.comm = CommFailure::messages(0.1);
        let a = cfg.run(8);
        let b = cfg.run(8);
        assert_eq!(a.messages_sent, b.messages_sent);
        assert_eq!(a.view_messages_sent, b.view_messages_sent);
        assert_eq!(a.view_bytes_sent, b.view_bytes_sent);
        assert_eq!(a.view_messages_lost, b.view_messages_lost);
        assert_eq!(a.epoch_entries, b.epoch_entries);
        assert_eq!(a.epoch_estimates(0), b.epoch_estimates(0));
        for kind in EVENT_CLASSES {
            assert_eq!(events_of(&a, kind), events_of(&b, kind), "kind {kind}");
        }
        assert_eq!(
            a.registry.counter_value("sim.wakes_idle"),
            b.registry.counter_value("sim.wakes_idle")
        );
        assert_eq!(
            a.registry.gauge_value("sim.queue_depth_max"),
            b.registry.gauge_value("sim.queue_depth_max")
        );
    }

    /// `sim.events{kind=…}` of a finished run.
    fn events_of(out: &EventOutcome, kind: &str) -> u64 {
        out.registry
            .counter_with("sim.events", &[("kind", kind)])
            .get()
    }

    #[test]
    fn queue_traffic_is_bounded_by_message_traffic() {
        // One live timer per node: events track messages (each costs a
        // delivery plus a share of a wake), not the number of deliveries a
        // node has ever seen. The perpetual-chain engine this replaced
        // popped 27.6 events per message here and queued 99 per node.
        let n = 256;
        let mut cfg = base_config();
        cfg.scenario.n = n;
        cfg.scenario.overlay = OverlaySpec::Newscast { c: 15 };
        cfg.scenario.failure = FailureModel::Churn { per_cycle: 2 };
        cfg.scenario.comm = CommFailure::messages(0.01);
        cfg.duration = 30_000;
        let out = cfg.run(11);
        let events = out.registry.counter_value("sim.events"); // all kinds
        let messages = (out.messages_sent + out.view_messages_sent) as u64;
        assert!(messages > 0);
        assert!(
            events <= 3 * messages,
            "{events} events for {messages} messages"
        );
        let depth = out.registry.gauge_value("sim.queue_depth_max").unwrap();
        assert!(depth >= n as f64, "every node starts with a wake: {depth}");
        assert!(depth <= 4.0 * n as f64, "queue peaked at {depth}");
        let idle = out.registry.counter_value("sim.wakes_idle");
        assert!(idle <= events_of(&out, "wake"));
        assert_eq!(events_of(&out, "query"), 0, "no query was scripted");
    }

    #[test]
    fn crashed_nodes_wake_is_skipped_and_starts_no_chain() {
        // Two nodes, one killed before the first event: the survivor has
        // nobody to gossip with and wakes once per cycle boundary; the
        // victim's pending wake is popped exactly once and never replaced.
        let mut cfg = base_config();
        cfg.scenario.n = 2;
        cfg.duration = 10_000;
        let mut sim = EventSim::new(&cfg, 1);
        let first = sim.nodes[0].next_cycle_at();
        sim.kill(1);
        let out = sim.run();
        let survivor_wakes = (cfg.duration - first) / cfg.node.cycle_length() + 1;
        assert_eq!(events_of(&out, "wake"), survivor_wakes + 1);
        assert_eq!(events_of(&out, "deliver"), 0);
        assert_eq!(out.messages_sent, 0);
        assert_eq!(out.registry.gauge_value("sim.queue_depth_max"), Some(2.0));
        // Ten cycles of a 15-cycle epoch: no wake emitted or crossed one.
        assert_eq!(
            out.registry.counter_value("sim.wakes_idle"),
            survivor_wakes + 1
        );
        assert!(out.reports[1].is_empty());
    }

    #[test]
    fn deterministic_under_crash_schedule() {
        let mut cfg = base_config();
        cfg.scenario.failure = FailureModel::ProportionalCrash { p_f: 0.02 };
        let a = cfg.run(9);
        let b = cfg.run(9);
        assert_eq!(a.messages_sent, b.messages_sent);
        assert_eq!(a.messages_lost, b.messages_lost);
        assert_eq!(a.epoch_entries, b.epoch_entries);
        assert_eq!(a.final_alive, b.final_alive);
        let ea: Vec<f64> = a.epoch_estimates(0);
        let eb: Vec<f64> = b.epoch_estimates(0);
        assert_eq!(ea, eb);
    }

    #[test]
    fn run_many_matches_sequential() {
        let cfg = base_config();
        let seeds = [1u64, 2, 3, 4, 5];
        let many = run_many(&cfg, &seeds);
        for (i, &seed) in seeds.iter().enumerate() {
            let solo = cfg.run(seed);
            assert_eq!(many[i].messages_sent, solo.messages_sent, "seed {seed}");
            assert_eq!(many[i].epoch_entries, solo.epoch_entries, "seed {seed}");
        }
    }

    #[test]
    fn event_ordering_is_time_then_seq() {
        let mk = |at, seq| Event {
            at,
            seq,
            kind: EventKind::Wake(0),
        };
        let mut heap = BinaryHeap::new();
        heap.push(mk(5, 1));
        heap.push(mk(3, 2));
        heap.push(mk(3, 1));
        heap.push(mk(7, 0));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.at, e.seq))
            .collect();
        assert_eq!(order, [(3, 1), (3, 2), (5, 1), (7, 0)]);
    }

    #[test]
    #[should_panic(expected = "empty delay range")]
    fn empty_delay_rejected() {
        let mut cfg = base_config();
        cfg.delay = (10, 10);
        cfg.run(0);
    }

    #[test]
    fn registry_tracks_convergence_and_traffic() {
        let out = base_config().run(1);
        assert!(out.registry.counter_value("agg.exchanges") > 0);
        let rho = out
            .registry
            .gauge_value("epoch.variance_reduction_rho")
            .expect("rho gauge never published");
        // Observed per-cycle reduction should be in the ballpark of the
        // theory bound 1/(2√e) ≈ 0.3033 — certainly below 1 (progress)
        // and above 0 (the gauge guards against exact-zero variance).
        assert!(rho > 0.0 && rho < 1.0, "implausible rho {rho}");
        let theory = out.registry.gauge_value("epoch.rho_theory").unwrap();
        assert!((theory - 0.5 / std::f64::consts::E.sqrt()).abs() < 1e-12);
        assert!(out.registry.gauge_value("epoch.estimate_drift").is_some());
        assert_eq!(out.registry.gauge_value("sim.live_nodes"), Some(64.0));
    }

    #[test]
    fn tracing_captures_protocol_events_without_changing_the_run() {
        let mut cfg = base_config();
        cfg.scenario.overlay = OverlaySpec::Newscast { c: 15 };
        let plain = cfg.run(5);
        cfg.trace_capacity = 256;
        let traced = cfg.run(5);
        // Tracing is pure observation: the protocol run is identical.
        assert_eq!(plain.messages_sent, traced.messages_sent);
        assert_eq!(plain.epoch_entries, traced.epoch_entries);
        assert!(plain.traces.iter().all(Vec::is_empty));
        let events: usize = traced.traces.iter().map(Vec::len).sum();
        assert!(events > 0, "tracing enabled but no events captured");
        // Both planes show up: aggregation exchanges and view merges.
        let kinds: std::collections::HashSet<&'static str> = traced
            .traces
            .iter()
            .flatten()
            .map(|e| e.kind.as_str())
            .collect();
        assert!(kinds.contains("exchange_complete"), "kinds: {kinds:?}");
        assert!(kinds.contains("view_merge"), "kinds: {kinds:?}");
    }

    fn average_query(name: &str, default: f64) -> epidemic_query::QueryDescriptor {
        epidemic_query::QueryDescriptor::new(name, epidemic_aggregation::AggregateKind::Average)
            .with_gamma(5)
            .with_cycle_length(500)
            .with_default_value(default)
    }

    fn install_action(
        at: u64,
        node: u32,
        id: u64,
        descriptor: epidemic_query::QueryDescriptor,
    ) -> QueryAction {
        QueryAction {
            at,
            node,
            request: RpcRequest::Install { id, descriptor },
        }
    }

    #[test]
    fn catalog_gossip_installs_query_cluster_wide() {
        let mut cfg = base_config();
        cfg.query_script = vec![install_action(2_000, 0, 1, average_query("temp", 3.0))];
        let out = cfg.run(1);
        assert_eq!(out.query_responses.len(), 1);
        assert_eq!(out.query_responses[0].status, RpcStatus::Ok);
        // One install at one node; the catalog gossip must carry it to
        // every other node, and all 64 replicas settle on the default
        // contribution (an exact fixed point of the averaging).
        let values = out.query_values("temp");
        assert_eq!(values.len(), 64, "query did not reach every node");
        for v in values {
            assert!((v - 3.0).abs() < 1e-6, "estimate {v}");
        }
        assert!(out.query_messages_sent > 0, "no query traffic");
        assert!(out.query_bytes_sent > 0);
        // Per-query telemetry landed in the shared namespace.
        assert_eq!(out.registry.gauge_value("query.installed"), Some(1.0));
        assert!(out
            .registry
            .render_prometheus()
            .contains("epoch_estimate_drift{query=\"temp\"}"));
    }

    #[test]
    fn query_script_leaves_baseline_run_untouched() {
        // Zero perturbation: the query plane draws from its own stream,
        // so running a query changes nothing in the aggregation or
        // membership planes of the same seed.
        let plain = base_config().run(1);
        let mut cfg = base_config();
        cfg.query_script = vec![install_action(1_000, 5, 9, average_query("side", 1.0))];
        let queried = cfg.run(1);
        assert_eq!(plain.messages_sent, queried.messages_sent);
        assert_eq!(plain.view_messages_sent, queried.view_messages_sent);
        assert_eq!(plain.epoch_entries, queried.epoch_entries);
        assert_eq!(plain.epoch_estimates(0), queried.epoch_estimates(0));
        assert_eq!(plain.query_messages_sent, 0);
        assert!(queried.query_messages_sent > 0);
    }

    #[test]
    fn admission_limit_rejects_excess_submits() {
        let mut cfg = base_config();
        let descriptor = average_query("load", 1.0)
            .with_admission(epidemic_query::AdmissionConfig::limited(1, 2));
        let mut script = vec![install_action(1_000, 0, 0, descriptor)];
        for k in 0..6u64 {
            script.push(QueryAction {
                at: 1_100 + k,
                node: 0,
                request: RpcRequest::Submit {
                    id: 1 + k,
                    name: "load".into(),
                    value: 9.0,
                },
            });
        }
        cfg.query_script = script;
        let out = cfg.run(2);
        let ok = out
            .query_responses
            .iter()
            .filter(|r| r.status == RpcStatus::Ok)
            .count();
        let rejected = out
            .query_responses
            .iter()
            .filter(|r| r.status == RpcStatus::AdmissionRejected)
            .count();
        // Burst of 2 grants two back-to-back submits (plus the install);
        // the rest are rejected — and surfaced, never swallowed.
        assert_eq!(ok, 3, "responses: {:?}", out.query_responses);
        assert_eq!(rejected, 4);
        assert!(out
            .registry
            .render_prometheus()
            .contains("query_admission_rejects{query=\"load\"} 4"));
    }

    #[test]
    fn removed_query_vanishes_cluster_wide() {
        let mut cfg = base_config();
        cfg.query_script = vec![
            install_action(2_000, 0, 1, average_query("tmp", 2.0)),
            // Removal via a *different* node: any replica may serve it
            // once the catalog has spread.
            QueryAction {
                at: 12_000,
                node: 42,
                request: RpcRequest::Remove {
                    id: 2,
                    name: "tmp".into(),
                },
            },
        ];
        let out = cfg.run(3);
        assert!(out
            .query_responses
            .iter()
            .all(|r| r.status == RpcStatus::Ok));
        assert!(
            out.query_values("tmp").is_empty(),
            "tombstone failed to spread"
        );
        assert_eq!(out.registry.gauge_value("query.installed"), Some(0.0));
    }

    #[test]
    fn query_plane_is_deterministic_under_loss() {
        let mut cfg = base_config();
        cfg.scenario.comm = CommFailure::messages(0.1);
        cfg.query_script = vec![
            install_action(2_000, 0, 1, average_query("det", 4.0)),
            QueryAction {
                at: 8_000,
                node: 7,
                request: RpcRequest::Submit {
                    id: 2,
                    name: "det".into(),
                    value: 10.0,
                },
            },
            QueryAction {
                at: 30_000,
                node: 33,
                request: RpcRequest::Read {
                    id: 3,
                    name: "det".into(),
                },
            },
        ];
        let a = cfg.run(5);
        let b = cfg.run(5);
        assert_eq!(a.query_messages_sent, b.query_messages_sent);
        assert_eq!(a.query_messages_lost, b.query_messages_lost);
        assert_eq!(a.query_bytes_sent, b.query_bytes_sent);
        assert_eq!(a.query_responses, b.query_responses);
        assert_eq!(a.query_estimates, b.query_estimates);
        assert_eq!(a.messages_sent, b.messages_sent);
        assert!(a.query_messages_lost > 0, "loss never hit query traffic");
        // The mid-run read answered from node 33 with a real estimate.
        let read = &a.query_responses[2];
        assert_eq!(read.status, RpcStatus::Ok);
        assert!(read.estimate > 4.0 - 1.0, "read estimate {}", read.estimate);
    }

    #[test]
    fn snapshot_sink_writes_prometheus_text() {
        let path =
            std::env::temp_dir().join(format!("epidemic-sim-snapshot-{}.prom", std::process::id()));
        let mut cfg = base_config();
        cfg.snapshot = Some(SnapshotSpec {
            path: path.clone(),
            every_ticks: 10_000,
        });
        cfg.run(1);
        let text = std::fs::read_to_string(&path).expect("snapshot file written");
        let _ = std::fs::remove_file(&path);
        assert!(text.contains("agg_exchanges"), "snapshot:\n{text}");
        assert!(text.contains("epoch_variance_reduction_rho"));
    }
}
