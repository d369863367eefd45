//! Event-driven engine.
//!
//! The cycle model of [`crate::network`] abstracts away everything the
//! *practical* protocol of Section 4 exists to handle: message delay,
//! clock drift, exchange timeouts, and epoch synchronization. This engine
//! simulates those effects by stepping, per simulated node, the very
//! [`NodeStack`] the wire runtimes embed — base aggregate, membership
//! directory and query plane, wired once in `epidemic-net` — from a
//! timestamped event queue of four kinds: a node's `Wake`, a frame's
//! `Deliver`, the scenario's `FailureTick`, a scripted client `Script`.
//!
//! * Every node runs on its own skewed clock (`local = global × drift_i`).
//! * Every frame a stack hands its sink crosses one simulated wire
//!   (`Wire::transmit`): priced at [`WireFrame::encoded_len`], charged
//!   to its [`Plane`] by the wire runtimes' [`Traffic`], dropped with its
//!   whole exchange by a failed link or alone by message loss, delivered
//!   after a uniformly random delay — all drawn from one transport stream.
//! * A node is woken exactly at [`NodeStack::next_deadline`], by one live
//!   timer: a deadline that moves earlier queues a new wake and strands
//!   the old one, which is skipped when it pops. Membership adds no
//!   timer but a joiner's retry: a view request rides the step in which
//!   its node's `GETNEIGHBOR()` opened an exchange.
//!
//! That delay/loss/crash/churn model is thereby the seeded, deterministic
//! in-memory transport under the wire runtime's own logic.
//!
//! Conditions come from the same engine-independent
//! [`Scenario`] the cycle engine consumes. Its
//! overlay decides each stack's `SimDirectory` (`crate::directory`):
//! uniform over the live population (complete graph, and NEWSCAST under
//! [`MembershipModel::Idealized`]), a static graph, or — for
//! `OverlaySpec::Newscast`, Section 4.4 — the real `GossipDirectory`:
//! view exchanges travel the same wire as aggregation messages, one riding
//! each exchange period's aggregation exchange, `GETNEIGHBOR()` draws from
//! the node's own partial view (so stale entries really do cost
//! timeouts), and a churn joiner knows only its
//! introducer and one fallback contact, both drawn among members that
//! have bootstrapped themselves, and bootstraps with `Join`/`Introduce`
//! *over that wire*, retries and all (Section 4.2). Crash and churn
//! schedules apply at cycle-boundary ticks by killing nodes, which drops
//! their in-flight deliveries and stale wakes.
//!
//! The headline measurement is the *epoch entry spread* `T_j` (Section
//! 4.3): the global-time window within which all live nodes enter epoch
//! `j`. With epidemic epoch synchronization the spread stays bounded by a
//! few message delays; without it, clock drift widens it without bound —
//! the ablation `repro ablation-sync` demonstrates exactly this.

use crate::directory::{Population, SimDirectory};
use crate::scenario::{OverlaySpec, Scenario};
use epidemic_aggregation::{EpochReport, InstanceSpec, NodeConfig};
use epidemic_common::rng::Xoshiro256;
use epidemic_common::stats::OnlineStats;
use epidemic_common::NodeId;
use epidemic_net::codec::{WireFrame, WirePayload};
use epidemic_net::directory::GossipDirectoryConfig;
use epidemic_net::stack::{Convergence, Input, NodeStack, Plane, Traffic};
use epidemic_query::{QueryEstimate, QueryPlaneConfig, RpcRequest, RpcResponse, RpcStatus};
use epidemic_telemetry::{Counter, Gauge, Registry, TraceEvent};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// How the event engine realizes `OverlaySpec::Newscast`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MembershipModel {
    /// Simulate NEWSCAST membership event by event: per-node partial
    /// views, view exchanges through the same delay/loss model as
    /// aggregation traffic, peers drawn from the local view. Exchanges
    /// ship *delta* views — only the entries stamped after the partner's
    /// watermark — with a periodic full-view anti-entropy fallback.
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
    /// Query-plane tuning shared by every node (catalog gossip cadence,
    /// rumor boost, COUNT concurrency).
    pub query: QueryPlaneConfig,
    /// Scripted client RPCs against the query plane, the sim twin of a
    /// client datagram arriving at one node's RPC endpoint. An empty
    /// script (the default) schedules nothing and draws nothing: the run
    /// is identical to one configured without it. A running query is a
    /// tenant of the same stack as the base aggregate — it draws peers
    /// from the same directory and its frames cross the same wire — so,
    /// as on a real network, it does perturb the base plane's draws.
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
    /// Membership frames transmitted — view exchanges plus the
    /// `Join`/`Introduce` bootstrap of churn joiners (gossiped NEWSCAST
    /// only; the cost the idealized model hides).
    pub view_messages_sent: usize,
    /// Wire bytes of the transmitted membership frames, each priced by
    /// the real codec ([`WireFrame::encoded_len`]): a full view carries
    /// the sender's `c` descriptors plus a fresh self-descriptor; a delta
    /// ([`MembershipModel::Gossip`]) carries only the entries stamped
    /// after the partner's watermark, and is cheaper by exactly that.
    pub view_bytes_sent: usize,
    /// Membership frames dropped by the loss model.
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
    /// The run's metrics registry, in the wire runtimes' `/metrics`
    /// namespace: the traffic series every traffic field above is read
    /// off, `sim.*`, and the convergence gauges (`epoch.estimate_drift`,
    /// `epoch.variance_reduction_rho` vs the bound `epoch.rho_theory`).
    pub registry: Registry,
    /// Responses to the scripted query RPCs, in script order. A request
    /// aimed at a node that crashed — or never existed — is answered
    /// `NotReady`, the sim stand-in for a client timeout.
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
    /// real codec ([`WireFrame::encoded_len`]).
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
    /// Step node `i` with [`Input::Wake`]: its clock reached the deadline
    /// its stack reported.
    Wake(u32),
    /// Step node `i` with this frame, as decoded off the wire.
    Deliver(u32, WirePayload),
    /// Apply the failure schedule for cycle `k` (cycle boundaries in
    /// nominal global time).
    FailureTick(u32),
    /// Apply entry `i` of [`EventConfig::query_script`].
    Script(u32),
}

/// `kind` label values of the `sim.events` counter family.
const EVENT_CLASSES: [&str; 4] = ["wake", "deliver", "view_deliver", "query"];

impl EventKind {
    /// Index into [`EVENT_CLASSES`] — a delivery counts on its frame's
    /// plane — or `None` for the scenario's own `FailureTick`.
    fn class(&self) -> Option<usize> {
        match self {
            EventKind::Wake(_) => Some(0),
            EventKind::Deliver(_, payload) => Some(1 + Plane::of_received(payload)?.ledger()),
            EventKind::Script(_) => Some(3),
            EventKind::FailureTick(_) => None,
        }
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

/// A uniform introducer among `len` contacts and, when there are two or
/// more, a uniform second one distinct from it, from one draw of
/// `rng`: the scenario stream advances by the same single draw per joiner
/// whatever the membership model, and the introducer is the one
/// `rng.index(len)` would have picked, so two membership models of one
/// seed still share their failure draws.
fn contact_pair(rng: &mut Xoshiro256, len: usize) -> (usize, Option<usize>) {
    if len < 2 {
        return (rng.index(len), None);
    }
    let draw = rng.index(len * (len - 1));
    let (pick, other) = (draw / (len - 1), draw % (len - 1));
    (pick, Some(if other >= pick { other + 1 } else { other }))
}

/// The simulated wire: the event queue, and the one delay/loss model
/// every frame of every plane crosses to get onto it.
#[derive(Debug)]
struct Wire {
    /// The transport stream: founders' initial views, then every loss and
    /// delay draw. The scenario stream ([`EventSim::rng`]) never sees
    /// traffic, so two membership models of one seed materialize the same
    /// values, drifts and failure draws.
    rng: Xoshiro256,
    delay: (u64, u64),
    link_failure: f64,
    message_loss: f64,
    queue: BinaryHeap<Event>,
    seq: u64,
    queue_peak: usize,
    /// `sim.queue_depth_max` — high-water mark of the event queue.
    queue_depth_max: Gauge,
    /// Frames and bytes by plane (a lost frame still cost its bytes).
    traffic: Traffic,
    /// The convergence gauges plus `agg.exchanges` and
    /// `membership.delta_bytes`, shared with the mux runtime.
    convergence: Convergence,
}

impl Wire {
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

    /// Takes one frame from a stack's sink at global tick `at`: charges
    /// it, applies the loss models, and schedules its delivery. A failed
    /// link loses the frame that opens an exchange and with it the whole
    /// exchange; message loss hits every frame alone — a lost reply
    /// leaves only the passive side updated, which costs the base
    /// aggregate mass and membership nothing.
    fn transmit(&mut self, at: u64, to: NodeId, frame: WireFrame<'_>, plane: Plane) {
        let bytes = frame.encoded_len() as u64;
        self.convergence.count(&frame, bytes);
        self.traffic.sent(plane, bytes);
        let link_down = frame.opens_exchange()
            && self.link_failure > 0.0
            && self.rng.next_bool(self.link_failure);
        if link_down || (self.message_loss > 0.0 && self.rng.next_bool(self.message_loss)) {
            self.traffic.lost(plane);
            return;
        }
        let delay = self.rng.range_u64(self.delay.0, self.delay.1);
        let deliver = EventKind::Deliver(to.index() as u32, frame.to_payload());
        self.push(at + delay, deliver);
    }
}

/// Event-driven simulator state, parameterized by a [`Scenario`].
///
/// Construct with [`EventSim::new`], drive to completion with
/// [`EventSim::run`]. Most callers use the [`EventConfig::run`]
/// convenience instead.
#[derive(Debug)]
pub struct EventSim {
    config: EventConfig,
    /// Seed of every stack (`seed ^ 0xE7E7`): a node's behavior is a
    /// function of it and the node's id, as on the wire.
    stack_seed: u64,
    /// `Some` when membership is gossiped: what a joiner's directory is
    /// built from, plus its introducer.
    gossip: Option<GossipDirectoryConfig>,
    query_responses: Vec<RpcResponse>,

    /// The scenario stream: topology, values, drifts, failure draws.
    rng: Xoshiro256,
    wire: Wire,
    /// One stack per node ever created; a crashed node keeps its slot
    /// (and its state, which stale descriptors may still point at).
    stacks: Vec<NodeStack<SimDirectory>>,
    drifts: Vec<f64>,
    live: Population,
    /// Global tick of each node's live queued [`EventKind::Wake`]
    /// (`u64::MAX` when none): a wake is only pushed when it moves this
    /// earlier, so stale timers die instead of chaining to the end of the
    /// run.
    wake_at: Vec<u64>,
    epoch_seen: Vec<u64>,
    entries: HashMap<u64, (u64, u64)>,
    /// Epoch reports drained incrementally (at epoch transitions) so the
    /// gauges move while the run is live; merged with the final drain
    /// into [`EventOutcome::reports`].
    collected: Vec<Vec<EpochReport>>,
    registry: Registry,
    /// `sim.live_nodes` — population size after the failure schedule.
    live_gauge: Gauge,
    /// `sim.events{kind=…}` — node events popped, indexed by
    /// [`EventKind::class`]. The scenario's own `FailureTick`s are not
    /// node events and are not counted.
    events: [Counter; 4],
    /// `sim.wakes_idle` — `Wake`s that emitted nothing and crossed no
    /// epoch (stale timers included). Against `sim.events{kind=wake}` it
    /// says how much of the queue traffic is timer churn.
    wakes_idle: Counter,
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
        let mut wire_rng = Xoshiro256::seed_from_u64(seed ^ 0x4E57_C057);
        let stack_seed = seed ^ 0xE7E7;

        let live = Population::founders(n);
        let (mut graph, mut gossip) = (None, None);
        match (scenario.overlay, config.membership) {
            (OverlaySpec::Complete, _)
            | (OverlaySpec::Newscast { .. }, MembershipModel::Idealized) => {}
            (OverlaySpec::Static(kind), _) => {
                let generated = kind.generate(n, &mut rng);
                graph = Some(Arc::new(generated.expect("invalid topology parameters")));
            }
            (OverlaySpec::Newscast { c }, model) => {
                assert!(c >= 1 && c < n, "view size must satisfy 1 <= c < n");
                // The sim hosts every node in one process: track the
                // whole partner universe (16 B of watermark per partner,
                // no heap) so deltas stay deltas.
                let directory = GossipDirectoryConfig::new(c, config.node.cycle_length())
                    .with_knowledge_peers(n);
                gossip = Some(match model {
                    MembershipModel::FullViews => directory.with_full_views(),
                    _ => directory,
                });
            }
        }
        let values = scenario.values.materialize(n, &mut rng);
        let registry = Registry::new();
        let stacks: Vec<NodeStack<SimDirectory>> = (0..n)
            .map(|i| {
                let directory = match (&graph, &gossip) {
                    (Some(graph), _) => SimDirectory::graph(i, graph, stack_seed),
                    (None, Some(gossip)) => {
                        SimDirectory::newscast_founder(i, n, gossip, stack_seed, &mut wire_rng)
                    }
                    (None, None) => SimDirectory::live_set(i, &live, stack_seed),
                };
                let mut stack = NodeStack::founder(
                    NodeId::new(i as u64),
                    config.node.clone(),
                    values[i],
                    stack_seed,
                    directory,
                    config.query,
                    registry.clone(),
                );
                stack.set_trace_capacity(config.trace_capacity);
                stack
            })
            .collect();
        let spawn_stats: OnlineStats = values.iter().copied().collect();
        let drifts: Vec<f64> = (0..n)
            .map(|_| 1.0 + config.drift * (2.0 * rng.next_f64() - 1.0))
            .collect();

        let mut sim = EventSim {
            config: config.clone(),
            stack_seed,
            gossip,
            query_responses: Vec::new(),
            rng,
            wire: Wire {
                rng: wire_rng,
                delay: config.delay,
                link_failure: scenario.comm.link_failure,
                message_loss: scenario.comm.message_loss,
                queue: BinaryHeap::new(),
                seq: 0,
                queue_peak: 0,
                queue_depth_max: registry.gauge("sim.queue_depth_max"),
                traffic: Traffic::simulated(&registry),
                convergence: Convergence::new(
                    &registry,
                    spawn_stats.population_variance(),
                    config.node.gamma(),
                ),
            },
            epoch_seen: stacks.iter().map(NodeStack::epoch).collect(),
            stacks,
            drifts,
            live,
            wake_at: vec![u64::MAX; n],
            entries: HashMap::from([(0, (0, 0))]),
            collected: (0..n).map(|_| Vec::new()).collect(),
            live_gauge: registry.gauge("sim.live_nodes"),
            events: EVENT_CLASSES
                .map(|kind| registry.counter_with("sim.events", &[("kind", kind)])),
            wakes_idle: registry.counter("sim.wakes_idle"),
            registry,
        };
        sim.live_gauge.set(n as f64);
        // Failure schedule ticks at nominal cycle boundaries, starting
        // with cycle 0's failures before anything else happens.
        if !matches!(scenario.failure, crate::failure::FailureModel::None) {
            sim.wire.push(0, EventKind::FailureTick(0));
        }
        for i in 0..n {
            sim.schedule_wake(i, 0);
        }
        // Scripted client RPCs against the query plane.
        for (i, action) in config.query_script.iter().enumerate() {
            sim.wire.push(action.at, EventKind::Script(i as u32));
        }
        sim
    }

    fn to_local(&self, global: u64, node: usize) -> u64 {
        (global as f64 * self.drifts[node]) as u64
    }

    fn to_global(&self, local: u64, node: usize) -> u64 {
        (local as f64 / self.drifts[node]).ceil() as u64
    }

    fn is_alive(&self, node: u32) -> bool {
        self.live.lock().is_alive(node)
    }

    /// Applies cycle `k`'s crash/churn schedule at global time `at`.
    fn failure_tick(&mut self, k: u32, at: u64) {
        let mut live = self.live.lock();
        let failure = self.config.scenario.failure;
        let crashes = failure.crashes_at(k, live.ids().len());
        if crashes > 0 {
            let victims: Vec<u32> = self
                .rng
                .sample_distinct(live.ids().len(), crashes.min(live.ids().len()))
                .into_iter()
                .map(|pos| live.ids()[pos])
                .collect();
            for v in victims {
                live.kill(v);
            }
        }
        drop(live);
        for _ in 0..failure.joins_at(k) {
            let contacts = self.bootstrapped_live();
            if contacts.is_empty() {
                break; // nobody left to introduce the joiner
            }
            let (pick, second) = contact_pair(&mut self.rng, contacts.len());
            // Under gossiped membership the joiner also knows a second,
            // distinct member, so one dead introducer cannot strand it:
            // the directory's join rotation falls over to it.
            let second = second.filter(|_| self.gossip.is_some());
            self.join(contacts[pick], second.map(|i| contacts[i]), at);
        }
        self.live_gauge.set(self.live.lock().ids().len() as f64);
        // Schedule the next boundary.
        let next_at = u64::from(k + 1) * self.config.node.cycle_length();
        if next_at <= self.config.duration {
            self.wire.push(next_at, EventKind::FailureTick(k + 1));
        }
    }

    /// The live members a joiner may contact: Section 4.2's "a node
    /// already in the network", so under gossiped membership only those
    /// with a non-empty view. A joiner that has not bootstrapped yet
    /// cannot introduce anyone; two such joiners would hold only each
    /// other.
    fn bootstrapped_live(&self) -> Vec<u32> {
        let live = self.live.lock();
        live.ids()
            .iter()
            .copied()
            .filter(|&id| {
                let view = self.stacks[id as usize].directory().view();
                view.map_or(true, |view| !view.is_empty())
            })
            .collect()
    }

    /// Builds the stack of a joiner that contacted `introducer` at global
    /// `at` (Section 4.2: the contacted member supplies the running epoch
    /// and the expected start of the next one; under gossiped membership
    /// it and the fallback contact `second` are the only members the
    /// joiner's directory knows, and the first wake sends `introducer` a
    /// `Join`).
    fn join(&mut self, introducer: u32, second: Option<u32>, at: u64) {
        let idx = self.stacks.len();
        // Register the drift first so the joiner shares the same clock
        // conversions as every other node.
        let config = &self.config;
        self.drifts
            .push(1.0 + config.drift * (2.0 * self.rng.next_f64() - 1.0));
        let intro = &self.stacks[introducer as usize];
        let remaining = u64::from(config.node.gamma().saturating_sub(intro.cycles_run()));
        let next_epoch_global = at + remaining * config.node.cycle_length();
        let directory = match &self.gossip {
            Some(gossip) => {
                let contacts = std::iter::once(introducer).chain(second);
                SimDirectory::newscast_joiner(idx, gossip, contacts, self.stack_seed)
            }
            None => SimDirectory::live_set(idx, &self.live, self.stack_seed),
        };
        let mut stack = NodeStack::joiner(
            NodeId::new(idx as u64),
            config.node.clone(),
            config.scenario.joiner_value,
            self.stack_seed,
            intro.epoch(),
            self.to_local(next_epoch_global, idx),
            directory,
            config.query,
            self.registry.clone(),
        );
        stack.set_trace_capacity(config.trace_capacity);
        self.epoch_seen.push(stack.epoch());
        self.stacks.push(stack);
        self.collected.push(Vec::new());
        self.wake_at.push(u64::MAX);
        self.live.lock().add();
        self.schedule_wake(idx, at + 1);
    }

    /// Queues node `i`'s wake at its stack's deadline, no sooner than
    /// `not_before`, if that is earlier than the wake already queued (a
    /// freshly initiated exchange's timeout, a query install or a pending
    /// join do exactly that). A deadline that moved *later* leaves the
    /// queued wake in place: it fires, finds nothing due, and reschedules
    /// from there.
    fn schedule_wake(&mut self, i: usize, not_before: u64) {
        let deadline = self.stacks[i].next_deadline();
        let target = self.to_global(deadline, i).max(not_before);
        if target < self.wake_at[i] {
            self.wake_at[i] = target;
            self.wire.push(target, EventKind::Wake(i as u32));
        }
    }

    /// Steps node `i`'s stack at global `at`, transmits what it emits,
    /// tracks its epoch for the synchronization measurement and re-arms
    /// its timer. `false` when the step emitted nothing and crossed no
    /// epoch.
    fn step(&mut self, i: usize, at: u64, input: Input<'_>) -> bool {
        let now = self.to_local(at, i);
        let (stack, wire) = (&mut self.stacks[i], &mut self.wire);
        let mut emitted = false;
        stack.step(input, now, |to, frame, plane| {
            emitted = true;
            wire.transmit(at, to, frame, plane);
        });
        let epoch_now = stack.epoch();
        let crossed = epoch_now != self.epoch_seen[i];
        if crossed {
            self.epoch_seen[i] = epoch_now;
            let entry = self.entries.entry(epoch_now).or_insert((at, at));
            entry.0 = entry.0.min(at);
            entry.1 = entry.1.max(at);
            // A transition means the previous epoch's report just landed:
            // fold it into the convergence gauges now.
            let fresh = stack.take_reports();
            wire.convergence.observe_reports(&fresh);
            self.collected[i].extend(fresh);
        }
        wire.convergence
            .observe_query_epochs(&stack.take_query_epochs());
        self.schedule_wake(i, at + 1);
        emitted || crossed
    }

    /// Serves scripted RPC `idx` at global `at`.
    fn serve_script(&mut self, idx: u32, at: u64) {
        let QueryAction { node, request, .. } = &self.config.query_script[idx as usize];
        let i = *node as usize;
        let response = if self.is_alive(*node) {
            let now = self.to_local(at, i);
            let response = self.stacks[i].rpc(request, now);
            self.wire.traffic.rpc(&response);
            // An install or a remove moved the stack's deadline.
            self.schedule_wake(i, at + 1);
            response
        } else {
            // The client hit a node that is not there — crashed, or an id
            // nobody was ever given: the sim stand-in for a request that
            // times out.
            RpcResponse::reject(request.id(), RpcStatus::NotReady)
        };
        self.query_responses.push(response);
    }

    /// Drives the event loop to `duration` and harvests the outcome.
    pub fn run(mut self) -> EventOutcome {
        while let Some(event) = self.next_event() {
            self.dispatch(event);
        }
        self.finish()
    }

    /// Pops the next event due within `duration`.
    fn next_event(&mut self) -> Option<Event> {
        if self.wire.queue.peek()?.at > self.config.duration {
            return None;
        }
        self.wire.queue.pop()
    }

    fn dispatch(&mut self, event: Event) {
        let at = event.at;
        if let Some(class) = event.kind.class() {
            self.events[class].inc();
        }
        match event.kind {
            EventKind::FailureTick(k) => self.failure_tick(k, at),
            EventKind::Script(idx) => self.serve_script(idx, at),
            EventKind::Wake(i) => {
                // Only the live wake counts; one superseded by an earlier
                // reschedule, or a crashed node's, ends here.
                let claimed = self.wake_at[i as usize] == at;
                if claimed {
                    self.wake_at[i as usize] = u64::MAX;
                }
                let busy = claimed && self.is_alive(i) && self.step(i as usize, at, Input::Wake);
                if !busy {
                    self.wakes_idle.inc();
                }
            }
            EventKind::Deliver(i, payload) => {
                // An in-flight delivery to a crashed node is dropped.
                if self.is_alive(i) {
                    if let Some(plane) = Plane::of_received(&payload) {
                        self.wire.traffic.received(plane);
                    }
                    self.step(i as usize, at, Input::Frame(&payload));
                }
            }
        }
    }

    /// Reads the outcome off the final state.
    fn finish(mut self) -> EventOutcome {
        let live = self.live.lock();
        let mut live_sorted = live.ids().to_vec();
        live_sorted.sort_unstable();
        let view_health = self.gossip.is_some().then(|| {
            let views = live_sorted
                .iter()
                .filter_map(|&i| self.stacks[i as usize].directory().view());
            crate::metrics::view_health(views, |peer| live.is_alive(peer))
        });
        drop(live);
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
        for (stack, collected) in self.stacks.iter_mut().zip(&mut self.collected) {
            let fresh = stack.take_reports();
            self.wire.convergence.observe_reports(&fresh);
            collected.extend(fresh);
            self.wire
                .convergence
                .observe_query_epochs(&stack.take_query_epochs());
        }
        // Final readout of every installed query at every live node.
        let mut query_estimates = Vec::new();
        for &i in &live_sorted {
            let stack = &mut self.stacks[i as usize];
            for name in stack.installed_queries() {
                if let Ok(est) = stack.estimate(&name) {
                    query_estimates.push((name, i, est));
                }
            }
        }
        self.live_gauge.set(live_sorted.len() as f64);
        let traces = self.stacks.iter_mut().map(NodeStack::take_trace).collect();
        let mut epoch_entries: Vec<(u64, u64, u64)> = self
            .entries
            .into_iter()
            .map(|(e, (first, last))| (e, first, last))
            .collect();
        epoch_entries.sort_unstable();
        let sent = epidemic_net::TrafficCounts::read(&self.registry);
        let [lost, view_lost, query_lost] = self.wire.traffic.frames_lost();
        EventOutcome {
            reports: self.collected,
            epoch_entries,
            messages_sent: sent.aggregation_sent as usize,
            messages_lost: lost as usize,
            view_messages_sent: sent.membership_sent as usize,
            view_bytes_sent: sent.membership_bytes_sent as usize,
            view_messages_lost: view_lost as usize,
            view_health,
            final_alive: live_sorted.len(),
            traces,
            registry: self.registry,
            query_responses: self.query_responses,
            query_estimates,
            query_messages_sent: sent.query_sent as usize,
            query_messages_lost: query_lost as usize,
            query_bytes_sent: sent.query_bytes_sent as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{CommFailure, FailureModel};
    use crate::scenario::ValueInit;
    use epidemic_net::directory::{DirectoryPayload, ViewPayload};
    use epidemic_newscast::Descriptor;
    use epidemic_topology::TopologyKind;
    use std::collections::HashSet;

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
    fn every_aggregate_kind_converges_on_the_real_node() {
        use epidemic_aggregation::AggregateKind::*;
        // Section 5's catalogue through `GossipNode` itself: self-elected
        // COUNT leaders, epidemic restarts, gossiped membership. Epoch 0
        // calibrates every node's N̂; epoch 1 is judged, by the mean of its
        // reports. Tolerances are relative (PRODUCT's is on the logarithm,
        // where the COUNT error sits). Exchanges overlap under delay, so
        // averaging conserves mass only roughly; an extreme is exact.
        let (n, gamma, seed) = (400usize, 30u32, 21u64);
        let (calm, churn) = (FailureModel::None, FailureModel::Churn { per_cycle: 4 });
        let table = [
            (Average, calm, 0.005),
            (Minimum, calm, 0.0),
            (Maximum, calm, 0.0),
            (Count, calm, 0.1),
            (Sum, calm, 0.15),
            (Variance, calm, 0.02),
            (GeometricMean, calm, 0.005),
            (Product, calm, 0.2),
            // A third of the population replaced per epoch: in the band.
            (Count, churn, 0.375),
        ];
        for (kind, failure, tolerance) in table {
            let mut node = NodeConfig::builder();
            node.gamma(gamma).cycle_length(1_000).timeout(200);
            for spec in kind.instances(12.0) {
                node.instance(spec);
            }
            let mut cfg = base_config();
            cfg.node = node.build().unwrap();
            cfg.duration = u64::from(2 * gamma + 2) * 1_000;
            cfg.scenario.n = n;
            cfg.scenario.overlay = OverlaySpec::Newscast { c: 20 };
            cfg.scenario.failure = failure;
            // Positive for the geometric family; near 1 so PRODUCT fits.
            let hi = if kind == Product { 1.01 } else { 3.0 };
            cfg.scenario.values = ValueInit::Uniform { lo: 1.0, hi };
            let out = cfg.run(seed);
            assert_eq!(out.final_alive, n, "{kind} under {failure:?}");
            assert!(out.view_messages_sent > 0, "membership was idealized");
            // The local values are the scenario stream's first draw.
            let mut stream = Xoshiro256::seed_from_u64(seed);
            let values = cfg.scenario.values.materialize(n, &mut stream);
            let truth = kind.compute_exact(&values).unwrap();
            let reports = out.reports.iter().flatten().filter(|r| r.epoch == 1);
            let estimates: Vec<f64> = reports.filter_map(|r| kind.extract(r, 0)).collect();
            assert!(estimates.len() > n / 4, "{kind}: {}", estimates.len());
            let mean = epidemic_common::stats::mean(&estimates);
            let error = match kind {
                Minimum | Maximum if estimates.iter().all(|&e| e == truth) => 0.0,
                Product => (mean.ln() - truth.ln()).abs(),
                _ => ((mean - truth) / truth).abs(),
            };
            assert!(error <= tolerance, "{kind}, {failure:?}: {mean} vs {truth}");
        }
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
    fn view_bytes_track_codec_sizes() {
        let c = 15;
        let mut cfg = base_config();
        cfg.scenario.overlay = OverlaySpec::Newscast { c };
        let bounds = |out: &EventOutcome| {
            // Every view message carries between 0 (empty delta) and c + 1
            // descriptors; the byte total must price each message inside
            // those codec bounds.
            let view_len = |descriptors: usize| {
                WireFrame::Directory(&DirectoryPayload::View {
                    view: ViewPayload {
                        from: 0,
                        descriptors: vec![Descriptor::new(0, 0); descriptors],
                    },
                    reply: false,
                    delta: false,
                })
                .encoded_len()
            };
            let lo = out.view_messages_sent * view_len(0);
            let hi = out.view_messages_sent * view_len(c + 1);
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
    fn a_joiners_contacts_cost_the_scenario_stream_one_draw() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        for len in [1usize, 2, 3, 17, 64] {
            for _ in 0..200 {
                let mut single = rng.clone();
                let expected = single.index(len);
                let (pick, second) = contact_pair(&mut rng, len);
                assert_eq!(pick, expected, "the introducer is `index(len)`'s pick");
                assert_eq!(rng, single, "one draw, as for the introducer alone");
                match second {
                    Some(second) => assert!(second < len && second != pick),
                    None => assert_eq!(len, 1),
                }
            }
        }
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
        // One timer per node: membership has deliveries but no wake of
        // its own any more.
        assert!(events_of(&out, "view_deliver") > 0);
        let text = out.registry.render_prometheus();
        assert!(!text.contains("view_wake"), "a second timer is back");
    }

    #[test]
    fn crashed_nodes_wake_is_skipped_and_starts_no_chain() {
        // Two nodes, one killed before the first event: the survivor has
        // nobody to gossip with and wakes once per cycle boundary; the
        // victim's pending wake is popped exactly once and never replaced.
        let mut cfg = base_config();
        cfg.scenario.n = 2;
        cfg.duration = 10_000;
        let sim = EventSim::new(&cfg, 1);
        let first = sim.stacks[0].next_deadline(); // no drift: local is global
        sim.live.lock().kill(1);
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

    /// Runs `sim` to its end, showing `inspect` every frame the wire
    /// delivers or still holds when the run stops, and `stepped` the
    /// simulation after each event addressed to a node (with its index).
    fn run_inspecting(
        mut sim: EventSim,
        mut inspect: impl FnMut(&WirePayload),
        mut stepped: impl FnMut(&EventSim, usize),
    ) -> EventSim {
        while let Some(event) = sim.next_event() {
            let node = match &event.kind {
                EventKind::Deliver(i, payload) => {
                    inspect(payload);
                    Some(*i)
                }
                EventKind::Wake(i) => Some(*i),
                _ => None,
            };
            sim.dispatch(event);
            if let Some(i) = node {
                stepped(&sim, i as usize);
            }
        }
        for event in sim.wire.queue.iter() {
            if let EventKind::Deliver(_, payload) = &event.kind {
                inspect(payload);
            }
        }
        sim
    }

    /// Join attempts a stranded joiner has made `cycles` gossip periods
    /// after its first: the directory backs off 1×, 2×, 4×, 8× the period
    /// and then stays at 8×, so attempts fall at 0, 1, 3, 7, 15, 23, …
    fn joins_due(cycles: u64) -> u64 {
        let (mut at, mut attempts, mut gap) = (0, 0, 1);
        while at <= cycles {
            attempts += 1;
            at += gap;
            gap = (gap * 2).min(8);
        }
        attempts
    }

    /// The least `k` with `P(X > k) ≤ tail` for `X ~ Binomial(trials, p)`.
    fn binomial_upper_tail(trials: usize, p: f64, tail: f64) -> usize {
        let mut pmf = (1.0 - p).powi(trials as i32);
        let mut cdf = pmf;
        let mut k = 0;
        while 1.0 - cdf > tail && k < trials {
            pmf *= (trials - k) as f64 / (k + 1) as f64 * p / (1.0 - p);
            cdf += pmf;
            k += 1;
        }
        k
    }

    /// The churn-joiner scenario: n = 64 founders, c = 15, γ = 20, one
    /// joiner per cycle boundary for 100 cycles, 30 % loss on every frame.
    fn churn_joiner_config() -> (EventConfig, usize, usize, u32) {
        let (n, c, gamma) = (64usize, 15usize, 20u32);
        let mut cfg = base_config();
        cfg.scenario.overlay = OverlaySpec::Newscast { c };
        cfg.scenario.failure = FailureModel::Churn { per_cycle: 1 };
        cfg.scenario.comm = CommFailure::messages(0.3);
        cfg.scenario.joiner_value = 31.5; // the founders' mean
        cfg.node = node_config(gamma);
        cfg.duration = 100_000;
        (cfg, n, c, gamma)
    }

    #[test]
    fn churn_joiner_bootstraps_over_a_lossy_wire() {
        // A joiner knows two bootstrapped members and nothing else: its
        // view comes from `Join`/`Introduce` frames that cross the same
        // 30 % loss as everything else, so some joins need the
        // directory's retry. The body runs over seeds 1..=20, fixed
        // before any run; the bounds that are statistical hold over the
        // whole sweep, the others on every seed.
        let (cfg, n, c, gamma) = churn_joiner_config();
        let cycles = cfg.duration / cfg.node.cycle_length();
        let (mut settled_total, mut stranded) = (0usize, 0usize);
        let (mut checked_total, mut outside) = (0usize, 0usize);
        for seed in 1..=20u64 {
            let (mut joins, mut introductions) = (0, 0);
            // Every (joiner, epoch) the joiner entered holding a
            // non-empty view. A view never empties again, so such an
            // epoch ran bootstrapped from start to end.
            let mut last_epoch: HashMap<usize, u64> = HashMap::new();
            let mut bootstrapped = HashSet::new();
            let sim = run_inspecting(
                EventSim::new(&cfg, seed),
                |payload| match payload {
                    WirePayload::Directory(DirectoryPayload::Join { .. }) => joins += 1,
                    WirePayload::Directory(DirectoryPayload::Introduce { .. }) => {
                        introductions += 1
                    }
                    _ => {}
                },
                |sim, i| {
                    let stack = &sim.stacks[i];
                    let epoch = stack.epoch();
                    if i >= n && last_epoch.insert(i, epoch) != Some(epoch) {
                        let view = stack.directory().view().expect("gossiped");
                        if !view.is_empty() {
                            bootstrapped.insert((i, epoch));
                        }
                    }
                },
            );
            let joiners = sim.stacks.len() - n;
            assert_eq!(joiners, 101, "seed {seed}: one joiner per cycle boundary");
            assert!(introductions > 0 && joins >= introductions, "seed {seed}");
            let retries: u64 = sim.stacks.iter().map(NodeStack::join_retries).sum();
            assert!(retries > 0, "seed {seed}: 30 % loss never cost a join");
            assert!(
                sim.stacks[..n].iter().all(|s| s.join_retries() == 0),
                "seed {seed}: a founder joined"
            );
            // Joiner `n + k` arrived at cycle `k`; given ten cycles, a
            // live one either has a view worth drawing from or is still
            // knocking: no joiner settles on a handful of entries (two
            // unbootstrapped joiners that only ever met each other).
            let live = sim.live.lock();
            let settled: Vec<usize> = (n..n + 90).filter(|&i| live.is_alive(i as u32)).collect();
            drop(live);
            assert!(settled.len() > 10, "seed {seed}: churn killed every joiner");
            settled_total += settled.len();
            for &i in &settled {
                let stack = &sim.stacks[i];
                let view = stack.directory().view().expect("gossiped");
                if view.is_empty() {
                    stranded += 1;
                    let lived = cycles - (i - n) as u64;
                    assert!(
                        stack.join_retries() + 1 >= joins_due(lived - 1),
                        "seed {seed}: stranded joiner {i} stopped knocking after {} joins",
                        stack.join_retries() + 1
                    );
                } else {
                    assert!(
                        view.len() >= c / 2,
                        "seed {seed}: joiner {i} holds {} entries",
                        view.len()
                    );
                }
            }
            // A joiner sits out the epoch it arrived in; the first one it
            // reports is one it ran in full. If it also held a view for
            // all of that epoch, its estimate has converged on the
            // epoch's consensus as far as Section 6's slowed-down rate
            // allows (an exchange survives two losses, P_d = 1 − 0.7²),
            // with ×5 slack for the crashes that take mass out mid-epoch.
            // A joiner that bootstrapped mid-epoch had fewer cycles to
            // mix and may still report close to its own 31.5, so it is
            // not held to the bound. Consensus itself drifts off the
            // truth with every lost reply.
            let out = sim.finish();
            let sigma0 = ((n * n - 1) as f64 / 12.0).sqrt();
            let rho = epidemic_aggregation::theory::link_failure_rho_bound(1.0 - 0.7 * 0.7);
            let bound = 5.0 * sigma0 * rho.powf(f64::from(gamma) / 2.0);
            let mut checked = 0;
            for (i, reports) in out.reports.iter().enumerate().skip(n) {
                let Some(first) = reports.first() else {
                    continue;
                };
                if !bootstrapped.contains(&(i, first.epoch)) {
                    continue;
                }
                let est = first.scalar(0).unwrap();
                let consensus = out.mean_epoch_estimate(first.epoch).unwrap();
                if (est - consensus).abs() >= bound {
                    outside += 1;
                }
                assert!(
                    (est - 31.5).abs() < 31.5 * 0.5,
                    "seed {seed}: estimate {est}"
                );
                checked += 1;
            }
            assert!(
                checked > 10,
                "seed {seed}: only {checked} joiners ever reported"
            );
            checked_total += checked;
        }
        // The consensus bound is a tail, not a certainty: over seeds
        // 1..=300 of this scenario 30 of 10,479 checked joiners reported
        // outside it. The sweep may hold as many as that rate leaves with
        // probability 10⁻³ (the binomial upper tail over the joiners it
        // checked), so a change that moves every draw is held to the rate,
        // not to the luck of twenty seeds.
        let limit = binomial_upper_tail(checked_total, 30.0 / 10_479.0, 1e-3);
        assert!(
            outside <= limit,
            "{outside} of {checked_total} checked joiners outside the consensus bound \
             (limit {limit})"
        );
        // A settled joiner has lived ten cycles, long enough for its Join
        // attempts at 0, 1, 3 and 7 cycles after arrival. Each round trip
        // survives both 30 % losses with 0.7² = 0.49, so all four fail
        // with 0.51⁴ ≈ 6.8 %; only then can its view still be empty (and
        // not even then if a member that absorbed a Join whose Introduce
        // was lost has gossiped with it since). Over ≈ 800 settled
        // joiners that is the bound on the stranded share.
        let limit = 0.51f64.powi(4) * settled_total as f64;
        assert!(
            stranded as f64 <= limit,
            "{stranded} of {settled_total} settled joiners stranded (limit {limit:.1})"
        );
    }

    #[test]
    fn a_forged_epoch_notice_leaves_epochs_monotone_and_reads_accurate() {
        // One EpochNotice at u64::MAX reaches a converged 256-node
        // cluster in epoch 1. Adopted, it would spread with every message
        // and wrap the cluster back to epoch 0 at the next epoch end.
        let mut cfg = base_config();
        cfg.scenario.n = 256;
        let notice = epidemic_aggregation::Message::epoch_notice(NodeId::new(7), u64::MAX);
        let mut sim = EventSim::new(&cfg, 3);
        sim.wire.push(
            20_000,
            EventKind::Deliver(5, WirePayload::Aggregation(notice)),
        );
        let mut epochs = vec![0u64; cfg.scenario.n];
        let sim = run_inspecting(
            sim,
            |_| {},
            |sim, i| {
                let epoch = sim.stacks[i].epoch();
                assert!(epoch >= epochs[i], "node {i} went {} -> {epoch}", epochs[i]);
                epochs[i] = epoch;
            },
        );
        let out = sim.finish();
        assert_eq!(out.registry.counter_value("agg.epoch_jumps_refused"), 1);
        assert!(epochs.iter().all(|&e| e == 2), "epochs {epochs:?}");
        let truth = 255.0 / 2.0;
        let mut reported = 0;
        for r in out.reports.iter().flatten() {
            let v = r.scalar(0).unwrap();
            assert!((v - truth).abs() < 0.05 * truth, "epoch {}: {v}", r.epoch);
            reported += 1;
        }
        // About half the nodes report an epoch; the rest are pulled into
        // the next one early by a faster peer (Section 4.3).
        assert!(reported >= cfg.scenario.n, "only {reported} reports");
    }

    #[test]
    fn membership_ledger_is_the_codec_size_of_every_frame() {
        // Lossless, so every frame handed to the wire is delivered or
        // still queued when the run stops — the test sees them all.
        let mut cfg = base_config();
        cfg.scenario.overlay = OverlaySpec::Newscast { c: 15 };
        cfg.scenario.failure = FailureModel::Churn { per_cycle: 2 };
        let (mut frames, mut bytes, mut bootstrap) = (0, 0, 0);
        let sim = run_inspecting(
            EventSim::new(&cfg, 4),
            |payload| {
                if let WirePayload::Directory(directory) = payload {
                    frames += 1;
                    bytes += WireFrame::Directory(directory).encoded_len();
                    if !matches!(directory, DirectoryPayload::View { .. }) {
                        bootstrap += 1;
                    }
                }
            },
            |_, _| {},
        );
        let out = sim.finish();
        assert!(bootstrap >= 2 * 40, "joiners did not join over the wire");
        assert_eq!(out.view_messages_lost, 0);
        assert_eq!(out.view_messages_sent, frames);
        assert_eq!(out.view_bytes_sent, bytes);
        assert_eq!(series(&out, "io.bytes_sent", "membership"), bytes);
    }

    /// `name{plane=…}` of a finished run.
    fn series(out: &EventOutcome, name: &str, plane: &str) -> usize {
        out.registry.counter_with(name, &[("plane", plane)]).get() as usize
    }

    #[test]
    fn every_traffic_field_is_its_registry_series() {
        let mut cfg = base_config();
        cfg.scenario.overlay = OverlaySpec::Newscast { c: 15 };
        cfg.scenario.comm = CommFailure::messages(0.1);
        cfg.query_script = vec![install_action(2_000, 0, 1, average_query("q", 1.0))];
        let o = &cfg.run(5);
        for (plane, sent, lost) in [
            ("aggregation", o.messages_sent, o.messages_lost),
            ("membership", o.view_messages_sent, o.view_messages_lost),
            ("query", o.query_messages_sent, o.query_messages_lost),
        ] {
            assert!(lost > 0, "{plane}: loss never hit");
            assert_eq!(series(o, "io.frames_sent", plane), sent, "{plane}");
            assert_eq!(series(o, "sim.frames_lost", plane), lost, "{plane}");
            // What was not lost arrived, or is still in flight at the end.
            let received = series(o, "io.frames_received", plane);
            assert!(received > 0 && received <= sent - lost, "{plane}");
        }
        assert_eq!(series(o, "io.bytes_sent", "membership"), o.view_bytes_sent);
        assert_eq!(series(o, "io.bytes_sent", "query"), o.query_bytes_sent);
        assert_eq!(o.registry.counter_value("rpc.requests"), 1);
    }

    #[test]
    fn static_overlay_draws_a_crashed_neighbor_and_pays_the_timeout() {
        // The live-set twin (`crashed_nodes_wake_is_skipped…`) sends
        // nothing: nobody is left to draw. A static graph does not know:
        // every cycle the survivor asks its dead neighbor and times out.
        let mut cfg = base_config();
        cfg.scenario.n = 2;
        cfg.scenario.overlay = OverlaySpec::Static(TopologyKind::Complete);
        cfg.duration = 10_000;
        cfg.trace_capacity = 64;
        let sim = EventSim::new(&cfg, 1);
        let first = sim.stacks[0].next_deadline();
        sim.live.lock().kill(1);
        let out = sim.run();
        let cycles = ((cfg.duration - first) / cfg.node.cycle_length() + 1) as usize;
        assert_eq!(out.messages_sent, cycles);
        assert_eq!(out.messages_lost, 0, "lost to the crash, not to the wire");
        assert_eq!(out.registry.counter_value("agg.exchanges"), cycles as u64);
        let timeouts = out.traces[0]
            .iter()
            .filter(|e| e.kind == epidemic_telemetry::TraceKind::ExchangeTimeout)
            .count();
        // The last request's timeout may fall past the end of the run.
        assert!(
            timeouts + 1 >= cycles && timeouts <= cycles,
            "{timeouts} timeouts for {cycles} requests"
        );
        assert!(out.reports[0].is_empty() && out.reports[1].is_empty());
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
    fn empty_script_leaves_no_trace_and_a_scripted_run_is_deterministic() {
        // On the stack, as on the wire, the base aggregate and its
        // tenants draw peers from one directory and share one transport:
        // a running query does perturb the base plane's draws. What
        // holds is that without a script the query plane does not exist
        // — however it is tuned — and that one seed is one run.
        let traffic = |out: &EventOutcome| {
            (
                out.messages_sent,
                out.view_messages_sent,
                out.epoch_entries.clone(),
                out.epoch_estimates(0),
                out.query_messages_sent,
            )
        };
        let plain = base_config().run(1);
        let mut retuned = base_config();
        retuned.query.gossip_period = 50;
        retuned.query.boost_fanout = 9;
        assert_eq!(traffic(&plain), traffic(&retuned.run(1)));
        assert_eq!(plain.query_messages_sent, 0);
        assert_eq!(events_of(&plain, "query"), 0);
        let mut cfg = base_config();
        cfg.query_script = vec![install_action(1_000, 5, 9, average_query("side", 1.0))];
        let queried = cfg.run(1);
        assert!(queried.query_messages_sent > 0);
        assert_eq!(traffic(&queried), traffic(&cfg.run(1)));
    }

    #[test]
    fn rpc_at_a_node_that_never_existed_is_not_ready() {
        // A client may aim at any id; one past the population is the
        // "node that is not there" case, not an index panic.
        let mut cfg = base_config();
        let n = cfg.scenario.n as u32;
        cfg.query_script = vec![
            install_action(500, n + 5, 1, average_query("ghost", 1.0)),
            install_action(600, u32::MAX, 2, average_query("ghost", 1.0)),
        ];
        let out = cfg.run(1);
        let statuses: Vec<RpcStatus> = out.query_responses.iter().map(|r| r.status).collect();
        assert_eq!(statuses, [RpcStatus::NotReady, RpcStatus::NotReady]);
        assert_eq!(out.query_responses[0].id, 1);
        assert_eq!(out.query_messages_sent, 0, "a ghost installed a query");
        assert!(out.mean_epoch_estimate(0).is_some(), "run did not complete");
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
        assert_eq!(out.registry.counter_value("rpc.rejects"), 4);
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
}
