//! The sans-io gossip node state machine.
//!
//! [`GossipNode`] implements the *practical* protocol of Section 4: the
//! push-pull exchange kernel plus automatic restart in epochs of γ cycles,
//! epidemic epoch synchronization, deferred participation for joiners, and
//! exchange timeouts. It performs no I/O and holds no clock: the embedding
//! (the event-driven simulator in `epidemic-sim`, or the UDP runtimes in
//! `epidemic-net`) calls [`GossipNode::poll_sampler`] with the current
//! time and its `GETNEIGHBOR()` service, delivers incoming messages
//! through [`GossipNode::handle`], and transmits whatever [`Outbound`]
//! messages come back.
//!
//! # Lifecycle
//!
//! ```text
//!            poll(now, peer)                 handle(msg, now)
//!   timer ──────────────────▶ Request ──▶ peer ──▶ Reply ──▶ merge
//!     │                                     │
//!     │ γ cycles elapsed                    │ epoch j > i seen
//!     ▼                                     ▼
//!  EpochReport + restart            jump to epoch j (re-init)
//! ```

use crate::config::NodeConfig;
use crate::instance::{InstanceSpec, InstanceState, LeaderPolicy};
use crate::message::{Message, MessageBody};
use crate::report::EpochReport;
use crate::value::{InstanceMap, MAX_MAP_LEADERS};
use epidemic_common::rng::Xoshiro256;
use epidemic_common::NodeId;
use epidemic_telemetry::{Registry, TraceEvent, TraceKind, TraceRing};

/// A message together with its destination.
#[derive(Debug, Clone, PartialEq)]
pub struct Outbound {
    /// Destination node.
    pub to: NodeId,
    /// Message to deliver.
    pub message: Message,
}

/// Object-safe source of gossip partners — the paper's `GETNEIGHBOR()`.
///
/// [`GossipNode::poll_with`] takes a closure, which is ideal for ad-hoc
/// embeddings but cannot be stored behind a trait object. Membership
/// services that live as long as the node (a static peer table, a
/// NEWSCAST view, …) implement this trait instead and plug into
/// [`GossipNode::poll_sampler`]; the node still draws lazily, exactly one
/// draw per initiated exchange.
pub trait PeerSampler {
    /// Draws one exchange partner, or `None` when no peer is known.
    ///
    /// Called only when an exchange is actually initiated, so stateful
    /// samplers may treat every call as consumed randomness.
    fn draw_peer(&mut self) -> Option<NodeId>;
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    peer: NodeId,
    epoch: u64,
    expires_at: u64,
}

/// Sans-io state machine for one aggregation node.
///
/// # Examples
///
/// Two nodes driven by hand through one exchange:
///
/// ```
/// use epidemic_aggregation::{GossipNode, InstanceSpec, NodeConfig};
/// use epidemic_common::NodeId;
///
/// let config = NodeConfig::builder()
///     .gamma(10)
///     .cycle_length(100)
///     .timeout(30)
///     .instance(InstanceSpec::AVERAGE)
///     .build()?;
/// let mut a = GossipNode::founder(NodeId::new(0), config.clone(), 8.0, 1);
/// let mut b = GossipNode::founder(NodeId::new(1), config, 2.0, 2);
///
/// // Drive a's timer until it initiates towards b.
/// let mut t = 0;
/// let request = loop {
///     if let Some(out) = a.poll(t, Some(NodeId::new(1))) { break out; }
///     t += 1;
/// };
/// let reply = b.handle(&request.message, t).expect("b replies");
/// a.handle(&reply.message, t);
/// assert_eq!(a.scalar_estimate(0), Some(5.0));
/// assert_eq!(b.scalar_estimate(0), Some(5.0));
/// # Ok::<(), epidemic_aggregation::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GossipNode {
    id: NodeId,
    config: NodeConfig,
    rng: Xoshiro256,
    local_value: f64,
    epoch: u64,
    /// Local tick at which the node entered `epoch` (for a joiner, when
    /// the introducer's running epoch began): how far ahead a newer epoch
    /// may be and still be adopted grows with the time since.
    epoch_entered_at: u64,
    activation_epoch: u64,
    /// Tick at which a still-waiting joiner unilaterally enters its
    /// activation epoch (the "time until next epoch" hint of Section 4.2).
    activation_at: Option<u64>,
    active: bool,
    cycles_run: u32,
    states: Vec<InstanceState>,
    size_estimate: f64,
    next_cycle_at: u64,
    pending: Option<Pending>,
    reports: Vec<EpochReport>,
    /// Protocol event trace (disabled unless the embedding opts in via
    /// [`GossipNode::set_trace_capacity`]). Events carry only logical
    /// coordinates, so same-seed runs under different embeddings
    /// produce identical traces.
    trace: TraceRing,
    /// Where refusals are counted (see [`GossipNode::set_registry`]).
    registry: Registry,
}

impl GossipNode {
    /// Creates a founding member: a node present at system start, active in
    /// epoch 0. The first cycle fires within one cycle length (random
    /// phase, so nodes do not tick in lockstep).
    pub fn founder(id: NodeId, config: NodeConfig, local_value: f64, seed: u64) -> Self {
        let mut rng = Xoshiro256::stream(seed, id.as_u64());
        let phase = rng.next_below(config.cycle_length());
        let mut node = GossipNode {
            id,
            size_estimate: config.initial_size_guess(),
            config,
            rng,
            local_value,
            epoch: 0,
            epoch_entered_at: 0,
            activation_epoch: 0,
            activation_at: None,
            active: true,
            cycles_run: 0,
            states: Vec::new(),
            next_cycle_at: phase,
            pending: None,
            reports: Vec::new(),
            trace: TraceRing::disabled(),
            registry: Registry::disabled(),
        };
        node.init_epoch_states();
        node
    }

    /// Creates a node joining a running system (Section 4.2). The contacted
    /// member supplied the running epoch identifier `current_epoch` and the
    /// tick `next_epoch_at` when the next epoch is expected to start; the
    /// joiner refuses exchanges until then (or until it observes a message
    /// from a newer epoch, whichever happens first). It trusts
    /// `current_epoch`: with no history of its own, it has nothing to
    /// bound it against.
    pub fn joiner(
        id: NodeId,
        config: NodeConfig,
        local_value: f64,
        seed: u64,
        current_epoch: u64,
        next_epoch_at: u64,
    ) -> Self {
        let mut rng = Xoshiro256::stream(seed, id.as_u64());
        let phase = rng.next_below(config.cycle_length());
        let epoch_length = epoch_length(&config);
        GossipNode {
            id,
            size_estimate: config.initial_size_guess(),
            config,
            rng,
            local_value,
            epoch: current_epoch,
            epoch_entered_at: next_epoch_at.saturating_sub(epoch_length),
            activation_epoch: current_epoch.saturating_add(1),
            activation_at: Some(next_epoch_at),
            active: false,
            cycles_run: 0,
            states: Vec::new(),
            next_cycle_at: next_epoch_at + phase,
            pending: None,
            reports: Vec::new(),
            trace: TraceRing::disabled(),
            registry: Registry::disabled(),
        }
    }

    /// Counts what the node refuses in `registry`: requests and replies
    /// carrying a non-finite estimate (`agg.states_refused{reason=
    /// "non_finite"}`) and epochs too far ahead to adopt
    /// (`agg.epoch_jumps_refused`). Disabled until called.
    pub fn set_registry(&mut self, registry: Registry) {
        self.registry = registry;
    }

    /// Enables protocol event tracing with a ring of `capacity` events
    /// (0 disables). See [`TraceRing`].
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace.set_capacity(capacity);
    }

    /// Drains the traced protocol events recorded since the last call.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.drain()
    }

    /// Records one protocol event at the node's current logical
    /// coordinates. A disabled ring makes this one branch.
    fn record(&mut self, kind: TraceKind, peer: Option<NodeId>, detail: u64) {
        if !self.trace.is_enabled() {
            return;
        }
        self.trace.record(TraceEvent {
            node: self.id.as_u64(),
            kind,
            epoch: self.epoch,
            cycle: u64::from(self.cycles_run),
            peer: peer.map(|p| p.as_u64()),
            detail,
        });
    }

    /// Node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Epoch the node currently participates in (or waits for).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Returns `true` once the node participates in the running epoch.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Cycles completed in the current epoch.
    pub fn cycles_run(&self) -> u32 {
        self.cycles_run
    }

    /// Current scalar estimate of instance `idx`, if active and scalar.
    pub fn scalar_estimate(&self, idx: usize) -> Option<f64> {
        if !self.active {
            return None;
        }
        self.states.get(idx).and_then(InstanceState::as_scalar)
    }

    /// Latest network-size estimate (from the last completed COUNT epoch,
    /// or the configured initial guess).
    pub fn size_estimate(&self) -> f64 {
        self.size_estimate
    }

    /// Updates the local value. Takes effect at the next epoch
    /// initialization — running epochs keep aggregating over the values
    /// they started from, which is what makes every epoch's output a
    /// consistent snapshot. A non-finite value is ignored: it would
    /// poison every estimate it is averaged into.
    pub fn set_local_value(&mut self, value: f64) {
        if value.is_finite() {
            self.local_value = value;
        }
    }

    /// Current local value.
    pub fn local_value(&self) -> f64 {
        self.local_value
    }

    /// Drains the epoch reports accumulated since the last call.
    pub fn take_reports(&mut self) -> Vec<EpochReport> {
        std::mem::take(&mut self.reports)
    }

    /// Tick (in this node's local clock) at which the next cycle fires.
    pub fn next_cycle_at(&self) -> u64 {
        self.next_cycle_at
    }

    /// The earliest local tick at which this node needs to be polled again:
    /// the next cycle, a pending-exchange timeout, or a scheduled joiner
    /// activation, whichever comes first. Embeddings use this to schedule
    /// wake-ups instead of polling continuously.
    pub fn next_deadline(&self) -> u64 {
        let mut deadline = self.next_cycle_at;
        if let Some(p) = self.pending {
            deadline = deadline.min(p.expires_at);
        }
        if let (false, Some(at)) = (self.active, self.activation_at) {
            deadline = deadline.min(at);
        }
        deadline
    }

    /// Advances timers to `now`. If a cycle boundary passed, initiates a
    /// push-pull exchange with `peer` (a `GETNEIGHBOR()` result the caller
    /// drew up front) and returns the request to transmit.
    ///
    /// Also expires a pending exchange whose timeout passed (the paper's
    /// crash masking: the exchange is simply skipped) and performs the
    /// scheduled epoch activation of a joiner.
    ///
    /// The eager form suits hand-driven nodes (tests, doc examples) whose
    /// partner is known; every engine in this workspace polls through
    /// [`poll_sampler`](Self::poll_sampler) so that idle wake-ups consume
    /// no peer randomness.
    pub fn poll(&mut self, now: u64, peer: Option<NodeId>) -> Option<Outbound> {
        self.poll_with(now, || peer)
    }

    /// [`poll`](Self::poll) with *lazy* peer selection: `choose_peer` is
    /// invoked only when a cycle boundary actually fired and an exchange
    /// will be initiated.
    ///
    /// This is the entry point for embeddings that drive many nodes as
    /// continuation-style state machines (the multiplexed UDP runtime, the
    /// event-driven simulator): wake-ups triggered by timeouts or
    /// activations must not consume `GETNEIGHBOR()` randomness, so that
    /// the sequence of peers a node contacts is a deterministic function
    /// of its cycle count alone — independent of how often the embedding
    /// polls.
    pub fn poll_with<F>(&mut self, now: u64, choose_peer: F) -> Option<Outbound>
    where
        F: FnOnce() -> Option<NodeId>,
    {
        if let Some(p) = self.pending {
            if p.expires_at <= now {
                self.pending = None;
                self.record(TraceKind::ExchangeTimeout, Some(p.peer), 0);
            }
        }
        if let (false, Some(at)) = (self.active, self.activation_at) {
            if now >= at {
                self.enter_epoch(self.activation_epoch, now);
            }
        }
        let mut initiate = false;
        while now >= self.next_cycle_at {
            self.next_cycle_at += self.config.cycle_length();
            if self.active {
                self.complete_cycle(now);
                initiate = true;
            }
        }
        if !initiate || !self.active {
            return None;
        }
        // One in-flight exchange at a time; while the previous one is
        // awaiting its reply or timeout, do not even draw a peer (the
        // draw sequence must stay a function of initiated exchanges).
        if self.pending.is_some() {
            return None;
        }
        let peer = choose_peer()?;
        if peer == self.id {
            return None;
        }
        self.pending = Some(Pending {
            peer,
            epoch: self.epoch,
            expires_at: now + self.config.timeout(),
        });
        self.record(TraceKind::ExchangeInit, Some(peer), 0);
        Some(Outbound {
            to: peer,
            message: Message::request(self.id, self.epoch, self.states.clone()),
        })
    }

    /// [`poll_with`](Self::poll_with) over a long-lived [`PeerSampler`]
    /// instead of a closure — the form used by runtimes whose
    /// `GETNEIGHBOR()` is a pluggable membership service (see
    /// `epidemic-net`'s `PeerDirectory`). Identical draw semantics: the
    /// sampler is consulted exactly once per initiated exchange.
    pub fn poll_sampler(&mut self, now: u64, sampler: &mut dyn PeerSampler) -> Option<Outbound> {
        self.poll_with(now, || sampler.draw_peer())
    }

    /// Processes an incoming message, possibly producing a response.
    pub fn handle(&mut self, msg: &Message, now: u64) -> Option<Outbound> {
        match &msg.body {
            MessageBody::Request(remote_states) => self.handle_request(msg, remote_states, now),
            MessageBody::Reply(remote_states) => {
                self.handle_reply(msg, remote_states, now);
                None
            }
            MessageBody::EpochNotice => {
                self.clear_pending_for(msg.from);
                self.maybe_jump(msg.epoch, now);
                None
            }
            MessageBody::Refuse => {
                self.clear_pending_for(msg.from);
                None
            }
        }
    }

    fn handle_request(
        &mut self,
        msg: &Message,
        remote: &[InstanceState],
        now: u64,
    ) -> Option<Outbound> {
        if msg.epoch > self.epoch {
            self.maybe_jump(msg.epoch, now);
        }
        if msg.epoch < self.epoch {
            // The sender lags; pull it forward epidemically (Section 4.3).
            return Some(Outbound {
                to: msg.from,
                message: Message::epoch_notice(self.id, self.epoch),
            });
        }
        if !self.active || msg.epoch != self.epoch {
            // Either we are a joiner refusing the running epoch, or the
            // jump above was blocked by our activation epoch.
            return Some(Outbound {
                to: msg.from,
                message: Message::refuse(self.id, self.epoch),
            });
        }
        if !self.states_compatible(remote)
            || !self.states_finite(remote)
            || !self.maps_bounded(remote)
        {
            // Differently-configured, buggy or hostile peer: decline
            // rather than corrupt our state. A refusal also clears the
            // peer's pending exchange promptly.
            return Some(Outbound {
                to: msg.from,
                message: Message::refuse(self.id, self.epoch),
            });
        }
        let reply = Message::reply(self.id, self.epoch, self.states.clone());
        self.merge_states(remote);
        self.record(TraceKind::ExchangeComplete, Some(msg.from), 2);
        Some(Outbound {
            to: msg.from,
            message: reply,
        })
    }

    fn handle_reply(&mut self, msg: &Message, remote: &[InstanceState], now: u64) {
        let Some(p) = self.pending else {
            return; // timed out earlier; drop the late reply (Section 4.2)
        };
        if p.peer != msg.from {
            return;
        }
        self.pending = None;
        if msg.epoch > self.epoch {
            self.record(TraceKind::ExchangeComplete, Some(msg.from), 0);
            self.maybe_jump(msg.epoch, now);
            return; // states belong to different epochs: no merge
        }
        if msg.epoch == self.epoch
            && p.epoch == self.epoch
            && self.active
            && self.states_compatible(remote)
            && self.states_finite(remote)
            && self.maps_bounded(remote)
        {
            self.merge_states(remote);
            self.record(TraceKind::ExchangeComplete, Some(msg.from), 1);
        } else {
            self.record(TraceKind::ExchangeComplete, Some(msg.from), 0);
        }
    }

    /// Shape-checks a remote state vector against our configuration.
    fn states_compatible(&self, remote: &[InstanceState]) -> bool {
        remote.len() == self.states.len()
            && self
                .config
                .instances()
                .iter()
                .zip(remote)
                .all(|(spec, state)| {
                    matches!(
                        (spec, state),
                        (InstanceSpec::Scalar { .. }, InstanceState::Scalar(_))
                            | (InstanceSpec::CountMap { .. }, InstanceState::Map(_))
                    )
                })
    }

    /// `true` when every estimate in `remote` is finite; otherwise the
    /// states are refused like a lost message (Section 6) and counted.
    fn states_finite(&self, remote: &[InstanceState]) -> bool {
        let finite = remote.iter().all(InstanceState::is_finite);
        if !finite {
            let labels = [("reason", "non_finite")];
            self.registry
                .counter_with("agg.states_refused", &labels)
                .inc();
        }
        finite
    }

    /// `true` unless a remote COUNT map, or its union with ours, holds
    /// more than [`MAX_MAP_LEADERS`] leaders; otherwise the states are
    /// refused like a lost message and counted. Call it after
    /// [`states_compatible`](Self::states_compatible).
    fn maps_bounded(&self, remote: &[InstanceState]) -> bool {
        let bounded = self.states.iter().zip(remote).all(|pair| match pair {
            (InstanceState::Map(local), InstanceState::Map(remote)) => {
                remote.len() <= MAX_MAP_LEADERS
                    && InstanceMap::union_len(local, remote) <= MAX_MAP_LEADERS
            }
            _ => true,
        });
        if !bounded {
            let labels = [("reason", "map_too_large")];
            self.registry
                .counter_with("agg.states_refused", &labels)
                .inc();
        }
        bounded
    }

    fn clear_pending_for(&mut self, peer: NodeId) {
        if let Some(p) = self.pending {
            if p.peer == peer {
                self.pending = None;
            }
        }
    }

    /// Jumps to epoch `epoch` if it is newer, activating if permitted.
    /// State of the abandoned epoch is discarded (the node was too slow;
    /// its unfinished estimate would be misleading). No-op when epoch
    /// synchronization is disabled (ablation only).
    ///
    /// An epoch is adopted only if it is at most `elapsed / (γ·δ) + 2`
    /// ahead of the current one, `elapsed` being the local time since the
    /// node entered it: no honest peer can have run further. A node cut
    /// off for hours still catches up in one step, while one forged epoch
    /// id cannot carry the cluster to the end of the number line. A
    /// refused jump is counted (`agg.epoch_jumps_refused`) and the message
    /// is otherwise handled as from an older epoch's peer.
    fn maybe_jump(&mut self, epoch: u64, now: u64) {
        if !self.config.epoch_sync() || epoch <= self.epoch {
            return;
        }
        let elapsed = now.saturating_sub(self.epoch_entered_at);
        let reach = (elapsed / epoch_length(&self.config)).saturating_add(2);
        if epoch - self.epoch > reach {
            self.registry.counter("agg.epoch_jumps_refused").inc();
            return;
        }
        self.enter_epoch(epoch, now);
    }

    fn enter_epoch(&mut self, epoch: u64, now: u64) {
        self.epoch = epoch;
        self.epoch_entered_at = now;
        self.cycles_run = 0;
        self.pending = None;
        if self.epoch >= self.activation_epoch {
            self.active = true;
            self.activation_at = None;
            self.init_epoch_states();
        }
        self.record(TraceKind::EpochTransition, None, 0);
    }

    /// Counts one completed cycle; at γ the epoch's states are reported and
    /// the next epoch starts from fresh local values (Section 4.1).
    fn complete_cycle(&mut self, now: u64) {
        self.cycles_run += 1;
        if self.cycles_run >= self.config.gamma() {
            let report = EpochReport {
                epoch: self.epoch,
                cycles_run: self.cycles_run,
                states: self.states.clone(),
            };
            if let Some(estimate) = report.count_estimate() {
                self.size_estimate = estimate;
            }
            self.reports.push(report);
            // Checked: an epoch id never wraps back to 0. The jump bound
            // keeps it within reach of the clock, far below the end.
            self.epoch = self.epoch.saturating_add(1);
            self.epoch_entered_at = now;
            self.cycles_run = 0;
            self.pending = None;
            self.init_epoch_states();
            self.record(TraceKind::EpochTransition, None, 1);
        }
    }

    fn init_epoch_states(&mut self) {
        let size_estimate = self.size_estimate;
        // Collect leader decisions first: instance specs are immutable
        // config, but the election consumes randomness.
        let decisions: Vec<bool> = self
            .config
            .instances()
            .iter()
            .map(|spec| match spec {
                InstanceSpec::CountMap { leader } => {
                    let p = leader.probability(size_estimate);
                    self.rng.next_bool(p)
                }
                InstanceSpec::Scalar { .. } => false,
            })
            .collect();
        self.states = self
            .config
            .instances()
            .iter()
            .zip(decisions)
            .map(|(spec, is_leader)| spec.init_state(self.local_value, self.id.as_u64(), is_leader))
            .collect();
    }

    fn merge_states(&mut self, remote: &[InstanceState]) {
        debug_assert_eq!(remote.len(), self.states.len(), "instance count mismatch");
        for ((spec, local), remote) in self
            .config
            .instances()
            .iter()
            .zip(self.states.iter_mut())
            .zip(remote.iter())
        {
            *local = spec.merge(local, remote);
        }
    }
}

/// One epoch γ·δ in ticks.
fn epoch_length(config: &NodeConfig) -> u64 {
    u64::from(config.gamma()).saturating_mul(config.cycle_length())
}

/// Returns `true` if the [`LeaderPolicy`] would make this node lead with
/// certainty — exposed for embeddings that pin leaders externally.
pub fn always_leads(policy: LeaderPolicy) -> bool {
    matches!(policy, LeaderPolicy::Always)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceSpec;

    fn config(gamma: u32) -> NodeConfig {
        NodeConfig::builder()
            .gamma(gamma)
            .cycle_length(100)
            .timeout(30)
            .instance(InstanceSpec::AVERAGE)
            .build()
            .unwrap()
    }

    fn drive_exchange(a: &mut GossipNode, b: &mut GossipNode, t: &mut u64) {
        loop {
            *t += 1;
            if let Some(out) = a.poll(*t, Some(b.id())) {
                if let Some(reply) = b.handle(&out.message, *t) {
                    a.handle(&reply.message, *t);
                }
                return;
            }
        }
    }

    #[test]
    fn founder_initializes_from_local_value() {
        let node = GossipNode::founder(NodeId::new(0), config(10), 7.5, 1);
        assert!(node.is_active());
        assert_eq!(node.epoch(), 0);
        assert_eq!(node.scalar_estimate(0), Some(7.5));
    }

    #[test]
    fn exchange_averages_both_sides() {
        let mut a = GossipNode::founder(NodeId::new(0), config(10), 8.0, 1);
        let mut b = GossipNode::founder(NodeId::new(1), config(10), 2.0, 2);
        let mut t = 0;
        drive_exchange(&mut a, &mut b, &mut t);
        assert_eq!(a.scalar_estimate(0), Some(5.0));
        assert_eq!(b.scalar_estimate(0), Some(5.0));
    }

    #[test]
    fn poll_without_peer_does_not_initiate() {
        let mut a = GossipNode::founder(NodeId::new(0), config(10), 1.0, 1);
        for t in 0..500 {
            assert!(a.poll(t, None).is_none());
        }
        // Cycles still advance (epochs must not stall when isolated).
        assert!(a.cycles_run() > 0 || a.epoch() > 0);
    }

    #[test]
    fn poll_never_initiates_to_self() {
        let mut a = GossipNode::founder(NodeId::new(0), config(10), 1.0, 1);
        for t in 0..500 {
            assert!(a.poll(t, Some(NodeId::new(0))).is_none());
        }
    }

    #[test]
    fn poll_with_draws_peer_only_on_initiation() {
        let mut a = GossipNode::founder(NodeId::new(0), config(10), 1.0, 1);
        let mut draws = 0;
        // Repolling the same instant must not re-draw: only the poll that
        // crosses a cycle boundary (and has no pending exchange) consumes
        // a peer.
        let mut t = 0;
        let mut initiations = 0;
        while initiations == 0 {
            t += 1;
            for _ in 0..3 {
                if a.poll_with(t, || {
                    draws += 1;
                    Some(NodeId::new(1))
                })
                .is_some()
                {
                    initiations += 1;
                }
            }
        }
        assert_eq!(draws, 1, "peer drawn {draws} times for 1 initiation");
        // Driving through several more cycles with replies never arriving:
        // exactly one draw per initiated exchange, none for the wake-ups
        // that only expired timeouts.
        for _ in 0..5 {
            t += 100; // one cycle length; the previous exchange timed out
            a.poll_with(t, || {
                draws += 1;
                Some(NodeId::new(1))
            });
        }
        assert_eq!(draws, 6, "timeout wake-ups consumed peer draws");
    }

    #[test]
    fn poll_sampler_matches_poll_with() {
        struct Fixed(u64, usize);
        impl PeerSampler for Fixed {
            fn draw_peer(&mut self) -> Option<NodeId> {
                self.1 += 1;
                Some(NodeId::new(self.0))
            }
        }
        let mut a = GossipNode::founder(NodeId::new(0), config(10), 1.0, 1);
        let mut b = GossipNode::founder(NodeId::new(0), config(10), 1.0, 1);
        let mut sampler = Fixed(1, 0);
        for t in 0..500 {
            let via_sampler = a.poll_sampler(t, &mut sampler);
            let via_closure = b.poll_with(t, || Some(NodeId::new(1)));
            assert_eq!(via_sampler, via_closure);
        }
        // Lazy draws survive the indirection: one draw per initiation.
        let initiated = 500 / 100; // cycle length 100
        assert!(sampler.1 <= initiated + 1, "drew {} times", sampler.1);
    }

    #[test]
    fn epoch_completes_after_gamma_cycles() {
        let mut a = GossipNode::founder(NodeId::new(0), config(3), 4.0, 1);
        let mut t = 0;
        while a.take_reports().is_empty() {
            t += 1;
            a.poll(t, None);
            assert!(t < 10_000, "epoch never completed");
        }
        assert_eq!(a.epoch(), 1);
    }

    #[test]
    fn report_carries_final_state() {
        let mut a = GossipNode::founder(NodeId::new(0), config(2), 4.0, 1);
        let mut b = GossipNode::founder(NodeId::new(1), config(2), 8.0, 2);
        let mut t = 0;
        for _ in 0..8 {
            drive_exchange(&mut a, &mut b, &mut t);
        }
        let reports = a.take_reports();
        assert!(!reports.is_empty());
        for r in &reports {
            assert_eq!(r.cycles_run, 2);
            let v = r.scalar(0).unwrap();
            assert!((v - 6.0).abs() < 1e-9, "epoch output {v}");
        }
    }

    #[test]
    fn new_epoch_reinitializes_from_local_value() {
        let mut a = GossipNode::founder(NodeId::new(0), config(2), 4.0, 1);
        a.set_local_value(100.0);
        let mut t = 0;
        while a.epoch() == 0 {
            t += 1;
            a.poll(t, None);
        }
        assert_eq!(a.scalar_estimate(0), Some(100.0));
    }

    #[test]
    fn stale_request_gets_epoch_notice() {
        let cfg = config(10);
        let mut ahead = GossipNode::founder(NodeId::new(0), cfg.clone(), 1.0, 1);
        let behind = GossipNode::founder(NodeId::new(1), cfg, 2.0, 2);
        // Push `ahead` into epoch 3 artificially via a notice, one epoch
        // (γ·δ = 1,000 ticks) in, when epoch 3 is within reach.
        ahead.handle(&Message::epoch_notice(NodeId::new(9), 3), 1_000);
        assert_eq!(ahead.epoch(), 3);
        let req = Message::request(behind.id(), 0, vec![InstanceState::Scalar(2.0)]);
        let resp = ahead.handle(&req, 1_005).unwrap();
        assert!(matches!(resp.message.body, MessageBody::EpochNotice));
        assert_eq!(resp.message.epoch, 3);
        // The merged state must be untouched.
        assert_eq!(ahead.scalar_estimate(0), Some(1.0));
    }

    #[test]
    fn receiving_newer_epoch_jumps_and_reinitializes() {
        let mut node = GossipNode::founder(NodeId::new(0), config(10), 5.0, 1);
        // Drift the estimate away from the local value.
        node.handle(
            &Message::request(NodeId::new(1), 0, vec![InstanceState::Scalar(15.0)]),
            0,
        );
        assert_eq!(node.scalar_estimate(0), Some(10.0));
        // Newer epoch arrives two epochs in: jump and re-init from the
        // local value.
        let req = Message::request(NodeId::new(2), 4, vec![InstanceState::Scalar(3.0)]);
        let resp = node.handle(&req, 2_000).unwrap();
        assert_eq!(node.epoch(), 4);
        // The response is a reply for epoch 4 and the merge used the fresh
        // initial value 5.0: (5+3)/2 = 4.
        assert!(matches!(resp.message.body, MessageBody::Reply(_)));
        assert_eq!(node.scalar_estimate(0), Some(4.0));
    }

    #[test]
    fn joiner_refuses_current_epoch() {
        let cfg = config(10);
        let mut joiner = GossipNode::joiner(
            NodeId::new(5),
            cfg,
            1.0,
            3,
            /*epoch*/ 2,
            /*next at*/ 10_000,
        );
        assert!(!joiner.is_active());
        let req = Message::request(NodeId::new(0), 2, vec![InstanceState::Scalar(9.0)]);
        let resp = joiner.handle(&req, 100).unwrap();
        assert!(matches!(resp.message.body, MessageBody::Refuse));
    }

    #[test]
    fn joiner_activates_on_newer_epoch_message() {
        let cfg = config(10);
        let mut joiner = GossipNode::joiner(NodeId::new(5), cfg, 1.0, 3, 2, 10_000);
        let req = Message::request(NodeId::new(0), 3, vec![InstanceState::Scalar(9.0)]);
        let resp = joiner.handle(&req, 100).unwrap();
        assert!(joiner.is_active());
        assert_eq!(joiner.epoch(), 3);
        assert!(matches!(resp.message.body, MessageBody::Reply(_)));
        // Participates: merged (1+9)/2.
        assert_eq!(joiner.scalar_estimate(0), Some(5.0));
    }

    #[test]
    fn joiner_activates_on_schedule() {
        let cfg = config(10);
        let mut joiner = GossipNode::joiner(NodeId::new(5), cfg, 1.0, 3, 2, 500);
        assert!(joiner.poll(499, None).is_none());
        assert!(!joiner.is_active());
        joiner.poll(500, None);
        assert!(joiner.is_active());
        assert_eq!(joiner.epoch(), 3);
    }

    #[test]
    fn timeout_clears_pending_exchange() {
        let mut a = GossipNode::founder(NodeId::new(0), config(10), 1.0, 1);
        let mut t = 0;
        let out = loop {
            t += 1;
            if let Some(out) = a.poll(t, Some(NodeId::new(1))) {
                break out;
            }
        };
        // No reply arrives; after the timeout a new exchange can start.
        let t_next = t + 200;
        let again = a.poll(t_next, Some(NodeId::new(2)));
        assert!(again.is_some(), "pending exchange not expired");
        assert_ne!(out.to, again.unwrap().to);
    }

    #[test]
    fn late_reply_after_timeout_is_dropped() {
        let mut a = GossipNode::founder(NodeId::new(0), config(10), 1.0, 1);
        let mut t = 0;
        loop {
            t += 1;
            if a.poll(t, Some(NodeId::new(1))).is_some() {
                break;
            }
        }
        // Expire the exchange.
        a.poll(t + 100, None);
        let before = a.scalar_estimate(0);
        a.handle(
            &Message::reply(NodeId::new(1), 0, vec![InstanceState::Scalar(99.0)]),
            t + 101,
        );
        assert_eq!(a.scalar_estimate(0), before, "late reply merged");
    }

    #[test]
    fn reply_from_wrong_peer_is_ignored() {
        let mut a = GossipNode::founder(NodeId::new(0), config(10), 1.0, 1);
        let mut t = 0;
        loop {
            t += 1;
            if a.poll(t, Some(NodeId::new(1))).is_some() {
                break;
            }
        }
        let before = a.scalar_estimate(0);
        a.handle(
            &Message::reply(NodeId::new(7), 0, vec![InstanceState::Scalar(99.0)]),
            t,
        );
        assert_eq!(a.scalar_estimate(0), before);
    }

    #[test]
    fn refuse_clears_pending() {
        let mut a = GossipNode::founder(NodeId::new(0), config(10), 1.0, 1);
        let mut t = 0;
        loop {
            t += 1;
            if a.poll(t, Some(NodeId::new(1))).is_some() {
                break;
            }
        }
        a.handle(&Message::refuse(NodeId::new(1), 0), t + 1);
        // Next cycle can initiate immediately (pending cleared).
        let mut initiated = false;
        for dt in 1..300 {
            if a.poll(t + dt, Some(NodeId::new(2))).is_some() {
                initiated = true;
                break;
            }
        }
        assert!(initiated);
    }

    #[test]
    fn count_instance_elects_and_reports() {
        let cfg = NodeConfig::builder()
            .gamma(2)
            .cycle_length(100)
            .timeout(30)
            .instance(InstanceSpec::CountMap {
                leader: LeaderPolicy::Always,
            })
            .build()
            .unwrap();
        let mut a = GossipNode::founder(NodeId::new(0), cfg.clone(), 0.0, 1);
        let mut b = GossipNode::founder(NodeId::new(1), cfg, 0.0, 2);
        let mut t = 0;
        for _ in 0..6 {
            drive_exchange(&mut a, &mut b, &mut t);
        }
        let reports = a.take_reports();
        assert!(!reports.is_empty());
        let est = reports.last().unwrap().count_estimate().unwrap();
        // Two nodes, both leading: each instance converges to 1/2.
        assert!((est - 2.0).abs() < 0.6, "count estimate {est}");
        // The node's own rolling size estimate was updated.
        assert!((a.size_estimate() - est).abs() < 1e-9);
    }

    #[test]
    fn malformed_request_is_refused_not_merged() {
        let mut a = GossipNode::founder(NodeId::new(0), config(10), 1.0, 1);
        let before = a.scalar_estimate(0);
        // Wrong arity.
        let msg = Message::request(
            NodeId::new(1),
            0,
            vec![InstanceState::Scalar(9.0), InstanceState::Scalar(9.0)],
        );
        let resp = a.handle(&msg, 0).unwrap();
        assert!(matches!(resp.message.body, MessageBody::Refuse));
        assert_eq!(a.scalar_estimate(0), before);
        // Wrong shape.
        let msg = Message::request(
            NodeId::new(1),
            0,
            vec![InstanceState::Map(crate::value::InstanceMap::new())],
        );
        let resp = a.handle(&msg, 0).unwrap();
        assert!(matches!(resp.message.body, MessageBody::Refuse));
        assert_eq!(a.scalar_estimate(0), before);
    }

    #[test]
    fn malformed_reply_is_dropped() {
        let mut a = GossipNode::founder(NodeId::new(0), config(10), 1.0, 1);
        let mut t = 0;
        loop {
            t += 1;
            if a.poll(t, Some(NodeId::new(1))).is_some() {
                break;
            }
        }
        let before = a.scalar_estimate(0);
        a.handle(
            &Message::reply(
                NodeId::new(1),
                0,
                vec![InstanceState::Map(crate::value::InstanceMap::new())],
            ),
            t,
        );
        assert_eq!(a.scalar_estimate(0), before);
    }

    #[test]
    fn trace_is_off_by_default_and_records_when_enabled() {
        use epidemic_telemetry::TraceKind;
        let mut a = GossipNode::founder(NodeId::new(0), config(2), 8.0, 1);
        let mut b = GossipNode::founder(NodeId::new(1), config(2), 2.0, 2);
        let mut t = 0;
        drive_exchange(&mut a, &mut b, &mut t);
        assert!(a.take_trace().is_empty(), "tracing must be opt-in");
        a.set_trace_capacity(64);
        b.set_trace_capacity(64);
        for _ in 0..4 {
            drive_exchange(&mut a, &mut b, &mut t);
        }
        let trace_a = a.take_trace();
        let kinds: Vec<TraceKind> = trace_a.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TraceKind::ExchangeInit));
        assert!(kinds.contains(&TraceKind::ExchangeComplete));
        assert!(kinds.contains(&TraceKind::EpochTransition));
        // Initiator-side completions carry the merged detail and the peer.
        let complete = trace_a
            .iter()
            .find(|e| e.kind == TraceKind::ExchangeComplete)
            .unwrap();
        assert_eq!(complete.peer, Some(1));
        assert_eq!(complete.node, 0);
        assert!(b
            .take_trace()
            .iter()
            .any(|e| e.kind == TraceKind::ExchangeComplete && e.detail == 2));
        // Draining empties the ring.
        assert!(a.take_trace().is_empty());
    }

    #[test]
    fn trace_records_timeouts() {
        use epidemic_telemetry::TraceKind;
        let mut a = GossipNode::founder(NodeId::new(0), config(10), 1.0, 1);
        a.set_trace_capacity(16);
        let mut t = 0;
        loop {
            t += 1;
            if a.poll(t, Some(NodeId::new(1))).is_some() {
                break;
            }
        }
        a.poll(t + 200, None); // no reply ever arrives
        let trace = a.take_trace();
        assert!(trace
            .iter()
            .any(|e| e.kind == TraceKind::ExchangeTimeout && e.peer == Some(1)));
    }

    /// `registry`'s count of non-finite states refused.
    fn non_finite_refusals(registry: &Registry) -> u64 {
        registry
            .counter_with("agg.states_refused", &[("reason", "non_finite")])
            .get()
    }

    #[test]
    fn a_non_finite_request_is_refused_and_counted() {
        let registry = Registry::new();
        let mut a = GossipNode::founder(NodeId::new(0), config(10), 1.0, 1);
        a.set_registry(registry.clone());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let msg = Message::request(NodeId::new(1), 0, vec![InstanceState::Scalar(bad)]);
            let resp = a.handle(&msg, 0).unwrap();
            assert!(matches!(resp.message.body, MessageBody::Refuse), "{bad}");
            assert_eq!(a.scalar_estimate(0), Some(1.0), "{bad} merged");
        }
        assert_eq!(non_finite_refusals(&registry), 3);
        // A COUNT map with one non-finite share is refused the same way.
        let count = NodeConfig::builder()
            .gamma(10)
            .cycle_length(100)
            .timeout(30)
            .instance(InstanceSpec::CountMap {
                leader: LeaderPolicy::Always,
            })
            .build()
            .unwrap();
        let mut c = GossipNode::founder(NodeId::new(0), count, 0.0, 1);
        c.set_registry(registry.clone());
        let map = crate::value::InstanceMap::from_entries([(0, 0.5), (7, f64::NAN)]);
        let msg = Message::request(NodeId::new(1), 0, vec![InstanceState::Map(map)]);
        let resp = c.handle(&msg, 0).unwrap();
        assert!(matches!(resp.message.body, MessageBody::Refuse));
        assert_eq!(non_finite_refusals(&registry), 4);
    }

    #[test]
    fn a_count_map_over_the_bound_is_refused_and_one_at_it_merges() {
        let registry = Registry::new();
        let count = NodeConfig::builder()
            .gamma(10)
            .cycle_length(100)
            .timeout(30)
            .instance(InstanceSpec::CountMap {
                leader: LeaderPolicy::Never,
            })
            .build()
            .unwrap();
        let mut c = GossipNode::founder(NodeId::new(0), count, 0.0, 1);
        c.set_registry(registry.clone());
        let too_large = || {
            registry
                .counter_with("agg.states_refused", &[("reason", "map_too_large")])
                .get()
        };
        let request = |leaders: usize| {
            let map = InstanceMap::from_entries((0..leaders as u64).map(|l| (l + 1, 0.5)));
            Message::request(NodeId::new(1), 0, vec![InstanceState::Map(map)])
        };
        let over = c.handle(&request(MAX_MAP_LEADERS + 1), 0).unwrap();
        assert!(matches!(over.message.body, MessageBody::Refuse));
        assert_eq!(too_large(), 1);
        let at = c.handle(&request(MAX_MAP_LEADERS), 0).unwrap();
        assert!(matches!(at.message.body, MessageBody::Reply(_)));
        assert_eq!(too_large(), 1);
        let InstanceState::Map(held) = &c.states[0] else {
            panic!("a COUNT node holds a map");
        };
        assert_eq!(held.len(), MAX_MAP_LEADERS);
        // One leader it does not hold yet would take the union over.
        let fresh = InstanceMap::from_entries([(u64::MAX, 0.5)]);
        let msg = Message::request(NodeId::new(2), 0, vec![InstanceState::Map(fresh)]);
        let union = c.handle(&msg, 0).unwrap();
        assert!(matches!(union.message.body, MessageBody::Refuse));
        assert_eq!(too_large(), 2);
    }

    #[test]
    fn a_non_finite_reply_is_dropped_and_counted() {
        let registry = Registry::new();
        let mut a = GossipNode::founder(NodeId::new(0), config(10), 1.0, 1);
        a.set_registry(registry.clone());
        let mut t = 0;
        while a.poll(t, Some(NodeId::new(1))).is_none() {
            t += 1;
        }
        let reply = Message::reply(NodeId::new(1), 0, vec![InstanceState::Scalar(f64::NAN)]);
        assert!(a.handle(&reply, t).is_none());
        assert_eq!(a.scalar_estimate(0), Some(1.0));
        assert_eq!(non_finite_refusals(&registry), 1);
    }

    #[test]
    fn a_non_finite_local_value_is_ignored() {
        let mut a = GossipNode::founder(NodeId::new(0), config(10), 4.0, 1);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            a.set_local_value(bad);
        }
        assert_eq!(a.local_value(), 4.0);
    }

    #[test]
    fn an_epoch_notice_at_the_end_of_the_number_line_is_refused() {
        let registry = Registry::new();
        let mut a = GossipNode::founder(NodeId::new(0), config(2), 4.0, 1);
        a.set_registry(registry.clone());
        a.handle(&Message::epoch_notice(NodeId::new(9), u64::MAX), 50);
        assert_eq!(a.epoch(), 0);
        assert_eq!(registry.counter_value("agg.epoch_jumps_refused"), 1);
        // The node keeps running its own epochs.
        let mut t = 50;
        while a.epoch() < 3 {
            t += 1;
            a.poll(t, None);
        }
        assert_eq!(a.take_reports().len(), 3);
    }

    #[test]
    fn a_node_cut_off_for_ten_thousand_epochs_catches_up_in_one_step() {
        let registry = Registry::new();
        let mut a = GossipNode::founder(NodeId::new(0), config(10), 4.0, 1);
        a.set_registry(registry.clone());
        // Never polled while the cluster ran 10⁴ epochs of γ·δ = 1,000
        // ticks; the first message it hears is from the running epoch.
        let now = 10_000 * 1_000 + 500;
        let req = Message::request(NodeId::new(1), 10_000, vec![InstanceState::Scalar(8.0)]);
        let resp = a.handle(&req, now).unwrap();
        assert!(matches!(resp.message.body, MessageBody::Reply(_)));
        assert_eq!(a.epoch(), 10_000);
        assert_eq!(a.scalar_estimate(0), Some(6.0));
        assert_eq!(registry.counter_value("agg.epoch_jumps_refused"), 0);
        // Right after the jump, an epoch three ahead is out of reach again.
        a.handle(&Message::epoch_notice(NodeId::new(1), 10_003), now);
        assert_eq!(a.epoch(), 10_000);
        assert_eq!(registry.counter_value("agg.epoch_jumps_refused"), 1);
    }

    #[test]
    fn always_leads_helper() {
        assert!(always_leads(LeaderPolicy::Always));
        assert!(!always_leads(LeaderPolicy::Never));
        assert!(!always_leads(LeaderPolicy::Probability {
            concurrency: 4.0
        }));
    }
}
