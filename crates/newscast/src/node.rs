//! Sans-io NEWSCAST membership node.
//!
//! [`Overlay`](crate::Overlay) simulates a whole network at once; this
//! module provides the single-node view of the same protocol, in the same
//! sans-io style as `epidemic_aggregation::GossipNode`: the embedding
//! supplies the clock and the transport, [`MembershipNode`] supplies the
//! protocol logic. This is the component a deployment pairs with the
//! aggregation node so that `GETNEIGHBOR()` can be answered from live
//! gossip instead of a static peer table.
//!
//! # Examples
//!
//! ```
//! use epidemic_newscast::node::{MembershipConfig, MembershipNode};
//!
//! let config = MembershipConfig::new(20, 1_000);
//! let mut a = MembershipNode::new(0, config, 1);
//! let mut b = MembershipNode::new(1, config, 2);
//! // Bootstrap: a knows b out of band.
//! a.add_seed(1, 0);
//!
//! // a's timer fires; it gossips with a random view member (b).
//! let (to, request, full) = a.poll_exchange(1_000).expect("cycle fired");
//! assert_eq!(to, 1);
//! let (reply, reply_full) = b.handle_exchange_delta(&request, full, 1_050);
//! a.absorb_reply_delta(&reply, reply_full, 1_100);
//! assert!(a.view().contains(1));
//! assert!(b.view().contains(0));
//! ```

use crate::view::{Descriptor, View};
use epidemic_common::rng::Xoshiro256;
use epidemic_telemetry::{TraceEvent, TraceKind, TraceRing};

/// Static parameters of a membership node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipConfig {
    /// View size `c`.
    pub view_size: usize,
    /// Gossip period δ in ticks.
    pub cycle_length: u64,
    /// When set, [`MembershipNode::poll_exchange`] ships only the
    /// descriptors the partner has not seen yet (tracked per recent
    /// partner), falling back to the full view periodically as
    /// anti-entropy. When clear, every exchange ships the full view.
    pub delta_views: bool,
    /// How many recent exchange partners this node tracks delta
    /// knowledge for; partners beyond this fall off the LRU and get a
    /// full view next time. Deltas pay off only while partners repeat
    /// inside the horizon, so sizing it near the expected partner
    /// universe (≈ the overlay size) trades ~350 B of memory per tracked
    /// partner for full-view-sized savings per exchange.
    pub knowledge_peers: usize,
}

impl MembershipConfig {
    /// Full-view exchange configuration (deltas off).
    pub const fn new(view_size: usize, cycle_length: u64) -> Self {
        MembershipConfig {
            view_size,
            cycle_length,
            delta_views: false,
            knowledge_peers: KNOWLEDGE_PEERS,
        }
    }
}

/// Default delta-knowledge LRU capacity (see
/// [`MembershipConfig::knowledge_peers`]).
const KNOWLEDGE_PEERS: usize = 32;

/// Anti-entropy cadence: after this many consecutive delta payloads to the
/// same partner, the next payload ships the full view, so knowledge drift
/// (the partner evicting entries we still believe it holds) cannot
/// accumulate without bound.
const FULL_EVERY: u32 = 4;

/// What one recent exchange partner is believed to hold.
#[derive(Debug, Clone)]
struct PeerKnowledge {
    peer: u32,
    /// Freshest copy per node of every descriptor we sent the partner or
    /// received from it, bounded to `2c + 2` entries and kept sorted by
    /// node so a lookup is a binary search.
    seen: Vec<Descriptor>,
    /// Delta payloads shipped since the last full view went out.
    deltas_since_full: u32,
}

/// One node's NEWSCAST state machine.
///
/// Drive it with [`MembershipNode::poll_exchange`] (timer), deliver peer
/// payloads through [`MembershipNode::handle_exchange_delta`] (passive
/// side) and [`MembershipNode::absorb_reply_delta`] (active side).
#[derive(Debug, Clone)]
pub struct MembershipNode {
    id: u32,
    config: MembershipConfig,
    view: View,
    next_cycle_at: u64,
    rng: Xoshiro256,
    /// Per-partner delta state, most recently used first.
    knowledge: Vec<PeerKnowledge>,
    /// Rotating start offset for [`MembershipNode::piggyback_descriptors`].
    pb_cursor: usize,
    /// Descriptors the piggyback budget still allows this gossip period.
    pb_tokens: usize,
    /// When the piggyback budget next refills.
    pb_refill_at: u64,
    /// Membership event trace (disabled unless the embedding opts in
    /// via [`MembershipNode::set_trace_capacity`]).
    trace: TraceRing,
}

/// The payload of a view exchange: the sender's view entries plus a fresh
/// descriptor of the sender itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewPayload {
    /// Sender identifier.
    pub from: u32,
    /// Descriptors carried (sender's view + fresh self-descriptor).
    pub descriptors: Vec<Descriptor>,
}

impl MembershipNode {
    /// Creates a node with an empty view.
    ///
    /// # Panics
    ///
    /// Panics if `view_size == 0` or `cycle_length == 0`.
    pub fn new(id: u32, config: MembershipConfig, seed: u64) -> Self {
        assert!(config.cycle_length > 0, "cycle length must be positive");
        let mut rng = Xoshiro256::stream(seed, u64::from(id));
        let phase = rng.next_below(config.cycle_length);
        MembershipNode {
            id,
            view: View::new(config.view_size),
            config,
            next_cycle_at: phase,
            rng,
            knowledge: Vec::new(),
            pb_cursor: 0,
            pb_tokens: 0,
            pb_refill_at: 0,
            trace: TraceRing::disabled(),
        }
    }

    /// Enables membership event tracing with a ring of `capacity`
    /// events (0 disables).
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace.set_capacity(capacity);
    }

    /// Drains the traced membership events recorded since the last call.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.drain()
    }

    /// Records one membership event. Epoch/cycle have no meaning on the
    /// membership plane, so they stay zero.
    fn record(&mut self, kind: TraceKind, peer: u32, detail: u64) {
        if !self.trace.is_enabled() {
            return;
        }
        self.trace.record(TraceEvent {
            node: u64::from(self.id),
            kind,
            epoch: 0,
            cycle: 0,
            peer: Some(u64::from(peer)),
            detail,
        });
    }

    /// Node identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Current view (freshest first).
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Registers a bootstrap contact (the out-of-band discovery of
    /// Section 4.2).
    pub fn add_seed(&mut self, peer: u32, now: u64) {
        if peer != self.id {
            self.view.insert(Descriptor::new(peer, timestamp(now)));
        }
    }

    /// Bootstraps the view from a snapshot of descriptors — typically an
    /// introducer's current view handed over out of band when this node
    /// joins a running system. Self-descriptors are filtered and the `c`
    /// freshest entries kept, exactly like a regular merge.
    pub fn bootstrap(&mut self, descriptors: &[Descriptor]) {
        self.view.merge_with(descriptors, self.id);
    }

    /// Returns a uniformly random view member — `GETNEIGHBOR()` for the
    /// aggregation protocol running on top.
    pub fn sample_peer(&mut self) -> Option<u32> {
        let entries = self.view.entries();
        if entries.is_empty() {
            return None;
        }
        let idx = self.rng.index(entries.len());
        Some(entries[idx].node)
    }

    /// Advances the timer. When the gossip period elapses, picks a random
    /// view member and returns `(peer, payload, full)` for the embedding
    /// to transmit; `None` while the timer has not fired or the view is
    /// empty. With [`MembershipConfig::delta_views`] the payload carries
    /// only what the partner is believed to lack (unless anti-entropy or
    /// an unknown partner forces a full view). `full` is `true` when the
    /// payload is a full view — the passive side replaces rather than
    /// merges its record of what this node holds.
    pub fn poll_exchange(&mut self, now: u64) -> Option<(u32, ViewPayload, bool)> {
        if now < self.next_cycle_at {
            return None;
        }
        while self.next_cycle_at <= now {
            self.next_cycle_at += self.config.cycle_length;
        }
        let peer = self.sample_peer()?;
        let (payload, full) = self.outbound_for(peer, now);
        Some((peer, payload, full))
    }

    /// Passive side of an exchange: record what the initiator just proved
    /// it holds, build our (possibly delta) reply from the pre-merge view,
    /// then merge the incoming descriptors. Incoming timestamps are
    /// clamped to `now` plus one gossip period of slack, so a drifted
    /// clock cannot crowd out honestly-stamped descriptors.
    pub fn handle_exchange_delta(
        &mut self,
        incoming: &ViewPayload,
        full: bool,
        now: u64,
    ) -> (ViewPayload, bool) {
        self.note_received(incoming, full);
        let reply = self.outbound_for(incoming.from, now);
        self.view
            .merge_clamped(&incoming.descriptors, self.id, self.clamp_bound(now));
        self.record(
            TraceKind::ViewMerge,
            incoming.from,
            incoming.descriptors.len() as u64,
        );
        reply
    }

    /// Active side of an exchange: record and merge the responder's
    /// (possibly delta) reply, timestamps clamped as in
    /// [`MembershipNode::handle_exchange_delta`].
    pub fn absorb_reply_delta(&mut self, reply: &ViewPayload, full: bool, now: u64) {
        self.note_received(reply, full);
        self.view
            .merge_clamped(&reply.descriptors, self.id, self.clamp_bound(now));
        self.record(
            TraceKind::ViewMerge,
            reply.from,
            reply.descriptors.len() as u64,
        );
    }

    /// Picks up to `max` descriptors worth piggybacking on a datagram
    /// already headed to `peer`: the self-descriptor on first contact,
    /// plus rotating view entries the partner is not known to hold *at
    /// all*. Timestamp refreshes never ride along — circulating
    /// freshness is the dedicated plane's anti-entropy job, and
    /// re-sending known nodes is what keeps trailers from ever going
    /// quiet. Returns an empty vec when the partner already knows every
    /// node in the view — the caller then skips the trailer entirely.
    /// Picked descriptors are recorded as known to the partner, so
    /// subsequent deltas shrink.
    ///
    /// Trailer volume is additionally capped by a token budget of two
    /// trailers' worth of descriptors per gossip period: the view churns
    /// continuously, so without a rate cap a busy aggregation plane
    /// would find something "new" for nearly every datagram and the
    /// trailers would quietly grow into a second full-rate membership
    /// plane.
    pub fn piggyback_descriptors(&mut self, peer: u32, now: u64, max: usize) -> Vec<Descriptor> {
        // Piggybacking is part of the delta machinery: with
        // `delta_views` off this node reproduces the plain
        // full-view-per-exchange wire behavior, trailers included.
        if max == 0 || !self.config.delta_views {
            return Vec::new();
        }
        if now >= self.pb_refill_at {
            self.pb_tokens = max * 2;
            self.pb_refill_at = now.saturating_add(self.config.cycle_length);
        }
        if self.pb_tokens == 0 {
            return Vec::new();
        }
        let max = max.min(self.pb_tokens);
        let bound = knowledge_bound(&self.config);
        let cursor = self.pb_cursor;
        self.pb_cursor = cursor.wrapping_add(1);
        let k = knowledge_mut(&mut self.knowledge, self.config.knowledge_peers, peer);
        let entries = self.view.entries();
        let mut picked: Vec<Descriptor> = Vec::new();
        if held(&k.seen, self.id).is_none() {
            picked.push(Descriptor::new(self.id, timestamp(now)));
        }
        for step in 0..entries.len() {
            if picked.len() >= max {
                break;
            }
            let d = entries[(cursor + step) % entries.len()];
            // Telling a peer about itself is useless: merges drop it.
            if d.node != peer && held(&k.seen, d.node).is_none() {
                picked.push(d);
            }
        }
        if !picked.is_empty() {
            note_seen(&mut k.seen, &picked, bound);
        }
        self.pb_tokens = self.pb_tokens.saturating_sub(picked.len());
        picked
    }

    /// Absorbs descriptors piggybacked by `from` on a non-membership
    /// datagram: records them as held by the sender and merges them into
    /// the view, clamped like any exchange.
    pub fn absorb_descriptors(&mut self, from: u32, descriptors: &[Descriptor], now: u64) {
        let bound = knowledge_bound(&self.config);
        let k = knowledge_mut(&mut self.knowledge, self.config.knowledge_peers, from);
        note_seen(&mut k.seen, descriptors, bound);
        self.view
            .merge_clamped(descriptors, self.id, self.clamp_bound(now));
        self.record(TraceKind::ViewMerge, from, descriptors.len() as u64);
    }

    /// Local tick of the next gossip cycle.
    pub fn next_cycle_at(&self) -> u64 {
        self.next_cycle_at
    }

    /// The payload this node would ship in an exchange right now: its view
    /// plus a fresh self-descriptor. Embeddings use it to answer join
    /// requests with an introduction snapshot (the out-of-band bootstrap
    /// of Section 4.2) without running a full exchange.
    pub fn view_payload(&self, now: u64) -> ViewPayload {
        self.payload(now)
    }

    fn payload(&self, now: u64) -> ViewPayload {
        let mut descriptors = Vec::with_capacity(self.view.len() + 1);
        descriptors.extend_from_slice(self.view.entries());
        descriptors.push(Descriptor::new(self.id, timestamp(now)));
        ViewPayload {
            from: self.id,
            descriptors,
        }
    }

    /// Upper clamp for incoming timestamps: local time plus one gossip
    /// period of slack (tolerates honest skew, bounds runaway clocks).
    fn clamp_bound(&self, now: u64) -> u32 {
        timestamp(now).saturating_add(self.period())
    }

    /// One gossip period in timestamp ticks — the protocol's staleness
    /// resolution, and the clamp slack for incoming timestamps.
    fn period(&self) -> u32 {
        self.config.cycle_length.min(u64::from(u32::MAX)) as u32
    }

    /// Delta staleness threshold: the anti-entropy period. Every
    /// `FULL_EVERY`-th exchange ships the full view anyway, so timestamp
    /// refreshes finer than that are repaired by the next scheduled full
    /// view at zero delta cost; a delta entry earns its bytes only when
    /// the partner lacks the node outright or holds a copy staler than
    /// anti-entropy would leave behind.
    fn stale_after(&self) -> u32 {
        self.period().saturating_mul(FULL_EVERY)
    }

    /// Builds the outbound payload for `peer`: the full view when deltas
    /// are disabled, the partner is unknown, or anti-entropy is due;
    /// otherwise only descriptors the partner lacks outright or holds an
    /// anti-entropy period staler (finer refreshes are repaired by the
    /// next scheduled full view anyway, so re-sending them is
    /// pure overhead). A delta that approaches the full view saves
    /// nothing, so it ships the full view (and resets the anti-entropy
    /// clock) instead. What was sent is recorded as known to the partner.
    fn outbound_for(&mut self, peer: u32, now: u64) -> (ViewPayload, bool) {
        let ViewPayload {
            from,
            mut descriptors,
        } = self.payload(now);
        let stale_after = self.stale_after();
        let k = knowledge_mut(&mut self.knowledge, self.config.knowledge_peers, peer);
        let mut is_full =
            !self.config.delta_views || k.seen.is_empty() || k.deltas_since_full >= FULL_EVERY;
        if !is_full {
            let full_len = descriptors.len();
            descriptors.retain(|d| match held(&k.seen, d.node) {
                Some(ts) => d.timestamp.saturating_sub(ts) >= stale_after,
                None => true,
            });
            // A delta covering the whole payload *is* the full view: mark
            // it as one so the partner replaces (not extends) its record
            // and the anti-entropy clock resets.
            is_full = descriptors.len() == full_len;
        }
        if is_full {
            k.deltas_since_full = 0;
        } else {
            k.deltas_since_full += 1;
        }
        note_seen(&mut k.seen, &descriptors, knowledge_bound(&self.config));
        (ViewPayload { from, descriptors }, is_full)
    }

    /// Records an incoming payload into the sender's knowledge entry. A
    /// full payload is exactly the sender's view plus its self-descriptor,
    /// so it replaces the record; a delta extends it.
    fn note_received(&mut self, payload: &ViewPayload, full: bool) {
        let bound = knowledge_bound(&self.config);
        let k = knowledge_mut(
            &mut self.knowledge,
            self.config.knowledge_peers,
            payload.from,
        );
        if full {
            k.seen.clear();
        }
        note_seen(&mut k.seen, &payload.descriptors, bound);
    }
}

/// The LRU knowledge entry for `peer` (most recently used first), created
/// — and the LRU trimmed to `capacity` — if absent, promoted to the front
/// either way. A free function over the field so callers can keep reading
/// the view while they hold the entry.
fn knowledge_mut(
    knowledge: &mut Vec<PeerKnowledge>,
    capacity: usize,
    peer: u32,
) -> &mut PeerKnowledge {
    if let Some(pos) = knowledge.iter().position(|k| k.peer == peer) {
        let entry = knowledge.remove(pos);
        knowledge.insert(0, entry);
    } else {
        knowledge.insert(
            0,
            PeerKnowledge {
                peer,
                seen: Vec::new(),
                deltas_since_full: 0,
            },
        );
        knowledge.truncate(capacity.max(1));
    }
    &mut knowledge[0]
}

/// Bound on one partner's `seen` record: its view plus ours can cover
/// `2c` distinct nodes, plus the two self-descriptors. Trimming beyond
/// that only makes future deltas conservative (larger), never wrong.
fn knowledge_bound(config: &MembershipConfig) -> usize {
    2 * config.view_size + 2
}

/// Timestamp of the copy of `node` in a knowledge record, if it holds one.
fn held(seen: &[Descriptor], node: u32) -> Option<u32> {
    let at = seen.binary_search_by_key(&node, |e| e.node).ok()?;
    Some(seen[at].timestamp)
}

/// Upserts `descriptors` into a knowledge record keeping the freshest copy
/// per node, trimming the stalest entries beyond `bound`.
fn note_seen(seen: &mut Vec<Descriptor>, descriptors: &[Descriptor], bound: usize) {
    if seen.is_empty() {
        // First contact fills the record in one allocation; after that it
        // grows only by what the partner has genuinely not seen.
        seen.reserve(descriptors.len());
    }
    for d in descriptors {
        match seen.binary_search_by_key(&d.node, |e| e.node) {
            Ok(at) => seen[at].timestamp = seen[at].timestamp.max(d.timestamp),
            Err(at) => seen.insert(at, *d),
        }
    }
    if seen.len() > bound {
        seen.sort_unstable_by_key(Descriptor::freshness_key);
        seen.truncate(bound);
        seen.sort_unstable_by_key(|d| d.node);
    }
}

/// Timestamps descriptor freshness in coarse ticks. NEWSCAST only needs a
/// total order with enough resolution to distinguish cycles, so 32 bits of
/// tick time are ample (wrap after ~4 × 10⁹ ticks).
fn timestamp(now: u64) -> u32 {
    now as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MembershipConfig {
        MembershipConfig::new(8, 100)
    }

    fn delta_config() -> MembershipConfig {
        MembershipConfig {
            delta_views: true,
            ..config()
        }
    }

    fn two_bootstrapped() -> (MembershipNode, MembershipNode) {
        let mut a = MembershipNode::new(0, config(), 1);
        let b = MembershipNode::new(1, config(), 2);
        a.add_seed(1, 0);
        (a, b)
    }

    #[test]
    fn empty_view_never_initiates() {
        let mut lonely = MembershipNode::new(9, config(), 3);
        for t in 0..1_000 {
            assert!(lonely.poll_exchange(t).is_none());
        }
    }

    #[test]
    fn seeds_are_not_self() {
        let mut node = MembershipNode::new(4, config(), 1);
        node.add_seed(4, 0);
        assert!(node.view().is_empty());
        node.add_seed(5, 0);
        assert_eq!(node.view().len(), 1);
    }

    #[test]
    fn exchange_makes_both_sides_know_each_other() {
        let (mut a, mut b) = two_bootstrapped();
        let (to, request, full) = a.poll_exchange(150).expect("timer fired");
        assert_eq!(to, 1);
        let (reply, reply_full) = b.handle_exchange_delta(&request, full, 155);
        a.absorb_reply_delta(&reply, reply_full, 160);
        assert!(a.view().contains(1));
        assert!(b.view().contains(0));
        // Fresh timestamps were injected.
        let d = b.view().entries().iter().find(|d| d.node == 0).unwrap();
        assert_eq!(d.timestamp, 150);
    }

    #[test]
    fn poll_respects_cycle_cadence() {
        let (mut a, _) = two_bootstrapped();
        let first = a.poll_exchange(250).expect("fired");
        drop(first);
        // Immediately afterwards the timer is re-armed.
        assert!(a.poll_exchange(260).is_none());
        assert!(a.poll_exchange(400).is_some());
    }

    #[test]
    fn views_stay_bounded_and_self_free() {
        // Gossip a small clique for a while; views never exceed c and
        // never contain the owner.
        let n = 12u32;
        let mut nodes: Vec<MembershipNode> = (0..n)
            .map(|i| MembershipNode::new(i, config(), 7))
            .collect();
        for i in 0..n {
            let seed = (i + 1) % n;
            nodes[i as usize].add_seed(seed, 0);
        }
        for t in (0..5_000u64).step_by(10) {
            for i in 0..n as usize {
                if let Some((peer, request, full)) = nodes[i].poll_exchange(t) {
                    let (reply, rf) = nodes[peer as usize].handle_exchange_delta(&request, full, t);
                    nodes[i].absorb_reply_delta(&reply, rf, t);
                }
            }
        }
        for node in &nodes {
            assert!(node.view().len() <= 8);
            assert!(!node.view().contains(node.id()));
            // The ring bootstrap mixed into a richer overlay.
            assert!(node.view().len() >= 4, "view stayed tiny");
        }
    }

    #[test]
    fn bootstrap_copies_snapshot_without_self() {
        let mut joiner = MembershipNode::new(9, config(), 4);
        let snapshot = [
            Descriptor::new(1, 10),
            Descriptor::new(9, 99), // the joiner itself: must be dropped
            Descriptor::new(2, 5),
        ];
        joiner.bootstrap(&snapshot);
        assert!(joiner.view().contains(1));
        assert!(joiner.view().contains(2));
        assert!(!joiner.view().contains(9));
    }

    #[test]
    fn sample_peer_returns_view_members() {
        let (mut a, _) = two_bootstrapped();
        for _ in 0..10 {
            assert_eq!(a.sample_peer(), Some(1));
        }
    }

    #[test]
    fn first_delta_exchange_ships_the_full_view() {
        let mut a = MembershipNode::new(0, delta_config(), 1);
        a.add_seed(1, 0);
        let (to, payload, full) = a.poll_exchange(150).expect("timer fired");
        assert_eq!(to, 1);
        assert!(full, "unknown partner must get a full view");
        assert_eq!(payload.descriptors.len(), 2); // seed + self
    }

    #[test]
    fn repeat_exchanges_shrink_to_deltas() {
        let mut a = MembershipNode::new(0, delta_config(), 1);
        let mut b = MembershipNode::new(1, delta_config(), 2);
        for p in 2..8 {
            a.add_seed(p, 0);
            b.add_seed(p, 0);
        }
        a.add_seed(1, 0);
        // First round: a knows nothing about b, so the request is full.
        // The reply may already be a delta — b just learned exactly what a
        // holds from the request itself.
        let (req, full) = a.outbound_for(1, 100);
        assert!(full, "unknown partner must get a full view");
        let (reply, reply_full) = b.handle_exchange_delta(&req, full, 105);
        a.absorb_reply_delta(&reply, reply_full, 110);
        // Second round, nothing changed but the self-descriptors: the
        // request collapses to a delta far below the full view.
        let full_len = a.view().len() + 1;
        let (req2, full2) = a.outbound_for(1, 200);
        assert_eq!(req2.from, 0);
        assert!(!full2, "known partner should get a delta");
        assert!(
            2 * req2.descriptors.len() < full_len,
            "delta {} not below half of full {}",
            req2.descriptors.len(),
            full_len
        );
        let (reply2, reply2_full) = b.handle_exchange_delta(&req2, full2, 205);
        assert!(!reply2_full);
        a.absorb_reply_delta(&reply2, reply2_full, 210);
        assert!(a.view().contains(1));
        assert!(b.view().contains(0));
    }

    #[test]
    fn anti_entropy_periodically_ships_full_views() {
        let mut a = MembershipNode::new(0, delta_config(), 1);
        let mut b = MembershipNode::new(1, delta_config(), 2);
        a.add_seed(1, 0);
        let mut fulls = 0;
        let mut deltas = 0;
        for round in 0..12u64 {
            let now = 100 + round * 100;
            if let Some((_, req, full)) = a.poll_exchange(now) {
                if full {
                    fulls += 1;
                } else {
                    deltas += 1;
                }
                let (reply, rf) = b.handle_exchange_delta(&req, full, now + 5);
                a.absorb_reply_delta(&reply, rf, now + 10);
            }
        }
        assert!(fulls >= 2, "anti-entropy full views never recurred");
        assert!(deltas > 0, "no exchange ever shrank to a delta");
    }

    #[test]
    fn delta_exchange_converges_like_full_views() {
        // Two cliques gossiping for a while, one with deltas and one
        // without: views end up equally full and bounded.
        let run = |cfg: MembershipConfig| {
            let n = 12u32;
            let mut nodes: Vec<MembershipNode> =
                (0..n).map(|i| MembershipNode::new(i, cfg, 7)).collect();
            for i in 0..n {
                let seed = (i + 1) % n;
                nodes[i as usize].add_seed(seed, 0);
            }
            for t in (0..5_000u64).step_by(10) {
                for i in 0..n as usize {
                    if let Some((peer, req, full)) = nodes[i].poll_exchange(t) {
                        let (reply, rf) = nodes[peer as usize].handle_exchange_delta(&req, full, t);
                        nodes[i].absorb_reply_delta(&reply, rf, t);
                    }
                }
            }
            nodes
        };
        for (full_node, delta_node) in run(config()).iter().zip(run(delta_config()).iter()) {
            assert!(delta_node.view().len() <= 8);
            assert!(!delta_node.view().contains(delta_node.id()));
            assert!(
                delta_node.view().len() + 2 >= full_node.view().len(),
                "delta views collapsed: {} vs full {}",
                delta_node.view().len(),
                full_node.view().len()
            );
        }
    }

    #[test]
    fn incoming_future_timestamps_are_clamped() {
        let mut a = MembershipNode::new(0, config(), 1);
        a.add_seed(1, 100);
        let drifted = ViewPayload {
            from: 2,
            descriptors: vec![Descriptor::new(2, 4_000_000), Descriptor::new(3, 9_999_999)],
        };
        a.handle_exchange_delta(&drifted, true, 200);
        // Clamp bound is now + one cycle = 300.
        for d in a.view().entries() {
            assert!(d.timestamp <= 300, "unclamped descriptor {d}");
        }
        let mut b = MembershipNode::new(5, delta_config(), 1);
        b.absorb_reply_delta(&drifted, true, 200);
        for d in b.view().entries() {
            assert!(d.timestamp <= 300, "unclamped descriptor {d} (delta path)");
        }
    }

    #[test]
    fn piggyback_picks_unknown_descriptors_then_goes_quiet() {
        let mut a = MembershipNode::new(0, delta_config(), 1);
        for p in 1..5 {
            a.add_seed(p, 50);
        }
        let first = a.piggyback_descriptors(9, 100, 3);
        assert!(!first.is_empty() && first.len() <= 3);
        assert!(first.iter().any(|d| d.node == 0), "fresh self not included");
        // Everything picked is now recorded as known: repeating within the
        // same cycle finds nothing new to say.
        let mut total = 0;
        for _ in 0..4 {
            total += a.piggyback_descriptors(9, 101, 3).len();
        }
        assert!(total <= 4, "piggyback kept repeating known descriptors");
        // A fresh view entry becomes piggyback-worthy again.
        a.add_seed(7, 120);
        let later: Vec<Descriptor> = (0..6)
            .flat_map(|_| a.piggyback_descriptors(9, 121, 3))
            .collect();
        assert!(
            later.iter().any(|d| d.node == 7),
            "new entry never rode along"
        );
    }

    #[test]
    fn absorbed_piggyback_updates_view_and_knowledge() {
        let mut a = MembershipNode::new(0, delta_config(), 1);
        a.absorb_descriptors(3, &[Descriptor::new(3, 90), Descriptor::new(4, 80)], 100);
        assert!(a.view().contains(3));
        assert!(a.view().contains(4));
        // The sender proved it holds those descriptors: an exchange right
        // after can already use delta form.
        a.add_seed(3, 100);
        let (payload, full) = a.outbound_for(3, 150);
        assert!(!full, "knowledge from piggyback was not used");
        assert!(payload.descriptors.len() < a.view().len() + 1);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let make = || {
            let mut node = MembershipNode::new(0, config(), 42);
            for p in 1..6 {
                node.add_seed(p, 0);
            }
            (0..5)
                .map(|_| node.sample_peer().unwrap())
                .collect::<Vec<u32>>()
        };
        assert_eq!(make(), make());
    }
}
