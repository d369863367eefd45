//! The NEWSCAST node against its reference model.
//!
//! The view merge and the per-partner delta rule of [`GossipDirectory`]
//! are written for speed: in-place bounded insertion, and a delta taken
//! as a prefix of the freshest-first view. The same rules written the
//! naive way live on here as reference models ([`reference_merge`],
//! [`RefNode`]), and the real directory, driven only through
//! `GETNEIGHBOR()` ([`PeerSampler::draw_peer`]), [`PeerDirectory::poll`]
//! and [`PeerDirectory::handle`], must match them payload for payload and
//! view for view.

use epidemic_aggregation::PeerSampler;
use epidemic_common::NodeId;
use epidemic_net::directory::{
    Destination, DirectoryMessage, DirectoryPayload, GossipDirectory, GossipDirectoryConfig,
    PeerDirectory, ViewPayload,
};
use epidemic_newscast::Descriptor;
use std::cmp::Reverse;

/// The batch merge as first shipped: pool both sides (incoming timestamps
/// clamped, `self_node` dropped), group per node keeping the freshest
/// copy, order the survivors freshest-first, keep `c`.
fn reference_merge(
    own: &[Descriptor],
    received: &[Descriptor],
    self_node: u32,
    max_timestamp: u32,
    c: usize,
) -> Vec<Descriptor> {
    let mut pool: Vec<Descriptor> = own.to_vec();
    pool.extend(
        received
            .iter()
            .map(|d| Descriptor::new(d.node, d.timestamp.min(max_timestamp))),
    );
    pool.retain(|d| d.node != self_node);
    pool.sort_unstable_by_key(|d| (d.node, Reverse(d.timestamp)));
    pool.dedup_by_key(|d| d.node);
    pool.sort_unstable_by_key(|d| (Reverse(d.timestamp), d.node));
    pool.truncate(c);
    pool
}

/// Anti-entropy cadence of the delta protocol (`directory::FULL_EVERY`).
const FULL_EVERY: u32 = 4;

/// What a [`RefNode`] believes one partner holds.
struct RefKnowledge {
    peer: u32,
    /// `now + period` at the last payload sent to the partner.
    known_until: Option<u32>,
    deltas_since_full: u32,
    /// Every descriptor ever sent to the partner: not part of the rule,
    /// only there to recognise the corner where a delta drops an entry
    /// the partner was never sent.
    sent: Vec<Descriptor>,
}

/// The per-partner watermark rule written the naive way — the payload
/// assembled as the full view, then filtered entry by entry against the
/// watermark and, in an answer, against the request — over
/// [`reference_merge`]. Also notes whether a history exercised the
/// corners of the rule.
struct RefNode {
    id: u32,
    config: GossipDirectoryConfig,
    view: Vec<Descriptor>,
    /// Most recently used first.
    knowledge: Vec<RefKnowledge>,
    /// Full payloads sent because `FULL_EVERY` deltas had gone out.
    anti_entropy_fulls: usize,
    /// Entries a delta dropped because they were stamped at or before the
    /// partner's `known_until`, although the partner was never sent them
    /// (they reached this view after the watermark, with an older stamp):
    /// what the next full view repairs.
    blind_drops: usize,
    /// Entries an answer left out only because the partner's request
    /// carried the node at most an anti-entropy period staler.
    carried_drops: usize,
}

impl RefNode {
    fn new(id: u32, config: GossipDirectoryConfig) -> Self {
        RefNode {
            id,
            config,
            view: Vec::new(),
            knowledge: Vec::new(),
            anti_entropy_fulls: 0,
            blind_drops: 0,
            carried_drops: 0,
        }
    }

    fn period(&self) -> u32 {
        self.config.cycle_length as u32
    }

    fn merge(&mut self, received: &[Descriptor], max_timestamp: u32) {
        let c = self.config.view_size;
        self.view = reference_merge(&self.view, received, self.id, max_timestamp, c);
    }

    fn add_seed(&mut self, peer: u32, now: u64) {
        self.merge(&[Descriptor::new(peer, now as u32)], u32::MAX);
    }

    fn knowledge_mut(&mut self, peer: u32) -> &mut RefKnowledge {
        if let Some(pos) = self.knowledge.iter().position(|k| k.peer == peer) {
            let entry = self.knowledge.remove(pos);
            self.knowledge.insert(0, entry);
        } else {
            self.knowledge.insert(
                0,
                RefKnowledge {
                    peer,
                    known_until: None,
                    deltas_since_full: 0,
                    sent: Vec::new(),
                },
            );
            self.knowledge.truncate(self.config.knowledge_peers.max(1));
        }
        &mut self.knowledge[0]
    }

    fn outbound_for(
        &mut self,
        peer: u32,
        now: u64,
        request: Option<&[Descriptor]>,
    ) -> (Vec<Descriptor>, bool) {
        let me = Descriptor::new(self.id, now as u32);
        let mut full = self.view.clone();
        full.push(me);
        let delta_enabled = self.config.delta_views;
        let config_period = self.config.cycle_length;
        let watermark = (now as u32).saturating_add(self.period());
        let view = self.view.clone();
        let k = self.knowledge_mut(peer);
        let since = k.known_until;
        k.known_until = Some(watermark);
        let due = k.deltas_since_full >= FULL_EVERY;
        let refresh_after = u64::from(FULL_EVERY) * config_period;
        let (mut delta, mut blind, mut carried) = (Vec::new(), 0, 0);
        for d in &view {
            let keep = if !delta_enabled || due {
                true
            } else {
                let fresh = since.map_or(true, |since| d.timestamp > since);
                let sent = k
                    .sent
                    .iter()
                    .any(|e| e.node == d.node && e.timestamp >= d.timestamp);
                blind += usize::from(!fresh && !sent);
                let held = request.is_some_and(|request| {
                    request.iter().any(|e| {
                        e.node == d.node
                            && u64::from(e.timestamp) + refresh_after > u64::from(d.timestamp)
                    })
                });
                carried += usize::from(fresh && held);
                fresh && !held
            };
            if keep {
                delta.push(*d);
            }
        }
        delta.push(me);
        let is_full = delta.len() == full.len();
        let descriptors = if is_full { full } else { delta };
        if is_full {
            k.deltas_since_full = 0;
        } else {
            k.deltas_since_full += 1;
        }
        k.sent.extend_from_slice(&descriptors);
        self.anti_entropy_fulls += usize::from(due && since.is_some());
        if !is_full {
            self.blind_drops += blind;
            self.carried_drops += carried;
        }
        (descriptors, is_full)
    }

    fn handle_exchange(
        &mut self,
        incoming: &[Descriptor],
        from: u32,
        now: u64,
    ) -> (Vec<Descriptor>, bool) {
        let reply = self.outbound_for(from, now, Some(incoming));
        self.merge(incoming, (now as u32).saturating_add(self.period()));
        reply
    }

    fn absorb_reply(&mut self, reply: &[Descriptor], now: u64) {
        self.merge(reply, (now as u32).saturating_add(self.period()));
    }
}

/// The one view message in `out`, as `(to, payload, full)`.
fn view_message(out: Vec<DirectoryMessage>) -> (u32, ViewPayload, bool) {
    assert_eq!(out.len(), 1, "{out:?}");
    match out.into_iter().next().map(|m| (m.to, m.payload)) {
        Some((Destination::Node(to), DirectoryPayload::View { view, delta, .. })) => {
            (to.as_u64() as u32, view, !delta)
        }
        other => panic!("not a view message: {other:?}"),
    }
}

/// Three delta-gossiping nodes with tiny views (`c = 2`) and a trickle of
/// fresh contacts that keeps the views churning, so deltas keep dropping
/// entries their partner was never sent: every payload either
/// implementation emits, and every view after every step, must agree.
#[test]
fn delta_exchange_history_matches_the_reference_node() {
    let config = GossipDirectoryConfig::new(2, 100);
    assert!(config.delta_views);
    let mut real: Vec<GossipDirectory> = (0..3)
        .map(|i| GossipDirectory::id_routed(NodeId::new(i), &config, 9))
        .collect();
    let mut model: Vec<RefNode> = (0..3).map(|i| RefNode::new(i, config.clone())).collect();
    for i in 0..3u32 {
        real[i as usize].add_seed((i + 1) % 3, 0);
        model[i as usize].add_seed((i + 1) % 3, 0);
    }
    let mut exchanges = 0;
    for step in 0..240u64 {
        let now = 100 + 100 * step;
        let i = (step % 3) as usize;
        // Every fourth step somebody learns a contact nobody else holds
        // (ids 10.. never answer: requests to them are simply lost).
        if step % 4 == 3 {
            let (who, contact) = (((step / 4) % 3) as usize, 10 + (step / 4) as u32 % 7);
            real[who].add_seed(contact, now);
            model[who].add_seed(contact, now);
        }
        // A wake as the stack runs it: GETNEIGHBOR() names the partner,
        // then the directory polls and sends it the view request.
        let mut out = Vec::new();
        real[i].draw_peer();
        real[i].poll(now, &mut out);
        assert!(!out.is_empty(), "step {step}: node {i} sent no request");
        let (peer, request, full) = view_message(out);
        let expected = model[i].outbound_for(peer, now, None);
        assert_eq!(
            (request.descriptors.clone(), full),
            expected,
            "step {step} request"
        );
        if let Some(j) = (0..3).find(|&j| j as u32 == peer) {
            exchanges += 1;
            let mut out = Vec::new();
            let frame = DirectoryPayload::View {
                view: request.clone(),
                reply: false,
                delta: !full,
            };
            real[j].handle(&frame, None, now + 5, &mut out);
            let (to, reply, reply_full) = view_message(out);
            assert_eq!(to as usize, i, "step {step}: reply misrouted");
            let expected = model[j].handle_exchange(&request.descriptors, request.from, now + 5);
            assert_eq!(
                (reply.descriptors.clone(), reply_full),
                expected,
                "step {step} reply"
            );
            let frame = DirectoryPayload::View {
                view: reply.clone(),
                reply: true,
                delta: !reply_full,
            };
            real[i].handle(&frame, None, now + 10, &mut Vec::new());
            model[i].absorb_reply(&reply.descriptors, now + 10);
        }
        for (r, m) in real.iter().zip(&model) {
            assert_eq!(r.view().entries(), m.view.as_slice(), "step {step} view");
        }
    }
    // The history is only worth its name if it walked through every corner.
    assert!(exchanges > 40, "only {exchanges} answered exchanges");
    let fulls: usize = model.iter().map(|m| m.anti_entropy_fulls).sum();
    let blind: usize = model.iter().map(|m| m.blind_drops).sum();
    let carried: usize = model.iter().map(|m| m.carried_drops).sum();
    assert!(fulls > 0, "no FULL_EVERY anti-entropy turn in the history");
    assert!(
        blind > 0,
        "no delta ever dropped an entry stamped at or before known_until \
         that the partner was never sent"
    );
    assert!(
        carried > 0,
        "no answer ever left out an entry its request carried"
    );
}
