//! The NEWSCAST node against its reference model.
//!
//! The view merge and the per-partner delta bookkeeping of
//! [`GossipDirectory`] were rewritten for speed (in-place bounded
//! insertion; a node-sorted `seen` record) under the promise that no
//! payload byte and no view entry changes. The implementations they
//! replaced live on here as reference models ([`reference_merge`],
//! [`RefNode`]), and the real directory, driven only through
//! [`PeerDirectory::poll`] and [`PeerDirectory::handle`], must match them
//! payload for payload and view for view.

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
    seen: Vec<Descriptor>,
    deltas_since_full: u32,
}

/// The delta-aware exchange logic as first shipped — an unordered `seen`
/// record searched linearly, a delta collected beside the full payload —
/// over [`reference_merge`]. Also notes whether a history exercised the
/// two corners the sorted record could get wrong.
struct RefNode {
    id: u32,
    config: GossipDirectoryConfig,
    view: Vec<Descriptor>,
    /// Most recently used first.
    knowledge: Vec<RefKnowledge>,
    /// Full payloads sent because `FULL_EVERY` deltas had gone out.
    anti_entropy_fulls: usize,
    /// Times a `seen` record outgrew `2c + 2` and was trimmed.
    seen_overflows: usize,
}

impl RefNode {
    fn new(id: u32, config: GossipDirectoryConfig) -> Self {
        RefNode {
            id,
            config,
            view: Vec::new(),
            knowledge: Vec::new(),
            anti_entropy_fulls: 0,
            seen_overflows: 0,
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
                    seen: Vec::new(),
                    deltas_since_full: 0,
                },
            );
            self.knowledge.truncate(self.config.knowledge_peers.max(1));
        }
        &mut self.knowledge[0]
    }

    fn note_seen(&mut self, peer: u32, descriptors: &[Descriptor], replace: bool) {
        let bound = 2 * self.config.view_size + 2;
        let k = self.knowledge_mut(peer);
        if replace {
            k.seen.clear();
        }
        for d in descriptors {
            if let Some(e) = k.seen.iter_mut().find(|e| e.node == d.node) {
                e.timestamp = e.timestamp.max(d.timestamp);
            } else {
                k.seen.push(*d);
            }
        }
        if k.seen.len() > bound {
            k.seen
                .sort_unstable_by_key(|d| (Reverse(d.timestamp), d.node));
            k.seen.truncate(bound);
            self.seen_overflows += 1;
        }
    }

    fn outbound_for(&mut self, peer: u32, now: u64) -> (Vec<Descriptor>, bool) {
        let mut full = self.view.clone();
        full.push(Descriptor::new(self.id, now as u32));
        let delta_enabled = self.config.delta_views;
        let stale_after = self.period().saturating_mul(FULL_EVERY);
        let k = self.knowledge_mut(peer);
        let due = k.deltas_since_full >= FULL_EVERY;
        let send_full = !delta_enabled || k.seen.is_empty() || due;
        let (descriptors, is_full) = if send_full {
            (full, true)
        } else {
            let delta: Vec<Descriptor> = full
                .iter()
                .copied()
                .filter(|d| match k.seen.iter().find(|e| e.node == d.node) {
                    Some(e) => d.timestamp.saturating_sub(e.timestamp) >= stale_after,
                    None => true,
                })
                .collect();
            if delta.len() == full.len() {
                (full, true)
            } else {
                (delta, false)
            }
        };
        if is_full {
            k.deltas_since_full = 0;
        } else {
            k.deltas_since_full += 1;
        }
        if due && !k.seen.is_empty() {
            self.anti_entropy_fulls += 1;
        }
        self.note_seen(peer, &descriptors, false);
        (descriptors, is_full)
    }

    fn handle_exchange_delta(
        &mut self,
        from: u32,
        incoming: &[Descriptor],
        full: bool,
        now: u64,
    ) -> (Vec<Descriptor>, bool) {
        self.note_seen(from, incoming, full);
        let reply = self.outbound_for(from, now);
        self.merge(incoming, (now as u32).saturating_add(self.period()));
        reply
    }

    fn absorb_reply_delta(&mut self, from: u32, reply: &[Descriptor], full: bool, now: u64) {
        self.note_seen(from, reply, full);
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

/// Three delta-gossiping nodes with tiny views (`c = 2`, so a `seen`
/// record is bounded to 6) and a trickle of fresh contacts that keeps the
/// views churning: every payload either implementation emits, and every
/// view after every step, must agree.
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
        let mut out = Vec::new();
        real[i].poll(now, &mut out);
        assert!(
            !out.is_empty(),
            "step {step}: node {i}'s timer did not fire"
        );
        let (peer, request, full) = view_message(out);
        let expected = model[i].outbound_for(peer, now);
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
            let expected =
                model[j].handle_exchange_delta(request.from, &request.descriptors, full, now + 5);
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
            model[i].absorb_reply_delta(reply.from, &reply.descriptors, reply_full, now + 10);
        }
        for (r, m) in real.iter().zip(&model) {
            assert_eq!(r.view().entries(), m.view.as_slice(), "step {step} view");
        }
    }
    // The history is only worth its name if it walked through both corners.
    assert!(exchanges > 40, "only {exchanges} answered exchanges");
    let fulls: usize = model.iter().map(|m| m.anti_entropy_fulls).sum();
    let overflows: usize = model.iter().map(|m| m.seen_overflows).sum();
    assert!(fulls > 0, "no FULL_EVERY anti-entropy turn in the history");
    assert!(overflows > 0, "no seen record ever outgrew 2c + 2");
}
