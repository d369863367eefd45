//! Property-based tests of the NEWSCAST view-merge invariants.
//!
//! The event-driven engine now trusts [`View::merge_with`] as its single
//! membership-merge primitive, so the protocol invariants — bounded size,
//! no self-entries, freshest-copy-wins, deterministic tie-breaking — are
//! pinned down here over arbitrary descriptor soups rather than the
//! hand-picked cases of the unit tests.
//!
//! The merge and the per-partner delta bookkeeping were rewritten for
//! speed (in-place bounded insertion; a node-sorted `seen` record) under
//! the promise that no payload byte and no view entry changes. The
//! implementations they replaced live on here as reference models
//! ([`reference_merge`], [`RefNode`]) that the real ones must match.

use epidemic_newscast::{Descriptor, MembershipConfig, MembershipNode, View};
use proptest::prelude::*;
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

/// Anti-entropy cadence of the delta protocol (`node::FULL_EVERY`).
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
    config: MembershipConfig,
    view: Vec<Descriptor>,
    /// Most recently used first.
    knowledge: Vec<RefKnowledge>,
    /// Full payloads sent because `FULL_EVERY` deltas had gone out.
    anti_entropy_fulls: usize,
    /// Times a `seen` record outgrew `2c + 2` and was trimmed.
    seen_overflows: usize,
}

impl RefNode {
    fn new(id: u32, config: MembershipConfig) -> Self {
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

/// Three delta-gossiping nodes with tiny views (`c = 2`, so a `seen`
/// record is bounded to 6) and a trickle of fresh contacts that keeps the
/// views churning: every payload either implementation emits, and every
/// view after every step, must agree.
#[test]
fn delta_exchange_history_matches_the_reference_node() {
    let config = MembershipConfig {
        delta_views: true,
        ..MembershipConfig::new(2, 100)
    };
    let mut real: Vec<MembershipNode> = (0..3).map(|i| MembershipNode::new(i, config, 9)).collect();
    let mut model: Vec<RefNode> = (0..3).map(|i| RefNode::new(i, config)).collect();
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
        let Some((peer, request, full)) = real[i].poll_exchange(now) else {
            panic!("step {step}: node {i}'s timer did not fire");
        };
        let expected = model[i].outbound_for(peer, now);
        assert_eq!(
            (request.descriptors.clone(), full),
            expected,
            "step {step} request"
        );
        if let Some(j) = (0..3).find(|&j| j as u32 == peer) {
            exchanges += 1;
            let (reply, reply_full) = real[j].handle_exchange_delta(&request, full, now + 5);
            let expected =
                model[j].handle_exchange_delta(request.from, &request.descriptors, full, now + 5);
            assert_eq!(
                (reply.descriptors.clone(), reply_full),
                expected,
                "step {step} reply"
            );
            real[i].absorb_reply_delta(&reply, reply_full, now + 10);
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

/// Builds a view of capacity `c` holding the merge result of `entries`.
fn view_from(c: usize, entries: &[Descriptor], self_node: u32) -> View {
    let mut v = View::new(c);
    v.merge_with(entries, self_node);
    v
}

fn descriptors(raw: &[(u32, u32)]) -> Vec<Descriptor> {
    raw.iter().map(|&(n, t)| Descriptor::new(n, t)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_respects_capacity_and_self_exclusion(
        c in 1usize..12,
        own in prop::collection::vec((0u32..24, 0u32..100), 0..20),
        received in prop::collection::vec((0u32..24, 0u32..100), 0..20),
        self_node in 0u32..24,
    ) {
        let mut view = view_from(c, &descriptors(&own), self_node);
        view.merge_with(&descriptors(&received), self_node);
        prop_assert!(view.len() <= c, "view overflowed: {} > {c}", view.len());
        prop_assert!(!view.contains(self_node), "self entry survived merge");
        // No node is described twice.
        for (i, a) in view.entries().iter().enumerate() {
            for b in &view.entries()[i + 1..] {
                prop_assert!(a.node != b.node, "duplicate node {}", a.node);
            }
        }
    }

    #[test]
    fn merge_keeps_freshest_timestamp_per_peer(
        c in 1usize..12,
        own in prop::collection::vec((0u32..16, 0u32..100), 0..16),
        received in prop::collection::vec((0u32..16, 0u32..100), 0..16),
    ) {
        let self_node = 99u32; // outside the id range: nothing filtered
        let before = view_from(c, &descriptors(&own), self_node);
        let mut view = before.clone();
        let received = descriptors(&received);
        view.merge_with(&received, self_node);
        // Whatever survived holds the freshest copy seen for that node
        // across the whole union.
        for d in view.entries() {
            let freshest = before
                .entries()
                .iter()
                .chain(&received)
                .filter(|o| o.node == d.node)
                .map(|o| o.timestamp)
                .max()
                .expect("entry must come from the union");
            prop_assert_eq!(
                d.timestamp, freshest,
                "node {} kept ts {} over fresher {}", d.node, d.timestamp, freshest
            );
        }
    }

    #[test]
    fn merge_clamped_equals_the_two_sort_reference(
        c in 1usize..12,
        own in prop::collection::vec((0u32..24, 0u32..100), 0..20),
        received in prop::collection::vec((0u32..24, 0u32..100), 0..30),
        self_node in 0u32..24,
        bound in 0u32..120,
    ) {
        let (own, received) = (descriptors(&own), descriptors(&received));
        let mut view = view_from(c, &own, self_node);
        let before = reference_merge(&[], &own, self_node, u32::MAX, c);
        prop_assert_eq!(view.entries(), before.as_slice());
        view.merge_clamped(&received, self_node, bound);
        let after = reference_merge(&before, &received, self_node, bound, c);
        prop_assert_eq!(view.entries(), after.as_slice());
    }

    #[test]
    fn merge_is_commutative_up_to_tie_breaking(
        c in 1usize..12,
        left in prop::collection::vec((0u32..24, 0u32..100), 0..20),
        right in prop::collection::vec((0u32..24, 0u32..100), 0..20),
        self_node in 0u32..24,
    ) {
        // One merge over the union must not care which side contributed
        // which descriptor: the (timestamp desc, id asc) tie-break makes
        // the survivor set a pure function of the union.
        let (left, right) = (descriptors(&left), descriptors(&right));
        let mut ab: Vec<Descriptor> = left.clone();
        ab.extend_from_slice(&right);
        let mut ba: Vec<Descriptor> = right;
        ba.extend_from_slice(&left);
        let va = view_from(c, &ab, self_node);
        let vb = view_from(c, &ba, self_node);
        prop_assert_eq!(va.entries(), vb.entries());
    }

    #[test]
    fn merge_is_idempotent(
        c in 1usize..12,
        own in prop::collection::vec((0u32..24, 0u32..100), 0..20),
        received in prop::collection::vec((0u32..24, 0u32..100), 0..20),
        self_node in 0u32..24,
    ) {
        let mut view = view_from(c, &descriptors(&own), self_node);
        let received = descriptors(&received);
        view.merge_with(&received, self_node);
        let once = view.clone();
        view.merge_with(&received, self_node);
        prop_assert_eq!(view.entries(), once.entries());
    }

    #[test]
    fn insert_sequence_matches_merge_invariants(
        c in 1usize..10,
        ops in prop::collection::vec((0u32..16, 0u32..100), 1..30),
    ) {
        // The incremental insert path maintains exactly the same
        // invariants as the batch merge: bounded, deduplicated, sorted
        // freshest-first.
        let mut view = View::new(c);
        for d in descriptors(&ops) {
            view.insert(d);
        }
        prop_assert!(view.len() <= c);
        let entries = view.entries();
        for pair in entries.windows(2) {
            let earlier = (std::cmp::Reverse(pair[0].timestamp), pair[0].node);
            let later = (std::cmp::Reverse(pair[1].timestamp), pair[1].node);
            prop_assert!(earlier < later, "not freshest-first: {pair:?}");
        }
        // An inserted node that survived holds its freshest inserted copy.
        for d in entries {
            let freshest = ops
                .iter()
                .filter(|&&(n, _)| n == d.node)
                .map(|&(_, t)| t)
                .max()
                .unwrap();
            prop_assert_eq!(d.timestamp, freshest);
        }
    }
}
