//! Property-based tests of the NEWSCAST view-merge invariants.
//!
//! The event-driven engine now trusts [`View::merge_with`] as its single
//! membership-merge primitive, so the protocol invariants — bounded size,
//! no self-entries, freshest-copy-wins, deterministic tie-breaking — are
//! pinned down here over arbitrary descriptor soups rather than the
//! hand-picked cases of the unit tests.
//!
//! The merge was rewritten for speed (in-place bounded insertion) under
//! the promise that no view entry changes. The implementation it replaced
//! lives on here as a reference model ([`reference_merge`]) that the real
//! one must match.

use epidemic_newscast::{Descriptor, View};
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
