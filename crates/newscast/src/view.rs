//! Descriptors and partial views.
//!
//! The unit of NEWSCAST state is the [`Descriptor`]: a node identifier plus
//! the logical timestamp at which that node was last known to be alive. A
//! [`View`] is a bounded set of descriptors ordered freshest-first; the
//! merge rule of the protocol ("keep the `c` freshest of the union,
//! deduplicated by node") lives here as [`View::merge_with`].

use std::fmt;

/// A membership descriptor: node identifier plus freshness timestamp.
///
/// Timestamps are logical cycle counters. Fresher (larger) timestamps win
/// during merges; ties break toward the smaller node id so that merges are
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Descriptor {
    /// Identifier of the described node (dense simulation index).
    pub node: u32,
    /// Logical time at which this descriptor was created.
    pub timestamp: u32,
}

impl Descriptor {
    /// Creates a descriptor.
    pub const fn new(node: u32, timestamp: u32) -> Self {
        Descriptor { node, timestamp }
    }

    /// Freshest-first ordering key: larger timestamp first, then smaller id.
    #[inline]
    pub(crate) fn freshness_key(&self) -> (std::cmp::Reverse<u32>, u32) {
        (std::cmp::Reverse(self.timestamp), self.node)
    }
}

impl fmt::Display for Descriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}@{}", self.node, self.timestamp)
    }
}

/// A bounded, freshest-first set of descriptors.
///
/// Invariants maintained by every operation:
/// * at most `capacity` entries;
/// * no two entries describe the same node;
/// * entries are sorted freshest-first (timestamp descending, id ascending).
///
/// # Examples
///
/// ```
/// use epidemic_newscast::{Descriptor, View};
///
/// let mut view = View::new(3);
/// view.insert(Descriptor::new(1, 10));
/// view.insert(Descriptor::new(2, 12));
/// view.insert(Descriptor::new(1, 15)); // refreshes node 1
/// assert_eq!(view.len(), 2);
/// assert_eq!(view.entries()[0], Descriptor::new(1, 15));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    capacity: usize,
    entries: Vec<Descriptor>,
}

impl View {
    /// Creates an empty view with the given capacity (the protocol's `c`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        View {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Maximum number of descriptors (the protocol parameter `c`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of descriptors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the view holds no descriptors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The descriptors, freshest first.
    pub fn entries(&self) -> &[Descriptor] {
        &self.entries
    }

    /// Returns `true` if some entry describes `node`.
    pub fn contains(&self, node: u32) -> bool {
        self.entries.iter().any(|d| d.node == node)
    }

    /// Inserts one descriptor, keeping the freshest entry per node and
    /// evicting the stalest descriptor if the view is full. The entries
    /// stay sorted: a fresher copy only ever moves toward the front, so
    /// one rotation puts it in place.
    pub fn insert(&mut self, descriptor: Descriptor) {
        let key = descriptor.freshness_key();
        let full = self.entries.len() == self.capacity;
        // Every member of a full view is at least as fresh as its stalest
        // entry, so anything staler neither enters nor refreshes one.
        if full
            && self
                .entries
                .last()
                .is_some_and(|last| last.freshness_key() <= key)
        {
            return;
        }
        let from = match self.entries.iter().position(|e| e.node == descriptor.node) {
            Some(i) if self.entries[i].timestamp >= descriptor.timestamp => return,
            Some(i) => i,
            None => {
                if full {
                    self.entries.pop();
                }
                self.entries.push(descriptor);
                self.entries.len() - 1
            }
        };
        let to = self.entries[..from].partition_point(|e| e.freshness_key() < key);
        self.entries[from] = descriptor;
        self.entries[to..=from].rotate_right(1);
    }

    /// The NEWSCAST merge: combine this view with descriptors received from
    /// a peer, drop any descriptor of `self_node`, deduplicate by node
    /// keeping the freshest, and keep the `c` freshest overall.
    ///
    /// `received` is typically the peer's view plus a fresh descriptor of
    /// the peer itself.
    pub fn merge_with(&mut self, received: &[Descriptor], self_node: u32) {
        self.merge_clamped(received, self_node, u32::MAX);
    }

    /// Like [`View::merge_with`], but clamps every incoming timestamp to
    /// `max_timestamp` first. Merge boundaries use this so a peer whose
    /// clock runs ahead can claim at most a bounded freshness head start:
    /// without the clamp, one drifted node's far-future descriptors crowd
    /// every honestly-stamped entry out of the views they touch.
    ///
    /// Bounded insertion one descriptor at a time keeps the view equal to
    /// "the `c` freshest of everything seen so far, one copy per node" at
    /// every step, which is the batch rule — in place, without a
    /// temporary pool or a sort.
    pub fn merge_clamped(&mut self, received: &[Descriptor], self_node: u32, max_timestamp: u32) {
        for d in received {
            if d.node != self_node {
                self.insert(Descriptor::new(d.node, d.timestamp.min(max_timestamp)));
            }
        }
    }

    /// Timestamp of the freshest entry, or `None` if empty.
    pub fn freshest(&self) -> Option<u32> {
        self.entries.first().map(|d| d.timestamp)
    }

    /// Timestamp of the stalest entry, or `None` if empty.
    pub fn stalest(&self) -> Option<u32> {
        self.entries.last().map(|d| d.timestamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_of(capacity: usize, entries: &[(u32, u32)]) -> View {
        let mut v = View::new(capacity);
        for &(node, ts) in entries {
            v.insert(Descriptor::new(node, ts));
        }
        v
    }

    #[test]
    fn insert_keeps_freshest_first() {
        let v = view_of(5, &[(1, 3), (2, 9), (3, 6)]);
        let ts: Vec<u32> = v.entries().iter().map(|d| d.timestamp).collect();
        assert_eq!(ts, vec![9, 6, 3]);
    }

    #[test]
    fn insert_deduplicates_by_node() {
        let v = view_of(5, &[(1, 3), (1, 8), (1, 5)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v.entries()[0], Descriptor::new(1, 8));
    }

    #[test]
    fn insert_never_downgrades_freshness() {
        let v = view_of(5, &[(1, 8), (1, 3)]);
        assert_eq!(v.entries()[0].timestamp, 8);
    }

    #[test]
    fn full_view_evicts_stalest() {
        let mut v = view_of(2, &[(1, 5), (2, 7)]);
        v.insert(Descriptor::new(3, 9));
        assert_eq!(v.len(), 2);
        assert!(v.contains(3));
        assert!(v.contains(2));
        assert!(!v.contains(1));
    }

    #[test]
    fn full_view_rejects_staler_newcomer() {
        let mut v = view_of(2, &[(1, 5), (2, 7)]);
        v.insert(Descriptor::new(3, 2));
        assert!(!v.contains(3));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Same timestamps: smaller id counts as fresher.
        let v = view_of(2, &[(9, 5), (4, 5), (7, 5)]);
        let ids: Vec<u32> = v.entries().iter().map(|d| d.node).collect();
        assert_eq!(ids, vec![4, 7]);
    }

    #[test]
    fn merge_unions_and_truncates() {
        let mut a = view_of(3, &[(1, 10), (2, 4)]);
        let received = [
            Descriptor::new(3, 8),
            Descriptor::new(4, 6),
            Descriptor::new(5, 2),
        ];
        a.merge_with(&received, 0);
        assert_eq!(a.len(), 3);
        let ids: Vec<u32> = a.entries().iter().map(|d| d.node).collect();
        assert_eq!(ids, vec![1, 3, 4]); // freshest three of the union
    }

    #[test]
    fn merge_drops_self_descriptor() {
        let mut a = view_of(3, &[(1, 10)]);
        a.merge_with(&[Descriptor::new(7, 99), Descriptor::new(2, 5)], 7);
        assert!(!a.contains(7));
        assert!(a.contains(2));
    }

    #[test]
    fn merge_keeps_freshest_duplicate() {
        let mut a = view_of(3, &[(1, 4)]);
        a.merge_with(&[Descriptor::new(1, 9)], 0);
        assert_eq!(a.len(), 1);
        assert_eq!(a.entries()[0].timestamp, 9);

        let mut b = view_of(3, &[(1, 9)]);
        b.merge_with(&[Descriptor::new(1, 4)], 0);
        assert_eq!(b.entries()[0].timestamp, 9);
    }

    #[test]
    fn merge_is_idempotent() {
        let mut a = view_of(4, &[(1, 5), (2, 9), (3, 1)]);
        let received = [Descriptor::new(4, 7), Descriptor::new(2, 11)];
        a.merge_with(&received, 0);
        let once = a.clone();
        a.merge_with(&received, 0);
        assert_eq!(a, once);
    }

    #[test]
    fn merge_clamped_leaves_honest_timestamps_alone() {
        let mut v = View::new(3);
        v.merge_clamped(&[Descriptor::new(1, 10), Descriptor::new(2, 99)], 0, 50);
        let ts_of = |n| v.entries().iter().find(|d| d.node == n).unwrap().timestamp;
        assert_eq!(ts_of(1), 10); // below the bound: untouched
        assert_eq!(ts_of(2), 50); // future-stamped: clamped to the bound
    }

    #[test]
    fn clamped_future_entries_age_out_normally() {
        let mut v = view_of(2, &[(1, 18), (2, 19)]);
        v.merge_clamped(&[Descriptor::new(8, 9_000)], 0, 20);
        assert!(v.contains(8));
        // The drifted stamp was clamped to "now", so honest later entries
        // overtake it instead of losing to a far-future timestamp forever.
        v.merge_with(&[Descriptor::new(3, 30), Descriptor::new(4, 31)], 0);
        assert!(
            !v.contains(8),
            "clamped entry failed to age out: {:?}",
            v.entries()
        );
    }

    #[test]
    fn freshest_and_stalest() {
        let v = view_of(4, &[(1, 5), (2, 9), (3, 1)]);
        assert_eq!(v.freshest(), Some(9));
        assert_eq!(v.stalest(), Some(1));
        assert_eq!(View::new(2).freshest(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        View::new(0);
    }

    #[test]
    fn descriptor_display() {
        assert_eq!(Descriptor::new(4, 17).to_string(), "n4@17");
    }
}
