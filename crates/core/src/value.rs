//! COUNT instance maps (paper Section 5, COUNT).
//!
//! Network size estimation runs multiple concurrent averaging instances,
//! each *led* by a different node. An instance led by `l` computes the
//! average of the peak distribution "1 at `l`, 0 everywhere else", i.e.
//! `1/N`. Every node maintains a sparse map from leader identifier to its
//! current estimate of that instance; an absent entry is semantically a
//! zero that has not been materialized yet.
//!
//! The merge rule for two maps `Mi`, `Mj` (both peers install the result):
//!
//! ```text
//! M(l) = (Mi(l) + Mj(l)) / 2    if l ∈ Mi and l ∈ Mj
//! M(l) =  Mi(l) / 2             if l ∈ Mi only
//! M(l) =  Mj(l) / 2             if l ∈ Mj only
//! ```
//!
//! which is exactly scalar averaging per leader with absent-as-zero, so
//! per-leader mass (the initial 1) is conserved across every exchange.

use std::fmt;

/// Most leaders a COUNT map may hold: as many 16-byte `(leader,
/// estimate)` entries as one UDP datagram (65,507 payload bytes over
/// IPv4) carries next to a lone bundle frame's fixed fields — bundle
/// version, length varint and vnode (12 B), message header, sender and
/// epoch (18 B), state count, state tag and entry count (5 B):
/// (65,507 − 35) / 16 = 4,092. A node refuses a map, or a merge, that
/// would hold more (`agg.states_refused{reason="map_too_large"}`), so no
/// map it holds or sends ever does.
pub const MAX_MAP_LEADERS: usize = (65_507 - 35) / 16;

/// Sparse map from leader identifier to average estimate, kept sorted by
/// leader id.
///
/// # Examples
///
/// ```
/// use epidemic_aggregation::InstanceMap;
///
/// let leader = InstanceMap::leader(7);
/// let follower = InstanceMap::new();
/// let merged = InstanceMap::merge(&leader, &follower);
/// assert_eq!(merged.get(7), Some(0.5)); // both sides now hold 1/2
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InstanceMap {
    entries: Vec<(u64, f64)>,
}

impl InstanceMap {
    /// Creates an empty map (a follower that has not yet heard from any
    /// instance).
    pub const fn new() -> Self {
        InstanceMap {
            entries: Vec::new(),
        }
    }

    /// Creates the initial map of a leader: `{leader: 1.0}`.
    pub fn leader(leader: u64) -> Self {
        InstanceMap {
            entries: vec![(leader, 1.0)],
        }
    }

    /// Creates a map from `(leader, estimate)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a leader id appears twice.
    pub fn from_entries<I: IntoIterator<Item = (u64, f64)>>(entries: I) -> Self {
        let mut entries: Vec<(u64, f64)> = entries.into_iter().collect();
        entries.sort_unstable_by_key(|&(l, _)| l);
        for pair in entries.windows(2) {
            assert!(pair[0].0 != pair[1].0, "duplicate leader {}", pair[0].0);
        }
        InstanceMap { entries }
    }

    /// Estimate associated with `leader`, if present.
    pub fn get(&self, leader: u64) -> Option<f64> {
        self.entries
            .binary_search_by_key(&leader, |&(l, _)| l)
            .ok()
            .map(|idx| self.entries[idx].1)
    }

    /// Number of instances present in the map.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the node has not heard from any instance.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(leader, estimate)` pairs in leader order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Sum of all estimates in the map (this node's share of the total
    /// mass of all instances).
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|&(_, e)| e).sum()
    }

    /// The paper's merge: per-leader averaging with absent-as-zero. Both
    /// peers of an exchange install the returned map.
    pub fn merge(a: &InstanceMap, b: &InstanceMap) -> InstanceMap {
        let mut out = InstanceMap::new();
        InstanceMap::merge_into(a, b, &mut out);
        out
    }

    /// Allocation-free form of [`InstanceMap::merge`]: writes the merge of
    /// `a` and `b` into `out`, reusing `out`'s buffer. Hot loops (the
    /// simulator runs one merge per exchange) keep a scratch map around
    /// instead of allocating a fresh vector per exchange.
    pub fn merge_into(a: &InstanceMap, b: &InstanceMap, out: &mut InstanceMap) {
        let entries = &mut out.entries;
        entries.clear();
        entries.reserve(a.entries.len() + b.entries.len());
        let (mut i, mut j) = (0, 0);
        while i < a.entries.len() && j < b.entries.len() {
            let (la, ea) = a.entries[i];
            let (lb, eb) = b.entries[j];
            match la.cmp(&lb) {
                std::cmp::Ordering::Equal => {
                    entries.push((la, (ea + eb) / 2.0));
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    entries.push((la, ea / 2.0));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    entries.push((lb, eb / 2.0));
                    j += 1;
                }
            }
        }
        entries.extend(a.entries[i..].iter().map(|&(l, e)| (l, e / 2.0)));
        entries.extend(b.entries[j..].iter().map(|&(l, e)| (l, e / 2.0)));
    }

    /// Number of leaders in `a ∪ b`: the length of their merge.
    pub fn union_len(a: &InstanceMap, b: &InstanceMap) -> usize {
        let (mut i, mut j, mut shared) = (0, 0, 0);
        while i < a.entries.len() && j < b.entries.len() {
            let order = a.entries[i].0.cmp(&b.entries[j].0);
            shared += usize::from(order.is_eq());
            i += usize::from(order.is_le());
            j += usize::from(order.is_ge());
        }
        a.entries.len() + b.entries.len() - shared
    }

    /// Overwrites this map with `src`'s contents, reusing the existing
    /// buffer (the receiving half of an exchange installing a merge
    /// result without a fresh allocation).
    pub fn copy_from(&mut self, src: &InstanceMap) {
        self.entries.clear();
        self.entries.extend_from_slice(&src.entries);
    }
}

impl fmt::Display for InstanceMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (idx, (l, e)) in self.iter().enumerate() {
            if idx > 0 {
                write!(f, ", ")?;
            }
            write!(f, "n{l}: {e:.3e}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(u64, f64)> for InstanceMap {
    fn from_iter<I: IntoIterator<Item = (u64, f64)>>(iter: I) -> Self {
        Self::from_entries(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_common::rng::Xoshiro256;

    #[test]
    fn empty_and_leader_construction() {
        let empty = InstanceMap::new();
        assert!(empty.is_empty());
        assert_eq!(empty.total(), 0.0);
        let leader = InstanceMap::leader(3);
        assert_eq!(leader.len(), 1);
        assert_eq!(leader.get(3), Some(1.0));
        assert_eq!(leader.get(4), None);
    }

    #[test]
    fn from_entries_sorts() {
        let m = InstanceMap::from_entries([(5, 0.1), (1, 0.2), (9, 0.3)]);
        let leaders: Vec<u64> = m.iter().map(|(l, _)| l).collect();
        assert_eq!(leaders, vec![1, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "duplicate leader")]
    fn from_entries_rejects_duplicates() {
        InstanceMap::from_entries([(1, 0.5), (1, 0.7)]);
    }

    #[test]
    fn merge_leader_with_empty_halves() {
        let merged = InstanceMap::merge(&InstanceMap::leader(7), &InstanceMap::new());
        assert_eq!(merged.get(7), Some(0.5));
        assert_eq!(merged.len(), 1);
    }

    #[test]
    fn merge_matched_entries_averages() {
        let a = InstanceMap::from_entries([(1, 0.8)]);
        let b = InstanceMap::from_entries([(1, 0.2)]);
        let m = InstanceMap::merge(&a, &b);
        assert_eq!(m.get(1), Some(0.5));
    }

    #[test]
    fn merge_disjoint_entries_halves_both() {
        let a = InstanceMap::from_entries([(1, 0.8)]);
        let b = InstanceMap::from_entries([(2, 0.4)]);
        let m = InstanceMap::merge(&a, &b);
        assert_eq!(m.get(1), Some(0.4));
        assert_eq!(m.get(2), Some(0.2));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn merge_into_matches_merge_and_reuses_buffer() {
        let a = InstanceMap::from_entries([(1, 0.8), (3, 0.4)]);
        let b = InstanceMap::from_entries([(2, 0.4), (3, 0.2)]);
        let mut out = InstanceMap::from_entries([(9, 9.0)]); // stale content
        InstanceMap::merge_into(&a, &b, &mut out);
        assert_eq!(out, InstanceMap::merge(&a, &b));
        assert_eq!(out.get(9), None, "stale entry survived");

        let mut copy = InstanceMap::from_entries([(5, 1.0)]);
        copy.copy_from(&out);
        assert_eq!(copy, out);
    }

    #[test]
    fn merge_conserves_pairwise_mass() {
        // Before: node A holds a, node B holds b. After: both hold merged.
        // Mass conservation: a(l) + b(l) == 2 * merged(l) for every l.
        let mut rng = Xoshiro256::seed_from_u64(1);
        let random_map = |rng: &mut Xoshiro256| {
            let mut entries = Vec::new();
            for l in 0..5u64 {
                if rng.next_bool(0.6) {
                    entries.push((l, rng.next_f64()));
                }
            }
            InstanceMap::from_entries(entries)
        };
        for _ in 0..200 {
            let a = random_map(&mut rng);
            let b = random_map(&mut rng);
            let m = InstanceMap::merge(&a, &b);
            for l in 0..5 {
                let before = a.get(l).unwrap_or(0.0) + b.get(l).unwrap_or(0.0);
                let after = 2.0 * m.get(l).unwrap_or(0.0);
                assert!((before - after).abs() < 1e-12, "mass leak at leader {l}");
            }
        }
    }

    #[test]
    fn merge_is_symmetric() {
        let a = InstanceMap::from_entries([(1, 0.3), (4, 0.9)]);
        let b = InstanceMap::from_entries([(2, 0.5), (4, 0.1)]);
        assert_eq!(InstanceMap::merge(&a, &b), InstanceMap::merge(&b, &a));
    }

    #[test]
    fn merge_of_equal_maps_is_identity() {
        let a = InstanceMap::from_entries([(1, 0.25), (9, 0.125)]);
        assert_eq!(InstanceMap::merge(&a, &a), a);
    }

    #[test]
    fn merged_output_stays_sorted() {
        let a = InstanceMap::from_entries([(1, 0.3), (5, 0.9)]);
        let b = InstanceMap::from_entries([(2, 0.5), (9, 0.1)]);
        let m = InstanceMap::merge(&a, &b);
        let leaders: Vec<u64> = m.iter().map(|(l, _)| l).collect();
        assert_eq!(leaders, vec![1, 2, 5, 9]);
        // Binary search still works on the merged map.
        assert_eq!(m.get(5), Some(0.45));
    }

    #[test]
    fn network_mass_conserved_over_random_exchanges() {
        // Simulate many nodes' maps exchanging; per-leader global mass must
        // be exactly conserved (this is the COUNT correctness invariant).
        let mut rng = Xoshiro256::seed_from_u64(2);
        let n = 32;
        let mut maps: Vec<InstanceMap> = (0..n)
            .map(|i| {
                if i < 3 {
                    InstanceMap::leader(i as u64)
                } else {
                    InstanceMap::new()
                }
            })
            .collect();
        for _ in 0..500 {
            let i = rng.index(n);
            let j = (i + 1 + rng.index(n - 1)) % n;
            let merged = InstanceMap::merge(&maps[i], &maps[j]);
            maps[i] = merged.clone();
            maps[j] = merged;
        }
        for leader in 0..3u64 {
            let mass: f64 = maps.iter().map(|m| m.get(leader).unwrap_or(0.0)).sum();
            assert!((mass - 1.0).abs() < 1e-9, "leader {leader} mass {mass}");
        }
        // And the estimates converge toward 1/n each.
        for m in &maps {
            for (_, e) in m.iter() {
                assert!((e - 1.0 / n as f64).abs() < 0.05);
            }
        }
    }

    #[test]
    fn display_formats_entries() {
        let m = InstanceMap::from_entries([(1, 0.5)]);
        assert_eq!(m.to_string(), "{n1: 5.000e-1}");
        assert_eq!(InstanceMap::new().to_string(), "{}");
    }
}
