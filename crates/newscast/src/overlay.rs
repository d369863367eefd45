//! Whole-network NEWSCAST substrate for simulations.
//!
//! [`Overlay`] owns one [`View`] per node and advances the protocol in
//! cycles, mirroring the cycle-driven model of the paper's own simulator:
//! in every cycle each live node, in random order, exchanges views with a
//! random live member of its view. Crashed nodes keep their slot (so
//! descriptors can still point at them and age out naturally) and new nodes
//! are appended with fresh identities via [`Overlay::join_via`].

use crate::view::{Descriptor, View};
use epidemic_common::rng::Xoshiro256;
use epidemic_common::sample::NeighborSampling;
use std::fmt;

/// A simulated NEWSCAST overlay over a growing population of nodes.
///
/// Node identities are dense indices. A crashed node's index is never
/// reused: churn appends brand-new indices, exactly like fresh identifiers
/// in a deployed system, so stale descriptors never "resurrect".
///
/// # Examples
///
/// ```
/// use epidemic_common::rng::Xoshiro256;
/// use epidemic_newscast::Overlay;
///
/// let mut rng = Xoshiro256::seed_from_u64(3);
/// let mut overlay = Overlay::random_init(100, 10, &mut rng);
/// overlay.crash(7);
/// let newcomer = overlay.join_via(0, 1);
/// assert_eq!(newcomer, 100);
/// overlay.run_cycle(1, &mut rng);
/// assert_eq!(overlay.alive_count(), 100);
/// ```
#[derive(Clone)]
pub struct Overlay {
    c: usize,
    views: Vec<View>,
    alive: Vec<bool>,
    alive_count: usize,
    permutation: Vec<u32>,
}

impl Overlay {
    /// Bootstraps an overlay of `n` nodes whose initial views hold `c`
    /// uniformly random distinct peers with timestamp 0.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0` or `n < 2` or `c >= n`.
    pub fn random_init(n: usize, c: usize, rng: &mut Xoshiro256) -> Self {
        assert!(n >= 2, "overlay needs at least two nodes");
        assert!(c >= 1 && c < n, "view size must satisfy 1 <= c < n");
        let mut views = Vec::with_capacity(n);
        for node in 0..n {
            let mut view = View::new(c);
            for raw in rng.sample_distinct(n - 1, c) {
                let peer = if raw >= node { raw + 1 } else { raw };
                view.insert(Descriptor::new(peer as u32, 0));
            }
            views.push(view);
        }
        Overlay {
            c,
            views,
            alive: vec![true; n],
            alive_count: n,
            permutation: Vec::new(),
        }
    }

    /// View size parameter `c`.
    pub fn view_size(&self) -> usize {
        self.c
    }

    /// Total number of node slots ever created (alive + crashed).
    pub fn slot_count(&self) -> usize {
        self.views.len()
    }

    /// Number of currently live nodes.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Returns `true` if `node` is live.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive[node]
    }

    /// Marks `node` as crashed. Crashing an already-crashed node is a
    /// no-op. Its descriptors remain in other views until they age out.
    pub fn crash(&mut self, node: usize) {
        if self.alive[node] {
            self.alive[node] = false;
            self.alive_count -= 1;
        }
    }

    /// Adds a brand-new node that bootstraps its view from `introducer`
    /// (copying the introducer's view plus a fresh descriptor of the
    /// introducer — the paper's out-of-band discovery). Returns the new
    /// node's index.
    ///
    /// # Panics
    ///
    /// Panics if the introducer is crashed or out of range.
    pub fn join_via(&mut self, introducer: usize, now: u32) -> usize {
        assert!(
            self.alive[introducer],
            "introducer {introducer} is not alive"
        );
        let new_index = self.views.len();
        let mut view = View::new(self.c);
        let snapshot: Vec<Descriptor> = self.views[introducer].entries().to_vec();
        view.merge_with(&snapshot, new_index as u32);
        view.insert(Descriptor::new(introducer as u32, now));
        self.views.push(view);
        self.alive.push(true);
        self.alive_count += 1;
        new_index
    }

    /// The current view of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn view(&self, node: usize) -> &View {
        &self.views[node]
    }

    /// Runs one NEWSCAST cycle at logical time `now`: every live node, in a
    /// fresh random order, attempts one view exchange with a random member
    /// of its view. Exchanges with crashed peers are skipped (timeout).
    ///
    /// Returns the number of successful exchanges.
    pub fn run_cycle(&mut self, now: u32, rng: &mut Xoshiro256) -> usize {
        self.permutation.clear();
        self.permutation
            .extend((0..self.views.len() as u32).filter(|&i| self.alive[i as usize]));
        rng.shuffle(&mut self.permutation);
        let mut exchanges = 0;
        for idx in 0..self.permutation.len() {
            let initiator = self.permutation[idx] as usize;
            if !self.alive[initiator] {
                continue; // crashed mid-cycle by an external failure model
            }
            let Some(peer) = self.pick_peer(initiator, rng) else {
                continue;
            };
            if !self.alive[peer] {
                continue; // timeout: the descriptor ages out naturally
            }
            self.exchange(initiator, peer, now);
            exchanges += 1;
        }
        exchanges
    }

    /// Performs the symmetric view exchange between two live nodes.
    pub fn exchange(&mut self, a: usize, b: usize, now: u32) {
        debug_assert!(a != b, "exchange with self");
        // Each side sends its current view plus a fresh self-descriptor.
        let mut payload_a: Vec<Descriptor> = self.views[a].entries().to_vec();
        payload_a.push(Descriptor::new(a as u32, now));
        let mut payload_b: Vec<Descriptor> = self.views[b].entries().to_vec();
        payload_b.push(Descriptor::new(b as u32, now));
        self.views[a].merge_with(&payload_b, a as u32);
        self.views[b].merge_with(&payload_a, b as u32);
    }

    fn pick_peer(&self, node: usize, rng: &mut Xoshiro256) -> Option<usize> {
        let entries = self.views[node].entries();
        rng.choose(entries).map(|d| d.node as usize)
    }
}

impl fmt::Debug for Overlay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Overlay")
            .field("c", &self.c)
            .field("slots", &self.slot_count())
            .field("alive", &self.alive_count)
            .finish()
    }
}

impl NeighborSampling for Overlay {
    fn node_count(&self) -> usize {
        self.slot_count()
    }

    /// Samples a uniform member of `node`'s current view. The returned
    /// peer may be crashed — callers model the resulting timeout, exactly
    /// like a real deployment.
    fn sample_neighbor(&self, node: usize, rng: &mut Xoshiro256) -> Option<usize> {
        if !self.alive[node] {
            return None;
        }
        self.pick_peer(node, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(seed)
    }

    #[test]
    fn random_init_views_are_valid() {
        let mut r = rng(1);
        let overlay = Overlay::random_init(50, 10, &mut r);
        assert_eq!(overlay.slot_count(), 50);
        assert_eq!(overlay.alive_count(), 50);
        for node in 0..50 {
            let v = overlay.view(node);
            assert_eq!(v.len(), 10);
            assert!(!v.contains(node as u32), "self in view of {node}");
        }
    }

    #[test]
    #[should_panic(expected = "view size")]
    fn random_init_rejects_large_c() {
        Overlay::random_init(5, 5, &mut rng(2));
    }

    #[test]
    fn cycle_refreshes_timestamps() {
        let mut r = rng(3);
        let mut overlay = Overlay::random_init(100, 8, &mut r);
        for cycle in 1..=5 {
            overlay.run_cycle(cycle, &mut r);
        }
        // After a few cycles, most views contain fresh descriptors.
        let fresh_views = (0..100)
            .filter(|&n| overlay.view(n).freshest().unwrap_or(0) >= 4)
            .count();
        assert!(fresh_views > 90, "only {fresh_views} views saw fresh data");
    }

    #[test]
    fn exchange_inserts_fresh_peer_descriptors() {
        let mut r = rng(4);
        let mut overlay = Overlay::random_init(10, 3, &mut r);
        overlay.exchange(0, 1, 42);
        assert!(overlay.view(0).contains(1));
        assert!(overlay.view(1).contains(0));
        let d = overlay
            .view(0)
            .entries()
            .iter()
            .find(|d| d.node == 1)
            .unwrap();
        assert_eq!(d.timestamp, 42);
    }

    #[test]
    fn crash_and_counts() {
        let mut r = rng(5);
        let mut overlay = Overlay::random_init(10, 3, &mut r);
        overlay.crash(4);
        overlay.crash(4); // idempotent
        assert_eq!(overlay.alive_count(), 9);
        assert!(!overlay.is_alive(4));
    }

    #[test]
    fn join_via_copies_introducer_view() {
        let mut r = rng(6);
        let mut overlay = Overlay::random_init(10, 3, &mut r);
        let newcomer = overlay.join_via(2, 7);
        assert_eq!(newcomer, 10);
        assert!(overlay.is_alive(newcomer));
        assert_eq!(overlay.alive_count(), 11);
        assert!(overlay.view(newcomer).contains(2));
        assert!(!overlay.view(newcomer).contains(newcomer as u32));
    }

    #[test]
    #[should_panic(expected = "not alive")]
    fn join_via_dead_introducer_panics() {
        let mut r = rng(7);
        let mut overlay = Overlay::random_init(10, 3, &mut r);
        overlay.crash(2);
        overlay.join_via(2, 1);
    }

    #[test]
    fn dead_nodes_do_not_initiate() {
        let mut r = rng(8);
        let mut overlay = Overlay::random_init(20, 4, &mut r);
        for n in 1..20 {
            overlay.crash(n);
        }
        // Sole survivor has only dead peers: no exchange can succeed.
        let exchanges = overlay.run_cycle(1, &mut r);
        assert_eq!(exchanges, 0);
    }

    #[test]
    fn determinism_across_runs() {
        let build = |seed| {
            let mut r = rng(seed);
            let mut o = Overlay::random_init(64, 6, &mut r);
            for cycle in 1..=10 {
                o.run_cycle(cycle, &mut r);
            }
            (0..64)
                .map(|n| o.view(n).entries().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(build(42), build(42));
    }

    #[test]
    fn sampling_ignores_dead_sampler() {
        let mut r = rng(9);
        let mut overlay = Overlay::random_init(10, 3, &mut r);
        overlay.crash(0);
        assert_eq!(overlay.sample_neighbor(0, &mut r), None);
        assert!(overlay.sample_neighbor(1, &mut r).is_some());
    }

    #[test]
    fn self_healing_after_mass_crash() {
        let mut r = rng(10);
        let n = 1200;
        let mut overlay = Overlay::random_init(n, 20, &mut r);
        // Warm up so timestamps are current.
        for cycle in 1..=5 {
            overlay.run_cycle(cycle, &mut r);
        }
        // Kill half the network.
        for node in 0..n / 2 {
            overlay.crash(node);
        }
        for cycle in 6..=50 {
            overlay.run_cycle(cycle, &mut r);
        }
        // Views of survivors should now be dominated by live peers. A small
        // residue can persist in clusters that were partitioned off by the
        // simultaneous 50% crash (they lack enough live peers to displace
        // stale entries), so the bound is not zero.
        let mut dead_entries = 0usize;
        let mut total = 0usize;
        for node in n / 2..n {
            for d in overlay.view(node).entries() {
                total += 1;
                if !overlay.is_alive(d.node as usize) {
                    dead_entries += 1;
                }
            }
        }
        let frac = dead_entries as f64 / total as f64;
        assert!(
            frac < 0.05,
            "dead-entry fraction {frac} too high after healing"
        );
    }
}
