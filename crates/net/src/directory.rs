//! The `GETNEIGHBOR()` seam: pluggable peer directories.
//!
//! The paper's aggregation protocol is overlay-agnostic — it only ever
//! asks the membership layer for *one random neighbor per exchange*. This
//! module makes that seam explicit for the real-network runtimes: a
//! [`PeerDirectory`] answers `GETNEIGHBOR()` ([`PeerSampler::draw_peer`]),
//! resolves peer addresses, and — when the membership itself is gossiped —
//! emits and consumes its own wire traffic through the same socket and
//! timer path as the aggregation protocol.
//!
//! Two implementations ship:
//!
//! * [`StaticDirectory`] — the classic static peer table. Draws are the
//!   deterministic `(seed, id, initiated-exchange count)` stream the
//!   mux-vs-threads parity tests rely on.
//! * [`GossipDirectory`] — one NEWSCAST [`MembershipNode`] per node.
//!   Views travel as codec tags 4/5 (full) or 8/9 (deltas: only the
//!   descriptors the partner is believed to lack, with a periodic
//!   full-view anti-entropy fallback), bootstrap as
//!   [`DirectoryPayload::Join`] (tag 6) / [`DirectoryPayload::Introduce`]
//!   (tag 7): a joiner contacts an *introducer*, which answers with a
//!   snapshot of its view (plus the addresses it knows, when the
//!   embedding routes by address). Join datagrams are retried with
//!   exponential backoff, rotating across introducers, so a lost tag-6
//!   datagram delays bootstrap instead of stranding the node. No static
//!   peer table exists anywhere; `GETNEIGHBOR()` is served from the live
//!   partial view.
//!
//! Directories may additionally *piggyback* membership on aggregation
//! datagrams already leaving the socket: the embedding asks
//! [`PeerDirectory::piggyback`] for a small [`Piggyback`] trailer
//! (descriptors plus peer addresses) when encoding an aggregation
//! message, and feeds received trailers to
//! [`PeerDirectory::absorb_piggyback`]. This spreads both views and
//! address books without dedicated datagrams.
//!
//! Directories are sans-io: the embedding (thread-per-node runtime or mux
//! runtime) owns sockets and clocks, calls [`PeerDirectory::poll`] on
//! timer wake-ups, feeds incoming membership datagrams to
//! [`PeerDirectory::handle`], and transmits whatever [`DirectoryMessage`]s
//! come back.

use epidemic_aggregation::node::PeerSampler;
use epidemic_common::rng::Xoshiro256;
use epidemic_common::NodeId;
use epidemic_newscast::node::{MembershipConfig, MembershipNode, ViewPayload};
use epidemic_newscast::Descriptor;
use epidemic_telemetry::{TraceEvent, TraceKind, TraceRing, ViewHealth};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

/// Salt decorrelating membership randomness from aggregation randomness
/// (both streams are derived from the cluster seed and the node id).
const GOSSIP_SEED_SALT: u64 = 0x4E45_5753; // "NEWS"

/// Salt for the static directory's peer-draw stream. Shared by every
/// runtime so that a same-seed cluster draws the same peer sequence
/// regardless of which runtime hosts it.
const DRAW_SEED_SALT: u64 = 0x5EED;

/// Where a directory wants a message delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destination {
    /// A node known by identifier. [`crate::stack::NodeStack`] turns it
    /// into an address when [`PeerDirectory::addr_of`] knows one;
    /// id-routed embeddings (the mux peer table) resolve what is left.
    Node(NodeId),
    /// An explicit socket address (introducer bootstrap before any
    /// identifier is known).
    Addr(SocketAddr),
}

/// One membership datagram to transmit.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectoryMessage {
    /// Where to send it.
    pub to: Destination,
    /// What to send.
    pub payload: DirectoryPayload,
}

/// The membership-plane wire payloads (codec tags 4–9).
#[derive(Debug, Clone, PartialEq)]
pub enum DirectoryPayload {
    /// A NEWSCAST view exchange (tags 4/5 full, 8/9 delta): the sender's
    /// view — or just the part the partner is believed to lack — plus a
    /// fresh self-descriptor. `reply` distinguishes the passive answer.
    View {
        /// Exchanged view contents.
        view: ViewPayload,
        /// `true` for the passive side's answer.
        reply: bool,
        /// `true` when the payload is a delta (tags 8/9): the receiver
        /// merges it into its record of the sender instead of replacing.
        delta: bool,
    },
    /// Bootstrap request (tag 6): "introduce me to the overlay".
    Join {
        /// The joiner's identifier.
        from: u32,
    },
    /// Bootstrap response (tag 7): a snapshot of the introducer's view,
    /// with addresses where the introducer knows them.
    Introduce {
        /// The introducer's identifier.
        from: u32,
        /// Snapshot entries (the introducer's view + itself).
        peers: Vec<IntroduceEntry>,
    },
}

/// One entry of an [`DirectoryPayload::Introduce`] snapshot: a membership
/// descriptor plus the peer's socket address, when known. Address-routed
/// embeddings use the address to seed their books; id-routed embeddings
/// (the mux runtime, which resolves addresses through its peer table)
/// leave it `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntroduceEntry {
    /// Described node.
    pub node: u32,
    /// Freshness timestamp of the descriptor.
    pub timestamp: u32,
    /// The node's socket address, if the introducer knows it.
    pub addr: Option<SocketAddr>,
}

/// How many descriptors a directory will piggyback per aggregation
/// datagram. Small on purpose: the trailer rides traffic that is already
/// paying a header, so a few descriptors per datagram compound quickly
/// without ever doubling a datagram's size.
pub const PIGGYBACK_BUDGET: usize = 3;

/// A membership trailer attached to an aggregation datagram (codec tag
/// 10): a few descriptors the destination is believed to lack, plus the
/// senders' addresses for them where known (address-routed embeddings
/// only — this is how address books spread without introducer re-joins).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Piggyback {
    /// The sending node's membership identifier.
    pub from: u32,
    /// Descriptors worth forwarding to this destination.
    pub descriptors: Vec<Descriptor>,
    /// Socket addresses for a subset of the descriptors' nodes.
    pub addrs: Vec<(u32, SocketAddr)>,
}

/// A membership service below the aggregation plane.
///
/// Extends [`PeerSampler`] — `draw_peer` *is* `GETNEIGHBOR()` — with the
/// machinery a real network needs: address resolution, its own timers,
/// and its own wire traffic.
pub trait PeerDirectory: PeerSampler + Send + fmt::Debug {
    /// Earliest tick at which [`poll`](Self::poll) wants to run again
    /// (`u64::MAX` when the directory is purely passive).
    fn next_deadline(&self) -> u64 {
        u64::MAX
    }

    /// Advances the directory's timers to `now`, pushing any membership
    /// datagrams to transmit into `out`.
    fn poll(&mut self, now: u64, out: &mut Vec<DirectoryMessage>) {
        let _ = (now, out);
    }

    /// Processes an incoming membership datagram. `src` is the datagram's
    /// source address when the embedding knows it (thread-per-node
    /// runtime); responses are pushed into `out`.
    fn handle(
        &mut self,
        payload: &DirectoryPayload,
        src: Option<SocketAddr>,
        now: u64,
        out: &mut Vec<DirectoryMessage>,
    );

    /// Resolves a peer's socket address, or `None` when the embedding
    /// routes by identifier (the mux runtime's peer table) or the address
    /// is simply unknown.
    fn addr_of(&self, peer: NodeId) -> Option<SocketAddr> {
        let _ = peer;
        None
    }

    /// Records that a datagram from `from` arrived from `src` — passive
    /// address learning, the UDP equivalent of reading the envelope.
    fn observe(&mut self, from: NodeId, src: SocketAddr) {
        let _ = (from, src);
    }

    /// A membership trailer worth attaching to an aggregation datagram
    /// headed to `to` right now, or `None` when the destination already
    /// knows everything worth telling (the common steady-state case — the
    /// embedding then sends a plain aggregation frame).
    fn piggyback(&mut self, to: NodeId, now: u64) -> Option<Piggyback> {
        let _ = (to, now);
        None
    }

    /// Absorbs a piggybacked membership trailer received alongside an
    /// aggregation message.
    fn absorb_piggyback(&mut self, piggyback: &Piggyback, src: Option<SocketAddr>, now: u64) {
        let _ = (piggyback, src, now);
    }

    /// How many times this directory re-sent its bootstrap `Join` after
    /// the first attempt went unanswered (0 for directories that never
    /// join). Surfaced in `TrafficCounts` so a lossy bootstrap path shows
    /// up in metrics instead of as a silent hang.
    fn join_retries(&self) -> u64 {
        0
    }

    /// Enables protocol event tracing on the membership plane (join
    /// retries, piggyback emissions, view merges). Directories without a
    /// membership plane ignore it.
    fn set_trace_capacity(&mut self, capacity: usize) {
        let _ = capacity;
    }

    /// Drains the directory's recorded trace events (empty unless tracing
    /// was enabled via [`PeerDirectory::set_trace_capacity`]).
    fn take_trace(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// A snapshot of the partial view's health, or `None` for directories
    /// without a membership plane. Descriptor freshness stands in for
    /// liveness on the wire: an entry is counted dead when its timestamp
    /// lags `now` by more than [`STALE_VIEW_CYCLES`] gossip periods.
    fn view_health(&self, now: u64) -> Option<ViewHealth> {
        let _ = now;
        None
    }
}

/// How many gossip periods a view descriptor may lag `now` before the
/// wire-side health snapshot ([`PeerDirectory::view_health`]) counts it as
/// dead. NEWSCAST refreshes every live node's descriptor once per cycle in
/// expectation, so a lag of several periods marks a node that stopped
/// gossiping rather than one that is merely unlucky.
pub const STALE_VIEW_CYCLES: u64 = 8;

/// `Box<dyn PeerDirectory>` is itself a sampler (stand-in for `dyn`
/// upcasting, unavailable at this crate's MSRV), so runtimes can pass
/// their boxed directory straight to `GossipNode::poll_sampler`.
impl PeerSampler for Box<dyn PeerDirectory> {
    fn draw_peer(&mut self) -> Option<NodeId> {
        (**self).draw_peer()
    }
}

/// …and a directory: the type a [`NodeStack`](crate::stack::NodeStack)
/// holds when its embedding picks the directory at run time.
impl PeerDirectory for Box<dyn PeerDirectory> {
    fn next_deadline(&self) -> u64 {
        (**self).next_deadline()
    }
    fn poll(&mut self, now: u64, out: &mut Vec<DirectoryMessage>) {
        (**self).poll(now, out);
    }
    fn handle(
        &mut self,
        payload: &DirectoryPayload,
        src: Option<SocketAddr>,
        now: u64,
        out: &mut Vec<DirectoryMessage>,
    ) {
        (**self).handle(payload, src, now, out);
    }
    fn addr_of(&self, peer: NodeId) -> Option<SocketAddr> {
        (**self).addr_of(peer)
    }
    fn observe(&mut self, from: NodeId, src: SocketAddr) {
        (**self).observe(from, src);
    }
    fn piggyback(&mut self, to: NodeId, now: u64) -> Option<Piggyback> {
        (**self).piggyback(to, now)
    }
    fn absorb_piggyback(&mut self, piggyback: &Piggyback, src: Option<SocketAddr>, now: u64) {
        (**self).absorb_piggyback(piggyback, src, now);
    }
    fn join_retries(&self) -> u64 {
        (**self).join_retries()
    }
    fn set_trace_capacity(&mut self, capacity: usize) {
        (**self).set_trace_capacity(capacity);
    }
    fn take_trace(&mut self) -> Vec<TraceEvent> {
        (**self).take_trace()
    }
    fn view_health(&self, now: u64) -> Option<ViewHealth> {
        (**self).view_health(now)
    }
}

/// Draws a uniformly random peer among `n` nodes, excluding `me`.
/// Returns `None` when the node is alone.
///
/// Shared by every runtime through [`StaticDirectory`]: combined with
/// lazy selection (`GossipNode::poll_with`), a node's peer sequence is a
/// deterministic function of `(seed, id, initiated-exchange count)` — the
/// property the cross-runtime parity tests rely on.
pub(crate) fn uniform_peer(rng: &mut Xoshiro256, n: usize, me: usize) -> Option<NodeId> {
    if n <= 1 {
        return None;
    }
    let raw = rng.index(n - 1);
    let p = if raw >= me { raw + 1 } else { raw };
    Some(NodeId::new(p as u64))
}

/// The classic static peer table: every node knows every other node out
/// of band, `GETNEIGHBOR()` draws uniformly from the table.
#[derive(Debug)]
pub struct StaticDirectory {
    me: usize,
    n: usize,
    rng: Xoshiro256,
    /// Peer addresses in id order; `None` in id-routed embeddings.
    addrs: Option<Arc<Vec<SocketAddr>>>,
}

impl StaticDirectory {
    /// A static directory for an id-routed embedding (the mux runtime):
    /// draws over `0..n`, never resolves addresses.
    pub fn id_routed(n: usize, me: NodeId, seed: u64) -> Self {
        StaticDirectory {
            me: me.index(),
            n,
            rng: Xoshiro256::stream(seed ^ DRAW_SEED_SALT, me.as_u64()),
            addrs: None,
        }
    }

    /// A static directory over an explicit address table (the
    /// thread-per-node runtime): node `i`'s address is `peers[i]`.
    pub fn addr_routed(peers: Arc<Vec<SocketAddr>>, me: NodeId, seed: u64) -> Self {
        StaticDirectory {
            me: me.index(),
            n: peers.len(),
            rng: Xoshiro256::stream(seed ^ DRAW_SEED_SALT, me.as_u64()),
            addrs: Some(peers),
        }
    }
}

impl PeerSampler for StaticDirectory {
    fn draw_peer(&mut self) -> Option<NodeId> {
        uniform_peer(&mut self.rng, self.n, self.me)
    }
}

impl PeerDirectory for StaticDirectory {
    fn handle(
        &mut self,
        _payload: &DirectoryPayload,
        _src: Option<SocketAddr>,
        _now: u64,
        _out: &mut Vec<DirectoryMessage>,
    ) {
        // A static table has no membership plane; stray view traffic
        // (e.g. from a misconfigured peer) is dropped.
    }

    fn addr_of(&self, peer: NodeId) -> Option<SocketAddr> {
        self.addrs
            .as_ref()
            .and_then(|a| a.get(peer.index()).copied())
    }
}

/// How a [`GossipDirectory`] finds the running overlay at start-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Introducer {
    /// An introducer known by node id (resolvable via the mux peer
    /// table, or via a thread-runtime address plan at build time).
    Node(u64),
    /// An introducer known only by socket address (true out-of-band
    /// bootstrap).
    Addr(SocketAddr),
}

/// Configuration of a [`GossipDirectory`].
#[derive(Debug, Clone)]
pub struct GossipDirectoryConfig {
    /// NEWSCAST view size `c`.
    pub view_size: usize,
    /// Membership gossip period in milliseconds.
    pub cycle_length: u64,
    /// Bootstrap contacts. Nodes that are themselves introducers simply
    /// wait to be joined.
    pub introducers: Vec<Introducer>,
    /// Gossip view deltas (tags 8/9) instead of full views every cycle.
    /// On by default; [`GossipDirectoryConfig::with_full_views`] restores
    /// the always-full-view wire behavior for A/B comparison.
    pub delta_views: bool,
    /// Delta-knowledge LRU capacity: how many recent partners each node
    /// remembers what it told. Deltas degrade to full views for partners
    /// outside this horizon, so size it near the expected overlay size
    /// when memory allows (~350 B per tracked partner).
    pub knowledge_peers: usize,
}

impl GossipDirectoryConfig {
    /// A config with the given view size and gossip period and no
    /// introducers yet. Delta view gossip is on.
    pub fn new(view_size: usize, cycle_length: u64) -> Self {
        GossipDirectoryConfig {
            view_size,
            cycle_length,
            introducers: Vec::new(),
            delta_views: true,
            knowledge_peers: MembershipConfig::new(view_size, cycle_length).knowledge_peers,
        }
    }

    /// Ships full views every exchange (tags 4/5 only, no piggybacked
    /// trailers) — the pre-delta wire behavior, kept for byte-overhead
    /// A/B measurements.
    pub fn with_full_views(mut self) -> Self {
        self.delta_views = false;
        self
    }

    /// Sets the delta-knowledge LRU capacity (see
    /// [`GossipDirectoryConfig::knowledge_peers`]).
    pub fn with_knowledge_peers(mut self, peers: usize) -> Self {
        self.knowledge_peers = peers;
        self
    }

    /// Adds an introducer known by node id.
    pub fn with_introducer_node(mut self, id: u64) -> Self {
        self.introducers.push(Introducer::Node(id));
        self
    }

    /// Adds an introducer known by socket address.
    pub fn with_introducer_addr(mut self, addr: SocketAddr) -> Self {
        self.introducers.push(Introducer::Addr(addr));
        self
    }

    /// Checks the bootstrap contacts against a cluster of `n` nodes, so a
    /// misconfiguration fails the spawn instead of leaving a cluster that
    /// silently never exchanges: with no introducer nobody ever joins
    /// anybody, and a join aimed at a node outside the cluster goes
    /// nowhere.
    pub(crate) fn check_introducers(&self, n: usize) -> io::Result<()> {
        let invalid = |reason: String| Err(io::Error::new(io::ErrorKind::InvalidInput, reason));
        if self.introducers.is_empty() {
            return invalid("gossip directory needs at least one introducer".into());
        }
        for intro in &self.introducers {
            if let Introducer::Node(id) = *intro {
                if id >= n as u64 {
                    return invalid(format!(
                        "introducer node {id} outside the cluster (n = {n})"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// NEWSCAST-gossiped membership: `GETNEIGHBOR()` from a live partial
/// view, no static peer table anywhere.
#[derive(Debug)]
pub struct GossipDirectory {
    me: u32,
    membership: MembershipNode,
    /// Bootstrap contacts (self already filtered out).
    introducers: Vec<Destination>,
    /// Learned id → address book; `None` in id-routed embeddings.
    addrs: Option<HashMap<u32, SocketAddr>>,
    /// Our own address, included in introduction snapshots we hand out
    /// (address-routed embeddings only).
    my_addr: Option<SocketAddr>,
    /// Next tick at which an (re-)join may fire.
    next_join_at: u64,
    join_interval: u64,
    /// Join datagrams sent so far (0 until the first fires). Attempt `k`
    /// targets introducer `(k-1) / JOIN_ROTATE_EVERY` (mod the list), so
    /// a dead or partitioned first introducer is routed around instead of
    /// retried forever.
    join_attempts: u64,
    /// Directory-plane trace ring (join retries, piggyback emissions);
    /// disabled (capacity 0) unless the embedding opts in.
    trace: TraceRing,
}

/// Consecutive join attempts aimed at one introducer before rotating to
/// the next (second-introducer fallback for lossy or dead introducers).
const JOIN_ROTATE_EVERY: u64 = 3;

/// Cap on the join backoff exponent: retries back off `1×, 2×, 4×, 8×`
/// the join interval and then stay at `8×`.
const JOIN_BACKOFF_CAP: u32 = 3;

impl GossipDirectory {
    /// A gossip directory for an id-routed embedding (the mux runtime):
    /// all peers are reachable by id, no address book is kept.
    pub fn id_routed(me: NodeId, config: &GossipDirectoryConfig, seed: u64) -> Self {
        Self::build(me, config, seed, None)
    }

    /// A gossip directory that learns peer addresses itself (the
    /// thread-per-node runtime): from join sources, introduction
    /// snapshots, and passively from every incoming datagram.
    pub fn addr_routed(
        me: NodeId,
        my_addr: SocketAddr,
        config: &GossipDirectoryConfig,
        seed: u64,
    ) -> Self {
        Self::build(me, config, seed, Some(my_addr))
    }

    fn build(
        me: NodeId,
        config: &GossipDirectoryConfig,
        seed: u64,
        my_addr: Option<SocketAddr>,
    ) -> Self {
        let id = me.as_u64() as u32;
        let membership = MembershipNode::new(
            id,
            MembershipConfig {
                view_size: config.view_size,
                cycle_length: config.cycle_length,
                delta_views: config.delta_views,
                knowledge_peers: config.knowledge_peers,
            },
            seed ^ GOSSIP_SEED_SALT,
        );
        let introducers = config
            .introducers
            .iter()
            .filter_map(|intro| match *intro {
                Introducer::Node(n) if n == me.as_u64() => None,
                Introducer::Node(n) => Some(Destination::Node(NodeId::new(n))),
                Introducer::Addr(a) if Some(a) == my_addr => None,
                Introducer::Addr(a) => Some(Destination::Addr(a)),
            })
            .collect();
        GossipDirectory {
            me: id,
            membership,
            introducers,
            addrs: my_addr.map(|_| HashMap::new()),
            my_addr,
            next_join_at: 0,
            join_interval: config.cycle_length.max(1),
            join_attempts: 0,
            trace: TraceRing::disabled(),
        }
    }

    /// The live partial view (for tests and metrics).
    pub fn view(&self) -> &epidemic_newscast::View {
        self.membership.view()
    }

    /// Registers a contact known out of band (Section 4.2) — how an
    /// embedding that founds a whole overlay at once gives every member
    /// its initial view without a join round.
    pub fn add_seed(&mut self, peer: u32, now: u64) {
        self.membership.add_seed(peer, now);
    }

    fn learn(&mut self, peer: u32, addr: SocketAddr) {
        if peer == self.me {
            return;
        }
        if let Some(book) = &mut self.addrs {
            book.insert(peer, addr);
        }
    }

    fn lookup(&self, peer: u32) -> Option<SocketAddr> {
        if peer == self.me {
            return self.my_addr;
        }
        self.addrs
            .as_ref()
            .and_then(|book| book.get(&peer).copied())
    }

    /// `true` while the node should (re-)contact an introducer: its view
    /// is empty, or (address-routed only) it holds view entries whose
    /// address it cannot resolve yet.
    fn wants_join(&self) -> bool {
        if self.introducers.is_empty() {
            return false;
        }
        if self.membership.view().is_empty() {
            return true;
        }
        match &self.addrs {
            Some(book) => self
                .membership
                .view()
                .entries()
                .iter()
                .any(|d| !book.contains_key(&d.node)),
            None => false,
        }
    }

    /// The destination to answer `from` at: the datagram's source address
    /// when we route by address, the sender id otherwise.
    fn reply_dest(&self, src: Option<SocketAddr>, from: u32) -> Destination {
        match (self.addrs.is_some(), src) {
            (true, Some(addr)) => Destination::Addr(addr),
            _ => Destination::Node(NodeId::new(u64::from(from))),
        }
    }

    fn record(&mut self, kind: TraceKind, peer: Option<u64>, detail: u64) {
        if !self.trace.is_enabled() {
            return;
        }
        self.trace.record(TraceEvent {
            node: u64::from(self.me),
            kind,
            epoch: 0,
            cycle: 0,
            peer,
            detail,
        });
    }
}

impl PeerSampler for GossipDirectory {
    fn draw_peer(&mut self) -> Option<NodeId> {
        // In address-routed mode a view entry learned by gossip may not
        // have a resolvable address yet; skip those (bounded retries so a
        // draw never loops). Re-joins refresh the book over time.
        let attempts = self.membership.view().len().max(1);
        for _ in 0..attempts {
            let peer = self.membership.sample_peer()?;
            if self.addrs.is_none() || self.lookup(peer).is_some() {
                return Some(NodeId::new(u64::from(peer)));
            }
        }
        None
    }
}

impl PeerDirectory for GossipDirectory {
    fn next_deadline(&self) -> u64 {
        let mut deadline = self.membership.next_cycle_at();
        if self.wants_join() {
            deadline = deadline.min(self.next_join_at);
        }
        deadline
    }

    fn poll(&mut self, now: u64, out: &mut Vec<DirectoryMessage>) {
        if self.wants_join() && now >= self.next_join_at {
            // One introducer per attempt, rotating every JOIN_ROTATE_EVERY
            // tries, with exponential backoff: a lost Join datagram costs
            // one interval, a dead introducer a few, and a stable overlay
            // is never spammed with duplicate bootstrap traffic.
            let pick = (self.join_attempts / JOIN_ROTATE_EVERY) as usize % self.introducers.len();
            let backoff = self.join_attempts.min(u64::from(JOIN_BACKOFF_CAP));
            self.join_attempts += 1;
            self.next_join_at = now + (self.join_interval << backoff);
            let to = self.introducers[pick];
            if self.join_attempts > 1 {
                let peer = match to {
                    Destination::Node(n) => Some(n.as_u64()),
                    Destination::Addr(_) => None,
                };
                self.record(TraceKind::JoinRetry, peer, self.join_attempts - 1);
            }
            out.push(DirectoryMessage {
                to,
                payload: DirectoryPayload::Join { from: self.me },
            });
        }
        if let Some((peer, view, full)) = self.membership.poll_exchange(now) {
            // An unreachable partner would waste the cycle; prefer a
            // reachable one when routing by address.
            let reachable = self.addrs.is_none() || self.lookup(peer).is_some();
            if reachable {
                out.push(DirectoryMessage {
                    to: Destination::Node(NodeId::new(u64::from(peer))),
                    payload: DirectoryPayload::View {
                        view,
                        reply: false,
                        delta: !full,
                    },
                });
            }
        }
    }

    fn handle(
        &mut self,
        payload: &DirectoryPayload,
        src: Option<SocketAddr>,
        now: u64,
        out: &mut Vec<DirectoryMessage>,
    ) {
        match payload {
            DirectoryPayload::Join { from } => {
                if *from == self.me {
                    return;
                }
                if let Some(addr) = src {
                    self.learn(*from, addr);
                }
                // The joiner becomes part of the overlay immediately…
                self.membership.add_seed(*from, now);
                // …and receives a snapshot of our view (plus ourselves).
                let snapshot = self.membership.view_payload(now);
                let peers = snapshot
                    .descriptors
                    .iter()
                    .map(|d| IntroduceEntry {
                        node: d.node,
                        timestamp: d.timestamp,
                        addr: self.lookup(d.node),
                    })
                    .collect();
                out.push(DirectoryMessage {
                    to: self.reply_dest(src, *from),
                    payload: DirectoryPayload::Introduce {
                        from: self.me,
                        peers,
                    },
                });
            }
            DirectoryPayload::Introduce { from, peers } => {
                if let Some(addr) = src {
                    self.learn(*from, addr);
                }
                let mut descriptors = Vec::with_capacity(peers.len());
                for entry in peers {
                    if let Some(addr) = entry.addr {
                        self.learn(entry.node, addr);
                    }
                    descriptors.push(Descriptor::new(entry.node, entry.timestamp));
                }
                self.membership.bootstrap(&descriptors);
            }
            DirectoryPayload::View { view, reply, delta } => {
                if let Some(addr) = src {
                    self.learn(view.from, addr);
                }
                if *reply {
                    self.membership.absorb_reply_delta(view, !*delta, now);
                } else {
                    let (answer, full) = self.membership.handle_exchange_delta(view, !*delta, now);
                    out.push(DirectoryMessage {
                        to: self.reply_dest(src, view.from),
                        payload: DirectoryPayload::View {
                            view: answer,
                            reply: true,
                            delta: !full,
                        },
                    });
                }
            }
        }
    }

    fn addr_of(&self, peer: NodeId) -> Option<SocketAddr> {
        self.lookup(peer.as_u64() as u32)
    }

    fn observe(&mut self, from: NodeId, src: SocketAddr) {
        self.learn(from.as_u64() as u32, src);
    }

    fn piggyback(&mut self, to: NodeId, now: u64) -> Option<Piggyback> {
        let peer = to.as_u64() as u32;
        let descriptors = self
            .membership
            .piggyback_descriptors(peer, now, PIGGYBACK_BUDGET);
        if descriptors.is_empty() {
            return None;
        }
        // Address-routed embeddings attach the addresses they know for the
        // picked nodes (lookup of our own id yields our own address, so a
        // piggybacked self-descriptor spreads our address book entry too).
        let addrs = if self.addrs.is_some() {
            descriptors
                .iter()
                .filter_map(|d| self.lookup(d.node).map(|a| (d.node, a)))
                .collect()
        } else {
            Vec::new()
        };
        self.record(
            TraceKind::PiggybackEmit,
            Some(to.as_u64()),
            descriptors.len() as u64,
        );
        Some(Piggyback {
            from: self.me,
            descriptors,
            addrs,
        })
    }

    fn absorb_piggyback(&mut self, piggyback: &Piggyback, src: Option<SocketAddr>, now: u64) {
        if piggyback.from == self.me {
            return;
        }
        if let Some(addr) = src {
            self.learn(piggyback.from, addr);
        }
        for &(node, addr) in &piggyback.addrs {
            self.learn(node, addr);
        }
        self.membership
            .absorb_descriptors(piggyback.from, &piggyback.descriptors, now);
    }

    fn join_retries(&self) -> u64 {
        self.join_attempts.saturating_sub(1)
    }

    fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace.set_capacity(capacity);
        self.membership.set_trace_capacity(capacity);
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        let mut events = self.trace.drain();
        events.extend(self.membership.take_trace());
        events
    }

    fn view_health(&self, now: u64) -> Option<ViewHealth> {
        let entries = self.membership.view().entries();
        let stale_bound = (now as u32).saturating_sub(
            (STALE_VIEW_CYCLES * self.join_interval).min(u64::from(u32::MAX)) as u32,
        );
        let dead = entries.iter().filter(|d| d.timestamp < stale_bound).count();
        Some(ViewHealth {
            views: 1,
            mean_size: entries.len() as f64,
            dead_entry_fraction: if entries.is_empty() {
                0.0
            } else {
                dead as f64 / entries.len() as f64
            },
        })
    }
}

/// Which [`PeerDirectory`] a cluster config builds for each of its nodes.
#[derive(Debug, Clone, Default)]
pub enum DirectorySpec {
    /// A [`StaticDirectory`] over the cluster's peer table.
    #[default]
    Static,
    /// A [`GossipDirectory`] per node.
    Gossip(GossipDirectoryConfig),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gossip_config(introducer: u64) -> GossipDirectoryConfig {
        GossipDirectoryConfig::new(8, 50).with_introducer_node(introducer)
    }

    /// Drives `msg` into the addressed directory (out of `dirs`, indexed
    /// by id), returning any responses.
    fn deliver(
        dirs: &mut [GossipDirectory],
        msg: &DirectoryMessage,
        now: u64,
    ) -> Vec<DirectoryMessage> {
        let Destination::Node(to) = msg.to else {
            panic!("id-routed test sent to an address: {msg:?}");
        };
        let mut out = Vec::new();
        dirs[to.index()].handle(&msg.payload, None, now, &mut out);
        out
    }

    #[test]
    fn static_directory_draws_the_shared_uniform_stream() {
        let seed = 42;
        let mut dir = StaticDirectory::id_routed(16, NodeId::new(3), seed);
        let mut rng = Xoshiro256::stream(seed ^ DRAW_SEED_SALT, 3);
        for _ in 0..64 {
            assert_eq!(dir.draw_peer(), uniform_peer(&mut rng, 16, 3));
        }
    }

    #[test]
    fn static_directory_alone_draws_none() {
        let mut dir = StaticDirectory::id_routed(1, NodeId::new(0), 1);
        assert_eq!(dir.draw_peer(), None);
    }

    #[test]
    fn static_directory_resolves_table_addresses() {
        let peers: Arc<Vec<SocketAddr>> = Arc::new(vec![
            "127.0.0.1:9001".parse().unwrap(),
            "127.0.0.1:9002".parse().unwrap(),
        ]);
        let dir = StaticDirectory::addr_routed(Arc::clone(&peers), NodeId::new(0), 1);
        assert_eq!(dir.addr_of(NodeId::new(1)), Some(peers[1]));
        assert_eq!(dir.addr_of(NodeId::new(7)), None);

        let id_routed = StaticDirectory::id_routed(2, NodeId::new(0), 1);
        assert_eq!(id_routed.addr_of(NodeId::new(1)), None);
    }

    #[test]
    fn join_introduce_bootstraps_an_id_routed_pair() {
        let mut dirs = vec![
            GossipDirectory::id_routed(NodeId::new(0), &gossip_config(0), 7),
            GossipDirectory::id_routed(NodeId::new(1), &gossip_config(0), 7),
        ];
        // Node 1 wants to join (empty view, knows introducer 0); node 0
        // is the introducer and never joins.
        assert!(dirs[1].wants_join());
        assert!(!dirs[0].wants_join());

        let mut out = Vec::new();
        dirs[1].poll(0, &mut out);
        let join = out
            .iter()
            .find(|m| matches!(m.payload, DirectoryPayload::Join { .. }))
            .expect("join sent")
            .clone();
        assert_eq!(join.to, Destination::Node(NodeId::new(0)));

        // Introducer absorbs the joiner and answers with a snapshot.
        let responses = deliver(&mut dirs, &join, 1);
        assert!(dirs[0].view().contains(1));
        assert_eq!(responses.len(), 1);
        assert!(matches!(
            responses[0].payload,
            DirectoryPayload::Introduce { from: 0, .. }
        ));

        // The joiner bootstraps from the snapshot: it now knows node 0.
        deliver(&mut dirs, &responses[0], 2);
        assert!(dirs[1].view().contains(0));
        assert!(!dirs[1].wants_join(), "bootstrapped node keeps joining");
        assert_eq!(dirs[1].draw_peer(), Some(NodeId::new(0)));
    }

    #[test]
    fn view_gossip_flows_between_bootstrapped_directories() {
        let mut dirs = vec![
            GossipDirectory::id_routed(NodeId::new(0), &gossip_config(0), 3),
            GossipDirectory::id_routed(NodeId::new(1), &gossip_config(0), 3),
            GossipDirectory::id_routed(NodeId::new(2), &gossip_config(0), 3),
        ];
        // Bootstrap 1 and 2 through the introducer, then gossip for a
        // few cycles; everyone ends up knowing everyone.
        let mut inflight: Vec<DirectoryMessage> = Vec::new();
        for t in 0..40u64 {
            let now = t * 25;
            for dir in dirs.iter_mut() {
                dir.poll(now, &mut inflight);
            }
            while let Some(msg) = inflight.pop() {
                let responses = deliver(&mut dirs, &msg, now);
                inflight.extend(responses);
            }
        }
        for dir in &dirs {
            assert_eq!(dir.view().len(), 2, "node {} view incomplete", dir.me);
        }
    }

    #[test]
    fn addr_routed_directory_learns_and_serves_addresses() {
        let intro_addr: SocketAddr = "127.0.0.1:7000".parse().unwrap();
        let joiner_addr: SocketAddr = "127.0.0.1:7001".parse().unwrap();
        let config = GossipDirectoryConfig::new(8, 50).with_introducer_addr(intro_addr);
        let mut introducer = GossipDirectory::addr_routed(NodeId::new(0), intro_addr, &config, 5);
        let mut joiner = GossipDirectory::addr_routed(NodeId::new(1), joiner_addr, &config, 5);

        let mut out = Vec::new();
        joiner.poll(0, &mut out);
        let join = out.pop().expect("join sent");
        assert_eq!(join.to, Destination::Addr(intro_addr));

        // The introducer learns the joiner's address from the datagram
        // source and answers at that source.
        let mut responses = Vec::new();
        introducer.handle(&join.payload, Some(joiner_addr), 1, &mut responses);
        assert_eq!(introducer.addr_of(NodeId::new(1)), Some(joiner_addr));
        assert_eq!(responses[0].to, Destination::Addr(joiner_addr));

        // The snapshot carries the introducer's own address.
        joiner.handle(&responses[0].payload, Some(intro_addr), 2, &mut Vec::new());
        assert_eq!(joiner.addr_of(NodeId::new(0)), Some(intro_addr));
        assert_eq!(joiner.draw_peer(), Some(NodeId::new(0)));
    }

    #[test]
    fn draw_peer_skips_unresolvable_entries() {
        let my_addr: SocketAddr = "127.0.0.1:7002".parse().unwrap();
        let config = GossipDirectoryConfig::new(8, 50);
        let mut dir = GossipDirectory::addr_routed(NodeId::new(9), my_addr, &config, 1);
        // A view entry learned by gossip, address unknown.
        dir.handle(
            &DirectoryPayload::Introduce {
                from: 3,
                peers: vec![IntroduceEntry {
                    node: 4,
                    timestamp: 10,
                    addr: None,
                }],
            },
            None,
            0,
            &mut Vec::new(),
        );
        assert!(dir.view().contains(4));
        assert_eq!(dir.draw_peer(), None, "drew an unreachable peer");
        // Resolving the address makes the peer drawable.
        dir.observe(NodeId::new(4), "127.0.0.1:7003".parse().unwrap());
        assert_eq!(dir.draw_peer(), Some(NodeId::new(4)));
    }

    #[test]
    fn join_retry_is_paced_by_the_deadline() {
        let config = gossip_config(0);
        let mut dir = GossipDirectory::id_routed(NodeId::new(5), &config, 2);
        assert_eq!(dir.next_deadline(), 0, "initial join not scheduled");
        let mut out = Vec::new();
        dir.poll(0, &mut out);
        assert_eq!(out.len(), 1);
        // Still unbootstrapped: the retry waits one join interval.
        assert!(dir.next_deadline() >= 1);
        out.clear();
        dir.poll(10, &mut out);
        assert!(out.is_empty(), "re-joined before the interval elapsed");
        dir.poll(60, &mut out); // one join interval (50 ms) later
        assert!(!out.is_empty(), "retry never fired");
    }

    #[test]
    fn join_retry_backs_off_and_rotates_introducers() {
        let config = GossipDirectoryConfig::new(8, 50)
            .with_introducer_node(0)
            .with_introducer_node(1);
        let mut dir = GossipDirectory::id_routed(NodeId::new(5), &config, 2);
        assert_eq!(dir.join_retries(), 0);

        let joins_at = |dir: &mut GossipDirectory, now: u64| -> Vec<Destination> {
            let mut out = Vec::new();
            dir.poll(now, &mut out);
            out.iter()
                .filter(|m| matches!(m.payload, DirectoryPayload::Join { .. }))
                .map(|m| m.to)
                .collect()
        };

        // Attempts 1–3 target introducer 0 at backoffs 1×, 2×, 4× the
        // join interval (t = 0, 50, 150, 350); attempt 4 rotates to
        // introducer 1.
        let mut dests = Vec::new();
        for at in [0u64, 50, 150, 350] {
            if at > 0 {
                assert!(
                    joins_at(&mut dir, at - 1).is_empty(),
                    "joined before the backoff elapsed (t = {at})"
                );
            }
            let joins = joins_at(&mut dir, at);
            assert_eq!(joins.len(), 1, "one join per attempt (t = {at})");
            dests.push(joins[0]);
        }
        let node = |id: u64| Destination::Node(NodeId::new(id));
        assert_eq!(dests, vec![node(0), node(0), node(0), node(1)]);
        assert_eq!(dir.join_retries(), 3);
        // The backoff caps at 8×: attempts 5 and 6 fire 400 ms apart.
        assert_eq!(joins_at(&mut dir, 750).len(), 1);
        assert!(joins_at(&mut dir, 1_149).is_empty());
        assert_eq!(joins_at(&mut dir, 1_150).len(), 1);
        // A successful bootstrap stops the retries cold.
        dir.handle(
            &DirectoryPayload::Introduce {
                from: 1,
                peers: vec![IntroduceEntry {
                    node: 1,
                    timestamp: 9,
                    addr: None,
                }],
            },
            None,
            1_200,
            &mut Vec::new(),
        );
        assert!(!dir.wants_join());
    }

    /// Runs the id-routed gossip loop for `rounds` cycles, returning the
    /// `(delta, descriptor_count)` of every view message that flowed.
    fn run_gossip(dirs: &mut [GossipDirectory], rounds: u64) -> Vec<(bool, usize)> {
        let mut flavors = Vec::new();
        let mut inflight: Vec<DirectoryMessage> = Vec::new();
        for t in 0..rounds {
            let now = t * 25;
            for dir in dirs.iter_mut() {
                dir.poll(now, &mut inflight);
            }
            while let Some(msg) = inflight.pop() {
                if let DirectoryPayload::View { view, delta, .. } = &msg.payload {
                    flavors.push((*delta, view.descriptors.len()));
                }
                let responses = deliver(dirs, &msg, now);
                inflight.extend(responses);
            }
        }
        flavors
    }

    #[test]
    fn delta_views_flow_once_partners_know_each_other() {
        let mut dirs = vec![
            GossipDirectory::id_routed(NodeId::new(0), &gossip_config(0), 3),
            GossipDirectory::id_routed(NodeId::new(1), &gossip_config(0), 3),
            GossipDirectory::id_routed(NodeId::new(2), &gossip_config(0), 3),
        ];
        let flavors = run_gossip(&mut dirs, 40);
        let deltas = flavors.iter().filter(|(d, _)| *d).count();
        let fulls = flavors.iter().filter(|(d, _)| !*d).count();
        assert!(deltas > 0, "no delta views in {} messages", flavors.len());
        assert!(fulls > 0, "anti-entropy full views never fired");
        // Deltas still converge to complete views.
        for dir in &dirs {
            assert_eq!(dir.view().len(), 2, "node {} view incomplete", dir.me);
        }
    }

    #[test]
    fn full_view_config_never_ships_deltas() {
        let config = gossip_config(0).with_full_views();
        let mut dirs = vec![
            GossipDirectory::id_routed(NodeId::new(0), &config, 3),
            GossipDirectory::id_routed(NodeId::new(1), &config, 3),
            GossipDirectory::id_routed(NodeId::new(2), &config, 3),
        ];
        let flavors = run_gossip(&mut dirs, 40);
        assert!(!flavors.is_empty());
        assert!(flavors.iter().all(|(delta, _)| !*delta));
        for dir in &dirs {
            assert_eq!(dir.view().len(), 2, "node {} view incomplete", dir.me);
        }
    }

    #[test]
    fn piggyback_spreads_descriptors_and_addresses_then_goes_quiet() {
        let intro_addr: SocketAddr = "127.0.0.1:7100".parse().unwrap();
        let a1: SocketAddr = "127.0.0.1:7101".parse().unwrap();
        let a2: SocketAddr = "127.0.0.1:7102".parse().unwrap();
        let config = GossipDirectoryConfig::new(8, 50).with_introducer_addr(intro_addr);
        let mut introducer = GossipDirectory::addr_routed(NodeId::new(0), intro_addr, &config, 5);
        let mut node1 = GossipDirectory::addr_routed(NodeId::new(1), a1, &config, 5);

        // Nodes 1 and 2 join; the introducer now knows both by address.
        let mut sink = Vec::new();
        introducer.handle(&DirectoryPayload::Join { from: 1 }, Some(a1), 1, &mut sink);
        introducer.handle(&DirectoryPayload::Join { from: 2 }, Some(a2), 2, &mut sink);

        // An aggregation datagram to node 1 carries the introducer's own
        // descriptor and node 2's — with addresses for both.
        let pb = introducer
            .piggyback(NodeId::new(1), 5)
            .expect("first piggyback carries news");
        let nodes: Vec<u32> = pb.descriptors.iter().map(|d| d.node).collect();
        assert!(nodes.contains(&0) && nodes.contains(&2), "picked {nodes:?}");
        assert!(!nodes.contains(&1), "told node 1 about itself");
        assert!(pb.addrs.contains(&(0, intro_addr)));
        assert!(pb.addrs.contains(&(2, a2)));

        // Node 1 absorbs it: view and address book both grow, so node 2
        // is immediately drawable without any introducer round-trip.
        node1.absorb_piggyback(&pb, Some(intro_addr), 6);
        assert!(node1.view().contains(2));
        assert_eq!(node1.addr_of(NodeId::new(2)), Some(a2));
        assert_eq!(node1.addr_of(NodeId::new(0)), Some(intro_addr));

        // Nothing new to tell node 1 → no trailer at all.
        assert!(introducer.piggyback(NodeId::new(1), 5).is_none());
    }

    #[test]
    fn id_routed_piggyback_omits_addresses() {
        let mut dirs = [
            GossipDirectory::id_routed(NodeId::new(0), &gossip_config(0), 7),
            GossipDirectory::id_routed(NodeId::new(1), &gossip_config(0), 7),
        ];
        let mut sink = Vec::new();
        dirs[0].handle(&DirectoryPayload::Join { from: 2 }, None, 1, &mut sink);
        let pb = dirs[0].piggyback(NodeId::new(1), 3).expect("news to share");
        assert!(!pb.descriptors.is_empty());
        assert!(pb.addrs.is_empty(), "id-routed trailer carried addresses");
        dirs[1].absorb_piggyback(&pb, None, 4);
        assert!(dirs[1].view().contains(2));
    }

    #[test]
    fn introducer_with_no_contacts_is_quiet() {
        let config = GossipDirectoryConfig::new(8, 50).with_introducer_node(5);
        let mut dir = GossipDirectory::id_routed(NodeId::new(5), &config, 2);
        let mut out = Vec::new();
        dir.poll(0, &mut out);
        dir.poll(1_000, &mut out);
        assert!(out.is_empty(), "self-introducer produced traffic: {out:?}");
    }
}
