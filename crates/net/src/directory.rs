//! The `GETNEIGHBOR()` seam: pluggable peer directories.
//!
//! The paper's aggregation protocol is overlay-agnostic — it only ever
//! asks the membership layer for *one random neighbor per exchange*. This
//! module makes that seam explicit: a [`PeerDirectory`] answers
//! `GETNEIGHBOR()` ([`PeerSampler::draw_peer`]) and — when the membership
//! itself is gossiped — emits and consumes its own frames through the same
//! transport as the aggregation protocol. Peers are named by node id
//! only; the embedding owns the id → socket map.
//!
//! Two implementations ship:
//!
//! * [`StaticDirectory`] — the classic static peer table. Draws are the
//!   deterministic `(seed, id, initiated-exchange count)` stream the
//!   same-seed parity tests rely on.
//! * [`GossipDirectory`] — the whole NEWSCAST node (Section 4.4): the
//!   partial view, one 16-byte watermark per recent partner and the join
//!   state, in one type. Views travel as codec tags 4/5 (full) or 8/9
//!   (deltas: only the entries stamped after the partner's watermark,
//!   with a periodic full-view anti-entropy fallback) in a
//!   [`ViewPayload`], bootstrap as
//!   [`DirectoryPayload::Join`] (tag 6) / [`DirectoryPayload::Introduce`]
//!   (tag 7): a joiner contacts an *introducer*, which answers with a
//!   snapshot of its view. Join frames are retried with exponential
//!   backoff, rotating across introducers, so a lost tag-6 frame delays
//!   bootstrap instead of stranding the node. No static peer table exists
//!   anywhere; `GETNEIGHBOR()` is served from the live partial view.
//!
//! Directories are sans-io: every embedding steps them through
//! [`NodeStack`](crate::stack::NodeStack), which polls on each wake, feeds
//! in membership frames and transmits the [`DirectoryMessage`]s that result.

use epidemic_aggregation::node::PeerSampler;
use epidemic_common::rng::Xoshiro256;
use epidemic_common::NodeId;
use epidemic_newscast::{Descriptor, View};
use epidemic_telemetry::{TraceEvent, TraceKind, TraceRing, ViewHealth};
use std::fmt;
use std::io;
use std::net::SocketAddr;

/// Salt decorrelating membership randomness from aggregation randomness
/// (both streams are derived from the cluster seed and the node id).
const GOSSIP_SEED_SALT: u64 = 0x4E45_5753; // "NEWS"

/// Salt for the static directory's peer-draw stream. Shared by every
/// embedding so that a same-seed cluster draws the same peer sequence
/// regardless of which layout hosts it.
const DRAW_SEED_SALT: u64 = 0x5EED;

/// Where a directory wants a message delivered: a node, by identifier.
/// The embedding resolves it (the mux peer table, the simulator's queue);
/// [`crate::stack::NodeStack`] unwraps it before its sink sees the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destination {
    /// A node known by identifier.
    Node(NodeId),
}

/// One membership message to transmit.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectoryMessage {
    /// Where to send it.
    pub to: Destination,
    /// What to send.
    pub payload: DirectoryPayload,
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

/// The membership-plane wire payloads (codec tags 4–9).
#[derive(Debug, Clone, PartialEq)]
pub enum DirectoryPayload {
    /// A NEWSCAST view exchange (tags 4/5 full, 8/9 delta): the sender's
    /// view — or just the entries stamped after the partner's watermark —
    /// plus a fresh self-descriptor. `reply` distinguishes the passive
    /// answer.
    View {
        /// Exchanged view contents.
        view: ViewPayload,
        /// `true` for the passive side's answer.
        reply: bool,
        /// `true` when the payload is a delta (tags 8/9). A receiver
        /// merges every payload the same way and never reads it; it
        /// prices the frame as delta bytes (`membership.delta_bytes`).
        delta: bool,
    },
    /// Bootstrap request (tag 6): "introduce me to the overlay".
    Join {
        /// The joiner's identifier.
        from: u32,
    },
    /// Bootstrap response (tag 7): a snapshot of the introducer's view.
    Introduce {
        /// The introducer's identifier.
        from: u32,
        /// Snapshot entries (the introducer's view + itself).
        peers: Vec<IntroduceEntry>,
    },
}

/// One entry of an [`DirectoryPayload::Introduce`] snapshot: a membership
/// descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntroduceEntry {
    /// Described node.
    pub node: u32,
    /// Freshness timestamp of the descriptor.
    pub timestamp: u32,
    /// Written `None` and ignored on receipt: peers are routed by id. The
    /// codec slot is kept for the wire layout.
    pub addr: Option<SocketAddr>,
}

/// A membership service below the aggregation plane.
///
/// Extends [`PeerSampler`] — `draw_peer` *is* `GETNEIGHBOR()` — with the
/// machinery a real network needs: its own wire traffic and deadlines.
pub trait PeerDirectory: PeerSampler + Send + fmt::Debug {
    /// Earliest tick at which [`poll`](Self::poll) wants to run again
    /// (`u64::MAX` when the directory is purely passive).
    fn next_deadline(&self) -> u64 {
        u64::MAX
    }

    /// Runs the active side at `now`, after the wake's peer draws, pushing
    /// any membership messages to transmit into `out`.
    fn poll(&mut self, now: u64, out: &mut Vec<DirectoryMessage>) {
        let _ = (now, out);
    }

    /// Processes an incoming membership message; responses are pushed
    /// into `out`. Every caller passes `None` for `src` and directories
    /// ignore it: peers are routed by id. The parameter stays until the
    /// benchmark ledger, which calls this method, is next changed
    /// (ROADMAP.md item 1).
    fn handle(
        &mut self,
        payload: &DirectoryPayload,
        src: Option<SocketAddr>,
        now: u64,
        out: &mut Vec<DirectoryMessage>,
    );

    /// How many times this directory re-sent its bootstrap `Join` after
    /// the first attempt went unanswered (0 for directories that never
    /// join). Surfaced in `TrafficCounts` so a lossy bootstrap path shows
    /// up in metrics instead of as a silent hang.
    fn join_retries(&self) -> u64 {
        0
    }

    /// Enables protocol event tracing on the membership plane (join
    /// retries, view merges). Directories without a membership plane
    /// ignore it.
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
/// Shared by every layout through [`StaticDirectory`]: combined with
/// lazy selection (`GossipNode::poll_with`), a node's peer sequence is a
/// deterministic function of `(seed, id, initiated-exchange count)` — the
/// property the same-seed parity tests rely on.
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
}

impl StaticDirectory {
    /// A static directory over the node ids `0..n`.
    pub fn id_routed(n: usize, me: NodeId, seed: u64) -> Self {
        StaticDirectory {
            me: me.index(),
            n,
            rng: Xoshiro256::stream(seed ^ DRAW_SEED_SALT, me.as_u64()),
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
}

/// Configuration of a [`GossipDirectory`].
#[derive(Debug, Clone)]
pub struct GossipDirectoryConfig {
    /// NEWSCAST view size `c`.
    pub view_size: usize,
    /// Least spacing of view requests in ticks (also the join interval).
    /// Requests ride exchanges, so it rounds up to a multiple of δ.
    pub cycle_length: u64,
    /// Bootstrap contacts, by node id. Nodes that are themselves
    /// introducers simply wait to be joined.
    pub introducers: Vec<u64>,
    /// Gossip view deltas (tags 8/9) instead of full views every cycle.
    /// On by default; [`GossipDirectoryConfig::with_full_views`] restores
    /// the always-full-view wire behavior for A/B comparison.
    pub delta_views: bool,
    /// Delta-knowledge LRU capacity: how many recent partners each node
    /// keeps a watermark for. Deltas degrade to full views for partners
    /// outside this horizon, so size it near the expected overlay size
    /// (16 B per tracked partner, no heap).
    pub knowledge_peers: usize,
}

impl GossipDirectoryConfig {
    /// A config with the given view size and least view-request spacing
    /// and no introducers yet. Delta view gossip is on.
    pub fn new(view_size: usize, cycle_length: u64) -> Self {
        GossipDirectoryConfig {
            view_size,
            cycle_length,
            introducers: Vec::new(),
            delta_views: true,
            knowledge_peers: KNOWLEDGE_PEERS,
        }
    }

    /// Ships full views every exchange (tags 4/5 only, never a delta) —
    /// the pre-delta wire behavior, kept as the reference the delta path
    /// is measured and tested against.
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
        self.introducers.push(id);
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
        match self.introducers.iter().find(|&&id| id >= n as u64) {
            Some(id) => invalid(format!(
                "introducer node {id} outside the cluster (n = {n})"
            )),
            None => Ok(()),
        }
    }
}

/// One node's NEWSCAST protocol: `GETNEIGHBOR()` from a live partial
/// view, no static peer table anywhere.
///
/// It holds the view, a watermark per recent partner and the join state,
/// and answers every [`PeerDirectory`] verb itself:
/// [`poll`](PeerDirectory::poll) fires joins and view requests, and
/// [`handle`](PeerDirectory::handle) answers them. A poll after
/// [`draw_peer`](PeerSampler::draw_peer) opened an exchange sends a view
/// request, at most once per `cycle_length`, to a view member drawn for it
/// (not the exchange's partner: `tests/theory_validation.rs`).
#[derive(Debug)]
pub struct GossipDirectory {
    me: u32,
    /// See [`GossipDirectoryConfig::cycle_length`].
    cycle_length: u64,
    /// Ship only what is fresher than a partner's watermark (see
    /// [`GossipDirectoryConfig::delta_views`]).
    delta_views: bool,
    /// Capacity of the `knowledge` LRU.
    knowledge_peers: usize,
    /// The partial view, freshest first.
    view: View,
    rng: Xoshiro256,
    /// `draw_peer` opened an exchange since the last poll.
    drawn: bool,
    /// Earliest tick for the next view request (the first: one period in).
    next_request_at: u64,
    /// Per-partner watermarks, most recently used first.
    knowledge: Vec<PeerKnowledge>,
    /// Bootstrap contacts (self already filtered out).
    introducers: Vec<NodeId>,
    /// Next tick at which an (re-)join may fire.
    next_join_at: u64,
    /// Join messages sent so far (0 until the first fires). Attempt `k`
    /// targets introducer `(k-1) / JOIN_ROTATE_EVERY` (mod the list), so
    /// a dead or partitioned first introducer is routed around instead of
    /// retried forever.
    join_attempts: u64,
    /// Membership trace ring (join retries, view merges); disabled
    /// (capacity 0) unless the embedding opts in.
    trace: TraceRing,
}

/// How far one recent exchange partner is believed to be up to date.
#[derive(Debug)]
struct PeerKnowledge {
    peer: u32,
    /// The partner's watermark: no descriptor we held when we last sent
    /// it a view payload is stamped later than this (`None` before the
    /// first payload). A delta carries only entries stamped after it.
    known_until: Option<u32>,
    /// Delta payloads shipped since the last full view went out.
    deltas_since_full: u32,
}

// A partner costs 16 bytes of knowledge and no heap.
const _: () = assert!(std::mem::size_of::<PeerKnowledge>() <= 16);

/// Default delta-knowledge LRU capacity (see
/// [`GossipDirectoryConfig::knowledge_peers`]).
const KNOWLEDGE_PEERS: usize = 32;

/// Anti-entropy cadence: after this many consecutive delta payloads to the
/// same partner, the next payload ships the full view. What deltas miss —
/// an entry that reached our view after the watermark with an older
/// stamp, or one the partner has since evicted — is repaired within this
/// many exchanges.
const FULL_EVERY: u32 = 4;

/// Consecutive join attempts aimed at one introducer before rotating to
/// the next (second-introducer fallback for lossy or dead introducers).
const JOIN_ROTATE_EVERY: u64 = 3;

/// Cap on the join backoff exponent: retries back off `1×, 2×, 4×, 8×`
/// the join interval and then stay at `8×`.
const JOIN_BACKOFF_CAP: u32 = 3;

impl GossipDirectory {
    /// A gossip directory for node `me`; every peer is reachable by id.
    ///
    /// # Panics
    ///
    /// Panics if `config.view_size == 0` or `config.cycle_length == 0`.
    pub fn id_routed(me: NodeId, config: &GossipDirectoryConfig, seed: u64) -> Self {
        assert!(config.cycle_length > 0, "cycle length must be positive");
        let id = me.as_u64() as u32;
        let introducers = config
            .introducers
            .iter()
            .filter(|&&intro| intro != me.as_u64())
            .map(|&intro| NodeId::new(intro))
            .collect();
        GossipDirectory {
            me: id,
            cycle_length: config.cycle_length,
            delta_views: config.delta_views,
            knowledge_peers: config.knowledge_peers,
            view: View::new(config.view_size),
            rng: Xoshiro256::stream(seed ^ GOSSIP_SEED_SALT, u64::from(id)),
            drawn: false,
            next_request_at: config.cycle_length,
            knowledge: Vec::new(),
            introducers,
            next_join_at: 0,
            join_attempts: 0,
            trace: TraceRing::disabled(),
        }
    }

    /// The live partial view, freshest first (for tests and metrics).
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Registers a contact known out of band (Section 4.2) — how an
    /// embedding that founds a whole overlay at once gives every member
    /// its initial view without a join round.
    pub fn add_seed(&mut self, peer: u32, now: u64) {
        if peer != self.me {
            self.view.insert(Descriptor::new(peer, timestamp(now)));
        }
    }

    fn random_member(&mut self) -> Option<u32> {
        let entries = self.view.entries();
        (!entries.is_empty()).then(|| entries[self.rng.index(entries.len())].node)
    }

    /// `true` while the node should (re-)contact an introducer: it has
    /// one and its view is empty.
    fn wants_join(&self) -> bool {
        !self.introducers.is_empty() && self.view.is_empty()
    }

    /// Records one membership event. Epoch/cycle have no meaning on the
    /// membership plane, so they stay zero.
    fn record(&mut self, kind: TraceKind, peer: u64, detail: u64) {
        if !self.trace.is_enabled() {
            return;
        }
        self.trace.record(TraceEvent {
            node: u64::from(self.me),
            kind,
            epoch: 0,
            cycle: 0,
            peer: Some(peer),
            detail,
        });
    }

    /// The view plus a fresh self-descriptor: what a full exchange ships.
    fn payload(&self, now: u64) -> ViewPayload {
        let mut descriptors = Vec::with_capacity(self.view.len() + 1);
        descriptors.extend_from_slice(self.view.entries());
        descriptors.push(Descriptor::new(self.me, timestamp(now)));
        ViewPayload {
            from: self.me,
            descriptors,
        }
    }

    /// One gossip period in timestamp ticks — the protocol's staleness
    /// resolution, and the clamp slack for incoming timestamps.
    fn period(&self) -> u32 {
        self.cycle_length.min(u64::from(u32::MAX)) as u32
    }

    /// Merges `descriptors` from `from` into the view. Incoming timestamps
    /// are clamped to `now` plus one gossip period of slack, so a drifted
    /// clock cannot crowd out honestly-stamped descriptors.
    fn merge(&mut self, from: u32, descriptors: &[Descriptor], now: u64) {
        let bound = timestamp(now).saturating_add(self.period());
        self.view.merge_clamped(descriptors, self.me, bound);
        self.record(
            TraceKind::ViewMerge,
            u64::from(from),
            descriptors.len() as u64,
        );
    }

    /// Builds the outbound payload for `peer` and moves its watermark;
    /// `request` is the partner's request when this is the answer to it.
    /// The full view goes out when deltas are disabled, the partner has
    /// no watermark yet, or `FULL_EVERY` deltas have gone out since the
    /// last full view. Otherwise a delta carries the view entries stamped
    /// after the watermark (a prefix: the view is freshest first) and the
    /// fresh self-descriptor. A delta that keeps every entry saves
    /// nothing, so it ships as the full view and resets the anti-entropy
    /// clock. The flag is `true` for a full view.
    ///
    /// An answer also leaves out every node its request already carries,
    /// unless our copy is at least `FULL_EVERY` periods fresher: the
    /// request shows the partner holds that node, and a smaller refresh
    /// waits for the next full view (the seen sets' refresh threshold,
    /// applied to the one record of the partner's view in hand). This
    /// matters most on a first contact, where the request is the
    /// partner's whole view. Refreshes cost bytes and, in a small overlay,
    /// mixing: a view whose entries are kept fresh turns over less.
    ///
    /// The new watermark is `now` plus one period, the bound [`merge`]
    /// clamps incoming stamps to: nothing exchanged at this moment can be
    /// stamped later. An entry that reaches our view later with an older
    /// stamp is missed by the deltas and repaired by the next full view.
    ///
    /// [`merge`]: GossipDirectory::merge
    fn outbound_for(
        &mut self,
        peer: u32,
        now: u64,
        request: Option<&[Descriptor]>,
    ) -> (ViewPayload, bool) {
        let stamp = timestamp(now);
        let watermark = stamp.saturating_add(self.period());
        let refresh_after = self.period().saturating_mul(FULL_EVERY);
        let k = knowledge_mut(&mut self.knowledge, self.knowledge_peers, peer);
        let since = k.known_until.replace(watermark);
        let entries = self.view.entries();
        let mut descriptors = Vec::with_capacity(entries.len() + 1);
        if !self.delta_views || k.deltas_since_full >= FULL_EVERY {
            descriptors.extend_from_slice(entries);
        } else {
            let fresh = since.map_or(entries.len(), |since| {
                entries.partition_point(|d| d.timestamp > since)
            });
            let carried = |d: &Descriptor| {
                request.is_some_and(|request| {
                    request.iter().any(|r| {
                        r.node == d.node && r.timestamp.saturating_add(refresh_after) > d.timestamp
                    })
                })
            };
            descriptors.extend(entries[..fresh].iter().filter(|d| !carried(d)));
        }
        let is_full = descriptors.len() == entries.len();
        if is_full {
            k.deltas_since_full = 0;
        } else {
            k.deltas_since_full += 1;
        }
        descriptors.push(Descriptor::new(self.me, stamp));
        let payload = ViewPayload {
            from: self.me,
            descriptors,
        };
        (payload, is_full)
    }
}

/// The LRU knowledge entry for `peer` (most recently used first), created
/// — evicting the least recently used partner at `capacity` — if absent,
/// promoted to the front either way. A free function over the field so
/// callers can keep reading the view while they hold the entry.
fn knowledge_mut(
    knowledge: &mut Vec<PeerKnowledge>,
    capacity: usize,
    peer: u32,
) -> &mut PeerKnowledge {
    match knowledge.iter().position(|k| k.peer == peer) {
        Some(pos) => knowledge[..=pos].rotate_right(1),
        None => {
            if knowledge.len() >= capacity.max(1) {
                knowledge.pop();
            }
            let entry = PeerKnowledge {
                peer,
                known_until: None,
                deltas_since_full: 0,
            };
            knowledge.insert(0, entry);
        }
    }
    &mut knowledge[0]
}

/// Timestamps descriptor freshness in coarse ticks. NEWSCAST only needs a
/// total order with enough resolution to distinguish cycles, so 32 bits of
/// tick time are ample (wrap after ~4 × 10⁹ ticks).
fn timestamp(now: u64) -> u32 {
    now as u32
}

impl PeerSampler for GossipDirectory {
    fn draw_peer(&mut self) -> Option<NodeId> {
        let node = self.random_member()?;
        self.drawn = true;
        Some(NodeId::new(u64::from(node)))
    }
}

impl PeerDirectory for GossipDirectory {
    fn next_deadline(&self) -> u64 {
        if self.wants_join() {
            self.next_join_at
        } else {
            u64::MAX
        }
    }

    fn poll(&mut self, now: u64, out: &mut Vec<DirectoryMessage>) {
        if self.wants_join() && now >= self.next_join_at {
            // One introducer per attempt, rotating every JOIN_ROTATE_EVERY
            // tries, with exponential backoff: a lost Join frame costs one
            // interval, a dead introducer a few, and a stable overlay is
            // never spammed with duplicate bootstrap traffic.
            let pick = (self.join_attempts / JOIN_ROTATE_EVERY) as usize % self.introducers.len();
            let backoff = self.join_attempts.min(u64::from(JOIN_BACKOFF_CAP));
            self.join_attempts += 1;
            self.next_join_at = now + (self.cycle_length << backoff);
            let to = self.introducers[pick];
            if self.join_attempts > 1 {
                let retry = self.join_attempts - 1;
                self.record(TraceKind::JoinRetry, to.as_u64(), retry);
            }
            out.push(DirectoryMessage {
                to: Destination::Node(to),
                payload: DirectoryPayload::Join { from: self.me },
            });
        }
        if !std::mem::take(&mut self.drawn) || now < self.next_request_at {
            return;
        }
        if let Some(partner) = self.random_member() {
            self.next_request_at = now.saturating_add(self.cycle_length);
            let (view, full) = self.outbound_for(partner, now, None);
            out.push(DirectoryMessage {
                to: Destination::Node(NodeId::new(u64::from(partner))),
                payload: DirectoryPayload::View {
                    view,
                    reply: false,
                    delta: !full,
                },
            });
        }
    }

    fn handle(
        &mut self,
        payload: &DirectoryPayload,
        _src: Option<SocketAddr>,
        now: u64,
        out: &mut Vec<DirectoryMessage>,
    ) {
        match payload {
            DirectoryPayload::Join { from } => {
                if *from == self.me {
                    return;
                }
                // The joiner becomes part of the overlay immediately…
                self.add_seed(*from, now);
                // …and receives a snapshot of our view (plus ourselves).
                let peers = self
                    .payload(now)
                    .descriptors
                    .iter()
                    .map(|d| IntroduceEntry {
                        node: d.node,
                        timestamp: d.timestamp,
                        addr: None,
                    })
                    .collect();
                out.push(DirectoryMessage {
                    to: Destination::Node(NodeId::new(u64::from(*from))),
                    payload: DirectoryPayload::Introduce {
                        from: self.me,
                        peers,
                    },
                });
            }
            DirectoryPayload::Introduce { from, peers } => {
                // Bootstrap from the snapshot through the one merge rule:
                // self filtered, timestamps clamped (nodes accept an
                // Introduce they never asked for), the `c` freshest kept.
                let descriptors: Vec<Descriptor> = peers
                    .iter()
                    .map(|entry| Descriptor::new(entry.node, entry.timestamp))
                    .collect();
                self.merge(*from, &descriptors, now);
            }
            DirectoryPayload::View { view, reply, .. } => {
                // The passive side builds its (possibly delta) answer from
                // the pre-merge view, the sender's old watermark and the
                // request itself, then merges. Whether the payload was a
                // delta does not matter: every payload merges the same way.
                if !*reply {
                    let (answer, full) = self.outbound_for(view.from, now, Some(&view.descriptors));
                    out.push(DirectoryMessage {
                        to: Destination::Node(NodeId::new(u64::from(view.from))),
                        payload: DirectoryPayload::View {
                            view: answer,
                            reply: true,
                            delta: !full,
                        },
                    });
                }
                self.merge(view.from, &view.descriptors, now);
            }
        }
    }

    fn join_retries(&self) -> u64 {
        self.join_attempts.saturating_sub(1)
    }

    fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace.set_capacity(capacity);
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.drain()
    }

    fn view_health(&self, now: u64) -> Option<ViewHealth> {
        let entries = self.view.entries();
        let stale_bound = (now as u32).saturating_sub(
            (STALE_VIEW_CYCLES * self.cycle_length).min(u64::from(u32::MAX)) as u32,
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

    /// One wake as `NodeStack` runs it: the plane above draws its partner,
    /// then the directory polls.
    fn wake(dir: &mut GossipDirectory, now: u64, out: &mut Vec<DirectoryMessage>) {
        dir.draw_peer();
        dir.poll(now, out);
    }

    /// Drives `msg` into the addressed directory (out of `dirs`, indexed
    /// by id), returning any responses.
    fn deliver(
        dirs: &mut [GossipDirectory],
        msg: &DirectoryMessage,
        now: u64,
    ) -> Vec<DirectoryMessage> {
        let Destination::Node(to) = msg.to;
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

        // The introducer absorbs the joiner and answers with a snapshot.
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
                wake(dir, now, &mut inflight);
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
                wake(dir, now, &mut inflight);
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
    fn introducer_with_no_contacts_is_quiet() {
        let config = GossipDirectoryConfig::new(8, 50).with_introducer_node(5);
        let mut dir = GossipDirectory::id_routed(NodeId::new(5), &config, 2);
        assert_eq!(dir.next_deadline(), u64::MAX);
        let mut out = Vec::new();
        wake(&mut dir, 0, &mut out);
        wake(&mut dir, 1_000, &mut out);
        assert!(out.is_empty(), "self-introducer produced traffic: {out:?}");
    }

    // The NEWSCAST node on its own: one or two directories, exchanges
    // carried by hand through `poll` and `handle`.

    /// View size 8, period 100, delta views on.
    fn delta_config() -> GossipDirectoryConfig {
        GossipDirectoryConfig::new(8, 100)
    }

    fn full_config() -> GossipDirectoryConfig {
        delta_config().with_full_views()
    }

    fn node(id: u32, config: &GossipDirectoryConfig, seed: u64) -> GossipDirectory {
        GossipDirectory::id_routed(NodeId::new(u64::from(id)), config, seed)
    }

    fn two_bootstrapped() -> (GossipDirectory, GossipDirectory) {
        let mut a = node(0, &full_config(), 1);
        let b = node(1, &full_config(), 2);
        a.add_seed(1, 0);
        (a, b)
    }

    fn view_frame(view: &ViewPayload, reply: bool, full: bool) -> DirectoryPayload {
        DirectoryPayload::View {
            view: view.clone(),
            reply,
            delta: !full,
        }
    }

    /// The view exchange `dir` starts on a wake at `now`, as `(partner,
    /// payload, full)`; `None` within `cycle_length` of its last request
    /// or while its view is empty.
    fn start_exchange(dir: &mut GossipDirectory, now: u64) -> Option<(u32, ViewPayload, bool)> {
        let mut out = Vec::new();
        wake(dir, now, &mut out);
        out.into_iter().find_map(|m| match (m.to, m.payload) {
            (Destination::Node(to), DirectoryPayload::View { view, delta, .. }) => {
                Some((to.as_u64() as u32, view, !delta))
            }
            _ => None,
        })
    }

    /// The passive side: `dir`'s answer to `request`, as `(payload, full)`.
    fn answer(
        dir: &mut GossipDirectory,
        request: &ViewPayload,
        full: bool,
        now: u64,
    ) -> (ViewPayload, bool) {
        let mut out = Vec::new();
        dir.handle(&view_frame(request, false, full), None, now, &mut out);
        match out.pop().map(|m| m.payload) {
            Some(DirectoryPayload::View {
                view,
                reply: true,
                delta,
            }) => (view, !delta),
            other => panic!("no view reply: {other:?}"),
        }
    }

    /// The active side absorbing the answer `reply`.
    fn absorb(dir: &mut GossipDirectory, reply: &ViewPayload, full: bool, now: u64) {
        let mut out = Vec::new();
        dir.handle(&view_frame(reply, true, full), None, now, &mut out);
        assert!(out.is_empty(), "a reply was answered: {out:?}");
    }

    /// Twelve nodes seeded as a ring gossip every 10 ticks for 5,000.
    fn gossip_clique(config: &GossipDirectoryConfig) -> Vec<GossipDirectory> {
        let n = 12u32;
        let mut nodes: Vec<GossipDirectory> = (0..n).map(|i| node(i, config, 7)).collect();
        for i in 0..n {
            nodes[i as usize].add_seed((i + 1) % n, 0);
        }
        for t in (0..5_000u64).step_by(10) {
            for i in 0..n as usize {
                if let Some((peer, request, full)) = start_exchange(&mut nodes[i], t) {
                    let (reply, rf) = answer(&mut nodes[peer as usize], &request, full, t);
                    absorb(&mut nodes[i], &reply, rf, t);
                }
            }
        }
        nodes
    }

    #[test]
    fn empty_view_never_initiates() {
        let mut lonely = node(9, &full_config(), 3);
        let mut out = Vec::new();
        for t in 0..1_000 {
            wake(&mut lonely, t, &mut out);
        }
        assert!(out.is_empty(), "an empty view gossiped: {out:?}");
    }

    #[test]
    fn seeds_are_not_self() {
        let mut dir = node(4, &full_config(), 1);
        dir.add_seed(4, 0);
        assert!(dir.view().is_empty());
        dir.add_seed(5, 0);
        assert_eq!(dir.view().len(), 1);
    }

    #[test]
    fn exchange_makes_both_sides_know_each_other() {
        let (mut a, mut b) = two_bootstrapped();
        let (to, request, full) = start_exchange(&mut a, 150).expect("timer fired");
        assert_eq!(to, 1);
        let (reply, reply_full) = answer(&mut b, &request, full, 155);
        absorb(&mut a, &reply, reply_full, 160);
        assert!(a.view().contains(1));
        assert!(b.view().contains(0));
        // Fresh timestamps were injected.
        let d = b.view().entries().iter().find(|d| d.node == 0).unwrap();
        assert_eq!(d.timestamp, 150);
    }

    #[test]
    fn a_view_request_rides_an_exchange_at_most_once_per_cycle() {
        let mut a = node(0, &full_config(), 1);
        for p in 1..6 {
            a.add_seed(p, 0);
        }
        // A bootstrapped directory has no deadline of its own.
        assert_eq!(a.next_deadline(), u64::MAX);
        let requests = |a: &mut GossipDirectory, now: u64| -> Vec<u32> {
            let mut out = Vec::new();
            a.poll(now, &mut out);
            let to = |m: &DirectoryMessage| match (m.to, &m.payload) {
                (Destination::Node(to), DirectoryPayload::View { reply: false, .. }) => {
                    Some(to.as_u64() as u32)
                }
                _ => None,
            };
            out.iter().filter_map(to).collect()
        };
        // No exchange opened, no request, however long the wait.
        assert!(requests(&mut a, 250).is_empty());
        assert!(requests(&mut a, 5_000).is_empty());
        // An exchange opened: one request, to a view member.
        a.draw_peer();
        a.draw_peer();
        let sent = requests(&mut a, 5_000);
        assert_eq!(sent.len(), 1);
        assert!(a.view().contains(sent[0]));
        // Another exchange within a period: no second request, and the
        // exchange is forgotten at the poll.
        a.draw_peer();
        assert!(requests(&mut a, 5_099).is_empty());
        assert!(requests(&mut a, 5_100).is_empty());
        // A period after the last request, the next exchange carries one.
        a.draw_peer();
        assert_eq!(requests(&mut a, 5_100).len(), 1);
        assert_eq!(a.next_deadline(), u64::MAX);
    }

    #[test]
    fn views_stay_bounded_and_self_free() {
        // Gossip a small clique for a while; views never exceed c and
        // never contain the owner.
        for dir in &gossip_clique(&full_config()) {
            assert!(dir.view().len() <= 8);
            assert!(!dir.view().contains(dir.me));
            // The ring bootstrap mixed into a richer overlay.
            assert!(dir.view().len() >= 4, "view stayed tiny");
        }
    }

    #[test]
    fn bootstrap_copies_snapshot_without_self() {
        let mut joiner = node(9, &full_config(), 4);
        let entry = |node, timestamp| IntroduceEntry {
            node,
            timestamp,
            addr: None,
        };
        let snapshot = DirectoryPayload::Introduce {
            from: 1,
            // The joiner itself (9) must be dropped.
            peers: vec![entry(1, 10), entry(9, 99), entry(2, 5)],
        };
        joiner.handle(&snapshot, None, 100, &mut Vec::new());
        assert!(joiner.view().contains(1));
        assert!(joiner.view().contains(2));
        assert!(!joiner.view().contains(9));
    }

    #[test]
    fn introduce_timestamps_are_clamped_like_any_merge() {
        // Nodes accept an Introduce they never asked for, so its stamps
        // get the clamp every other merge applies: now + one period.
        let mut victim = node(9, &full_config(), 4);
        victim.set_trace_capacity(8);
        let entry = |node, timestamp| IntroduceEntry {
            node,
            timestamp,
            addr: None,
        };
        let forged = DirectoryPayload::Introduce {
            from: 1,
            peers: vec![entry(1, u32::MAX), entry(2, u32::MAX), entry(3, 40)],
        };
        victim.handle(&forged, None, 100, &mut Vec::new());
        assert_eq!(victim.view().len(), 3);
        assert_eq!(victim.view().freshest(), Some(200), "unclamped Introduce");
        let merges = victim.take_trace();
        assert!(
            merges
                .iter()
                .any(|e| e.kind == TraceKind::ViewMerge && e.peer == Some(1) && e.detail == 3),
            "Introduce not traced as a view merge: {merges:?}"
        );
    }

    #[test]
    fn draw_peer_returns_view_members() {
        let (mut a, _) = two_bootstrapped();
        for _ in 0..10 {
            assert_eq!(a.draw_peer(), Some(NodeId::new(1)));
        }
    }

    #[test]
    fn first_delta_exchange_ships_the_full_view() {
        let mut a = node(0, &delta_config(), 1);
        a.add_seed(1, 0);
        let (to, payload, full) = start_exchange(&mut a, 150).expect("timer fired");
        assert_eq!(to, 1);
        assert!(full, "unknown partner must get a full view");
        assert_eq!(payload.descriptors.len(), 2); // seed + self
    }

    #[test]
    fn repeat_exchanges_shrink_to_deltas() {
        let mut a = node(0, &delta_config(), 1);
        let mut b = node(1, &delta_config(), 2);
        for p in 2..8 {
            a.add_seed(p, 0);
            b.add_seed(p, 0);
        }
        a.add_seed(1, 0);
        // First round: a knows nothing about b, so the request is full.
        // The reply may already be a delta — b just learned exactly what a
        // holds from the request itself.
        let (req, full) = a.outbound_for(1, 100, None);
        assert!(full, "unknown partner must get a full view");
        let (reply, reply_full) = answer(&mut b, &req, full, 105);
        absorb(&mut a, &reply, reply_full, 110);
        // Second round, nothing changed but the self-descriptors: the
        // request collapses to a delta far below the full view.
        let full_len = a.view().len() + 1;
        let (req2, full2) = a.outbound_for(1, 200, None);
        assert_eq!(req2.from, 0);
        assert!(!full2, "known partner should get a delta");
        assert!(
            2 * req2.descriptors.len() < full_len,
            "delta {} not below half of full {}",
            req2.descriptors.len(),
            full_len
        );
        let (reply2, reply2_full) = answer(&mut b, &req2, full2, 205);
        assert!(!reply2_full);
        absorb(&mut a, &reply2, reply2_full, 210);
        assert!(a.view().contains(1));
        assert!(b.view().contains(0));
    }

    /// `a` and `b` share contacts 2..8 and have exchanged once at t = 100
    /// (request full; the reply is `b`'s self-descriptor alone, since the
    /// request carried all of `b`'s view), so `a`'s watermark for `b` is
    /// 200 and `b`'s for `a` is 205.
    fn one_round_apart() -> (GossipDirectory, GossipDirectory) {
        let mut a = node(0, &delta_config(), 1);
        let mut b = node(1, &delta_config(), 2);
        for p in 2..8 {
            a.add_seed(p, 0);
            b.add_seed(p, 0);
        }
        a.add_seed(1, 0);
        let (req, full) = a.outbound_for(1, 100, None);
        let (reply, reply_full) = answer(&mut b, &req, full, 105);
        absorb(&mut a, &reply, reply_full, 110);
        (a, b)
    }

    #[test]
    fn a_reply_never_echoes_the_descriptors_its_request_carried() {
        let (mut a, mut b) = one_round_apart();
        // Contacts only `a` holds, stamped after both watermarks, ride the
        // next request…
        for p in 20..23 {
            a.add_seed(p, 300);
        }
        let (req, full) = a.outbound_for(1, 400, None);
        assert!(!full, "known partner should get a delta");
        assert!((20..23).all(|p| req.descriptors.iter().any(|d| d.node == p)));
        // …and `b` builds its answer before it merges them, so none of
        // them, nor `a`'s fresh self-descriptor, comes back.
        let (reply, _) = answer(&mut b, &req, full, 405);
        for d in &reply.descriptors {
            assert!(!req.descriptors.contains(d), "reply echoed {d}");
        }
        assert!((20..23).all(|p| b.view().contains(p)), "request not merged");
    }

    #[test]
    fn a_contact_added_after_the_watermark_ships_in_the_next_delta() {
        let (mut a, _) = one_round_apart();
        a.add_seed(20, 250); // after the watermark (200)
        a.add_seed(21, 150); // at or before it: left to the next full view
        let (req, full) = a.outbound_for(1, 300, None);
        assert!(!full, "known partner should get a delta");
        assert_eq!(
            req.descriptors,
            vec![Descriptor::new(20, 250), Descriptor::new(0, 300)]
        );
    }

    #[test]
    fn a_first_answer_leaves_out_what_the_request_carried() {
        let mut a = node(0, &delta_config(), 1);
        let mut b = node(1, &delta_config(), 2);
        a.add_seed(1, 0);
        for p in 2..5 {
            a.add_seed(p, 50);
        }
        // An anti-entropy period is 4 periods of 100 ticks.
        b.add_seed(2, 50); // `a` carries it at the same stamp
        b.add_seed(3, 440); // fresher here, by less than that period
        b.add_seed(4, 450); // fresher here by a whole one
        b.add_seed(5, 50); // `a` does not carry it at all
        let (req, full) = a.outbound_for(1, 500, None);
        assert!(full, "unknown partner must get a full view");
        let (reply, reply_full) = answer(&mut b, &req, full, 505);
        assert!(!reply_full, "the request showed what `a` holds");
        assert_eq!(
            reply.descriptors,
            vec![
                Descriptor::new(4, 450),
                Descriptor::new(5, 50),
                Descriptor::new(1, 505)
            ]
        );
    }

    #[test]
    fn anti_entropy_periodically_ships_full_views() {
        let mut a = node(0, &delta_config(), 1);
        let mut b = node(1, &delta_config(), 2);
        a.add_seed(1, 0);
        let mut fulls = 0;
        let mut deltas = 0;
        for round in 0..12u64 {
            let now = 100 + round * 100;
            if let Some((_, req, full)) = start_exchange(&mut a, now) {
                if full {
                    fulls += 1;
                } else {
                    deltas += 1;
                }
                let (reply, rf) = answer(&mut b, &req, full, now + 5);
                absorb(&mut a, &reply, rf, now + 10);
            }
        }
        assert!(fulls >= 2, "anti-entropy full views never recurred");
        assert!(deltas > 0, "no exchange ever shrank to a delta");
    }

    #[test]
    fn delta_exchange_converges_like_full_views() {
        // Two cliques gossiping for a while, one with deltas and one
        // without: views end up equally full and bounded.
        let fulls = gossip_clique(&full_config());
        for (full, delta) in fulls.iter().zip(&gossip_clique(&delta_config())) {
            assert!(delta.view().len() <= 8);
            assert!(!delta.view().contains(delta.me));
            assert!(
                delta.view().len() + 2 >= full.view().len(),
                "delta views collapsed: {} vs full {}",
                delta.view().len(),
                full.view().len()
            );
        }
    }

    #[test]
    fn incoming_future_timestamps_are_clamped() {
        let mut a = node(0, &full_config(), 1);
        a.add_seed(1, 100);
        let drifted = ViewPayload {
            from: 2,
            descriptors: vec![Descriptor::new(2, 4_000_000), Descriptor::new(3, 9_999_999)],
        };
        answer(&mut a, &drifted, true, 200);
        // Clamp bound is now + one cycle = 300.
        for d in a.view().entries() {
            assert!(d.timestamp <= 300, "unclamped descriptor {d}");
        }
        let mut b = node(5, &delta_config(), 1);
        absorb(&mut b, &drifted, true, 200);
        for d in b.view().entries() {
            assert!(d.timestamp <= 300, "unclamped descriptor {d} (delta path)");
        }
    }

    #[test]
    fn deterministic_with_same_seed() {
        let draws = || {
            let mut dir = node(0, &full_config(), 42);
            for p in 1..6 {
                dir.add_seed(p, 0);
            }
            (0..5).map(|_| dir.draw_peer().unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(draws(), draws());
    }
}
