//! `GETNEIGHBOR()` for simulated nodes.
//!
//! Every simulated node is a `NodeStack` over a [`SimDirectory`], the one
//! [`PeerDirectory`] the event engine builds: whichever overlay the
//! [`Scenario`](crate::scenario::Scenario) asks for, the stack above it
//! runs the same code it runs behind a socket.

use epidemic_aggregation::PeerSampler;
use epidemic_common::rng::Xoshiro256;
use epidemic_common::sample::{index_excluding, NeighborSampling};
use epidemic_common::NodeId;
use epidemic_net::directory::{
    DirectoryMessage, DirectoryPayload, GossipDirectory, GossipDirectoryConfig, PeerDirectory,
};
use epidemic_newscast::View;
use epidemic_telemetry::{TraceEvent, ViewHealth};
use epidemic_topology::Graph;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, MutexGuard};

/// Salt of the per-node peer-draw streams, decorrelated from the stack's
/// own streams on the same seed.
const DRAW_SEED_SALT: u64 = 0x5EED;

/// Who is alive. Ids are dense and never reused: node `i` is the `i`-th
/// ever created, and a crashed node keeps its slot.
#[derive(Debug)]
pub(crate) struct LiveSet {
    /// Live node ids, unordered.
    ids: Vec<u32>,
    /// `pos[i]` is `i`'s index in `ids`, or `usize::MAX` once dead, for
    /// O(1) crash removal.
    pos: Vec<usize>,
}

/// The [`LiveSet`] as the engine and every live-set directory share it
/// (behind a lock only because a [`PeerDirectory`] must be `Send`; one
/// simulation never leaves its thread).
#[derive(Debug, Clone)]
pub(crate) struct Population(Arc<Mutex<LiveSet>>);

impl Population {
    /// `n` founders, all alive.
    pub(crate) fn founders(n: usize) -> Self {
        Population(Arc::new(Mutex::new(LiveSet {
            ids: (0..n as u32).collect(),
            pos: (0..n).collect(),
        })))
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, LiveSet> {
        self.0.lock().expect("live set poisoned")
    }
}

impl LiveSet {
    /// Live node ids, unordered.
    pub(crate) fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Total over `u32`: an id nobody was ever given is not alive.
    pub(crate) fn is_alive(&self, node: u32) -> bool {
        self.pos
            .get(node as usize)
            .is_some_and(|&pos| pos != usize::MAX)
    }

    pub(crate) fn kill(&mut self, node: u32) {
        if !self.is_alive(node) {
            return;
        }
        let pos = std::mem::replace(&mut self.pos[node as usize], usize::MAX);
        self.ids.swap_remove(pos);
        if let Some(&moved) = self.ids.get(pos) {
            self.pos[moved as usize] = pos;
        }
    }

    /// Admits the next node, alive.
    pub(crate) fn add(&mut self) {
        let id = self.pos.len() as u32;
        self.pos.push(self.ids.len());
        self.ids.push(id);
    }
}

/// The membership layer under one simulated node.
///
/// The NEWSCAST variant *is* the mux runtime's [`GossipDirectory`],
/// unchanged: view gossip, delta views, `Join`/`Introduce` bootstrap with
/// retry and backoff all run there, and every frame they emit crosses the
/// simulated wire.
///
/// The NEWSCAST variant is large and stays inline on purpose: with one
/// box per node, rebuilding an all-NEWSCAST `EventSim` regrew the heap on
/// every other round and `sim_churn`'s `setup_s` read +20–30 %.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum SimDirectory {
    /// Uniform over the live population: the implicit complete graph, and
    /// idealized NEWSCAST — whose job is precisely to keep the overlay
    /// sufficiently random.
    LiveSet {
        me: u32,
        live: Population,
        rng: Xoshiro256,
    },
    /// A static topology. Dead neighbors are still drawn: the request goes
    /// out, silently dies, and costs the initiator a timeout, as in a
    /// real deployment.
    Static {
        me: usize,
        graph: Arc<Graph>,
        rng: Xoshiro256,
    },
    /// Gossiped NEWSCAST: peers come from the node's own partial view —
    /// possibly a crashed one that has not aged out yet.
    Newscast(GossipDirectory),
}

impl SimDirectory {
    fn draws(me: usize, seed: u64) -> Xoshiro256 {
        Xoshiro256::stream(seed ^ DRAW_SEED_SALT, me as u64)
    }

    pub(crate) fn live_set(me: usize, live: &Population, seed: u64) -> Self {
        SimDirectory::LiveSet {
            me: me as u32,
            live: live.clone(),
            rng: Self::draws(me, seed),
        }
    }

    pub(crate) fn graph(me: usize, graph: &Arc<Graph>, seed: u64) -> Self {
        SimDirectory::Static {
            me,
            graph: Arc::clone(graph),
            rng: Self::draws(me, seed),
        }
    }

    /// A founder of an `n`-node NEWSCAST overlay: no introducer, a view
    /// of `c` uniformly random distinct peers at timestamp 0 (the cycle
    /// engine's `Overlay::random_init`), drawn from `rng`.
    pub(crate) fn newscast_founder(
        me: usize,
        n: usize,
        config: &GossipDirectoryConfig,
        seed: u64,
        rng: &mut Xoshiro256,
    ) -> Self {
        let mut directory = GossipDirectory::id_routed(NodeId::new(me as u64), config, seed);
        for raw in rng.sample_distinct(n - 1, config.view_size) {
            let peer = if raw >= me { raw + 1 } else { raw };
            directory.add_seed(peer as u32, 0);
        }
        SimDirectory::Newscast(directory)
    }

    /// A node that knows a few live members and joins through them, the
    /// first one first.
    pub(crate) fn newscast_joiner(
        me: usize,
        config: &GossipDirectoryConfig,
        introducers: impl IntoIterator<Item = u32>,
        seed: u64,
    ) -> Self {
        let mut config = config.clone();
        config
            .introducers
            .extend(introducers.into_iter().map(u64::from));
        SimDirectory::Newscast(GossipDirectory::id_routed(
            NodeId::new(me as u64),
            &config,
            seed,
        ))
    }

    fn gossip(&self) -> Option<&GossipDirectory> {
        match self {
            SimDirectory::Newscast(directory) => Some(directory),
            _ => None,
        }
    }

    fn gossip_mut(&mut self) -> Option<&mut GossipDirectory> {
        match self {
            SimDirectory::Newscast(directory) => Some(directory),
            _ => None,
        }
    }

    /// The partial view, when membership is gossiped.
    pub(crate) fn view(&self) -> Option<&View> {
        self.gossip().map(GossipDirectory::view)
    }
}

impl PeerSampler for SimDirectory {
    fn draw_peer(&mut self) -> Option<NodeId> {
        match self {
            SimDirectory::LiveSet { me, live, rng } => {
                let live = live.lock();
                let skip = live.pos.get(*me as usize).copied();
                let idx = index_excluding(rng, live.ids.len(), skip)?;
                Some(NodeId::new(u64::from(live.ids[idx])))
            }
            SimDirectory::Static { me, graph, rng } => graph
                .sample_neighbor(*me, rng)
                .map(|peer| NodeId::new(peer as u64)),
            SimDirectory::Newscast(directory) => directory.draw_peer(),
        }
    }
}

/// Forwards the membership plane to [`GossipDirectory`]; the other
/// overlays have none. Nodes are routed by id, so nothing resolves or
/// learns an address.
impl PeerDirectory for SimDirectory {
    fn next_deadline(&self) -> u64 {
        self.gossip().map_or(u64::MAX, PeerDirectory::next_deadline)
    }

    fn poll(&mut self, now: u64, out: &mut Vec<DirectoryMessage>) {
        if let Some(directory) = self.gossip_mut() {
            directory.poll(now, out);
        }
    }

    fn handle(
        &mut self,
        payload: &DirectoryPayload,
        src: Option<SocketAddr>,
        now: u64,
        out: &mut Vec<DirectoryMessage>,
    ) {
        if let Some(directory) = self.gossip_mut() {
            directory.handle(payload, src, now, out);
        }
    }

    fn join_retries(&self) -> u64 {
        self.gossip().map_or(0, PeerDirectory::join_retries)
    }

    fn set_trace_capacity(&mut self, capacity: usize) {
        if let Some(directory) = self.gossip_mut() {
            directory.set_trace_capacity(capacity);
        }
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.gossip_mut()
            .map_or_else(Vec::new, PeerDirectory::take_trace)
    }

    fn view_health(&self, now: u64) -> Option<ViewHealth> {
        self.gossip()
            .and_then(|directory| directory.view_health(now))
    }
}
