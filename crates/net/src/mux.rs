//! Multiplexed UDP cluster runtime: thousands of nodes, a handful of
//! threads — optionally sharded across sockets, processes, and hosts.
//!
//! The sans-io [`NodeStack`] folds the paper's Figure 1 — an active and a
//! passive thread per node — into one `step`, so this module hosts N
//! virtual nodes in one process on a few **loops**: one OS thread each,
//! plus one for the client RPC listener when it is enabled. One loop per
//! vnode (`with_readers(n)`: a socket and a thread per node) is Figure 1
//! literally; a few loops carry thousands of vnodes per host.
//!
//! * Loop `k` owns one UDP socket, one [`TimerWheel`], its receive
//!   buffers and its bundle packer, and is the home of local vnode `i` when
//!   `i % loops == k` ([`MuxClusterConfig::with_readers`] sets the count;
//!   1 reproduces the original single-socket runtime). A vnode's
//!   datagrams arrive at its home socket and its frames leave from it.
//! * Each turn does five things in order. It waits at most one 1 ms wheel
//!   tick for a datagram (a `poll`: a socket read timeout is kept in
//!   scheduler ticks) and receives (up to [`crate::batch::BATCH`]
//!   datagrams per `recvmmsg` on the batched [`crate::batch::IoBackend`]).
//!   It walks each bundle ([`crate::codec::decode_bundle`]) and steps
//!   every frame's vnode inline, so a vnode's frames are stepped in
//!   arrival order and the payload never leaves the stack frame. It drains
//!   its park inbox into its wheel. It fires the due deadlines ([`NodeStack::next_deadline`]:
//!   cycle boundaries, exchange timeouts, joiner activations, membership
//!   and catalog gossip), each stepping its vnode. Then it flushes.
//! * No thread blocks on an exchange: the pending exchange is a
//!   timer-guarded continuation inside the [`NodeStack`]. A step's frames
//!   are encoded, borrowed, into the loop's open bundle datagram for their
//!   destination socket (at most [`crate::codec::BUNDLE_BUDGET`] bytes),
//!   and the turn's flush sends them as one `sendmmsg` burst. A frame is
//!   charged to its plane's [`Traffic`] series once the kernel took its
//!   datagram, to `io.send_errors` if it refused. A loop that stepped for
//!   5 µs without blocking yields its core, so a thread sharing it (the
//!   RPC listener, another loop) waits about one step, not one turn.
//!
//! # Cross-host sharding
//!
//! The mux wire frame is address-agnostic: it routes by *cluster-wide*
//! virtual-node id. A [`PeerTable`] maps contiguous vnode-id ranges to
//! shard socket addresses, so a cluster can be split over multiple
//! sockets, processes, or hosts ([`MuxClusterConfig::sharded`]): each
//! process hosts one range and transmits frames for foreign vnodes to
//! the owning shard's socket. Same-seed determinism is preserved — node
//! state is a function of the cluster-wide id, not of shard layout — so
//! a sharded and an unsharded cluster draw identical peer sequences.
//!
//! # Membership
//!
//! `GETNEIGHBOR()` is served by a per-vnode [`PeerDirectory`]
//! ([`MuxClusterConfig::with_directory`]): a [`DirectorySpec::Static`]
//! table by default, or NEWSCAST gossip ([`DirectorySpec::Gossip`]) whose
//! view exchanges and join/introduce bootstrap travel as mux frames
//! through the same sockets, wheels and loops as the aggregation traffic.
//!
//! Every datagram still crosses the kernel's UDP stack, so the runtime
//! exercises the real codec, sockets and timing. The protocol wiring —
//! poll order, piggybacks, deadline folding, plane classification, RPC
//! dispatch — lives in [`crate::stack`]; what is left here is locking a
//! vnode, parking its deadline, resolving a vnode id to a socket, and
//! packing frames. A vnode's lock is the operator seam's door: on the step
//! path only its loop takes it, while [`Cluster::with_stack`] and the RPC
//! listener take it from their own threads. Whoever held it parks the
//! stack's next deadline if it moved earlier than the one live wheel
//! entry: a loop stepping its own vnode straight into its wheel, anyone
//! else — spawn, the seam, the listener, a loop stepping a frame a remote
//! shard sent to its socket for another loop's vnode — through the home
//! loop's inbox. Only the live entry's wake steps the vnode. A node's
//! seeds and lazy per-exchange peer draws depend on its id alone, so
//! same-seed clusters select the same peer sequence per node whatever
//! their loop count or shard split.
//!
//! # Examples
//!
//! ```no_run
//! use epidemic_aggregation::{InstanceSpec, NodeConfig};
//! use epidemic_net::cluster::Cluster;
//! use epidemic_net::mux::{MuxCluster, MuxClusterConfig};
//!
//! let node_config = NodeConfig::builder()
//!     .gamma(10)
//!     .cycle_length(50)
//!     .timeout(20)
//!     .instance(InstanceSpec::AVERAGE)
//!     .build()?;
//! // 1024 gossip nodes on two loops: two sockets, two OS threads.
//! let cluster = MuxCluster::spawn(
//!     MuxClusterConfig::new(1024, node_config).with_readers(2),
//!     |i| i as f64,
//! )?;
//! std::thread::sleep(std::time::Duration::from_millis(1_200));
//! let reports = cluster.take_all_reports();
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::batch::{wait_readable, IoBackend, RecvBatch, SendBatch};
use crate::cluster::Cluster;
use crate::codec::{
    bundle_frame_len, decode_bundle, decode_datagram, encode_rpc_response, push_bundle_frame,
    WireFrame, WirePayload, BUNDLE_BUDGET,
};
use crate::directory::{DirectorySpec, GossipDirectory, PeerDirectory, StaticDirectory};
use crate::stack::{Convergence, Input, NodeStack, Plane, Traffic};
use crate::timer::TimerWheel;
use epidemic_aggregation::{EpochReport, NodeConfig};
use epidemic_common::stats::OnlineStats;
use epidemic_common::NodeId;
use epidemic_query::QueryPlaneConfig;
use epidemic_telemetry::{Counter, Gauge, Histogram, MetricsServer, Registry};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The wheel's tick and the longest a loop waits for a datagram.
const TICK: Duration = Duration::from_millis(1);

/// The longest a loop steps before it offers its core back
/// (`sched_yield`), so a thread sharing the core — the RPC listener, the
/// client it answers, another loop with due timers — waits about one step
/// for it, not a whole turn.
const SLICE: Duration = Duration::from_micros(5);

/// Reserves `n` distinct loopback addresses by binding ephemeral-port
/// sockets, recording their addresses, and releasing them only after all
/// `n` ports are chosen.
fn reserve_loopback_addrs(n: usize) -> io::Result<Vec<SocketAddr>> {
    let mut addrs = Vec::with_capacity(n);
    let mut held = Vec::with_capacity(n);
    for _ in 0..n {
        let sock = UdpSocket::bind(("127.0.0.1", 0))?;
        addrs.push(sock.local_addr()?);
        held.push(sock); // hold all sockets until every port is chosen
    }
    drop(held);
    Ok(addrs)
}

/// Maps cluster-wide virtual-node ids to shard socket addresses.
///
/// Shard `s` owns the contiguous id range [`PeerTable::shard_range`] and
/// publishes its full socket *set* ([`PeerTable::shard_sockets`]); a
/// frame for any vnode is transmitted to the destination vnode's home
/// socket within the owning shard's set — `sets[s][(vnode - start) %
/// sets[s].len()]`, the same `local % loops` homing rule the receiving
/// shard uses — so cross-shard traffic fans across every loop instead
/// of piling onto the first socket. A single-shard, single-socket table
/// is the degenerate case every one-process cluster uses implicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerTable {
    /// Range boundaries: shard `s` owns `starts[s]..starts[s + 1]`.
    starts: Vec<usize>,
    /// Socket set per shard; `sets[s][0]` is the shard's
    /// advertised primary address.
    sets: Vec<Vec<SocketAddr>>,
}

impl PeerTable {
    /// One shard owning every vnode `0..total` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0`.
    pub fn single(total: usize, addr: SocketAddr) -> Self {
        PeerTable::split(total, vec![addr])
    }

    /// Splits `0..total` into `addrs.len()` near-even contiguous ranges,
    /// in shard order (earlier shards get the larger ranges when the
    /// split is uneven). Each shard publishes a single socket; use
    /// [`PeerTable::split_sets`] to publish multi-socket sets.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty or `total < addrs.len()`.
    pub fn split(total: usize, addrs: Vec<SocketAddr>) -> Self {
        PeerTable::split_sets(total, addrs.into_iter().map(|a| vec![a]).collect())
    }

    /// Splits `0..total` into `sets.len()` near-even contiguous ranges,
    /// publishing each shard's full socket set so senders can fan
    /// cross-shard frames across it.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is empty, any set is empty, or
    /// `total < sets.len()`.
    pub fn split_sets(total: usize, sets: Vec<Vec<SocketAddr>>) -> Self {
        assert!(!sets.is_empty(), "peer table needs at least one shard");
        assert!(
            sets.iter().all(|set| !set.is_empty()),
            "every shard needs at least one socket"
        );
        assert!(
            total >= sets.len(),
            "fewer vnodes ({total}) than shards ({})",
            sets.len()
        );
        let shards = sets.len();
        let base = total / shards;
        let remainder = total % shards;
        let mut starts = Vec::with_capacity(shards + 1);
        let mut next = 0;
        for s in 0..shards {
            starts.push(next);
            next += base + usize::from(s < remainder);
        }
        starts.push(next);
        debug_assert_eq!(next, total);
        PeerTable { starts, sets }
    }

    /// Binds (and immediately releases) `shards` loopback sockets on
    /// ephemeral ports and splits `0..total` across them — the
    /// same-host convenience for multi-process experiments and tests.
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors.
    pub fn loopback_split(total: usize, shards: usize) -> io::Result<Self> {
        Ok(PeerTable::split(total, reserve_loopback_addrs(shards)?))
    }

    /// Like [`PeerTable::loopback_split`], but publishes `readers`
    /// loopback sockets per shard, so every shard runs at least `readers`
    /// loops and cross-shard senders fan across their sockets.
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors.
    ///
    /// # Panics
    ///
    /// Panics if `readers == 0`.
    pub fn loopback_split_readers(total: usize, shards: usize, readers: usize) -> io::Result<Self> {
        assert!(readers > 0, "need at least one reader per shard");
        let flat = reserve_loopback_addrs(shards * readers)?;
        Ok(PeerTable::split_sets(
            total,
            flat.chunks(readers).map(<[SocketAddr]>::to_vec).collect(),
        ))
    }

    /// Cluster-wide virtual-node count.
    pub fn total(&self) -> usize {
        *self.starts.last().unwrap()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.sets.len()
    }

    /// The vnode-id range shard `shard` owns.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_range(&self, shard: usize) -> Range<usize> {
        self.starts[shard]..self.starts[shard + 1]
    }

    /// The advertised (primary) socket address of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_addr(&self, shard: usize) -> SocketAddr {
        self.sets[shard][0]
    }

    /// The full published socket set of shard `shard`, primary
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_sockets(&self, shard: usize) -> &[SocketAddr] {
        &self.sets[shard]
    }

    /// The owning shard of `vnode`, or `None` for an out-of-range id.
    pub fn shard_of(&self, vnode: usize) -> Option<usize> {
        if vnode >= self.total() {
            return None;
        }
        // starts is sorted; find the last boundary at or below vnode.
        Some(match self.starts.binary_search(&vnode) {
            Ok(s) => s,
            Err(insertion) => insertion - 1,
        })
    }

    /// The socket address frames for `vnode` should be sent to — the
    /// vnode's home socket within its shard's published set — or `None`
    /// for an out-of-range id.
    pub fn addr_of(&self, vnode: usize) -> Option<SocketAddr> {
        let s = self.shard_of(vnode)?;
        let set = &self.sets[s];
        Some(set[(vnode - self.starts[s]) % set.len()])
    }
}

/// Configuration of a multiplexed cluster (or one shard of one): vnode
/// count, protocol parameters, membership directory, I/O layout (loop
/// sockets, syscall batching), and shard layout.
#[derive(Debug, Clone)]
pub struct MuxClusterConfig {
    /// Cluster-wide vnode count.
    n: usize,
    /// `(table, local shard)` for sharded deployments; `None` hosts all
    /// of `0..n` behind an ephemeral loopback socket set.
    sharding: Option<(PeerTable, usize)>,
    node_config: NodeConfig,
    seed: u64,
    /// Loop count (a socket and a thread each); `None` resolves
    /// core-aware at spawn.
    loops: Option<usize>,
    io: IoBackend,
    directory: DirectorySpec,
    /// Per-vnode protocol event ring capacity; 0 disables tracing.
    trace_capacity: usize,
    /// Address to serve the Prometheus-text `/metrics` endpoint on.
    metrics_addr: Option<SocketAddr>,
    /// Query-plane parameters shared by every vnode (catalog gossip
    /// cadence, rumor boost, COUNT leader concurrency).
    query: QueryPlaneConfig,
    /// Address to serve client query RPCs on (wire tags 13/14); `None`
    /// disables the listener.
    rpc_addr: Option<SocketAddr>,
}

impl MuxClusterConfig {
    /// Describes a cluster of `n` virtual nodes behind a loopback socket
    /// set. The loop count defaults to one per core, at most 8, and the
    /// I/O backend to [`IoBackend::auto`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, node_config: NodeConfig) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        MuxClusterConfig {
            n,
            sharding: None,
            node_config,
            seed: 0xC0FFEE,
            loops: None,
            io: IoBackend::auto(),
            directory: DirectorySpec::Static,
            trace_capacity: 0,
            metrics_addr: None,
            query: QueryPlaneConfig::default(),
            rpc_addr: None,
        }
    }

    /// Describes ONE shard of a cross-socket cluster: this process hosts
    /// `table.shard_range(local_shard)` and binds
    /// `table.shard_addr(local_shard)`; frames for foreign vnodes go to
    /// the owning shard's address. Every shard must be spawned with the
    /// same table, protocol config, and seed.
    ///
    /// # Panics
    ///
    /// Panics if `local_shard` is out of range.
    pub fn sharded(table: PeerTable, local_shard: usize, node_config: NodeConfig) -> Self {
        assert!(
            local_shard < table.shard_count(),
            "shard {local_shard} out of range ({} shards)",
            table.shard_count()
        );
        let mut config = MuxClusterConfig::new(table.total(), node_config);
        config.sharding = Some((table, local_shard));
        config
    }

    /// Overrides the randomness seed shared by the cluster (every shard
    /// of one cluster must use the same).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same as [`MuxClusterConfig::with_readers`]: workers and readers
    /// are one pool of loops, so the larger explicit count wins.
    ///
    /// # Panics
    ///
    /// Panics if `loops == 0`.
    pub fn with_workers(self, loops: usize) -> Self {
        self.with_readers(loops)
    }

    /// Raises the loop count to at least `loops` (the larger of this and
    /// [`MuxClusterConfig::with_workers`] wins). Each loop is one socket
    /// and one thread, and homes local vnode `i` when `i % loops` is its
    /// index; `1` reproduces the original single-socket runtime exactly.
    /// At spawn the count is clamped to the local vnode count (an extra
    /// socket would never receive anything) and raised to the shard's
    /// published socket set.
    ///
    /// # Panics
    ///
    /// Panics if `loops == 0`.
    pub fn with_readers(mut self, loops: usize) -> Self {
        assert!(loops > 0, "need at least one loop");
        self.loops = Some(self.loops.map_or(loops, |set| set.max(loops)));
        self
    }

    /// Overrides the datagram I/O backend (default: [`IoBackend::auto`],
    /// i.e. syscall batching wherever the platform supports it).
    pub fn with_io(mut self, io: IoBackend) -> Self {
        self.io = io;
        self
    }

    /// Selects the membership directory every vnode runs (default:
    /// [`DirectorySpec::Static`]).
    pub fn with_directory(mut self, directory: DirectorySpec) -> Self {
        self.directory = directory;
        self
    }

    /// Enables protocol event tracing with a bounded ring of `capacity`
    /// events per vnode (per plane); drain with
    /// [`Cluster::take_trace`]. Default: disabled.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Serves the registry as a Prometheus-text `/metrics` endpoint on
    /// `addr` for the cluster's lifetime (port 0 picks an ephemeral
    /// port; read it back via [`MuxCluster::metrics_addr`]).
    pub fn with_metrics_addr(mut self, addr: SocketAddr) -> Self {
        self.metrics_addr = Some(addr);
        self
    }

    /// Overrides the query-plane parameters every vnode runs (default:
    /// [`QueryPlaneConfig::default`]).
    pub fn with_query_config(mut self, query: QueryPlaneConfig) -> Self {
        self.query = query;
        self
    }

    /// Serves client query RPCs (install/remove/submit/read, wire tags
    /// 13/14) on a dedicated UDP listener at `addr` (port 0 picks an
    /// ephemeral port; read it back via [`MuxCluster::rpc_addr`]).
    /// Requests are routed round-robin over the shard's vnodes — every
    /// node holds the aggregate, so any node is a valid endpoint.
    pub fn with_rpc_addr(mut self, addr: SocketAddr) -> Self {
        self.rpc_addr = Some(addr);
        self
    }

    /// Cluster-wide number of virtual nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the cluster would be empty (never: `new` rejects
    /// `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// One queued frame's accounting: the packer datagram carrying it, its
/// plane, and its bytes there (the header byte is charged to a
/// datagram's first frame, so charges sum to the payload).
#[derive(Debug, Clone, Copy)]
struct Charge {
    datagram: usize,
    plane: Plane,
    bytes: u32,
}

/// Packs one loop's outbound frames into bundle datagrams: frames for the
/// same destination socket share a datagram, in push order, up to
/// [`BUNDLE_BUDGET`] bytes; a frame that does not fit opens the next, so
/// one larger than the budget travels alone. Nothing is held back —
/// [`Packer::flush`] ends every loop turn.
#[derive(Debug, Default)]
struct Packer {
    /// This flush's datagrams, in creation order.
    datagrams: Vec<(SocketAddr, Vec<u8>)>,
    /// One entry per queued frame, in push order.
    charges: Vec<Charge>,
    batch: SendBatch<usize>,
    /// Per datagram of the running flush: did the kernel take it?
    taken: Vec<bool>,
}

impl Packer {
    /// Encodes `frame` for vnode `to` behind socket `target` into that
    /// destination's open datagram, returning the bytes it was charged.
    fn push(&mut self, target: SocketAddr, to: NodeId, frame: &WireFrame<'_>, plane: Plane) -> u64 {
        // Only a destination's newest datagram takes frames: keeps order.
        let newest = self.datagrams.iter().rposition(|(addr, _)| *addr == target);
        let open = newest
            .filter(|&d| self.datagrams[d].1.len() + bundle_frame_len(frame) <= BUNDLE_BUDGET);
        let datagram = open.unwrap_or_else(|| {
            self.datagrams
                .push((target, Vec::with_capacity(BUNDLE_BUDGET)));
            self.datagrams.len() - 1
        });
        let buf = &mut self.datagrams[datagram].1;
        let before = buf.len();
        push_bundle_frame(buf, to, frame);
        let bytes = (buf.len() - before) as u32;
        self.charges.push(Charge {
            datagram,
            plane,
            bytes,
        });
        u64::from(bytes)
    }

    /// Transmits every queued datagram, reporting each frame's [`Charge`]
    /// with its datagram's fate; returns `(syscalls, datagrams accepted)`.
    fn flush(
        &mut self,
        socket: &UdpSocket,
        io: IoBackend,
        mut on_frame: impl FnMut(&Charge, bool),
    ) -> (u64, u64) {
        let taken = &mut self.taken;
        taken.clear();
        taken.resize(self.datagrams.len(), false);
        for (datagram, (target, buf)) in self.datagrams.drain(..).enumerate() {
            self.batch.push(buf, target, datagram);
        }
        let syscalls = self.batch.flush(socket, io, |&d, _len, ok| taken[d] = ok);
        for charge in self.charges.drain(..) {
            on_frame(&charge, taken[charge.datagram]);
        }
        (syscalls, taken.iter().filter(|&&ok| ok).count() as u64)
    }
}

/// A virtual node: its protocol stack and the earliest timer deadline
/// already parked for it.
#[derive(Debug)]
struct VNode {
    stack: NodeStack,
    /// Deadline of the node's one live wheel entry (`u64::MAX` only while
    /// a wake steps it): lets a park skip redundant schedule requests and
    /// a wake tell the live entry from one a moved deadline stranded.
    next_wake: u64,
}

impl VNode {
    /// Claims a new wheel entry when the stack's next deadline moved earlier
    /// than the live one (an exchange's timeout, a query install), and
    /// returns the deadline to park.
    fn rearm(&mut self) -> Option<u64> {
        let deadline = self.stack.next_deadline();
        (deadline < self.next_wake).then(|| {
            self.next_wake = deadline;
            deadline
        })
    }
}

/// Cumulative kernel-boundary crossings of a running cluster — the
/// numerator of the syscalls-per-frame metric the batch backends and the
/// bundle packer exist to shrink. Backed by the `io.recv_syscalls` /
/// `io.send_syscalls` registry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyscallCounts {
    /// Receive-side syscalls issued by the loops: each turn's readiness
    /// wait (one `poll` on Linux) and the `recvmmsg` or
    /// `recv_from` that drains the socket.
    pub recv_calls: u64,
    /// Send syscalls issued by the loops (`sendmmsg` or `send_to`).
    pub send_calls: u64,
}

#[derive(Debug)]
struct Shared {
    /// Each loop's socket address, in loop order: local vnode `i` is homed
    /// on loop `i % addrs.len()`. Address 0 is the shard's advertised one.
    addrs: Vec<SocketAddr>,
    io: IoBackend,
    stop: AtomicBool,
    /// Cluster-wide id of local node 0.
    base: usize,
    table: PeerTable,
    nodes: Vec<Mutex<VNode>>,
    /// Parks `(deadline_ms, local node)` made off a vnode's home loop —
    /// by spawn, [`Cluster::with_stack`], the RPC listener, another loop —
    /// one inbox per loop, drained into its wheel every turn.
    inboxes: Vec<Mutex<Vec<(u64, u32)>>>,
    /// The unified metrics registry every handle below is connected to.
    registry: Registry,
    /// Per-plane frames and bytes, send errors, client RPCs.
    traffic: Traffic,
    /// `io.recv_syscalls{backend=…}` — the loops' waits and receives.
    recv_calls: Counter,
    /// `io.send_syscalls{backend=…}` — the loops' send crossings.
    send_calls: Counter,
    /// `io.recv_timeouts` — the subset of recv syscalls that returned
    /// empty-handed: loop turns on which one 1 ms wheel tick passed idle.
    recv_timeouts: Counter,
    /// `timer.fire_lag_us` — how late the wheel fired each deadline.
    fire_lag: Histogram,
    /// `io.datagrams_sent` — bundle datagrams the kernel accepted.
    datagrams_sent: Counter,
    /// `io.datagrams_received{socket=…,origin=local|remote}` — datagrams
    /// each loop drained, `[local, remote]` per socket: `remote` when the
    /// source is none of this shard's own sockets, so the series show
    /// cross-shard senders fanning across the whole published set.
    datagrams_received: Vec<[Counter; 2]>,
    /// `io.decode_errors` — input dropped undecoded: a datagram that is
    /// not a bundle, a bundle frame that fails to decode, a cut-off
    /// bundle tail, a non-request at the RPC listener.
    decode_errors: Counter,
    /// `membership.view_mean_size` — sampled round-robin over vnodes.
    view_mean_size: Gauge,
    /// `membership.view_dead_fraction` — stale-entry share of the same
    /// sampled view.
    view_dead_fraction: Gauge,
    /// The `epoch.*` convergence gauges, fed by the reports passing
    /// through [`Cluster::take_reports`] and the query epochs the loops
    /// drain, plus `agg.exchanges` and `membership.delta_bytes` (delta
    /// view frames and piggybacked trailers), counted as the loops' sinks
    /// see each frame.
    convergence: Convergence,
    start: Instant,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Locks local vnode `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    fn vnode(&self, index: usize) -> MutexGuard<'_, VNode> {
        self.nodes[index].lock().unwrap()
    }

    /// Home loop of local vnode `local`.
    fn home(&self, local: usize) -> usize {
        local % self.addrs.len()
    }

    /// Parks local vnode `index`'s next deadline ([`VNode::rearm`])
    /// through its home loop's inbox: the park of every thread but that
    /// loop.
    fn park(&self, vnode: &mut VNode, index: usize) {
        if let Some(deadline) = vnode.rearm() {
            let inbox = &self.inboxes[self.home(index)];
            inbox.lock().unwrap().push((deadline, index as u32));
        }
    }

    /// Where a frame for cluster-wide vnode `vnode` must be sent: a local
    /// vnode's home socket, a foreign vnode's home socket in its shard's
    /// published set, or `None` for an out-of-range id.
    fn dest_addr(&self, vnode: usize) -> Option<SocketAddr> {
        if let Some(local) = vnode.checked_sub(self.base) {
            if local < self.nodes.len() {
                return Some(self.addrs[self.home(local)]);
            }
        }
        self.table.addr_of(vnode)
    }
}

/// Handle to a running multiplexed cluster (or one shard of one).
///
/// Dropping the handle shuts the cluster down (all threads exit within
/// one poll interval).
#[derive(Debug)]
pub struct MuxCluster {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// The `/metrics` HTTP endpoint, when configured; shut down (and its
    /// thread joined) when the cluster handle drops.
    metrics: Option<MetricsServer>,
    /// Bound address of the client RPC listener, when configured.
    rpc_addr: Option<SocketAddr>,
}

impl MuxCluster {
    /// Binds the shard's socket set, builds its virtual nodes with local
    /// values `values(id)` (`id` is the *cluster-wide* vnode id), and
    /// starts one thread per loop (and the RPC listener's, if any).
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind failure, timeout setup).
    pub fn spawn(
        config: MuxClusterConfig,
        values: impl Fn(usize) -> f64,
    ) -> io::Result<MuxCluster> {
        let MuxClusterConfig {
            n,
            sharding,
            node_config,
            seed,
            loops,
            io,
            directory,
            trace_capacity,
            metrics_addr,
            query,
            rpc_addr,
        } = config;
        if let DirectorySpec::Gossip(gossip) = &directory {
            gossip.check_introducers(n)?;
        }
        let (primary, table, local_range, local_shard) = match sharding {
            None => {
                let socket = UdpSocket::bind(("127.0.0.1", 0))?;
                let addr = socket.local_addr()?;
                (socket, PeerTable::single(n, addr), 0..n, 0)
            }
            Some((table, shard)) => {
                let socket = UdpSocket::bind(table.shard_addr(shard))?;
                let range = table.shard_range(shard);
                (socket, table, range, shard)
            }
        };
        let base = local_range.start;
        // Core-aware loop count; explicit overrides win. Every published
        // shard socket MUST be bound — other shards fan cross-shard frames
        // across the full advertised set — so the count can only grow past
        // the published set, never below.
        let cores = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(2);
        let published = table.shard_sockets(local_shard).to_vec();
        let loops = loops
            .unwrap_or(cores.min(8))
            .clamp(1, local_range.len())
            .max(published.len());
        // Loops beyond the published set bind ephemeral ports on the
        // shard's advertised IP; cross-shard senders know nothing about
        // them, so those loops receive only locally-homed traffic.
        let mut sockets = vec![primary];
        for addr in &published[1..] {
            sockets.push(UdpSocket::bind(*addr)?);
        }
        for _ in published.len()..loops {
            sockets.push(UdpSocket::bind((sockets[0].local_addr()?.ip(), 0))?);
        }
        let mut addrs = Vec::with_capacity(loops);
        for socket in &sockets {
            socket.set_read_timeout(Some(TICK))?;
            addrs.push(socket.local_addr()?);
        }
        let registry = Registry::new();
        // Bind the scrape endpoint before the protocol threads start, so
        // a bind failure leaks nothing.
        let metrics = metrics_addr
            .map(|addr| MetricsServer::bind(addr, registry.clone()))
            .transpose()?;
        let mut spawn_stats = OnlineStats::new();
        let nodes: Vec<Mutex<VNode>> = local_range
            .clone()
            .map(|global| {
                let id = NodeId::new(global as u64);
                let dir: Box<dyn PeerDirectory> = match &directory {
                    DirectorySpec::Static => Box::new(StaticDirectory::id_routed(n, id, seed)),
                    DirectorySpec::Gossip(g) => Box::new(GossipDirectory::id_routed(id, g, seed)),
                };
                let value = values(global);
                spawn_stats.push(value);
                let config = node_config.clone();
                let mut stack =
                    NodeStack::founder(id, config, value, seed, dir, query, registry.clone());
                stack.set_trace_capacity(trace_capacity);
                Mutex::new(VNode {
                    stack,
                    next_wake: u64::MAX,
                })
            })
            .collect();
        let backend = &[("backend", io.as_str())];
        let shared = Arc::new(Shared {
            addrs,
            io,
            stop: AtomicBool::new(false),
            base,
            table,
            nodes,
            inboxes: (0..loops).map(|_| Mutex::new(Vec::new())).collect(),
            traffic: Traffic::new(&registry),
            recv_calls: registry.counter_with("io.recv_syscalls", backend),
            send_calls: registry.counter_with("io.send_syscalls", backend),
            recv_timeouts: registry.counter("io.recv_timeouts"),
            fire_lag: registry.histogram("timer.fire_lag_us"),
            datagrams_sent: registry.counter("io.datagrams_sent"),
            datagrams_received: (0..loops)
                .map(|k| {
                    ["local", "remote"].map(|origin| {
                        let labels = [("socket", &*k.to_string()), ("origin", origin)];
                        registry.counter_with("io.datagrams_received", &labels)
                    })
                })
                .collect(),
            decode_errors: registry.counter("io.decode_errors"),
            view_mean_size: registry.gauge("membership.view_mean_size"),
            view_dead_fraction: registry.gauge("membership.view_dead_fraction"),
            convergence: Convergence::new(
                &registry,
                spawn_stats.population_variance(),
                node_config.gamma(),
            ),
            registry,
            start: Instant::now(),
        });
        // Park every node's first deadline (a gossip directory's is its
        // join, due at once) before any thread or operator can reach it:
        // from here on `next_wake` always names a live wheel entry.
        for (i, node) in shared.nodes.iter().enumerate() {
            shared.park(&mut node.lock().unwrap(), i);
        }

        // Bind the client RPC listener (if any) before the protocol
        // threads start, so a bind failure leaks nothing.
        let rpc_socket = rpc_addr.map(UdpSocket::bind).transpose()?;
        if let Some(socket) = &rpc_socket {
            socket.set_read_timeout(Some(Duration::from_millis(20)))?;
        }
        let rpc_addr = rpc_socket.as_ref().map(UdpSocket::local_addr).transpose()?;

        let mut threads = Vec::with_capacity(loops + usize::from(rpc_socket.is_some()));
        let cycle = node_config.cycle_length().max(1);
        let spawned = (|| -> io::Result<()> {
            for (k, socket) in sockets.into_iter().enumerate() {
                let loop_shared = Arc::clone(&shared);
                let own = Loop {
                    k,
                    socket,
                    wheel: TimerWheel::for_cycle(cycle),
                    packer: Packer::default(),
                    ran_since: Instant::now(),
                };
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("mux-loop-{k}"))
                        .spawn(move || run_loop(&loop_shared, own))?,
                );
            }
            if let Some(socket) = rpc_socket {
                let rpc_shared = Arc::clone(&shared);
                threads.push(
                    std::thread::Builder::new()
                        .name("mux-rpc".into())
                        .spawn(move || rpc_loop(&rpc_shared, &socket))?,
                );
            }
            Ok(())
        })();
        if let Err(e) = spawned {
            // A later spawn failed (e.g. thread exhaustion): stop and
            // join whatever already started instead of leaking detached
            // threads that would pin the socket and node state forever.
            shared.stop.store(true, Ordering::Relaxed);
            for handle in threads {
                let _ = handle.join();
            }
            return Err(e);
        }
        Ok(MuxCluster {
            shared,
            threads,
            metrics,
            rpc_addr,
        })
    }

    /// The bound address of the client RPC listener, if one was
    /// configured with [`MuxClusterConfig::with_rpc_addr`]. Clients send
    /// encoded [`epidemic_query::RpcRequest`] datagrams (wire tag 13)
    /// here and receive tag-14 responses from the same socket.
    pub fn rpc_addr(&self) -> Option<SocketAddr> {
        self.rpc_addr
    }

    /// The shard's advertised socket address (loop 0's — the one the peer
    /// table publishes to other shards).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addrs[0]
    }

    /// Number of loops this shard runs: one socket and one thread each.
    pub fn reader_count(&self) -> usize {
        self.shared.addrs.len()
    }

    /// The datagram I/O backend the cluster is moving bytes with.
    pub fn io_backend(&self) -> IoBackend {
        self.shared.io
    }

    /// Cumulative send/receive syscall counts across all threads since
    /// spawn — divide by [`crate::cluster::TrafficCounts`] frame totals
    /// for the syscalls-per-frame figure batching and bundling exist to
    /// shrink.
    pub fn syscall_counts(&self) -> SyscallCounts {
        SyscallCounts {
            recv_calls: self.shared.recv_calls.get(),
            send_calls: self.shared.send_calls.get(),
        }
    }

    /// The bound address of the `/metrics` HTTP endpoint, if one was
    /// configured with [`MuxClusterConfig::with_metrics_addr`].
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(MetricsServer::addr)
    }

    /// Number of virtual nodes hosted by THIS handle (the local shard).
    pub fn len(&self) -> usize {
        self.shared.nodes.len()
    }

    /// Returns `true` if this handle hosts no nodes (never, by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.shared.nodes.is_empty()
    }

    /// Cluster-wide virtual-node count (across all shards).
    pub fn total_len(&self) -> usize {
        self.shared.table.total()
    }

    /// OS threads the cluster runs on: one per loop, plus one when the
    /// client RPC listener is enabled.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Stops all threads and waits for them to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Cluster for MuxCluster {
    fn node_count(&self) -> usize {
        self.len()
    }

    fn node_id(&self, index: usize) -> NodeId {
        assert!(index < self.len(), "node index out of range");
        NodeId::new((self.shared.base + index) as u64)
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        self.shared.addrs.clone()
    }

    /// The shard's registry — scrape it in-process with
    /// [`Registry::render_prometheus`], or read individual series with
    /// [`Registry::counter_value`] / [`Registry::gauge_value`].
    fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    fn with_stack<R>(&self, index: usize, f: impl FnOnce(&mut NodeStack, u64) -> R) -> R {
        let mut vnode = self.shared.vnode(index);
        let result = f(&mut vnode.stack, self.shared.now_ms());
        self.shared.park(&mut vnode, index);
        result
    }

    /// Also feeds the drained reports to the `epoch.*` convergence gauges.
    fn take_reports(&self, index: usize) -> Vec<EpochReport> {
        let reports = self.with_stack(index, |stack, _| stack.take_reports());
        self.shared.convergence.observe_reports(&reports);
        reports
    }

    fn shutdown(self) {
        MuxCluster::shutdown(self);
    }
}

impl Drop for MuxCluster {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// What only loop `k`'s thread touches: its socket, the wheel its vnodes
/// park in, and the packer their frames leave through.
#[derive(Debug)]
struct Loop {
    /// The loop's index — of its socket, inbox and `io.datagrams_received`
    /// series, and of the vnodes it homes.
    k: usize,
    socket: UdpSocket,
    wheel: TimerWheel,
    packer: Packer,
    /// When the loop last blocked or yielded (see [`SLICE`]).
    ran_since: Instant,
}

/// Runs loop `own` until shutdown, one turn at a time: receive (waiting
/// at most one [`TICK`]), step every frame inline, drain the park inbox,
/// fire due wheel entries, flush. Loop 0 also samples view health.
fn run_loop(shared: &Shared, mut own: Loop) {
    let mut batch = RecvBatch::new();
    let mut due: Vec<(u64, u32)> = Vec::new();
    let (mut next_health, mut health_cursor) = (0, 0);
    while !shared.stop.load(Ordering::Relaxed) {
        shared.recv_calls.inc();
        let received = match wait_readable(&own.socket, TICK) {
            Ok(true) => {
                shared.recv_calls.inc();
                batch.recv(&own.socket, shared.io)
            }
            Ok(false) => Err(io::ErrorKind::TimedOut.into()),
            Err(e) => Err(e),
        };
        own.ran_since = Instant::now();
        match received {
            Ok(count) => {
                for i in 0..count {
                    own.deliver(shared, batch.src(i), batch.datagram(i));
                }
            }
            Err(ref e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                shared.recv_timeouts.inc();
            }
            Err(_) => {}
        }
        let inbox = &shared.inboxes[own.k];
        std::mem::swap(&mut due, &mut inbox.lock().unwrap());
        for (deadline, node) in due.drain(..) {
            own.wheel.schedule(deadline, node);
        }
        let now = shared.now_ms();
        own.wheel.advance_entries(now, |at, v| due.push((at, v)));
        for (deadline, node) in due.drain(..) {
            shared.fire_lag.record(now.saturating_sub(deadline) * 1_000);
            let index = node as usize;
            let mut vnode = shared.vnode(index);
            // An entry a moved deadline stranded steps nothing, as a stale
            // wake in `EventSim` does: no second timer chain.
            if deadline == vnode.next_wake {
                vnode.next_wake = u64::MAX; // claimed: the step's park re-arms
                own.step(shared, vnode, index, Input::Wake);
            }
        }
        own.flush(shared);
        // A sampled gauge only needs to move on scrape timescales.
        if own.k == 0 && now >= next_health {
            next_health = now + 256;
            sample_view_health(shared, now, &mut health_cursor);
        }
    }
}

impl Loop {
    /// Walks one received bundle and steps each frame's vnode inline.
    fn deliver(&mut self, shared: &Shared, src: Option<SocketAddr>, datagram: &[u8]) {
        let [local, remote] = &shared.datagrams_received[self.k];
        match src {
            Some(src) if !shared.addrs.contains(&src) => remote.inc(),
            _ => local.inc(),
        }
        let Ok(frames) = decode_bundle(datagram) else {
            shared.decode_errors.inc();
            return; // not a bundle: drop, stay alive
        };
        // Corrupt frames and a cut-off tail drop; the rest arrive.
        for frame in frames {
            let Ok((to, payload)) = frame else {
                shared.decode_errors.inc();
                continue;
            };
            let local = to.index().checked_sub(shared.base);
            // A foreign shard's vnode is misrouted: drop.
            let Some(index) = local.filter(|&i| i < shared.nodes.len()) else {
                continue;
            };
            // Client RPC rides the dedicated listener socket (`rpc_loop`);
            // one arriving as a mux frame is misrouted and dropped.
            let Some(plane) = Plane::of_received(&payload) else {
                continue;
            };
            shared.traffic.received(plane);
            let vnode = shared.vnode(index);
            self.step(shared, vnode, index, Input::Frame(&payload));
        }
    }

    /// Steps local vnode `index`, whose lock the caller hands over,
    /// encoding the frames it emits into this loop's packer. Then parks its
    /// next deadline: straight into this wheel when the vnode is homed
    /// here, through its home loop's inbox when a remote shard sent its
    /// frame to this socket. Once the loop has stepped for a [`SLICE`]
    /// since it last blocked, it yields — after unlocking.
    fn step(
        &mut self,
        shared: &Shared,
        mut vnode: MutexGuard<'_, VNode>,
        index: usize,
        input: Input<'_>,
    ) {
        let (packer, now) = (&mut self.packer, shared.now_ms());
        vnode.stack.step(input, now, |to, frame, plane| {
            // An id outside the peer table has no socket: drop the frame.
            let Some(target) = shared.dest_addr(to.index()) else {
                return;
            };
            let bytes = packer.push(target, to, &frame, plane);
            shared.convergence.count(&frame, bytes);
        });
        // Completed query epochs feed the per-query drift gauges.
        let query_epochs = vnode.stack.take_query_epochs();
        shared.convergence.observe_query_epochs(&query_epochs);
        if shared.home(index) != self.k {
            shared.park(&mut vnode, index);
        } else if let Some(deadline) = vnode.rearm() {
            self.wheel.schedule(deadline, index as u32);
        }
        drop(vnode);
        if self.ran_since.elapsed() >= SLICE {
            std::thread::yield_now();
            self.ran_since = Instant::now();
        }
    }

    /// Transmits every queued bundle, charging each frame to its plane's
    /// series — or one `io.send_errors` if the kernel refused its datagram.
    fn flush(&mut self, shared: &Shared) {
        let (syscalls, datagrams) = self.packer.flush(&self.socket, shared.io, |charge, ok| {
            if ok {
                shared.traffic.sent(charge.plane, u64::from(charge.bytes));
            } else {
                shared.traffic.send_error();
            }
        });
        shared.send_calls.add(syscalls);
        shared.datagrams_sent.add(datagrams);
    }
}

/// Samples the `membership.view_*` health pair from one vnode's
/// directory per call (round-robin, skipping vnodes another thread holds
/// locked — a gauge sample must never stall the protocol path).
fn sample_view_health(shared: &Shared, now: u64, health_cursor: &mut usize) {
    for _ in 0..shared.nodes.len().min(8) {
        let index = *health_cursor % shared.nodes.len();
        *health_cursor += 1;
        let Ok(vnode) = shared.nodes[index].try_lock() else {
            continue;
        };
        if let Some(health) = vnode.stack.view_health(now) {
            shared.view_mean_size.set(health.mean_size);
            shared.view_dead_fraction.set(health.dead_entry_fraction);
        }
        break;
    }
}

/// Serves client query RPCs on the dedicated listener socket. Every node
/// holds the aggregate — any of them is a valid endpoint — so requests
/// are routed round-robin over the shard's vnodes and each response goes
/// straight back to the client's source address. Rejections surface both
/// in the response status and in `rpc.rejects` — never silently
/// swallowed.
fn rpc_loop(shared: &Shared, socket: &UdpSocket) {
    let mut buf = [0u8; 64 * 1024];
    let mut next = 0usize;
    while !shared.stop.load(Ordering::Relaxed) {
        // A read timeout (or spurious wake) re-checks the stop flag.
        let Ok((len, src)) = socket.recv_from(&mut buf) else {
            continue;
        };
        let Ok(WirePayload::Rpc(request)) = decode_datagram(&buf[..len]) else {
            shared.decode_errors.inc();
            continue; // not a client request: drop, stay alive
        };
        let index = next % shared.nodes.len();
        next = next.wrapping_add(1);
        let mut vnode = shared.vnode(index);
        let response = vnode.stack.rpc(&request, shared.now_ms());
        // An install or a remove moved the plane's gossip deadline; the
        // park reaches the vnode's loop through its inbox.
        shared.park(&mut vnode, index);
        drop(vnode);
        shared.traffic.rpc(&response);
        let _ = socket.send_to(&encode_rpc_response(&response), src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_rpc_response, encode_rpc_request};
    use crate::directory::GossipDirectoryConfig;
    use epidemic_aggregation::value::InstanceMap;
    use epidemic_aggregation::{AggregateKind, InstanceSpec, InstanceState, Message};
    use epidemic_query::{QueryDescriptor, RpcRequest, RpcStatus};

    fn node_config(gamma: u32, cycle_ms: u64) -> NodeConfig {
        NodeConfig::builder()
            .gamma(gamma)
            .cycle_length(cycle_ms)
            .timeout(cycle_ms / 2)
            .instance(InstanceSpec::AVERAGE)
            .build()
            .unwrap()
    }

    #[test]
    fn peer_table_splits_evenly_and_routes() {
        let addrs: Vec<SocketAddr> = (0..3)
            .map(|i| format!("127.0.0.1:{}", 9100 + i).parse().unwrap())
            .collect();
        let table = PeerTable::split(10, addrs.clone());
        assert_eq!(table.total(), 10);
        assert_eq!(table.shard_count(), 3);
        assert_eq!(table.shard_range(0), 0..4);
        assert_eq!(table.shard_range(1), 4..7);
        assert_eq!(table.shard_range(2), 7..10);
        assert_eq!(table.shard_of(0), Some(0));
        assert_eq!(table.shard_of(3), Some(0));
        assert_eq!(table.shard_of(4), Some(1));
        assert_eq!(table.shard_of(9), Some(2));
        assert_eq!(table.shard_of(10), None);
        assert_eq!(table.addr_of(8), Some(addrs[2]));
        assert_eq!(table.addr_of(99), None);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn peer_table_rejects_no_shards() {
        PeerTable::split(4, Vec::new());
    }

    #[test]
    fn peer_table_socket_sets_home_vnodes_across_readers() {
        // Shard 0 publishes two reader sockets, shard 1 publishes one:
        // frames for shard-0 vnodes alternate across its set by the same
        // `local % loops` rule the receiving shard homes with.
        let addr = |port: u16| -> SocketAddr { format!("127.0.0.1:{port}").parse().unwrap() };
        let table = PeerTable::split_sets(5, vec![vec![addr(9200), addr(9201)], vec![addr(9210)]]);
        assert_eq!(table.shard_range(0), 0..3);
        assert_eq!(table.shard_range(1), 3..5);
        assert_eq!(table.shard_addr(0), addr(9200));
        assert_eq!(table.shard_sockets(0), &[addr(9200), addr(9201)]);
        assert_eq!(table.addr_of(0), Some(addr(9200)));
        assert_eq!(table.addr_of(1), Some(addr(9201)));
        assert_eq!(table.addr_of(2), Some(addr(9200)));
        assert_eq!(table.addr_of(3), Some(addr(9210)));
        assert_eq!(table.addr_of(4), Some(addr(9210)));
        assert_eq!(table.addr_of(5), None);
    }

    #[test]
    fn loopback_split_readers_publishes_full_socket_sets() {
        let table = PeerTable::loopback_split_readers(8, 2, 3).unwrap();
        assert_eq!(table.shard_count(), 2);
        let mut all = Vec::new();
        for s in 0..2 {
            let set = table.shard_sockets(s);
            assert_eq!(set.len(), 3);
            assert_eq!(set[0], table.shard_addr(s));
            all.extend_from_slice(set);
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 6, "published sockets must be distinct");
    }

    #[test]
    #[should_panic(expected = "at least one socket")]
    fn peer_table_rejects_empty_socket_set() {
        PeerTable::split_sets(4, vec![vec!["127.0.0.1:9300".parse().unwrap()], vec![]]);
    }

    fn push(packer: &mut Packer, target: SocketAddr, i: u64, msg: &Message) {
        let (to, plane) = (NodeId::new(i), Plane::Aggregation);
        packer.push(target, to, &WireFrame::Aggregation(msg), plane);
    }

    #[test]
    fn packer_keeps_destinations_apart_in_order_and_inside_the_budget() {
        let a: SocketAddr = "127.0.0.1:9401".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:9402".parse().unwrap();
        // Larger than the budget on its own, in the middle of a's stream.
        let map = InstanceMap::from_entries((0..100).map(|leader| (leader, 0.5)));
        let big = Message::request(NodeId::new(40), 0, vec![InstanceState::Map(map)]);
        let mut packer = Packer::default();
        let mut pushed = [Vec::new(), Vec::new()];
        for i in 0..240u64 {
            let (dest, target) = if i % 3 == 0 { (1, b) } else { (0, a) };
            let small = Message::refuse(NodeId::new(i), 0);
            push(&mut packer, target, i, if i == 40 { &big } else { &small });
            pushed[dest].push(i);
        }
        let mut packed = [Vec::new(), Vec::new()];
        for (d, (target, buf)) in packer.datagrams.iter().enumerate() {
            let frames = decode_bundle(buf).unwrap().map(|f| f.unwrap().0.as_u64());
            let dest = &mut packed[usize::from(*target == b)];
            let before = dest.len();
            dest.extend(frames);
            let lone = dest.len() == before + 1;
            assert!(buf.len() <= BUNDLE_BUDGET || lone, "{} bytes", buf.len());
            // Per-frame charges add up to the UDP payload exactly.
            let charges = packer.charges.iter().filter(|c| c.datagram == d);
            assert_eq!(charges.map(|c| c.bytes as usize).sum::<usize>(), buf.len());
        }
        assert_eq!(packed, pushed, "frames crossed destinations or lost order");
        assert!(packer.datagrams.len() > 6, "budget and big frame split");
    }

    #[test]
    fn packer_flush_reports_every_frame_and_an_empty_flush_sends_nothing() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut packer = Packer::default();
        let sent = packer.flush(&socket, IoBackend::Portable, |_, _| unreachable!());
        assert_eq!(sent, (0, 0));
        // An IPv6 destination on an IPv4 socket: the kernel refuses that
        // datagram (the first), and both of its frames must hear about it.
        let bad: SocketAddr = "[::1]:9".parse().unwrap();
        let msg = Message::refuse(NodeId::new(0), 0);
        for (i, target) in [(0, bad), (1, socket.local_addr().unwrap()), (2, bad)] {
            push(&mut packer, target, i, &msg);
        }
        let mut fates = Vec::new();
        let sent = packer.flush(&socket, IoBackend::Portable, |c, ok| {
            fates.push((c.datagram, ok))
        });
        assert_eq!(sent, (2, 1), "two datagrams, one accepted");
        fates.sort_unstable();
        assert_eq!(fates, [(0, false), (0, false), (1, true)]);
        assert!(packer.charges.is_empty() && packer.datagrams.is_empty());
    }

    #[test]
    fn one_thread_and_one_socket_per_loop() {
        // Workers and readers are one pool: the larger count wins.
        let config = |workers, readers| {
            let config = MuxClusterConfig::new(64, node_config(4, 40));
            config.with_workers(workers).with_readers(readers)
        };
        let cluster = MuxCluster::spawn(config(3, 1), |_| 0.0).unwrap();
        assert_eq!(cluster.len(), 64);
        assert_eq!(cluster.total_len(), 64);
        assert_eq!(cluster.reader_count(), 3);
        assert_eq!(cluster.thread_count(), 3);
        assert_eq!(Cluster::addrs(&cluster)[0], cluster.addr());
        cluster.shutdown();

        let wide = MuxCluster::spawn(config(3, 4), |_| 0.0).unwrap();
        assert_eq!(wide.reader_count(), 4);
        assert_eq!(wide.thread_count(), 4);
        let addrs = Cluster::addrs(&wide);
        assert_eq!(addrs.len(), 4);
        assert_eq!(addrs[0], wide.addr());
        assert_eq!(
            addrs.iter().collect::<std::collections::HashSet<_>>().len(),
            4,
            "loop sockets must have distinct addresses"
        );
        wide.shutdown();

        // The RPC listener is the one thread that is not a loop.
        let rpc = config(3, 4).with_rpc_addr("127.0.0.1:0".parse().unwrap());
        let served = MuxCluster::spawn(rpc, |_| 0.0).unwrap();
        assert_eq!(served.thread_count(), 4 + 1);
        served.shutdown();
    }

    #[test]
    fn readers_clamp_to_local_node_count() {
        // One vnode cannot use four sockets: three would never receive.
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(1, node_config(2, 30))
                .with_workers(1)
                .with_readers(4),
            |_| 0.0,
        )
        .unwrap();
        assert_eq!(cluster.reader_count(), 1);
        cluster.shutdown();
    }

    #[test]
    fn multi_reader_cluster_converges_and_counts_syscalls() {
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(8, node_config(8, 25))
                .with_workers(2)
                .with_readers(2),
            |i| i as f64, // truth 3.5
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(900));
        let reports = cluster.take_all_reports();
        let counts = cluster.syscall_counts();
        let totals = cluster.total_datagram_counts();
        cluster.shutdown();
        let finals: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.last())
            .map(|r| r.scalar(0).unwrap())
            .collect();
        assert!(finals.len() >= 6, "only {} nodes reported", finals.len());
        for est in finals {
            assert!((est - 3.5).abs() < 0.5, "estimate {est} (truth 3.5)");
        }
        assert!(counts.recv_calls > 0, "no recv syscalls counted");
        assert!(counts.send_calls > 0, "no send syscalls counted");
        assert!(
            counts.send_calls <= totals.sent() + totals.send_errors,
            "send syscalls ({}) exceed datagrams attempted ({})",
            counts.send_calls,
            totals.sent() + totals.send_errors,
        );
        // A static directory produces no membership traffic.
        assert_eq!(totals.membership_sent, 0);
        assert_eq!(totals.membership_received, 0);
    }

    #[test]
    fn pair_converges_to_average() {
        // On the portable backend; the other pair tests run the default.
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(2, node_config(8, 25))
                .with_workers(2)
                .with_io(IoBackend::Portable),
            |i| (i as f64 + 1.0) * 10.0, // 10, 20: average 15
        )
        .unwrap();
        assert_eq!(cluster.io_backend(), IoBackend::Portable);
        std::thread::sleep(Duration::from_millis(900));
        let reports = cluster.take_all_reports();
        cluster.shutdown();
        let mut estimates = Vec::new();
        for node_reports in &reports {
            for r in node_reports {
                estimates.push(r.scalar(0).unwrap());
            }
        }
        assert!(!estimates.is_empty(), "no epochs completed");
        let last = *estimates.last().unwrap();
        assert!((last - 15.0).abs() < 0.5, "final estimate {last}");
    }

    #[test]
    fn garbage_on_reader_and_rpc_sockets_is_counted_and_survived() {
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(2, node_config(8, 25))
                .with_workers(2)
                .with_rpc_addr("127.0.0.1:0".parse().unwrap()),
            |i| (i as f64 + 1.0) * 10.0, // 10, 20: average 15
        )
        .unwrap();
        let hostile = UdpSocket::bind("127.0.0.1:0").unwrap();
        let refuse = Message::refuse(NodeId::new(1), 0);
        let frame = WireFrame::Aggregation(&refuse);
        // At a reader: something that is not a bundle, a bundle whose one
        // frame is corrupt (header, length, vnode, then the message's
        // version byte), and a good frame followed by a cut-off tail.
        let mut corrupt = Vec::new();
        push_bundle_frame(&mut corrupt, NodeId::new(0), &frame);
        let mut cut = corrupt.clone();
        corrupt[1 + 1 + 8] = 0xEE;
        cut.extend_from_slice(&[32, 1, 2, 3]);
        for datagram in [&b"not a bundle"[..], &corrupt, &cut] {
            hostile.send_to(datagram, cluster.addr()).unwrap();
        }
        // At the RPC listener: noise, and a frame that is no request.
        for datagram in [&b"junk"[..], &frame.encode()] {
            hostile
                .send_to(datagram, cluster.rpc_addr().unwrap())
                .unwrap();
        }
        std::thread::sleep(Duration::from_millis(900));
        assert_eq!(cluster.registry().counter_value("io.decode_errors"), 5);
        assert_eq!(cluster.total_datagram_counts().send_errors, 0);
        let reports = cluster.take_all_reports();
        cluster.shutdown();
        let last = reports
            .iter()
            .flatten()
            .last()
            .expect("no epochs completed");
        let estimate = last.scalar(0).unwrap();
        assert!((estimate - 15.0).abs() < 0.5, "final estimate {estimate}");
    }

    #[test]
    fn sharded_pair_converges_across_two_sockets() {
        // The smallest cross-socket cluster: vnode 0 on shard 0, vnode 1
        // on shard 1, every exchange crossing between the two sockets.
        let table = PeerTable::loopback_split(2, 2).unwrap();
        let config = node_config(8, 25);
        let shard0 = MuxCluster::spawn(
            MuxClusterConfig::sharded(table.clone(), 0, config.clone()).with_workers(1),
            |i| (i as f64 + 1.0) * 10.0,
        )
        .unwrap();
        let shard1 = MuxCluster::spawn(
            MuxClusterConfig::sharded(table, 1, config).with_workers(1),
            |i| (i as f64 + 1.0) * 10.0,
        )
        .unwrap();
        assert_eq!(shard0.len(), 1);
        assert_eq!(shard1.len(), 1);
        assert_eq!(shard0.total_len(), 2);
        assert_ne!(shard0.addr(), shard1.addr());
        std::thread::sleep(Duration::from_millis(900));
        let mut estimates = Vec::new();
        for shard in [&shard0, &shard1] {
            for r in shard.take_reports(0) {
                estimates.push(r.scalar(0).unwrap());
            }
        }
        let counts = shard0.total_datagram_counts();
        shard0.shutdown();
        shard1.shutdown();
        assert!(!estimates.is_empty(), "no epochs completed");
        let last = *estimates.last().unwrap();
        assert!((last - 15.0).abs() < 0.5, "final estimate {last}");
        assert!(counts.aggregation_sent > 0 && counts.aggregation_received > 0);
    }

    #[test]
    fn cross_shard_sends_fan_across_the_remote_socket_set() {
        // Two shards of two vnodes each, two reader sockets per shard.
        // Every shard-0 → shard-1 frame must land on the destination
        // vnode's home socket, so BOTH shard-1 sockets see remote
        // traffic — the old behavior piled everything onto the first.
        let table = PeerTable::loopback_split_readers(4, 2, 2).unwrap();
        let config = node_config(8, 25);
        let spawn = |shard: usize| {
            MuxCluster::spawn(
                MuxClusterConfig::sharded(table.clone(), shard, config.clone())
                    .with_workers(1)
                    .with_readers(2),
                |i| i as f64,
            )
            .unwrap()
        };
        let shard0 = spawn(0);
        let shard1 = spawn(1);
        assert_eq!(shard0.reader_count(), 2);
        assert_eq!(shard1.reader_count(), 2);
        assert_eq!(Cluster::addrs(&shard1), table.shard_sockets(1));
        std::thread::sleep(Duration::from_millis(900));
        // `io.datagrams_received{socket, origin}` of shard 1.
        let received = |socket: usize, origin| {
            let labels = [("socket", &*socket.to_string()), ("origin", origin)];
            let registry = shard1.registry();
            registry
                .counter_with("io.datagrams_received", &labels)
                .get()
        };
        let remote = [received(0, "remote"), received(1, "remote")];
        let local = received(0, "local") + received(1, "local");
        let total = shard1.registry().counter_value("io.datagrams_received");
        shard0.shutdown();
        shard1.shutdown();
        assert!(
            remote.iter().all(|&datagrams| datagrams > 0),
            "a shard-1 socket never saw cross-shard traffic: {remote:?}"
        );
        assert!(local > 0, "shard 1's own vnodes never exchanged");
        // The unlabelled read every other consumer does sums the series.
        assert!(total >= remote[0] + remote[1] + local);
    }

    #[test]
    fn gossip_directory_cluster_converges_without_static_table() {
        // No static peer table anywhere: vnode 0 introduces, everyone
        // else bootstraps over the wire and gossips views as mux frames.
        let spec = DirectorySpec::Gossip(GossipDirectoryConfig::new(8, 20).with_introducer_node(0));
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(6, node_config(8, 30))
                .with_workers(2)
                .with_directory(spec),
            |i| i as f64, // truth 2.5
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(1_500));
        let reports = cluster.take_all_reports();
        let totals = cluster.total_datagram_counts();
        let registry = cluster.registry();
        let delta_bytes = registry.counter_value("membership.delta_bytes");
        let view_size = registry.gauge_value("membership.view_mean_size");
        cluster.shutdown();
        assert!(delta_bytes > 0, "no delta/piggyback bytes counted");
        assert!(view_size.unwrap_or(0.0) > 0.0, "view health never sampled");
        let mut finals = Vec::new();
        for node_reports in &reports {
            if let Some(r) = node_reports.last() {
                if r.epoch >= 1 {
                    finals.push(r.scalar(0).unwrap());
                }
            }
        }
        assert!(finals.len() >= 4, "only {} nodes reported", finals.len());
        for est in finals {
            assert!((est - 2.5).abs() < 0.75, "estimate {est} (truth 2.5)");
        }
        assert!(totals.membership_sent > 0, "no membership traffic");
        assert!(totals.membership_received > 0);
    }

    #[test]
    fn single_node_completes_epochs_alone() {
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(1, node_config(2, 30)).with_workers(1),
            |_| 7.0,
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(250));
        let reports = cluster.take_reports(0);
        cluster.shutdown();
        assert!(!reports.is_empty());
        for r in &reports {
            assert_eq!(r.scalar(0), Some(7.0));
        }
    }

    #[test]
    fn set_local_value_applies_next_epoch() {
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(1, node_config(2, 20)).with_workers(1),
            |_| 1.0,
        )
        .unwrap();
        cluster.set_local_value(0, 100.0);
        std::thread::sleep(Duration::from_millis(400));
        let reports = cluster.take_reports(0);
        cluster.shutdown();
        let last = reports.last().and_then(|r| r.scalar(0)).unwrap();
        assert_eq!(last, 100.0, "local value update never took effect");
    }

    #[test]
    fn an_operator_call_at_spawn_does_not_fork_the_timer_chain() {
        // Spawn parks each first deadline before the handle exists, so an
        // operator call racing the first step finds it live and parks
        // nothing: one timer chain per vnode from the start.
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(8, node_config(30, 20)).with_workers(2),
            |i| i as f64,
        )
        .unwrap();
        for i in 0..cluster.len() {
            cluster.set_local_value(i, 1.0);
        }
        std::thread::sleep(Duration::from_millis(600));
        let registry = cluster.registry();
        let fire_lag = registry.histogram("timer.fire_lag_us");
        let fires: u64 = fire_lag.bucket_counts().iter().sum();
        let exchanges = registry.counter_value("agg.exchanges");
        cluster.shutdown();
        // One fire per cycle plus one per exchange timeout entry: 2 per
        // exchange; a forked chain doubles that.
        assert!(exchanges > 100, "only {exchanges} exchanges");
        assert!(
            fires < 3 * exchanges,
            "{fires} fires for {exchanges} exchanges"
        );
    }

    #[test]
    fn a_deadline_moved_earlier_mid_run_does_not_fork_the_timer_chain() {
        // An install (and then catalog gossip) moves every deadline earlier
        // while a later wheel entry is parked: re-arming from that stale
        // entry would run a second timer chain for the rest of the run.
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(8, node_config(30, 20)).with_workers(2),
            |i| i as f64,
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let fires = || cluster.registry().histogram("timer.fire_lag_us").count();
        let exchanges = || cluster.registry().counter_value("agg.exchanges");
        let (fires0, exchanges0) = (fires(), exchanges());
        let query = QueryDescriptor::new("moved", AggregateKind::Average);
        for i in 0..cluster.len() {
            cluster.install_query(i, query.clone()).unwrap();
        }
        std::thread::sleep(Duration::from_millis(600));
        let (fires, exchanges) = (fires() - fires0, exchanges() - exchanges0);
        cluster.shutdown();
        // 2 fires per exchange as above, plus each stranded entry's one
        // fire and a few catalog rounds; a fork doubles the 2.
        assert!(exchanges > 100, "only {exchanges} exchanges");
        assert!(
            fires < 3 * exchanges,
            "{fires} fires for {exchanges} exchanges"
        );
    }

    #[test]
    fn an_install_at_the_rpc_listener_spreads_to_every_vnode() {
        // A ten-minute base cycle: no vnode has a deadline of its own
        // inside this test, so the install spreads only if the listener's
        // park reaches vnode 0's loop through its inbox.
        let query = QueryPlaneConfig {
            gossip_period: 50,
            ..QueryPlaneConfig::default()
        };
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(8, node_config(10, 600_000))
                .with_workers(2)
                .with_query_config(query)
                .with_rpc_addr("127.0.0.1:0".parse().unwrap()),
            |i| i as f64,
        )
        .unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let descriptor = QueryDescriptor::new("rpc", AggregateKind::Average);
        let install = encode_rpc_request(&RpcRequest::Install { id: 1, descriptor });
        client
            .send_to(&install, cluster.rpc_addr().unwrap())
            .unwrap();
        let mut buf = [0u8; 64];
        let len = client.recv(&mut buf).unwrap();
        let response = decode_rpc_response(&buf[..len]).unwrap();
        assert_eq!(
            response.status,
            RpcStatus::Ok,
            "the listener serves vnode 0"
        );
        // Read the other vnodes only: `with_stack` on vnode 0 would re-arm
        // it and hide a lost listener park.
        let deadline = Instant::now() + Duration::from_secs(10);
        while (1..8).any(|i| cluster.with_stack(i, |stack, _| stack.installed_queries().is_empty()))
        {
            assert!(Instant::now() < deadline, "the install never left vnode 0");
            std::thread::sleep(Duration::from_millis(20));
        }
        cluster.shutdown();
    }

    #[test]
    fn bytes_sent_are_the_udp_payload_the_kernel_took() {
        // Vnode 1's shard is a bare socket that only listens: every
        // datagram this one-vnode shard sends lands there.
        let table = PeerTable::loopback_split(2, 2).unwrap();
        let sink = UdpSocket::bind(table.shard_addr(1)).unwrap();
        let mut shard = MuxCluster::spawn(
            MuxClusterConfig::sharded(table, 0, node_config(30, 20)).with_workers(1),
            |i| i as f64,
        )
        .unwrap();
        // A tenant adds catalog frames to the aggregation requests.
        let tenant = QueryDescriptor::new("tenant", AggregateKind::Average);
        shard.install_query(0, tenant).unwrap();
        std::thread::sleep(Duration::from_millis(400));
        shard.stop_and_join(); // quiesced: no loop is mid-flush
        sink.set_nonblocking(true).unwrap();
        let (mut datagrams, mut payload, mut buf) = (0, 0, [0u8; 65_536]);
        while let Ok(len) = sink.recv(&mut buf) {
            datagrams += 1;
            payload += len as u64;
        }
        let (registry, t) = (shard.registry(), shard.total_datagram_counts());
        let series = |name, plane| registry.counter_with(name, &[("plane", plane)]).get();
        for (plane, frames, bytes) in [
            ("aggregation", t.aggregation_sent, t.aggregation_bytes_sent),
            ("membership", t.membership_sent, t.membership_bytes_sent),
            ("query", t.query_sent, t.query_bytes_sent),
        ] {
            assert_eq!(series("io.frames_sent", plane), frames, "{plane}");
            assert_eq!(series("io.bytes_sent", plane), bytes, "{plane}");
        }
        assert_eq!(t.send_errors, registry.counter_value("io.send_errors"));
        assert!(t.aggregation_sent > 0 && t.query_sent > 0, "{t:?}");
        // Per-frame charges add up to exactly what the kernel carried.
        assert_eq!(registry.counter_value("io.datagrams_sent"), datagrams);
        assert_eq!(registry.counter_value("io.bytes_sent"), payload);
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(8, node_config(4, 30)).with_workers(2),
            |_| 0.0,
        )
        .unwrap();
        drop(cluster); // must not hang or panic
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_rejected() {
        MuxClusterConfig::new(0, node_config(2, 20));
    }

    #[test]
    fn telemetry_registry_observes_running_cluster() {
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(4, node_config(4, 25))
                .with_workers(2)
                .with_trace(64)
                .with_metrics_addr("127.0.0.1:0".parse().unwrap()),
            |i| i as f64,
        )
        .unwrap();
        let addr = cluster.metrics_addr().expect("metrics endpoint bound");
        std::thread::sleep(Duration::from_millis(700));
        // Draining reports feeds the convergence gauges.
        let _ = cluster.take_all_reports();
        let registry = cluster.registry();
        assert!(registry.is_enabled());
        assert!(registry.counter_value("agg.exchanges") > 0);
        assert!(registry.counter_value("io.recv_syscalls") > 0);
        assert!(registry.counter_value("io.send_syscalls") > 0);
        let theory = registry.gauge_value("epoch.rho_theory").unwrap();
        assert!((theory - 0.3033).abs() < 1e-3);
        // Scrape over real HTTP and check the exposition mentions the
        // counters by their sanitized names.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        use std::io::{Read, Write};
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.contains("agg_exchanges"), "scrape missing counter");
        assert!(body.contains("epoch_rho_theory"), "scrape missing gauge");
        // Tracing was on: at least one vnode logged protocol events.
        let events: usize = (0..cluster.len())
            .map(|i| cluster.take_trace(i).len())
            .sum();
        assert!(events > 0, "no trace events recorded");
        cluster.shutdown();
    }

    #[test]
    fn misconfigured_gossip_introducers_fail_spawn() {
        let spawn = |gossip: GossipDirectoryConfig| {
            let config = MuxClusterConfig::new(4, node_config(4, 30))
                .with_directory(DirectorySpec::Gossip(gossip));
            let err = MuxCluster::spawn(config, |_| 0.0).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            err.to_string()
        };
        assert_eq!(
            spawn(GossipDirectoryConfig::new(8, 20).with_introducer_node(99)),
            "introducer node 99 outside the cluster (n = 4)"
        );
        assert_eq!(
            spawn(GossipDirectoryConfig::new(8, 20)),
            "gossip directory needs at least one introducer"
        );
    }
}
