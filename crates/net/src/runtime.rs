//! Thread-per-node UDP runtime.
//!
//! One OS thread per node realizes the paper's Figure 1 literally: the
//! *active* behavior initiates one exchange per cycle with a random peer,
//! the *passive* behavior answers incoming datagrams. Both run in a single
//! event loop over a non-blocking socket, and all of it is the sans-io
//! [`NodeStack`] the multiplexed runtime ([`crate::mux`]) embeds too: this
//! module adds only a socket, a wall clock in milliseconds, and
//! [`WireFrame::encode`]. The node's handle and its thread share the stack
//! behind a mutex, exactly as a mux vnode is shared, and
//! [`Cluster::with_stack`] is that lock plus the node's clock: the thread
//! polls the stack every millisecond, so there is no timer to re-arm.
//!
//! Membership is pluggable (the `GETNEIGHBOR()` seam of
//! [`crate::directory`]): a [`StaticDirectory`] over the cluster's address
//! table by default, or a NEWSCAST [`GossipDirectory`] whose view gossip
//! and join/introduce bootstrap ride the same socket as the aggregation
//! traffic — the node then knows nothing but its introducers at start-up
//! and learns peer addresses from the wire.
//!
//! [`ThreadCluster`] wraps the per-node handles behind the [`Cluster`]
//! operator seam shared with the multiplexed runtime. It is kept as the
//! cross-runtime *reference*: the conformance suite pins a same-seed
//! thread cluster against the mux runtime in every layout.

use crate::cluster::Cluster;
use crate::codec::{decode_datagram, encode_rpc_response, WireFrame, WirePayload};
use crate::directory::{
    Destination, DirectorySpec, GossipDirectory, GossipDirectoryConfig, Introducer, PeerDirectory,
    StaticDirectory,
};
use crate::stack::{Input, NodeStack, Plane, Traffic};
use epidemic_aggregation::NodeConfig;
use epidemic_common::NodeId;
use epidemic_query::QueryPlaneConfig;
use epidemic_telemetry::Registry;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Shared description of a cluster: the address table mapping dense node
/// ids to socket addresses, the common protocol configuration, and the
/// membership directory every node builds.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    peers: Arc<Vec<SocketAddr>>,
    node_config: NodeConfig,
    seed: u64,
    directory: DirectorySpec,
    trace_capacity: usize,
    query: QueryPlaneConfig,
}

impl ClusterConfig {
    /// Creates a cluster of `n` loopback nodes on ephemeral ports by
    /// binding (and immediately releasing) `n` sockets.
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors.
    pub fn loopback(n: usize, node_config: NodeConfig) -> io::Result<Self> {
        Ok(Self::from_peers(
            crate::cluster::reserve_loopback_addrs(n)?,
            node_config,
        ))
    }

    /// Creates a cluster from an explicit address table.
    pub fn from_peers(peers: Vec<SocketAddr>, node_config: NodeConfig) -> Self {
        ClusterConfig {
            peers: Arc::new(peers),
            node_config,
            seed: 0xC0FFEE,
            directory: DirectorySpec::Static,
            trace_capacity: 0,
            query: QueryPlaneConfig::default(),
        }
    }

    /// Overrides the query-plane parameters every node runs (default:
    /// [`QueryPlaneConfig::default`]).
    pub fn with_query_config(mut self, query: QueryPlaneConfig) -> Self {
        self.query = query;
        self
    }

    /// Overrides the randomness seed shared by the cluster.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables protocol event tracing: every node keeps a bounded ring of
    /// `capacity` structured events per plane (exchanges, timeouts, epoch
    /// transitions, view merges…), drained via [`Cluster::take_trace`].
    /// Capacity 0 (the default) disables tracing entirely.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Selects the membership directory every node runs (default:
    /// [`DirectorySpec::Static`] over the address table).
    ///
    /// With [`DirectorySpec::Gossip`], the address table is used only as
    /// the *bind plan* (node `i` binds `peers[i]`) and to resolve
    /// [`Introducer::Node`] entries to addresses; peers are otherwise
    /// discovered exclusively over the wire.
    pub fn with_directory(mut self, directory: DirectorySpec) -> Self {
        self.directory = directory;
        self
    }

    /// The address table.
    pub fn peers(&self) -> &[SocketAddr] {
        &self.peers
    }

    /// Builds node `index`'s directory per the configured spec.
    ///
    /// # Errors
    ///
    /// Rejects gossip configs naming an introducer outside the cluster
    /// (the error surfaces from `spawn`, not from inside the node's
    /// thread where a panic would be silently swallowed by `join`).
    fn build_directory(&self, id: NodeId) -> io::Result<Box<dyn PeerDirectory>> {
        match &self.directory {
            DirectorySpec::Static => Ok(Box::new(StaticDirectory::addr_routed(
                Arc::clone(&self.peers),
                id,
                self.seed,
            ))),
            DirectorySpec::Gossip(config) => {
                config.check_introducers(self.peers.len())?;
                // Resolve id-named introducers through the bind plan; the
                // directory itself never sees the address table.
                let introducers = config.introducers.iter().map(|intro| match *intro {
                    Introducer::Node(n) => Introducer::Addr(self.peers[n as usize]),
                    addr => addr,
                });
                let resolved = GossipDirectoryConfig {
                    introducers: introducers.collect(),
                    ..config.clone()
                };
                Ok(Box::new(GossipDirectory::addr_routed(
                    id,
                    self.peers[id.index()],
                    &resolved,
                    self.seed,
                )))
            }
        }
    }
}

/// Handle to a running UDP gossip node.
///
/// Dropping the handle shuts the node down (the background thread exits
/// within one poll interval).
#[derive(Debug)]
pub struct UdpNode {
    addr: SocketAddr,
    id: NodeId,
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// What the handle and the node's thread share: the protocol stack behind
/// a lock — exactly as a mux vnode holds it — and the clock it runs on.
#[derive(Debug)]
struct Shared {
    stop: AtomicBool,
    start: Instant,
    stack: Mutex<NodeStack>,
    traffic: Traffic,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn stack(&self) -> MutexGuard<'_, NodeStack> {
        self.stack
            .lock()
            .expect("a step panicked holding the stack")
    }
}

impl UdpNode {
    /// Binds the socket of `cluster`'s node `index` and spawns its gossip
    /// thread, publishing to `registry` and counting its traffic in
    /// `traffic` (resolved there once, shared by every node).
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind failure, non-blocking setup) and
    /// rejects a misconfigured gossip directory.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn spawn(
        cluster: &ClusterConfig,
        index: usize,
        local_value: f64,
        registry: &Registry,
        traffic: &Traffic,
    ) -> io::Result<UdpNode> {
        assert!(index < cluster.peers.len(), "node index out of range");
        let addr = cluster.peers[index];
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        let id = NodeId::new(index as u64);
        // Built on the caller's thread so misconfiguration fails the
        // spawn instead of killing the node thread silently.
        let mut stack = NodeStack::founder(
            id,
            cluster.node_config.clone(),
            local_value,
            cluster.seed,
            cluster.build_directory(id)?,
            cluster.query,
            registry.clone(),
        );
        stack.set_trace_capacity(cluster.trace_capacity);
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            start: Instant::now(),
            stack: Mutex::new(stack),
            traffic: traffic.clone(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name(format!("gossip-{index}"))
            .spawn(move || run_loop(&socket, &thread_shared))?;
        Ok(UdpNode {
            addr,
            id,
            shared,
            thread: Some(thread),
        })
    }

    /// The node's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The node's identifier (its index in the address table).
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Stops the gossip thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for UdpNode {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The node's event loop: Figure 1's active and passive behavior on one
/// thread. Once per millisecond it wakes the stack, then drains the
/// socket into it; every frame the stack emits is encoded and sent on the
/// spot, charging the cluster's [`Traffic`] — or its `io.send_errors`
/// when the kernel refuses, so outbound backpressure is visible instead
/// of silent loss.
fn run_loop(socket: &UdpSocket, shared: &Shared) {
    let transmit = |to: Destination, frame: WireFrame<'_>, plane: Plane| {
        // A peer the directory cannot resolve is unreachable from here.
        let Destination::Addr(target) = to else {
            return;
        };
        let bytes = frame.encode();
        if socket.send_to(&bytes, target).is_ok() {
            shared.traffic.sent(plane, bytes.len() as u64);
        } else {
            shared.traffic.send_error();
        }
    };
    let mut buf = [0u8; 64 * 1024];
    while !shared.stop.load(Ordering::Relaxed) {
        let mut stack = shared.stack();
        stack.step(Input::Wake, shared.now_ms(), transmit);
        while let Ok((len, src)) = socket.recv_from(&mut buf) {
            let now = shared.now_ms();
            match decode_datagram(&buf[..len]) {
                // A client datagram: every node is a valid RPC endpoint;
                // reply to the source address.
                Ok(WirePayload::Rpc(request)) => {
                    let response = stack.rpc(&request, now);
                    shared.traffic.rpc(&response);
                    let _ = socket.send_to(&encode_rpc_response(&response), src);
                }
                Ok(payload) => {
                    if let Some(plane) = Plane::of_received(&payload) {
                        shared.traffic.received(plane);
                    }
                    stack.step(Input::Frame(&payload, Some(src)), now, transmit);
                }
                Err(_) => {} // corrupt datagram: drop, stay alive
            }
        }
        // Query epochs feed telemetry only in the mux runtime; drain
        // them here to bound memory.
        let _ = stack.take_query_epochs();
        drop(stack);
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The thread-per-node runtime behind the [`Cluster`] operator seam: one
/// [`UdpNode`] per cluster member, spawned and torn down together.
#[derive(Debug)]
pub struct ThreadCluster {
    nodes: Vec<UdpNode>,
    registry: Registry,
}

impl ThreadCluster {
    /// Spawns one [`UdpNode`] per address-table entry; node `i` starts
    /// with local value `values(i)`.
    ///
    /// # Errors
    ///
    /// Propagates socket and thread-spawn errors (nodes already started
    /// are shut down on failure).
    pub fn spawn(config: ClusterConfig, values: impl Fn(usize) -> f64) -> io::Result<Self> {
        let n = config.peers.len();
        let registry = Registry::new();
        let traffic = Traffic::new(&registry);
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            nodes.push(UdpNode::spawn(&config, i, values(i), &registry, &traffic)?);
        }
        Ok(ThreadCluster { nodes, registry })
    }

    /// The per-node handles.
    pub fn nodes(&self) -> &[UdpNode] {
        &self.nodes
    }
}

impl Cluster for ThreadCluster {
    type Config = ClusterConfig;

    fn spawn_cluster(config: ClusterConfig, values: &dyn Fn(usize) -> f64) -> io::Result<Self> {
        ThreadCluster::spawn(config, values)
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn node_id(&self, index: usize) -> NodeId {
        self.nodes[index].id()
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(UdpNode::addr).collect()
    }

    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn with_stack<R>(&self, index: usize, f: impl FnOnce(&mut NodeStack, u64) -> R) -> R {
        let shared = &self.nodes[index].shared;
        let mut stack = shared.stack();
        f(&mut stack, shared.now_ms())
    }

    fn shutdown(self) {
        for node in self.nodes {
            node.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_aggregation::InstanceSpec;

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
    fn loopback_cluster_ports_are_distinct() {
        let cluster = ClusterConfig::loopback(5, node_config(10, 50)).unwrap();
        let mut ports: Vec<u16> = cluster.peers().iter().map(|a| a.port()).collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_index_validated() {
        let cluster = ClusterConfig::loopback(2, node_config(10, 50)).unwrap();
        let registry = Registry::new();
        let _ = UdpNode::spawn(&cluster, 5, 0.0, &registry, &Traffic::new(&registry));
    }

    #[test]
    fn single_node_runs_and_stops() {
        let config = ClusterConfig::loopback(1, node_config(2, 30)).unwrap();
        let cluster = ThreadCluster::spawn(config, |_| 7.0).unwrap();
        std::thread::sleep(Duration::from_millis(250));
        let reports = cluster.take_reports(0);
        cluster.shutdown();
        // Alone in the cluster it still completes epochs (no exchanges).
        assert!(!reports.is_empty());
        for r in &reports {
            assert_eq!(r.scalar(0), Some(7.0));
        }
    }

    #[test]
    fn pair_converges_to_average() {
        let config = ClusterConfig::loopback(2, node_config(8, 25)).unwrap();
        let cluster = ThreadCluster::spawn(config, |i| (i as f64 + 1.0) * 10.0).unwrap();
        std::thread::sleep(Duration::from_millis(900));
        let reports = cluster.take_all_reports();
        cluster.shutdown();
        let estimates: Vec<f64> = reports
            .iter()
            .flatten()
            .map(|r| r.scalar(0).unwrap())
            .collect();
        assert!(!estimates.is_empty(), "no epochs completed");
        // Later epochs must be at the true average.
        let last = *estimates.last().unwrap();
        assert!((last - 15.0).abs() < 0.5, "final estimate {last}");
    }

    #[test]
    fn datagram_counters_move_per_plane() {
        let config = ClusterConfig::loopback(2, node_config(30, 20)).unwrap();
        let cluster = ThreadCluster::spawn(config, |i| 1.0 + 2.0 * i as f64).unwrap();
        std::thread::sleep(Duration::from_millis(400));
        let counts = cluster.total_datagram_counts();
        cluster.shutdown();
        assert!(counts.aggregation_sent > 0, "cluster never sent");
        assert!(counts.aggregation_received > 0, "cluster never received");
        assert!(counts.aggregation_bytes_sent > 0, "bytes uncharged");
        // A static directory produces no membership traffic.
        assert_eq!(counts.membership_sent, 0);
        assert_eq!(counts.membership_received, 0);
    }

    #[test]
    fn set_local_value_applies_next_epoch() {
        let config = ClusterConfig::loopback(1, node_config(2, 20)).unwrap();
        let cluster = ThreadCluster::spawn(config, |_| 1.0).unwrap();
        cluster.set_local_value(0, 100.0);
        std::thread::sleep(Duration::from_millis(400));
        let reports = cluster.take_reports(0);
        cluster.shutdown();
        let last = reports.last().and_then(|r| r.scalar(0)).unwrap();
        assert_eq!(last, 100.0, "local value update never took effect");
    }

    #[test]
    fn thread_cluster_implements_the_operator_seam() {
        let config = ClusterConfig::loopback(3, node_config(6, 25))
            .unwrap()
            .with_trace(64);
        let cluster = ThreadCluster::spawn(config, |i| i as f64).unwrap();
        assert_eq!(cluster.node_count(), 3);
        assert_eq!(cluster.node_id(2), NodeId::new(2));
        assert_eq!(cluster.addrs().len(), 3);
        std::thread::sleep(Duration::from_millis(700));
        let reports = cluster.take_all_reports();
        let totals = cluster.total_datagram_counts();
        let traced: usize = (0..3).map(|i| cluster.take_trace(i).len()).sum();
        cluster.shutdown();
        assert!(reports.iter().any(|r| !r.is_empty()), "no epochs anywhere");
        assert!(totals.sent() > 0 && totals.received() > 0);
        assert!(traced > 0, "tracing was on but no node recorded an event");
    }

    #[test]
    fn misconfigured_gossip_introducers_fail_spawn() {
        let spawn = |gossip: GossipDirectoryConfig| {
            let config = ClusterConfig::loopback(4, node_config(4, 30))
                .unwrap()
                .with_directory(DirectorySpec::Gossip(gossip));
            let err = ThreadCluster::spawn(config, |_| 0.0).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            err.to_string()
        };
        // The one rule both runtimes share, word for word (see
        // `mux::tests::misconfigured_gossip_introducers_fail_spawn`).
        assert_eq!(
            spawn(GossipDirectoryConfig::new(8, 20).with_introducer_node(99)),
            "introducer node 99 outside the cluster (n = 4)"
        );
        assert_eq!(
            spawn(GossipDirectoryConfig::new(8, 20)),
            "gossip directory needs at least one introducer"
        );
    }

    #[test]
    fn gossip_directory_cluster_converges_from_introducer_only() {
        // NO static peer table: every node knows exactly one introducer
        // address; membership is NEWSCAST over the same sockets.
        let spec = DirectorySpec::Gossip(GossipDirectoryConfig::new(8, 20).with_introducer_node(0));
        let config = ClusterConfig::loopback(4, node_config(10, 30))
            .unwrap()
            .with_directory(spec);
        let cluster = ThreadCluster::spawn(config, |i| (i as f64 + 1.0) * 4.0).unwrap(); // avg 10
        std::thread::sleep(Duration::from_millis(1_800));
        let reports = cluster.take_all_reports();
        let totals = cluster.total_datagram_counts();
        cluster.shutdown();
        let mut finals = Vec::new();
        for node_reports in &reports {
            // Epoch 0 may predate bootstrap; judge the latest epoch.
            if let Some(r) = node_reports.last() {
                if r.epoch >= 1 {
                    finals.push(r.scalar(0).unwrap());
                }
            }
        }
        assert!(finals.len() >= 3, "only {} nodes reported", finals.len());
        for est in finals {
            assert!((est - 10.0).abs() < 1.0, "estimate {est} (truth 10)");
        }
        assert!(totals.membership_sent > 0, "no membership traffic");
        assert!(totals.membership_bytes_sent > 0);
    }
}
