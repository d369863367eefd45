//! The node wiring on logical time: n [`NodeStack`]s joined by an
//! in-memory queue and a counter clock — no sockets, no threads, no
//! `sleep`. Every frame still crosses the real codec
//! ([`WireFrame::encode`] → [`decode_datagram`]), so what runs here is
//! exactly what the mux runtime and the event simulator embed, minus
//! their transports.

use epidemic_aggregation::{
    AggregateKind, EpochReport, InstanceMap, InstanceSpec, InstanceState, Message, MessageBody,
    NodeConfig, MAX_MAP_LEADERS,
};
use epidemic_common::NodeId;
use epidemic_net::codec::{decode_datagram, WireFrame, WirePayload};
use epidemic_net::directory::{
    DirectoryPayload, GossipDirectory, GossipDirectoryConfig, PeerDirectory, StaticDirectory,
    ViewPayload,
};
use epidemic_net::stack::{Input, NodeStack, Plane};
use epidemic_net::{Registry, TraceEvent, TraceKind};
use epidemic_newscast::Descriptor;
use epidemic_query::{
    CatalogEntry, QueryDescriptor, QueryError, QueryPlaneConfig, RpcRequest, RpcStatus,
};
use std::collections::VecDeque;

const CYCLE: u64 = 20;

/// One frame a stack handed its sink.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sent {
    at: u64,
    plane: Plane,
}

/// An id-routed cluster with zero-latency, lossless, in-order delivery.
struct Net<D = Box<dyn PeerDirectory>> {
    stacks: Vec<NodeStack<D>>,
    queue: VecDeque<(usize, Vec<u8>)>,
    sent: Vec<Sent>,
    /// Every frame handed to a sink, as `(destination, encoded bytes)`.
    wire: Vec<(usize, Vec<u8>)>,
    now: u64,
}

fn node_config(gamma: u32) -> NodeConfig {
    NodeConfig::builder()
        .gamma(gamma)
        .cycle_length(CYCLE)
        .timeout(CYCLE / 2)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap()
}

impl Net {
    fn new(n: usize, gamma: u32, seed: u64, gossip: Option<&GossipDirectoryConfig>) -> Net {
        Net::with(n, gamma, seed, |id| -> Box<dyn PeerDirectory> {
            match gossip {
                Some(g) => Box::new(GossipDirectory::id_routed(id, g, seed)),
                None => Box::new(StaticDirectory::id_routed(n, id, seed)),
            }
        })
    }
}

impl<D: PeerDirectory> Net<D> {
    /// `n` founders, node `i` holding the value `i` and the directory
    /// `directory(NodeId(i))`.
    fn with(n: usize, gamma: u32, seed: u64, directory: impl Fn(NodeId) -> D) -> Net<D> {
        let config = node_config(gamma);
        let stacks = (0..n)
            .map(|i| {
                let id = NodeId::new(i as u64);
                let mut stack = NodeStack::founder(
                    id,
                    config.clone(),
                    i as f64,
                    seed,
                    directory(id),
                    QueryPlaneConfig::default(),
                    Registry::disabled(),
                );
                stack.set_trace_capacity(1 << 16);
                stack
            })
            .collect();
        let mut net = Net {
            stacks,
            queue: VecDeque::new(),
            sent: Vec::new(),
            wire: Vec::new(),
            now: 0,
        };
        // Prime every node, as a runtime does at spawn.
        for i in 0..n {
            net.step(i, Input::Wake);
        }
        net
    }

    /// Steps stack `i`, then delivers everything that follows from it, so
    /// every push-pull exchange completes before the next one starts.
    fn step(&mut self, i: usize, input: Input<'_>) {
        let woke = matches!(input, Input::Wake);
        let (now, queue, sent, wire) = (self.now, &mut self.queue, &mut self.sent, &mut self.wire);
        self.stacks[i].step(input, now, |to, frame, plane| {
            let bytes = frame.encode();
            assert_eq!(bytes.len(), frame.encoded_len());
            sent.push(Sent { at: now, plane });
            wire.push((to.index(), bytes.clone()));
            queue.push_back((to.index(), bytes));
        });
        if woke {
            let deadline = self.stacks[i].next_deadline();
            assert!(
                deadline > now,
                "deadline {deadline} not after wake at {now}"
            );
        }
        while let Some((to, bytes)) = self.queue.pop_front() {
            let payload = decode_datagram(&bytes).expect("own frames decode");
            self.step(to, Input::Frame(&payload));
        }
    }

    /// Advances the counter clock to `until`, waking whoever is due.
    fn run(&mut self, until: u64) {
        while self.now < until {
            self.now += 1;
            for i in 0..self.stacks.len() {
                if self.stacks[i].next_deadline() <= self.now {
                    self.step(i, Input::Wake);
                }
            }
        }
    }

    fn reports(&mut self) -> Vec<EpochReport> {
        let drained = self.stacks.iter_mut().map(NodeStack::take_reports);
        drained.flatten().collect()
    }

    fn trace(&mut self) -> Vec<TraceEvent> {
        let drained = self.stacks.iter_mut().map(NodeStack::take_trace);
        drained.flatten().collect()
    }

    fn count(&self, from: u64, to: u64, plane: impl Fn(Plane) -> bool) -> usize {
        let window = self.sent.iter().filter(|s| (from..to).contains(&s.at));
        window.filter(|s| plane(s.plane)).count()
    }
}

#[test]
fn average_converges_with_mass_conserved_per_epoch() {
    let (n, gamma) = (16, 40);
    let mut net = Net::new(n, gamma, 7, None);
    net.run(4 * u64::from(gamma) * CYCLE);
    let truth = (n - 1) as f64 / 2.0;
    let reports = net.reports();
    let newest = reports.iter().map(|r| r.epoch).max().expect("no epoch");
    assert!(newest >= 2, "only {newest} epochs in four epoch lengths");
    for epoch in 0..=newest {
        let estimates: Vec<f64> = reports
            .iter()
            .filter(|r| r.epoch == epoch)
            .map(|r| r.scalar(0).unwrap())
            .collect();
        // Only nodes that were not pulled into the next epoch early by a
        // faster peer report (Section 4.3); about half do.
        assert!(estimates.len() >= 2, "epoch {epoch}: {estimates:?}");
        // Nothing was dropped and every exchange was atomic, so the mass
        // an epoch started with is the mass it ends with: converged
        // estimates sit on the true mean, not merely on each other.
        let mass: f64 = estimates.iter().sum();
        assert!(
            (mass - truth * estimates.len() as f64).abs() < 1e-6,
            "epoch {epoch} leaked mass: {estimates:?}"
        );
        for est in estimates {
            assert!(
                (est - truth).abs() < 1e-6,
                "epoch {epoch}: {est} vs {truth}"
            );
        }
    }
    // A static directory has no membership plane and no tenant was
    // installed: every frame is a plain base-aggregate exchange.
    assert!(net.sent.iter().all(|s| s.plane == Plane::Aggregation));
}

#[test]
fn gossip_cluster_bootstraps_from_one_introducer() {
    let n = 8;
    let gossip = GossipDirectoryConfig::new(8, CYCLE).with_introducer_node(0);
    let mut net = Net::new(n, 10, 11, Some(&gossip));
    let horizon = 60 * CYCLE;
    net.run(horizon);
    // Nobody but the introducer knew anyone, yet every node takes part.
    let reports = net.reports();
    let truth = (n - 1) as f64 / 2.0;
    for node in &net.stacks {
        assert_eq!(node.join_retries(), 0, "a join was lost on a lossless net");
        let health = node.view_health(horizon).expect("gossiped membership");
        assert!(health.mean_size >= (n / 2) as f64, "view: {health:?}");
    }
    let late: Vec<f64> = reports
        .iter()
        .filter(|r| r.epoch >= 2)
        .map(|r| r.scalar(0).unwrap())
        .collect();
    assert!(late.len() >= n, "only {} late reports", late.len());
    for est in late {
        assert!((est - truth).abs() < 0.05, "estimate {est} (truth {truth})");
    }
    assert!(net.count(0, horizon, |p| p == Plane::Membership) > 0);
    assert!(net.count(2 * horizon / 3, horizon, |p| p == Plane::Aggregation) > 0);
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    bytes.iter().fold(hash, step)
}

/// Pins gossiped membership to the byte. Sixteen stacks bootstrap from one
/// introducer and gossip for 80 cycles, once with delta views, a view of
/// six and a knowledge LRU of four partners (so watermarks are evicted),
/// once with full views. Every frame a sink emits, as
/// its destination and its encoded bytes, and every stack's final view
/// fold into one hash: a refactor of the membership plane must leave it
/// where it is.
#[test]
fn gossiped_membership_frames_and_views_hash_to_a_pinned_constant() {
    let legs = [
        GossipDirectoryConfig::new(6, CYCLE)
            .with_introducer_node(0)
            .with_knowledge_peers(4),
        GossipDirectoryConfig::new(8, CYCLE)
            .with_introducer_node(0)
            .with_full_views(),
    ];
    let mut hash = 0xcbf2_9ce4_8422_2325;
    // [join, introduce, full view, delta view] frames per leg.
    let mut kinds = [[0usize; 4]; 2];
    for (leg, gossip) in legs.iter().enumerate() {
        let seed = 17 + leg as u64;
        let mut net = Net::with(16, 10, seed, |id| {
            GossipDirectory::id_routed(id, gossip, seed)
        });
        net.run(80 * CYCLE);
        for (to, bytes) in &net.wire {
            hash = fnv1a(hash, &(*to as u64).to_le_bytes());
            hash = fnv1a(hash, &(bytes.len() as u64).to_le_bytes());
            hash = fnv1a(hash, bytes);
            let kind = match decode_datagram(bytes).unwrap() {
                WirePayload::Directory(DirectoryPayload::Join { .. }) => 0,
                WirePayload::Directory(DirectoryPayload::Introduce { .. }) => 1,
                WirePayload::Directory(DirectoryPayload::View { delta, .. }) => {
                    2 + usize::from(delta)
                }
                _ => continue,
            };
            kinds[leg][kind] += 1;
        }
        for stack in &net.stacks {
            let view = stack.directory().view().entries();
            hash = fnv1a(hash, &(view.len() as u64).to_le_bytes());
            for d in view {
                hash = fnv1a(hash, &d.node.to_le_bytes());
                hash = fnv1a(hash, &d.timestamp.to_le_bytes());
            }
        }
    }
    let [deltas, full] = kinds;
    assert_eq!(
        (deltas[0], deltas[1]),
        (15, 15),
        "one join each: {deltas:?}"
    );
    assert!(deltas[2..].iter().all(|&k| k > 0), "delta leg: {deltas:?}");
    assert_eq!(full[3], 0, "full-view leg: {full:?}");
    assert_eq!(
        hash, 14_421_560_288_853_560_149,
        "membership frames or views moved"
    );
}

#[test]
fn joiner_stack_sits_out_the_running_epoch_and_reports_from_the_next() {
    let (n, gamma, seed) = (8usize, 10u32, 11);
    let gossip = GossipDirectoryConfig::new(8, CYCLE).with_introducer_node(0);
    let mut net = Net::new(n, gamma, seed, Some(&gossip));
    let epoch_ticks = u64::from(gamma) * CYCLE;
    net.run(epoch_ticks + epoch_ticks / 2);
    net.reports();
    // Section 4.2: the contacted member says which epoch is running and
    // when the next one is due; the joiner knows nobody else.
    let introducer = &net.stacks[0];
    let running = introducer.epoch();
    let next_epoch_at = net.now + u64::from(gamma - introducer.cycles_run()) * CYCLE;
    let id = NodeId::new(n as u64);
    let directory: Box<dyn PeerDirectory> = Box::new(GossipDirectory::id_routed(id, &gossip, seed));
    net.stacks.push(NodeStack::joiner(
        id,
        node_config(gamma),
        35.0,
        seed,
        running,
        next_epoch_at,
        directory,
        QueryPlaneConfig::default(),
        Registry::disabled(),
    ));
    net.stacks[n].set_trace_capacity(1 << 10);
    assert_eq!(net.stacks[n].epoch(), running);
    net.run(net.now + 8 * epoch_ticks);
    assert_eq!(net.stacks[n].join_retries(), 0);
    // It took no part in the epoch it arrived in: the first epoch it
    // enters is the next, and that is the first it can report. (Which
    // epochs a node reports is luck — Section 4.3 pulls about half the
    // nodes into the next epoch before their own γ cycles are up.)
    let entered: Vec<u64> = net.stacks[n]
        .take_trace()
        .iter()
        .filter(|e| e.kind == TraceKind::EpochTransition)
        .map(|e| e.epoch)
        .collect();
    assert_eq!(entered.first(), Some(&(running + 1)));
    let joined = net.stacks[n].take_reports();
    assert!(!joined.is_empty(), "eight epochs and no report");
    assert!(joined.iter().all(|r| r.epoch > running));
    // The running epoch finished over the eight founders' values alone;
    // every later one carries the joiner's mass too: (0 + … + 7 + 35) / 9.
    for r in net.reports().iter().chain(&joined) {
        let truth = if r.epoch <= running { 3.5 } else { 7.0 };
        let est = r.scalar(0).unwrap();
        assert!((est - truth).abs() < 0.05, "epoch {}: {est}", r.epoch);
    }
}

#[test]
fn query_installed_at_one_stack_is_readable_at_every_other() {
    let n = 8;
    let mut net = Net::new(n, 10, 3, None);
    let descriptor = QueryDescriptor::new("load", AggregateKind::Average)
        .with_gamma(12)
        .with_cycle_length(CYCLE);
    net.stacks[0].install(descriptor, net.now).unwrap();
    assert!(
        net.stacks[0].next_deadline() <= net.now,
        "install must wake"
    );
    assert!(net.stacks[1].estimate("load").is_err(), "not gossiped yet");
    // Epoch k of the query spans (k-1)·γδ..k·γδ from the install: these
    // submits land in epoch 5 and take effect in epoch 6.
    net.run(1_000);
    for (i, stack) in net.stacks.iter_mut().enumerate() {
        stack
            .submit("load", 10.0 * i as f64, 1_000)
            .unwrap_or_else(|e| panic!("node {i} never learned the query: {e:?}"));
    }
    net.run(1_000 + 4 * 12 * CYCLE);
    let truth = 10.0 * (n - 1) as f64 / 2.0;
    let mut saw_submits = 0;
    for (i, stack) in net.stacks.iter_mut().enumerate() {
        let est = stack.estimate("load").expect("readable everywhere");
        assert!(est.settled, "node {i} has no completed query epoch");
        assert!(!stack.take_query_epochs().is_empty());
        if est.epoch >= 6 {
            saw_submits += 1;
            assert!((est.value - truth).abs() < 0.5, "node {i}: {est:?}");
        }
    }
    assert!(
        saw_submits >= n / 2,
        "{saw_submits} nodes completed epoch 6"
    );
    assert!(net.count(0, u64::MAX, |p| p == Plane::Query) > 0);
}

#[test]
fn same_seed_yields_the_same_trace() {
    let run = |seed| {
        let gossip = GossipDirectoryConfig::new(6, CYCLE).with_introducer_node(0);
        let mut net = Net::new(6, 5, seed, Some(&gossip));
        net.run(30 * CYCLE);
        (net.trace(), net.sent)
    };
    let (trace, sent) = run(5);
    assert!(!trace.is_empty() && !sent.is_empty());
    assert_eq!((trace, sent), run(5));
    assert_ne!(run(5).0, run(6).0, "the seed does not reach the stack");
}

/// Every frame the stack can emit lands on the ledger the parent commit
/// charged it to — so Σ `*_bytes_sent` stays the bytes handed to the
/// kernel — and its owned twin is exactly what the
/// codec makes of its bytes: frame → payload → frame, the middle leg
/// taken both through the wire and around it.
#[test]
fn every_wire_frame_maps_to_its_traffic_plane_and_owned_twin() {
    let msg = Message::refuse(NodeId::new(1), 0);
    let view = DirectoryPayload::View {
        view: ViewPayload {
            from: 1,
            descriptors: vec![Descriptor::new(2, 3)],
        },
        reply: false,
        delta: true,
    };
    let join = DirectoryPayload::Join { from: 1 };
    let table = [
        (WireFrame::Aggregation(&msg), Plane::Aggregation),
        (WireFrame::Directory(&view), Plane::Membership),
        (WireFrame::Directory(&join), Plane::Membership),
        (WireFrame::Catalog(NodeId::new(1), &[]), Plane::Query),
        (WireFrame::Query("load", &msg), Plane::Query),
    ];
    for (frame, plane) in table {
        assert_eq!(Plane::of(&frame), plane, "{frame:?}");
        // The receive side counts the same plane.
        let received = decode_datagram(&frame.encode()).unwrap();
        assert_eq!(frame.to_payload(), received, "{frame:?}");
        assert_eq!(Plane::of_received(&received), Some(plane), "{frame:?}");
    }
}

#[test]
fn hostile_catalog_entries_and_installs_degrade_to_lost_messages() {
    let good =
        |name: &str| QueryDescriptor::new(name, AggregateKind::Average).with_cycle_length(CYCLE);
    let entry = |descriptor: QueryDescriptor| CatalogEntry {
        descriptor,
        version: 1,
        deleted: false,
        installed_at: 0,
        expires_at: 0,
    };
    // Each of these kills `QueryPlane::sync_running` if it gets that far:
    // three fail `NodeConfig` validation, the fourth wraps γ·δ to zero and
    // divides by it.
    let bad = [
        QueryDescriptor {
            gamma: 0,
            ..good("zero-gamma")
        },
        QueryDescriptor {
            cycle_length: 0,
            ..good("zero-cycle")
        },
        QueryDescriptor {
            timeout: CYCLE,
            ..good("slow-timeout")
        },
        QueryDescriptor {
            gamma: 2,
            cycle_length: 1 << 63,
            timeout: 1,
            ..good("overflow")
        },
    ];
    for descriptor in bad {
        let mut net = Net::new(2, 10, 5, None);
        net.run(3);
        // Over the wire: the bad entry rides between two valid neighbours.
        let name = descriptor.name.clone();
        let entries = [
            entry(good("a")),
            entry(descriptor.clone()),
            entry(good("z")),
        ];
        let frame = WireFrame::Catalog(NodeId::new(1), &entries);
        let payload = decode_datagram(&frame.encode()).expect("hostile, not malformed");
        net.step(0, Input::Frame(&payload));
        assert_eq!(net.stacks[0].installed_queries(), ["a", "z"], "{name}");
        // Through a client: rejected, not installed, stack still serving.
        let response = net.stacks[0].rpc(&RpcRequest::Install { id: 9, descriptor }, net.now);
        assert_eq!(response.status, RpcStatus::BadRequest, "{name}");
        net.run(net.now + 2 * CYCLE);
        assert_eq!(net.stacks[0].installed_queries(), ["a", "z"], "{name}");
        // Catalog gossip carried the valid neighbours on, and only them.
        assert_eq!(net.stacks[1].installed_queries(), ["a", "z"], "{name}");
    }
    // A schedule anchored where `anchor + phase` has no room left (a
    // dev-profile overflow panic in `GossipNode::joiner`) is skipped too.
    let mut net = Net::new(2, 10, 5, None);
    let mut far = entry(good("far"));
    far.installed_at = u64::MAX;
    let payload = WireFrame::Catalog(NodeId::new(1), &[far, entry(good("z"))]).to_payload();
    net.step(0, Input::Frame(&payload));
    net.run(2 * CYCLE);
    assert_eq!(net.stacks[0].installed_queries(), ["z"]);
}

#[test]
fn a_non_finite_request_is_refused_and_every_report_stays_finite() {
    // One hostile Request at epoch 0 handed to node 0: refused like a lost
    // message, so every epoch-0 report is still finite and on the truth.
    let (n, gamma) = (32, 10);
    let truth = (n - 1) as f64 / 2.0;
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut net = Net::new(n, gamma, 11, None);
        net.run(3 * CYCLE);
        let hostile = Message::request(NodeId::new(1), 0, vec![InstanceState::Scalar(bad)]);
        net.step(0, Input::Frame(&WirePayload::Aggregation(hostile)));
        net.run(u64::from(gamma + 2) * CYCLE);
        let reports: Vec<f64> = net
            .reports()
            .iter()
            .filter(|r| r.epoch == 0)
            .map(|r| r.scalar(0).unwrap())
            .collect();
        assert!(reports.len() >= 2, "{bad}: {reports:?}");
        for est in reports {
            assert!((est - truth).abs() < 0.05 * truth, "{bad}: reported {est}");
        }
    }
}

#[test]
fn a_non_finite_tenant_request_is_refused_and_the_query_stays_finite() {
    let n = 8;
    let gamma = 12;
    let mut net = Net::new(n, 10, 3, None);
    let descriptor = QueryDescriptor::new("load", AggregateKind::Average)
        .with_gamma(gamma)
        .with_cycle_length(CYCLE);
    net.stacks[0].install(descriptor, net.now).unwrap();
    // Query epoch k spans (k-1)·γδ..k·γδ from the install: these submits
    // land in epoch 5 and take effect in epoch 6 (1,200..1,440).
    net.run(1_000);
    for (i, stack) in net.stacks.iter_mut().enumerate() {
        stack.submit("load", 10.0 * i as f64, 1_000).unwrap();
        let refused = stack.submit("load", f64::NAN, 1_000);
        assert_eq!(refused, Err(QueryError::NonFiniteValue), "node {i}");
    }
    net.run(1_250);
    let hostile = Message::request(NodeId::new(1), 6, vec![InstanceState::Scalar(f64::NAN)]);
    let payload = WirePayload::Query {
        query: "load".into(),
        message: hostile,
    };
    net.step(0, Input::Frame(&payload));
    net.run(1_440 + 2 * CYCLE);
    let truth = 10.0 * (n - 1) as f64 / 2.0;
    let mut epoch6 = 0;
    for stack in &mut net.stacks {
        for e in stack.take_query_epochs() {
            let est = e.estimate.expect("an AVERAGE estimate");
            assert!(est.is_finite(), "epoch {}: {est}", e.epoch);
            if e.epoch == 6 {
                epoch6 += 1;
                assert!((est - truth).abs() < 0.05 * truth, "epoch 6: {est}");
            }
        }
    }
    assert!(epoch6 >= n / 2, "{epoch6} nodes completed epoch 6");
}

#[test]
fn a_count_tenant_refuses_a_map_over_the_bound() {
    // The base node's COUNT-map bound holds for a tenant too: its
    // GossipNode refuses the frame and counts it in the stack's registry.
    let registry = Registry::new();
    let directory: Box<dyn PeerDirectory> =
        Box::new(StaticDirectory::id_routed(2, NodeId::new(0), 7));
    let query = QueryPlaneConfig::default();
    let mut stack = NodeStack::founder(
        NodeId::new(0),
        node_config(10),
        0.0,
        7,
        directory,
        query,
        registry.clone(),
    );
    let count = QueryDescriptor::new("n", AggregateKind::Count)
        .with_gamma(10)
        .with_cycle_length(CYCLE);
    stack.install(count, 0).unwrap();
    // The tenant's epoch, read off its first request.
    let (mut now, mut epoch) = (0, None);
    while epoch.is_none() {
        stack.step(Input::Wake, now, |_, frame, _| {
            if let WireFrame::Query(_, msg) = frame {
                epoch = epoch.or(Some(msg.epoch));
            }
        });
        now += 1;
    }
    // Leaders 0..k: node 0's own entry, if it leads, is among them.
    let mut answer = |leaders: u64| {
        let map = InstanceMap::from_entries((0..leaders).map(|l| (l, 0.5)));
        let message = Message::request(
            NodeId::new(1),
            epoch.unwrap(),
            vec![InstanceState::Map(map)],
        );
        let payload = WirePayload::Query {
            query: "n".into(),
            message,
        };
        let mut body = None;
        stack.step(Input::Frame(&payload), now, |_, frame, _| {
            if let WireFrame::Query(_, msg) = frame {
                body = Some(msg.body.clone());
            }
        });
        body.expect("the tenant answers a request")
    };
    let refused = || {
        registry
            .counter_with("agg.states_refused", &[("reason", "map_too_large")])
            .get()
    };
    let bound = MAX_MAP_LEADERS as u64;
    assert!(matches!(answer(bound + 1), MessageBody::Refuse));
    assert_eq!(refused(), 1);
    assert!(matches!(answer(bound), MessageBody::Reply(_)));
    assert_eq!(refused(), 1);
}
