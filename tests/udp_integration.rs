//! End-to-end integration of the full stack — sans-io protocol node,
//! binary codec, pluggable peer directories, and the mux runtime behind
//! the `Cluster` seam — computing aggregates.
//!
//! Every test whose subject is the mux turn (receive, step, fire, flush)
//! runs on an in-memory network in virtual milliseconds
//! ([`MemNetwork`]): the same turn, no socket, no thread, no wall clock.
//! The layout conformance suite holds it in every layout — one loop per
//! vnode (the paper's Figure 1), a few loops for many vnodes, and a
//! 2-shard cluster — to the same answers: identical n = 2 epoch-report
//! sequences on the same seed, and agreeing convergence within paper
//! theory bounds at n = 256 (and n = 1024 for the multi-loop set). The
//! tests whose subject is a kernel socket or the scheduler — hostile
//! datagrams, both I/O backends with their syscall counts, and a cluster
//! sharing its one core with a busy thread — run on real loopback UDP
//! sockets.

use epidemic::aggregation::{theory, EpochReport, InstanceSpec, LeaderPolicy, NodeConfig};
use epidemic::net::batch::IoBackend;
use epidemic::net::cluster::Cluster;
use epidemic::net::directory::{DirectorySpec, GossipDirectoryConfig};
use epidemic::net::mux::{MemNetwork, MuxCluster, MuxClusterConfig, PeerTable};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-node report streams keyed by cluster-wide node id.
type NodeReports = Vec<(u64, Vec<EpochReport>)>;

/// Drains every node's reports, keyed by cluster-wide node id so shards
/// of one cluster can be merged and compared across layouts.
fn reports_by_id(cluster: &MuxCluster) -> NodeReports {
    (0..cluster.node_count())
        .map(|i| (cluster.node_id(i).as_u64(), cluster.take_reports(i)))
        .collect()
}

/// Builds `config` on a network of its own and runs it for `ms` virtual
/// milliseconds.
fn run_in_memory(config: MuxClusterConfig, values: impl Fn(usize) -> f64, ms: u64) -> MuxCluster {
    let network = MemNetwork::new();
    let cluster = MuxCluster::in_memory(config, &network, values).unwrap();
    network.advance(ms);
    cluster
}

/// Builds one cluster per shard of `table` on one network and runs them
/// for `ms` virtual milliseconds.
fn run_shards_in_memory(
    network: &MemNetwork,
    table: &PeerTable,
    config: impl Fn(MuxClusterConfig) -> MuxClusterConfig,
    node_config: &NodeConfig,
    values: impl Fn(usize) -> f64 + Copy,
    ms: u64,
) -> Vec<MuxCluster> {
    let shards = (0..table.shard_count())
        .map(|s| {
            let sharded = MuxClusterConfig::sharded(table.clone(), s, node_config.clone());
            MuxCluster::in_memory(config(sharded), network, values).unwrap()
        })
        .collect();
    network.advance(ms);
    shards
}

/// The theory-backed absolute error bound used across the convergence
/// tests: Section 3 gives a per-cycle variance reduction of
/// rho = 1/(2 sqrt e), so after gamma cycles the expected residual std of
/// estimates started at 0..n is sigma_0 * rho^(gamma/2) — far below 1
/// here. `slack` multiplies the residual to absorb real-world delays,
/// drops, and partial exchanges; the floor keeps the bound a small
/// relative error even when the residual underflows.
fn theory_bound(n: usize, gamma: u32, slack: f64) -> f64 {
    let truth = (n as f64 - 1.0) / 2.0;
    let sigma0 = ((n as f64 * n as f64 - 1.0) / 12.0).sqrt();
    let residual = sigma0 * theory::variance_after(gamma, theory::RHO_PUSH_PULL, 1.0).sqrt();
    (residual * slack).max(truth * 0.01 * slack / 100.0)
}

#[test]
fn five_node_cluster_converges_on_average() {
    let config = NodeConfig::builder()
        .gamma(10)
        .cycle_length(30)
        .timeout(12)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap();
    // One loop per node, Figure 1's layout.
    let cluster = run_in_memory(
        MuxClusterConfig::new(5, config).with_readers(5),
        |i| (i as f64 + 1.0) * 4.0, // avg 12
        1_500,
    );
    let mut last_estimates = Vec::new();
    for (_, reports) in reports_by_id(&cluster) {
        if let Some(r) = reports.last() {
            last_estimates.push(r.scalar(0).unwrap());
        }
    }
    assert!(
        last_estimates.len() == 5,
        "only {} nodes reported",
        last_estimates.len()
    );
    for est in last_estimates {
        assert!((est - 12.0).abs() < 1.0, "estimate {est} (truth 12)");
    }
}

#[test]
fn cluster_counts_itself() {
    let n = 8;
    let config = NodeConfig::builder()
        .gamma(12)
        .cycle_length(30)
        .timeout(12)
        .instance(InstanceSpec::CountMap {
            leader: LeaderPolicy::Probability { concurrency: 3.0 },
        })
        .initial_size_guess(n as f64)
        .build()
        .unwrap();
    let config = MuxClusterConfig::new(n, config).with_readers(n);
    let cluster = run_in_memory(config, |_| 0.0, 2_200);
    let mut estimates = Vec::new();
    for (_, reports) in reports_by_id(&cluster) {
        for r in reports {
            if let Some(c) = r.count_estimate() {
                estimates.push(c);
            }
        }
    }
    assert!(!estimates.is_empty(), "no COUNT estimates produced");
    let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
    assert!(
        mean > n as f64 * 0.5 && mean < n as f64 * 2.0,
        "mean count {mean} for {n} nodes"
    );
}

#[test]
fn mux_512_nodes_single_process_converge_within_theory_bounds() {
    // 512 nodes in one process, multiplexed over 4 loops.
    let n = 512usize;
    let gamma = 20u32;
    let config = NodeConfig::builder()
        .gamma(gamma)
        .cycle_length(40)
        .timeout(16)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap();
    let cluster = run_in_memory(
        MuxClusterConfig::new(n, config)
            .with_workers(4)
            .with_readers(1)
            .with_seed(7),
        |i| i as f64, // truth: (n - 1) / 2 = 255.5
        2_300,
    );
    // Workers and readers are one pool of loops: the larger count wins.
    assert_eq!(cluster.reader_count(), 4);
    let reports = cluster.take_all_reports();

    let truth = (n as f64 - 1.0) / 2.0;
    let bound = theory_bound(n, gamma, 100.0);
    for node_reports in &reports {
        for r in node_reports {
            let est = r.scalar(0).unwrap();
            assert!(
                (est - truth).abs() < bound,
                "epoch {} estimate {est} vs truth {truth} (bound {bound:.3})",
                r.epoch
            );
        }
    }
    // The overwhelming majority of nodes must have completed epoch 0
    // within the run (a few stragglers may still be mid-epoch).
    let nodes_reporting = reports.iter().filter(|r| !r.is_empty()).count();
    assert!(
        nodes_reporting >= n * 3 / 4,
        "only {nodes_reporting} of {n} nodes completed an epoch"
    );
}

#[test]
fn mux_1024_nodes_multi_reader_converge_within_theory_bounds() {
    // The multi-loop set at scale: 1024 vnodes spread over 4 loops
    // (vnode i homed on loop i % 4). Convergence must sit within the same
    // paper bound as the single-loop runtime.
    let n = 1024usize;
    let gamma = 20u32;
    let config = NodeConfig::builder()
        .gamma(gamma)
        .cycle_length(60)
        .timeout(24)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap();
    let cluster = run_in_memory(
        MuxClusterConfig::new(n, config)
            .with_workers(4)
            .with_readers(4)
            .with_seed(7),
        |i| i as f64, // truth: (n - 1) / 2 = 511.5
        3_400,
    );
    assert_eq!(cluster.reader_count(), 4);
    assert_eq!(cluster.addrs().len(), 4);
    let reports = cluster.take_all_reports();

    let truth = (n as f64 - 1.0) / 2.0;
    let bound = theory_bound(n, gamma, 100.0);
    for node_reports in &reports {
        for r in node_reports {
            let est = r.scalar(0).unwrap();
            assert!(
                (est - truth).abs() < bound,
                "epoch {} estimate {est} vs truth {truth} (bound {bound:.3})",
                r.epoch
            );
        }
    }
    let nodes_reporting = reports.iter().filter(|r| !r.is_empty()).count();
    assert!(
        nodes_reporting >= n * 3 / 4,
        "only {nodes_reporting} of {n} nodes completed an epoch"
    );
}

#[test]
fn mux_256_nodes_bundle_frames_without_losing_any() {
    // The bundle wire end to end. Nothing is ever held back to fill a
    // bundle, so frames share a datagram only when work arrives in
    // bursts: a 16 ms cycle makes each 1 ms tick wake ~16 of the 256
    // vnodes at once. Many frames must then share each datagram, none may
    // be lost or invented on the way through a bundle, and convergence
    // must sit inside the same paper bound as the unbundled runtime did.
    let n = 256usize;
    let gamma = 20u32;
    let config = NodeConfig::builder()
        .gamma(gamma)
        .cycle_length(16)
        .timeout(6)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap();
    let network = MemNetwork::new();
    let cluster = MuxCluster::in_memory(
        MuxClusterConfig::new(n, config)
            .with_workers(2)
            .with_readers(1)
            .with_seed(7),
        &network,
        |i| i as f64, // truth: (n - 1) / 2 = 127.5
    )
    .unwrap();
    network.advance(1_200);
    // A datagram flushed at tick t - 1 is received at tick t, so after
    // every tick the frames received are exactly those sent one tick
    // earlier.
    for _ in 0..200 {
        let sent_before = cluster.total_datagram_counts().sent();
        network.advance(1);
        let received = cluster.total_datagram_counts().received();
        assert_eq!(received, sent_before, "frames lost or invented");
    }
    let totals = cluster.total_datagram_counts();
    let datagrams = cluster.registry().counter_value("io.datagrams_received");
    let reports = cluster.take_all_reports();

    assert_eq!(totals.send_errors, 0, "the network refused datagrams");
    assert!(
        datagrams < totals.received() / 4,
        "{datagrams} datagrams carried only {} frames",
        totals.received(),
    );

    let truth = (n as f64 - 1.0) / 2.0;
    let bound = theory_bound(n, gamma, 100.0);
    for r in reports.iter().flatten() {
        let est = r.scalar(0).unwrap();
        assert!(
            (est - truth).abs() < bound,
            "epoch {} estimate {est} vs truth {truth} (bound {bound:.3})",
            r.epoch
        );
    }
    let nodes_reporting = reports.iter().filter(|r| !r.is_empty()).count();
    assert_eq!(nodes_reporting, n, "a node never completed an epoch");
}

#[test]
fn runtimes_agree_on_same_seed() {
    // Same seed, same protocol config, same values: the mux cluster on
    // one loop, on one loop per vnode (the paper's Figure 1 layout at
    // n = 2) AND sharded over two shards must produce identical
    // EpochReport sequences. n = 2 makes the comparison exact: any
    // completed exchange yields precisely the true average, and on the
    // virtual clock every layout runs the same ticks, so every epoch
    // report of every node is bit-identical across layouts — the layout
    // must be invisible to the protocol.
    let seed = 0xA11CE;
    let make_config = || {
        NodeConfig::builder()
            .gamma(5)
            .cycle_length(30)
            .timeout(12)
            .instance(InstanceSpec::AVERAGE)
            .build()
            .unwrap()
    };
    let values = |i: usize| (i as f64 + 1.0) * 10.0; // 10, 20 -> average 15
    let ms = 1_400;

    let mut variant_reports: Vec<(&str, NodeReports)> = [("1 loop", 1), ("2 loops", 2)]
        .into_iter()
        .map(|(label, loops)| {
            let config = MuxClusterConfig::new(2, make_config())
                .with_seed(seed)
                .with_readers(loops);
            let cluster = run_in_memory(config, values, ms);
            assert_eq!(cluster.reader_count(), loops, "{label}");
            (label, reports_by_id(&cluster))
        })
        .collect();
    // One vnode per shard: every exchange crosses between the two.
    let network = MemNetwork::new();
    let table = PeerTable::split(2, network.addrs(2));
    let with_seed = |config: MuxClusterConfig| config.with_seed(seed).with_workers(1);
    let shards = run_shards_in_memory(&network, &table, with_seed, &make_config(), values, ms);
    variant_reports.push(("2 shards", shards.iter().flat_map(reports_by_id).collect()));
    for (_, reports) in &mut variant_reports {
        reports.sort_by_key(|(id, _)| *id);
    }

    let ((reference, reference_reports), others) = variant_reports.split_first().unwrap();
    for (id, reports) in reference_reports {
        assert!(reports.len() >= 4, "node {id}: {reference} reports");
        for r in reports {
            assert_eq!(r.scalar(0), Some(15.0), "node {id} epoch {}", r.epoch);
        }
    }
    for (label, other) in others {
        assert_eq!(
            reference_reports, other,
            "{label} diverged from {reference} on the same seed"
        );
    }
}

#[test]
fn conformance_convergence_agrees_at_n256() {
    // The same n = 256 scenario through both layouts on the same seed:
    // each must converge within the paper bound, and their means must
    // agree with each other.
    let n = 256usize;
    let gamma = 12u32;
    let seed = 99;
    let node_config = NodeConfig::builder()
        .gamma(gamma)
        .cycle_length(40)
        .timeout(16)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap();
    let truth = (n as f64 - 1.0) / 2.0;
    let bound = theory_bound(n, gamma, 100.0);

    // Each node is judged on its latest completed epoch past the first.
    let check = |label: &str, reports: Vec<(u64, Vec<EpochReport>)>| -> f64 {
        let mut finals = Vec::new();
        for (id, node_reports) in &reports {
            let Some(r) = node_reports.iter().rev().find(|r| r.epoch >= 1) else {
                continue;
            };
            let est = r.scalar(0).unwrap();
            assert!(
                (est - truth).abs() < bound,
                "{label}: node {id} epoch {} estimate {est} vs {truth} (bound {bound:.3})",
                r.epoch,
            );
            finals.push(est);
        }
        assert!(
            finals.len() >= n / 2,
            "{label}: only {} of {n} nodes completed a post-startup epoch",
            finals.len()
        );
        finals.iter().sum::<f64>() / finals.len() as f64
    };

    let config = MuxClusterConfig::new(n, node_config.clone())
        .with_workers(4)
        .with_seed(seed);
    let mux = run_in_memory(config, |i| i as f64, 2_600);
    let mux_mean = check("mux", reports_by_id(&mux));

    // Two shards of two loops each: a shard runs its published set.
    let network = MemNetwork::new();
    let sets = network.addrs(4).chunks(2).map(<[_]>::to_vec).collect();
    let table = PeerTable::split_sets(n, sets);
    let with_seed = |config: MuxClusterConfig| config.with_seed(seed);
    let shards = run_shards_in_memory(
        &network,
        &table,
        with_seed,
        &node_config,
        |i| i as f64,
        2_600,
    );
    assert_eq!(shards[0].len() + shards[1].len(), n);
    assert_eq!(shards[0].reader_count(), 2);
    let sharded_mean = check(
        "2-shard mux",
        shards.iter().flat_map(reports_by_id).collect(),
    );

    for (label, mean) in [("mux", mux_mean), ("2-shard mux", sharded_mean)] {
        assert!(
            (mean - truth).abs() < bound,
            "{label}: mean {mean} vs truth {truth}"
        );
    }
    assert!(
        (mux_mean - sharded_mean).abs() < bound,
        "layouts disagree: mux {mux_mean}, sharded {sharded_mean}"
    );
}

#[test]
fn gossip_directory_mux_converges_without_static_peer_table() {
    // NO static peer table: vnode 0 is the only bootstrap contact; every
    // other vnode joins it over the wire, learns the overlay by NEWSCAST
    // view gossip (codec tags 4-7 in mux frames through the same ports,
    // timer wheels, and loops), and serves GETNEIGHBOR() from its live
    // partial view. Epoch 0 overlaps the bootstrap; from epoch 1 on the
    // estimates must sit within (a slackened) paper theory bound.
    let n = 256usize;
    let gamma = 15u32;
    let config = NodeConfig::builder()
        .gamma(gamma)
        .cycle_length(40)
        .timeout(16)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap();
    let directory =
        DirectorySpec::Gossip(GossipDirectoryConfig::new(20, 25).with_introducer_node(0));
    let cluster = run_in_memory(
        MuxClusterConfig::new(n, config)
            .with_workers(4)
            .with_seed(21)
            .with_directory(directory),
        |i| i as f64,
        3_000,
    );
    let reports = cluster.take_all_reports();
    let totals = cluster.total_datagram_counts();

    let truth = (n as f64 - 1.0) / 2.0;
    // NEWSCAST's partial views approximate-but-don't-equal uniform
    // sampling and the bootstrap steals early cycles, so allow double
    // the slack of the static-directory tests.
    let bound = theory_bound(n, gamma, 200.0);
    let mut converged = 0usize;
    for (id, node_reports) in reports.iter().enumerate() {
        for r in node_reports {
            if r.epoch == 0 {
                continue; // bootstrap epoch: views may still be filling
            }
            let est = r.scalar(0).unwrap();
            assert!(
                (est - truth).abs() < bound,
                "node {id} epoch {} estimate {est} vs truth {truth} (bound {bound:.3})",
                r.epoch
            );
            converged += 1;
        }
    }
    assert!(
        converged >= n / 2,
        "only {converged} post-bootstrap epoch reports from {n} nodes"
    );
    // The membership plane actually ran — and is accounted separately
    // from the aggregation plane.
    assert!(totals.membership_sent > 0, "no membership traffic counted");
    assert!(totals.membership_received > 0);
    assert!(totals.membership_bytes_sent > 0);
    assert!(totals.aggregation_sent > 0);
    let overhead = totals.membership_byte_overhead();
    assert!(
        overhead > 0.0 && overhead < 10.0,
        "implausible membership byte overhead {overhead}"
    );
}

#[test]
fn delta_gossip_matches_full_view_gossip_over_the_wire() {
    // Conformance: the delta view path (tags 8/9) must reach the same
    // aggregation fidelity as full-view gossip on the same seed — while
    // spending strictly fewer membership bytes.
    let n = 64usize;
    let gamma = 12u32;
    let make_config = || {
        NodeConfig::builder()
            .gamma(gamma)
            .cycle_length(40)
            .timeout(16)
            .instance(InstanceSpec::AVERAGE)
            .build()
            .unwrap()
    };
    let truth = (n as f64 - 1.0) / 2.0;
    let bound = theory_bound(n, gamma, 200.0);
    let run = |gossip: GossipDirectoryConfig| {
        let cluster = run_in_memory(
            MuxClusterConfig::new(n, make_config())
                .with_workers(2)
                .with_seed(17)
                .with_directory(DirectorySpec::Gossip(gossip)),
            |i| i as f64,
            2_200,
        );
        let reports = cluster.take_all_reports();
        let totals = cluster.total_datagram_counts();
        let mut finals = Vec::new();
        for (id, node_reports) in reports.iter().enumerate() {
            if let Some(r) = node_reports.iter().rev().find(|r| r.epoch >= 1) {
                let est = r.scalar(0).unwrap();
                assert!(
                    (est - truth).abs() < bound,
                    "node {id} epoch {} estimate {est} vs {truth} (bound {bound:.3})",
                    r.epoch
                );
                finals.push(est);
            }
        }
        assert!(
            finals.len() >= n / 2,
            "only {} of {n} nodes completed a post-bootstrap epoch",
            finals.len()
        );
        totals
    };

    let base = || GossipDirectoryConfig::new(20, 25).with_introducer_node(0);
    let delta = run(base());
    let full = run(base().with_full_views());
    assert!(delta.membership_bytes_sent > 0 && full.membership_bytes_sent > 0);
    // Same cadence, same seed: deltas must beat full views per membership
    // frame on the wire, not just in the simulator.
    let per_msg = |t: &epidemic::net::cluster::TrafficCounts| {
        t.membership_bytes_sent as f64 / t.membership_sent.max(1) as f64
    };
    assert!(
        per_msg(&delta) < per_msg(&full),
        "delta gossip not cheaper per message: {:.1} vs {:.1} bytes",
        per_msg(&delta),
        per_msg(&full)
    );
}

#[test]
fn sharded_gossip_cluster_fans_frames_across_reader_sets() {
    // Two shards, two ports each, gossiped membership: joins, view deltas
    // and aggregation frames all cross between the shards — and every
    // port of both shards must see remote traffic (the destination
    // vnode's home port, not just the shard's first address).
    let n = 8usize;
    let config = NodeConfig::builder()
        .gamma(8)
        .cycle_length(30)
        .timeout(12)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap();
    let network = MemNetwork::new();
    let sets = network.addrs(4).chunks(2).map(<[_]>::to_vec).collect();
    let table = PeerTable::split_sets(n, sets);
    let layout = |config: MuxClusterConfig| {
        let directory = GossipDirectoryConfig::new(6, 20).with_introducer_node(0);
        config
            .with_workers(1)
            .with_readers(2)
            .with_seed(23)
            .with_directory(DirectorySpec::Gossip(directory))
    };
    let shards = run_shards_in_memory(&network, &table, layout, &config, |i| i as f64, 1_500);
    // `io.datagrams_received{socket, origin="remote"}` of every port.
    let remote = |shard: &MuxCluster, socket: usize| {
        let labels = [("socket", &*socket.to_string()), ("origin", "remote")];
        let registry = shard.registry();
        registry
            .counter_with("io.datagrams_received", &labels)
            .get()
    };
    let recvs: Vec<[u64; 2]> = shards
        .iter()
        .map(|shard| {
            assert_eq!(shard.reader_count(), 2, "a shard lost a port");
            [remote(shard, 0), remote(shard, 1)]
        })
        .collect();
    let totals = shards[0].total_datagram_counts() + shards[1].total_datagram_counts();
    assert!(
        totals.membership_sent > 0,
        "membership never crossed shards"
    );
    assert!(totals.aggregation_sent > 0);
    for (s, sockets) in recvs.iter().enumerate() {
        for (i, &remote_datagrams) in sockets.iter().enumerate() {
            assert!(
                remote_datagrams > 0,
                "shard {s} port {i} never saw cross-shard traffic: {recvs:?}"
            );
        }
    }
}

#[test]
fn in_memory_runs_replay_byte_identically_per_seed() {
    // The in-memory network is deterministic: the same gossiped cluster
    // built twice from one seed and run for the same virtual time drains
    // the same trace, byte for byte, and sends the same frames and bytes
    // on every plane; another seed does not.
    let run = |seed: u64| {
        let config = NodeConfig::builder()
            .gamma(8)
            .cycle_length(20)
            .timeout(8)
            .instance(InstanceSpec::AVERAGE)
            .build()
            .unwrap();
        let directory = GossipDirectoryConfig::new(8, 20).with_introducer_node(0);
        let config = MuxClusterConfig::new(32, config)
            .with_readers(3)
            .with_seed(seed)
            .with_trace(4_096)
            .with_directory(DirectorySpec::Gossip(directory));
        let cluster = run_in_memory(config, |i| i as f64, 600);
        let jsonl: String = (0..cluster.len())
            .flat_map(|i| cluster.take_trace(i))
            .map(|event| event.to_json() + "\n")
            .collect();
        let registry = cluster.registry();
        let io: Vec<u64> = ["aggregation", "membership", "query"]
            .into_iter()
            .flat_map(|plane| {
                let labels = [("plane", plane)];
                ["io.frames_sent", "io.bytes_sent"]
                    .map(|name| registry.counter_with(name, &labels).get())
            })
            .collect();
        (jsonl, io)
    };
    let (trace, io) = run(5);
    assert!(
        trace.lines().count() > 1_000,
        "too little history to compare"
    );
    assert!(io.iter().take(4).all(|&count| count > 0), "{io:?}");
    assert_eq!(
        run(5),
        (trace.clone(), io.clone()),
        "one seed, two histories"
    );
    let (other_trace, other_io) = run(6);
    assert!(
        other_trace != trace && other_io != io,
        "another seed, same history"
    );
}

#[test]
fn node_survives_garbage_datagrams() {
    // Real sockets: the subject is what a kernel socket can deliver.
    let config = NodeConfig::builder()
        .gamma(5)
        .cycle_length(25)
        .timeout(10)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap();
    let cluster = MuxCluster::spawn(MuxClusterConfig::new(2, config).with_readers(2), |i| {
        i as f64
    })
    .expect("spawn cluster");
    // Blast corrupt datagrams at both nodes.
    let attacker = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    for _ in 0..50 {
        for addr in cluster.addrs() {
            let _ = attacker.send_to(&[0xFF, 0x00, 0x13, 0x37], addr);
        }
    }
    std::thread::sleep(Duration::from_millis(700));
    // The protocol keeps running and converges regardless.
    let mut saw_report = false;
    for (_, reports) in reports_by_id(&cluster) {
        if let Some(r) = reports.last() {
            saw_report = true;
            assert!((r.scalar(0).unwrap() - 0.5).abs() < 0.2);
        }
    }
    cluster.shutdown();
    assert!(saw_report, "cluster stalled after garbage input");
}

#[test]
fn both_io_backends_converge_and_count_their_syscalls() {
    // Real sockets, one backend after the other: with 64 vnodes on two
    // loops, a loop's flush often holds a datagram for each of the two
    // sockets. The portable backend spends exactly one send syscall per
    // datagram; the batched one (on Linux) fewer.
    let n = 64usize;
    let config = NodeConfig::builder()
        .gamma(10)
        .cycle_length(40)
        .timeout(20)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap();
    let truth = (n as f64 - 1.0) / 2.0;
    for io in [IoBackend::Batched, IoBackend::Portable] {
        let config = MuxClusterConfig::new(n, config.clone())
            .with_readers(2)
            .with_io(io);
        let cluster = MuxCluster::spawn(config, |i| i as f64).unwrap();
        assert_eq!(cluster.io_backend(), io);
        std::thread::sleep(Duration::from_millis(1_000));
        let reports = cluster.take_all_reports();
        let syscalls = cluster.syscall_counts();
        let datagrams = cluster.registry().counter_value("io.datagrams_sent");
        let totals = cluster.total_datagram_counts();
        cluster.shutdown();
        let finals: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.last())
            .map(|r| r.scalar(0).unwrap())
            .collect();
        assert!(
            finals.len() >= n / 2,
            "{io:?}: only {} nodes reported",
            finals.len()
        );
        for est in finals {
            // Exchange timeouts under CPU contention bias an epoch a
            // little; the subject here is the backend, not the accuracy.
            assert!(
                (est - truth).abs() < 0.05 * truth,
                "{io:?}: estimate {est} vs {truth}"
            );
        }
        assert!(syscalls.recv_calls > 0, "{io:?}: no receive syscalls");
        assert_eq!(totals.send_errors, 0, "{io:?}: loopback refused datagrams");
        if io.is_batched() {
            assert!(
                syscalls.send_calls < datagrams,
                "batched backend never coalesced a send burst \
                 ({} syscalls for {datagrams} datagrams)",
                syscalls.send_calls
            );
        } else {
            assert_eq!(syscalls.send_calls, datagrams, "{io:?}");
        }
    }
}

/// Pins the calling thread, and every thread it starts afterwards, to the
/// first core it may run on. The syscalls are hand-declared: the build has
/// no `libc` crate. Off Linux this does nothing.
#[cfg(target_os = "linux")]
fn pin_to_first_core() {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // 1024 CPUs, the glibc `cpu_set_t`.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes;
    // pid 0 names the calling thread.
    assert_eq!(unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) }, 0);
    let word = mask.iter().position(|&w| w != 0).expect("no allowed core");
    let mut single = [0u64; 16];
    single[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: `single` is a live buffer of `bytes` bytes, only read.
    assert_eq!(unsafe { sched_setaffinity(0, bytes, single.as_ptr()) }, 0);
}

#[cfg(not(target_os = "linux"))]
fn pin_to_first_core() {}

/// One thread that spins on its core until dropped.
struct Spinner {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Spinner {
    fn start() -> Spinner {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        Spinner {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Spinner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[test]
fn a_busy_thread_on_the_same_core_does_not_stall_the_cluster() {
    // Real sockets and threads: the subject is the scheduler. This
    // thread, one spinning thread and the cluster's one protocol thread
    // share one core. A protocol thread that offers the core back mid-turn
    // hands the spinner a whole scheduler slice each time: its nodes miss
    // exchanges, and their epochs end unconverged.
    pin_to_first_core();
    let spinner = Spinner::start();
    let (n, truth) = (300, 49.5);
    let config = NodeConfig::builder()
        .gamma(15)
        .cycle_length(20)
        .timeout(10)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap();
    let cluster =
        MuxCluster::spawn(MuxClusterConfig::new(n, config), |i| (i % 100) as f64).unwrap();
    std::thread::sleep(Duration::from_secs(3));
    let reports: Vec<EpochReport> = cluster.take_all_reports().into_iter().flatten().collect();
    cluster.shutdown();
    drop(spinner);
    let outside = reports
        .iter()
        .filter(|r| (r.scalar(0).unwrap() - truth).abs() > 0.05 * truth)
        .count();
    assert!(reports.len() >= n, "only {} reports in 3 s", reports.len());
    assert_eq!(
        outside,
        0,
        "{outside} of {} reports outside ε = 5 %",
        reports.len()
    );
}
