//! End-to-end integration over real UDP sockets: the full stack —
//! sans-io protocol node, binary codec, pluggable peer directories, and
//! the mux runtime behind the `Cluster` seam — computing aggregates on
//! localhost.
//!
//! The layout conformance suite holds the mux runtime in every layout —
//! one loop per vnode (the paper's Figure 1: a socket and a thread per
//! node), a few loops for many vnodes, syscall-batched and portable
//! backends, and a 2-socket sharded cluster — to the same answers:
//! identical n = 2 epoch-report sequences on the same seed, and agreeing
//! convergence within paper theory bounds at n = 256 (and n = 1024 for
//! the multi-loop set).

use epidemic::aggregation::{theory, EpochReport, InstanceSpec, LeaderPolicy, NodeConfig};
use epidemic::net::batch::IoBackend;
use epidemic::net::cluster::Cluster;
use epidemic::net::directory::{DirectorySpec, GossipDirectoryConfig};
use epidemic::net::mux::{MuxCluster, MuxClusterConfig, PeerTable};
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
    // One loop per node: a socket and a thread each, Figure 1's layout.
    let cluster = MuxCluster::spawn(
        MuxClusterConfig::new(5, config).with_readers(5),
        |i| (i as f64 + 1.0) * 4.0, // avg 12
    )
    .expect("spawn cluster");
    std::thread::sleep(Duration::from_millis(1_500));
    let mut last_estimates = Vec::new();
    for (_, reports) in reports_by_id(&cluster) {
        if let Some(r) = reports.last() {
            last_estimates.push(r.scalar(0).unwrap());
        }
    }
    cluster.shutdown();
    assert!(
        last_estimates.len() >= 4,
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
    let cluster = MuxCluster::spawn(MuxClusterConfig::new(n, config).with_readers(n), |_| 0.0)
        .expect("spawn cluster");
    std::thread::sleep(Duration::from_millis(2_200));
    let mut estimates = Vec::new();
    for (_, reports) in reports_by_id(&cluster) {
        for r in reports {
            if let Some(c) = r.count_estimate() {
                estimates.push(c);
            }
        }
    }
    cluster.shutdown();
    assert!(!estimates.is_empty(), "no COUNT estimates produced");
    let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
    assert!(
        mean > n as f64 * 0.5 && mean < n as f64 * 2.0,
        "mean count {mean} for {n} nodes"
    );
}

#[test]
fn mux_512_nodes_single_process_converge_within_theory_bounds() {
    // 512 real-socket nodes in one process, multiplexed over 4 loops,
    // one socket and one OS thread each.
    let n = 512usize;
    let gamma = 20u32;
    let config = NodeConfig::builder()
        .gamma(gamma)
        .cycle_length(40)
        .timeout(16)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap();
    let cluster = MuxCluster::spawn(
        MuxClusterConfig::new(n, config)
            .with_workers(4)
            .with_readers(1)
            .with_seed(7),
        |i| i as f64, // truth: (n - 1) / 2 = 255.5
    )
    .unwrap();
    // Workers and readers are one pool of loops: the larger count wins.
    assert_eq!(cluster.thread_count(), 4);
    std::thread::sleep(Duration::from_millis(2_300));
    let reports = cluster.take_all_reports();
    cluster.shutdown();

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
    // The multi-reader socket set at scale: 1024 vnodes spread over 4
    // reader sockets (vnode i homed on socket i % 4), frames flushed in
    // sendmmsg bursts on the default backend. Convergence must sit
    // within the same paper bound as the single-reader runtime.
    let n = 1024usize;
    let gamma = 20u32;
    let config = NodeConfig::builder()
        .gamma(gamma)
        .cycle_length(60)
        .timeout(24)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap();
    let cluster = MuxCluster::spawn(
        MuxClusterConfig::new(n, config)
            .with_workers(4)
            .with_readers(4)
            .with_seed(7),
        |i| i as f64, // truth: (n - 1) / 2 = 511.5
    )
    .unwrap();
    assert_eq!(cluster.reader_count(), 4);
    assert_eq!(cluster.thread_count(), 4);
    assert_eq!(cluster.addrs().len(), 4);
    std::thread::sleep(Duration::from_millis(3_400));
    let reports = cluster.take_all_reports();
    let syscalls = cluster.syscall_counts();
    let totals = cluster.total_datagram_counts();
    cluster.shutdown();

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
    // Syscall accounting runs on every backend; on the batched one the
    // send side must do strictly better than one syscall per datagram.
    assert!(syscalls.recv_calls > 0 && syscalls.send_calls > 0);
    let attempted = totals.sent() + totals.send_errors;
    assert!(
        syscalls.send_calls <= attempted,
        "send syscalls ({}) exceed datagrams attempted ({attempted})",
        syscalls.send_calls
    );
    if cluster_io_is_batched() {
        assert!(
            syscalls.send_calls < attempted,
            "batched backend never coalesced a send burst \
             ({} syscalls for {attempted} datagrams)",
            syscalls.send_calls
        );
    }
}

#[test]
fn mux_256_nodes_bundle_frames_without_losing_any() {
    // The bundle wire end to end. Nothing is ever held back to fill a
    // bundle, so frames share a datagram only when work arrives in
    // bursts: a 16 ms cycle makes the 1 ms timer tick wake ~16 of the 256
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
    let cluster = MuxCluster::spawn(
        MuxClusterConfig::new(n, config)
            .with_workers(2)
            .with_readers(1)
            .with_seed(7),
        |i| i as f64, // truth: (n - 1) / 2 = 127.5
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(1_000));
    // Frames keep flowing, so "received == sent" is pinned as a sandwich
    // around the frames in flight: everything sent by t0 has arrived by
    // t1, and nothing has arrived by t1 that was not sent by t2.
    let sent_t0 = cluster.total_datagram_counts().sent();
    std::thread::sleep(Duration::from_millis(200));
    let at_t1 = cluster.total_datagram_counts();
    let datagrams_t1 = cluster.registry().counter_value("io.datagrams_received");
    std::thread::sleep(Duration::from_millis(200));
    let at_t2 = cluster.total_datagram_counts();
    let reports = cluster.take_all_reports();
    cluster.shutdown();

    assert_eq!(at_t2.send_errors, 0, "loopback refused datagrams");
    assert!(
        sent_t0 <= at_t1.received() && at_t1.received() <= at_t2.sent(),
        "frames lost or invented: sent {sent_t0} by t0, received {} by t1, sent {} by t2",
        at_t1.received(),
        at_t2.sent(),
    );
    // The socket counters were read after the frame counters, so this
    // over-counts datagrams if anything — and still needs fewer than one
    // per four frames.
    assert!(
        datagrams_t1 < at_t1.received() / 4,
        "{datagrams_t1} datagrams carried only {} frames",
        at_t1.received(),
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
    assert!(
        nodes_reporting >= n * 3 / 4,
        "only {nodes_reporting} of {n} nodes completed an epoch"
    );
}

/// Whether the default-selected backend actually batches here (Linux,
/// barring an `EPIDEMIC_NET_IO` override — the CI fallback leg sets it).
fn cluster_io_is_batched() -> bool {
    IoBackend::auto().is_batched()
}

#[test]
fn runtimes_agree_on_same_seed() {
    // Same seed, same protocol config, same values: the mux cluster in
    // every I/O configuration (one loop, or one loop per vnode — the
    // paper's Figure 1 layout at n = 2 — on syscall-batched and portable
    // backends) AND a mux cluster sharded over two sockets must produce
    // identical EpochReport sequences. n = 2 makes the comparison exact:
    // any completed exchange yields precisely the true average,
    // independent of scheduling, so every epoch report of every node is
    // bit-identical across layouts — the layout must be invisible to the
    // protocol.
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

    let mux_variants: Vec<(&str, MuxCluster)> = [
        ("mux r1 auto", 1, IoBackend::auto()),
        ("mux r1 portable", 1, IoBackend::Portable),
        ("mux r2 auto", 2, IoBackend::auto()),
        ("mux r2 portable", 2, IoBackend::Portable),
    ]
    .into_iter()
    .map(|(label, readers, io)| {
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(2, make_config())
                .with_seed(seed)
                .with_readers(readers)
                .with_io(io),
            values,
        )
        .unwrap();
        assert_eq!(cluster.reader_count(), readers, "{label}");
        (label, cluster)
    })
    .collect();
    // One vnode per socket: every exchange crosses between two sockets,
    // exercising the cross-host frame path.
    let table = PeerTable::loopback_split(2, 2).unwrap();
    let shards = [
        MuxCluster::spawn(
            MuxClusterConfig::sharded(table.clone(), 0, make_config())
                .with_seed(seed)
                .with_workers(1),
            values,
        )
        .unwrap(),
        MuxCluster::spawn(
            MuxClusterConfig::sharded(table, 1, make_config())
                .with_seed(seed)
                .with_workers(1),
            values,
        )
        .unwrap(),
    ];

    std::thread::sleep(Duration::from_millis(1_400));
    let mut variant_reports: Vec<(&str, NodeReports)> = mux_variants
        .iter()
        .map(|(label, cluster)| (*label, reports_by_id(cluster)))
        .collect();
    let sharded_reports = shards.iter().flat_map(reports_by_id).collect();
    variant_reports.push(("2-shard mux", sharded_reports));
    for (_, cluster) in mux_variants {
        cluster.shutdown();
    }
    for shard in shards {
        shard.shutdown();
    }
    for (_, reports) in &mut variant_reports {
        reports.sort_by_key(|(id, _)| *id);
    }

    // The reference is the first variant: one loop, batched I/O.
    let ((reference, reference_reports), others) = variant_reports.split_first().unwrap();
    for (label, other) in others {
        for ((id, t), (other_id, o)) in reference_reports.iter().zip(other) {
            assert_eq!(id, other_id);
            // Join by epoch number: under CPU contention a starved
            // cluster may skip a cycle boundary and miss an epoch
            // entirely, but every epoch BOTH layouts completed must
            // carry a bit-identical report.
            let by_epoch: std::collections::BTreeMap<u64, &EpochReport> =
                o.iter().map(|r| (r.epoch, r)).collect();
            let mut common = 0usize;
            for report in t {
                if let Some(other_report) = by_epoch.get(&report.epoch) {
                    assert_eq!(
                        &report, other_report,
                        "node {id}: {label} diverged from {reference} on the same seed \
                         at epoch {}",
                        report.epoch
                    );
                    common += 1;
                }
            }
            assert!(
                common >= 3,
                "node {id}: too few comparable epochs vs {label} ({reference} {}, {label} {})",
                t.len(),
                o.len()
            );
        }
    }
}

#[test]
fn conformance_convergence_agrees_at_n256() {
    // The same n = 256 scenario through both layouts, run sequentially
    // on the same seed: each must converge within the paper bound, and
    // their means must agree with each other.
    let n = 256usize;
    let gamma = 12u32;
    let seed = 99;
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
    let bound = theory_bound(n, gamma, 100.0);

    // Epoch 0 overlaps cluster startup, so each node is judged on its
    // latest completed epoch past the first.
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

    let mux = MuxCluster::spawn(
        MuxClusterConfig::new(n, make_config())
            .with_workers(4)
            .with_seed(seed),
        |i| i as f64,
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(2_600));
    let mux_mean = check("mux", reports_by_id(&mux));
    mux.shutdown();

    let table = PeerTable::loopback_split(n, 2).unwrap();
    let shards = [
        MuxCluster::spawn(
            MuxClusterConfig::sharded(table.clone(), 0, make_config())
                .with_seed(seed)
                .with_workers(2),
            |i| i as f64,
        )
        .unwrap(),
        MuxCluster::spawn(
            MuxClusterConfig::sharded(table, 1, make_config())
                .with_seed(seed)
                .with_workers(2),
            |i| i as f64,
        )
        .unwrap(),
    ];
    assert_eq!(shards[0].len() + shards[1].len(), n);
    std::thread::sleep(Duration::from_millis(2_600));
    let sharded_mean = check(
        "2-shard mux",
        shards.iter().flat_map(reports_by_id).collect(),
    );
    for shard in shards {
        shard.shutdown();
    }

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
    // view gossip (codec tags 4-7 in mux frames through the same socket,
    // timer wheel, and workers), and serves GETNEIGHBOR() from its live
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
    let cluster = MuxCluster::spawn(
        MuxClusterConfig::new(n, config)
            .with_workers(4)
            .with_seed(21)
            .with_directory(directory),
        |i| i as f64,
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(3_000));
    let reports = cluster.take_all_reports();
    let totals = cluster.total_datagram_counts();
    cluster.shutdown();

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
    // Conformance: the delta view path (tags 8/9 + piggybacked trailers)
    // must reach the same aggregation fidelity as full-view gossip on the
    // same seed — while spending strictly fewer membership bytes.
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
        let cluster = MuxCluster::spawn(
            MuxClusterConfig::new(n, make_config())
                .with_workers(2)
                .with_seed(17)
                .with_directory(DirectorySpec::Gossip(gossip)),
            |i| i as f64,
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(2_200));
        let reports = cluster.take_all_reports();
        let totals = cluster.total_datagram_counts();
        cluster.shutdown();
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
    // datagram on the wire, not just in the simulator.
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
    // Two shards, two reader sockets each, gossiped membership: joins,
    // view deltas, piggybacked trailers, and aggregation frames all cross
    // between the shards — and every reader socket of both shards must
    // see remote traffic (the destination vnode's home socket, not just
    // the shard's first address).
    let n = 8usize;
    let config = NodeConfig::builder()
        .gamma(8)
        .cycle_length(30)
        .timeout(12)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap();
    let table = PeerTable::loopback_split_readers(n, 2, 2).unwrap();
    let directory =
        || DirectorySpec::Gossip(GossipDirectoryConfig::new(6, 20).with_introducer_node(0));
    let spawn = |shard: usize| {
        MuxCluster::spawn(
            MuxClusterConfig::sharded(table.clone(), shard, config.clone())
                .with_workers(1)
                .with_readers(2)
                .with_seed(23)
                .with_directory(directory()),
            |i| i as f64,
        )
        .unwrap()
    };
    let shards = [spawn(0), spawn(1)];
    std::thread::sleep(Duration::from_millis(1_500));
    // `io.datagrams_received{socket, origin="remote"}` of every reader.
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
            assert_eq!(shard.reader_count(), 2, "a shard lost a reader socket");
            [remote(shard, 0), remote(shard, 1)]
        })
        .collect();
    let totals = shards[0].total_datagram_counts() + shards[1].total_datagram_counts();
    for shard in shards {
        shard.shutdown();
    }
    assert!(
        totals.membership_sent > 0,
        "membership never crossed shards"
    );
    assert!(totals.aggregation_sent > 0);
    for (s, sockets) in recvs.iter().enumerate() {
        for (i, &remote_datagrams) in sockets.iter().enumerate() {
            assert!(
                remote_datagrams > 0,
                "shard {s} socket {i} never saw cross-shard traffic: {recvs:?}"
            );
        }
    }
}

#[test]
fn node_survives_garbage_datagrams() {
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
