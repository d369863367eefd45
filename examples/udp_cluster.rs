//! A real gossip cluster over UDP on localhost.
//!
//! Spawns twelve OS processes' worth of protocol — one socket per node (a
//! mux cluster with one loop per node, turned by one thread per core) —
//! each running
//! the active/passive behaviour of the paper's Figure 1 over real
//! datagrams, operated through the `Cluster` seam. The nodes aggregate
//! AVERAGE and COUNT simultaneously; after a few wall-clock epochs every
//! node reports both the average of the local values and the cluster
//! size, computed purely by gossip.
//!
//! Run with: `cargo run --release --example udp_cluster`

use epidemic::aggregation::{InstanceSpec, LeaderPolicy, NodeConfig};
use epidemic::net::cluster::Cluster;
use epidemic::net::mux::{MuxCluster, MuxClusterConfig};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 12usize;
    let node_config = NodeConfig::builder()
        .gamma(12)
        .cycle_length(40) // δ = 40 ms
        .timeout(15)
        .instance(InstanceSpec::AVERAGE)
        .instance(InstanceSpec::CountMap {
            leader: LeaderPolicy::Probability { concurrency: 4.0 },
        })
        .initial_size_guess(n as f64)
        .build()?;

    println!("spawning {n} UDP gossip nodes on localhost...");
    // Local values 10, 20, ..., 120: true average 65.
    let config = MuxClusterConfig::new(n, node_config).with_readers(n);
    let cluster = MuxCluster::spawn(config, |i| (i + 1) as f64 * 10.0)?;

    std::thread::sleep(Duration::from_millis(2_500));

    let mut epochs_seen = 0;
    for i in 0..cluster.node_count() {
        let reports = cluster.take_reports(i);
        let Some(last) = reports.last() else { continue };
        epochs_seen += reports.len();
        let avg = last.scalar(0).unwrap_or(f64::NAN);
        let size = last
            .count_estimate()
            .map_or("n/a".to_string(), |s| format!("{s:.1}"));
        println!(
            "node {i:>2}: epoch {:>2} -> average {avg:>7.3} (truth 65), size {size} (truth {n})",
            last.epoch,
        );
    }
    let counts = cluster.total_datagram_counts();
    println!(
        "\n{epochs_seen} epoch reports collected, {} in / {} out datagrams; shutting down",
        counts.received(),
        counts.sent(),
    );
    cluster.shutdown();
    Ok(())
}
