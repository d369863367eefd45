//! Sim ↔ wire trace conformance.
//!
//! The protocol event trace is recorded once, inside the sans-io cores,
//! in logical coordinates only (node, epoch, cycle, peer, detail — no
//! wall clock). Every engine that drives those cores therefore emits the
//! same event sequence for the same seed and scenario. This test pins
//! that property across the widest gap in the repo: the event-driven
//! simulator versus the multiplexed runtime's turn, stepped on an
//! in-memory network in virtual milliseconds.
//!
//! The scenario is the smallest one where timing cannot reorder logical
//! history: two nodes, zero simulated delay, no drift, no failures. Both
//! engines draw `GETNEIGHBOR()` lazily, once per initiated exchange, but
//! from different RNG streams, and the mux delivers datagrams one tick
//! after their flush, in flush order: with more than one candidate peer the
//! partner sequences (and which of two crossing requests is handled
//! first) would differ between engines. With one candidate they cannot.
//! Both engines seed the gossip cores identically — the simulator hands
//! its nodes `seed ^ 0xE7E7`, so the mux cluster is spawned with exactly
//! that seed. Traces are compared per node, truncated to the epochs both
//! runs fully completed (the engines stop at slightly different points
//! of the final partial epoch).

use epidemic_aggregation::{InstanceSpec, NodeConfig};
use epidemic_net::cluster::Cluster;
use epidemic_net::mux::{MemNetwork, MuxCluster, MuxClusterConfig};
use epidemic_net::TraceEvent;
use epidemic_sim::event::EventConfig;
use epidemic_sim::scenario::{Scenario, ValueInit};

const SEED: u64 = 0xD5_2004;
const GAMMA: u32 = 4;
const CYCLE_MS: u64 = 60;

fn node_config() -> NodeConfig {
    NodeConfig::builder()
        .gamma(GAMMA)
        .cycle_length(CYCLE_MS)
        .timeout(CYCLE_MS / 2)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap()
}

/// Events of `node` with `epoch < limit`, in recording order.
fn history(events: &[TraceEvent], node: u64, limit: u64) -> Vec<TraceEvent> {
    events
        .iter()
        .filter(|e| e.node == node && e.epoch < limit)
        .copied()
        .collect()
}

/// Largest epoch stamped on any of `node`'s events.
fn max_epoch(events: &[TraceEvent], node: u64) -> u64 {
    events
        .iter()
        .filter(|e| e.node == node)
        .map(|e| e.epoch)
        .max()
        .unwrap_or(0)
}

#[test]
fn sim_and_mux_emit_identical_event_traces() {
    // Simulated run: ticks are milliseconds, delay effectively zero.
    let sim_out = EventConfig {
        scenario: Scenario {
            n: 2,
            values: ValueInit::Linear,
            ..Scenario::default()
        },
        node: node_config(),
        delay: (0, 1),
        drift: 0.0,
        duration: 2_000,
        trace_capacity: 4_096,
        ..EventConfig::default()
    }
    .run(SEED);
    let sim_events: Vec<TraceEvent> = sim_out.traces.into_iter().flatten().collect();

    // Mux run: the same cores behind the mux turn. The simulator seeds
    // its gossip nodes with `seed ^ 0xE7E7` (its joiner stream); handing
    // the cluster that value aligns the per-node RNG streams.
    let network = MemNetwork::new();
    let cluster = MuxCluster::in_memory(
        MuxClusterConfig::new(2, node_config())
            .with_seed(SEED ^ 0xE7E7)
            .with_workers(1)
            .with_readers(1)
            .with_trace(4_096),
        &network,
        |i| i as f64,
    )
    .unwrap();
    network.advance(1_400);
    let mut mux_events: Vec<TraceEvent> = Vec::new();
    for i in 0..cluster.len() {
        mux_events.extend(cluster.take_trace(i));
    }

    // Compare each node's history over the epochs BOTH runs completed.
    let common = [0u64, 1]
        .iter()
        .map(|&n| max_epoch(&sim_events, n).min(max_epoch(&mux_events, n)))
        .min()
        .unwrap();
    assert!(
        common >= 2,
        "too little shared history (common epoch {common}) — \
         sim {} events, mux {} events",
        sim_events.len(),
        mux_events.len()
    );
    for node in [0u64, 1] {
        let sim_history = history(&sim_events, node, common);
        let mux_history = history(&mux_events, node, common);
        assert!(!sim_history.is_empty(), "node {node}: empty sim history");
        // Identical as structs and as JSONL lines (the export format).
        assert_eq!(
            sim_history, mux_history,
            "node {node}: trace sequences diverge"
        );
        let sim_jsonl: Vec<String> = sim_history.iter().map(TraceEvent::to_json).collect();
        let mux_jsonl: Vec<String> = mux_history.iter().map(TraceEvent::to_json).collect();
        assert_eq!(sim_jsonl, mux_jsonl, "node {node}: JSONL export diverges");
    }
}
