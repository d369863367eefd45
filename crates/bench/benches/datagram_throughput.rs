//! The mux runtime's I/O grid: loop counts (a socket and a thread each)
//! × syscall backends, and static vs gossiped membership.
//!
//! Each iteration spawns a full localhost cluster, waits until every node
//! has completed its first epoch (gamma cycles of real push-pull over
//! real datagrams), and tears it down. The measured quantity is thus
//! end-to-end wall clock per epoch wave — dominated by protocol cadence,
//! socket I/O, and scheduler pressure, which is exactly the cost model
//! the loop count and `recvmmsg`/`sendmmsg` batching change.
//!
//! The sweep: `mux_l{loops}_{io}` for loops ∈ {1, 2, 4} × io ∈
//! {batched, portable} at n ∈ {256, 1024, 4096}. `mux_l1_portable` is
//! the pre-batching baseline (one socket, one syscall per datagram).
//! Alongside wall clock, each config prints its **syscalls-per-datagram**
//! once — the
//! machine-independent figure the batched backend exists to shrink
//! (wall-clock deltas also depend on how many cores the host gives the
//! loops).
//!
//! `mux_gossip` runs the same epoch wave with NO static peer table:
//! NEWSCAST membership bootstraps from vnode 0 and serves
//! `GETNEIGHBOR()` from live views, so the delta against the static mux
//! prices gossiped membership. `mux_gossip_full` is the pre-delta
//! baseline (every exchange ships the full view, no piggybacking
//! savings); `mux_gossip` gossips view *deltas* and piggybacks
//! membership trailers on aggregation datagrams. Each prints a
//! **bytes-per-converged-epoch** line — membership and aggregation wire
//! bytes divided by the nodes that completed the epoch wave, plus their
//! ratio (the headline number delta gossip exists to shrink) and the
//! mean absolute estimate error (the fidelity gate: cheaper membership
//! must not cost convergence).
//!
//! Results are recorded in BENCH_trajectory.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use epidemic_aggregation::{InstanceSpec, NodeConfig};
use epidemic_net::batch::IoBackend;
use epidemic_net::cluster::Cluster;
use epidemic_net::directory::{DirectorySpec, GossipDirectoryConfig};
use epidemic_net::mux::{MuxCluster, MuxClusterConfig};
use std::time::{Duration, Instant};

const CYCLE_MS: u64 = 10;
const GAMMA: u32 = 4;

fn node_config() -> NodeConfig {
    NodeConfig::builder()
        .gamma(GAMMA)
        .cycle_length(CYCLE_MS)
        .timeout(CYCLE_MS / 2)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap()
}

/// Spawns `config`, waits until every one of the `n` nodes has produced
/// at least one epoch report (its first full epoch) or a hard cap
/// passes, and tears down. Returns how many nodes completed, the
/// cluster-wide traffic totals and the syscall counters, so each config
/// can report syscalls-per-datagram.
fn run_mux_epoch_wave(
    config: MuxClusterConfig,
    n: usize,
) -> (
    usize,
    epidemic_net::cluster::TrafficCounts,
    epidemic_net::mux::SyscallCounts,
) {
    let cluster = MuxCluster::spawn(config, |i| i as f64).expect("spawn cluster");
    let completed = wait_for_wave(&cluster, n).0;
    let totals = cluster.total_datagram_counts();
    let syscalls = cluster.syscall_counts();
    cluster.shutdown();
    (completed, totals, syscalls)
}

/// How deep the gossip wave runs: waiting for several epochs per node
/// (instead of the first) lets the one-time bootstrap traffic — joins,
/// introduces, the initial full-view fills — amortize, so the
/// bytes-per-converged-epoch column prices the steady state the delta +
/// piggyback path targets, not the cold start. (At a 4-epoch wave the
/// join/introduce bootstrap is still ~40% of the dedicated membership
/// messages; at 8 it fades into the noise.)
const GOSSIP_EPOCHS: usize = 8;

/// The gossip wave runner: waits for [`GOSSIP_EPOCHS`] epoch reports per
/// node, then reports (total converged epochs, nodes that finished all
/// of them, traffic totals, mean absolute error of each node's latest
/// estimate — the fidelity gate for membership-cost optimizations).
fn run_gossip_epoch_wave(
    config: MuxClusterConfig,
    n: usize,
) -> (usize, usize, epidemic_net::cluster::TrafficCounts, f64) {
    let cluster = MuxCluster::spawn(config, |i| i as f64).expect("spawn cluster");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut epochs = vec![0usize; n];
    let mut latest = vec![f64::NAN; n];
    loop {
        std::thread::sleep(Duration::from_millis(2));
        for (i, count) in epochs.iter_mut().enumerate() {
            for report in cluster.take_reports(i) {
                *count += 1;
                if let Some(est) = report.scalar(0) {
                    latest[i] = est;
                }
            }
        }
        let done = epochs.iter().filter(|&&e| e >= GOSSIP_EPOCHS).count();
        if done >= n || Instant::now() >= deadline {
            break;
        }
    }
    let totals = cluster.total_datagram_counts();
    cluster.shutdown();
    let total_epochs = epochs.iter().map(|&e| e.min(GOSSIP_EPOCHS)).sum();
    let nodes_done = epochs.iter().filter(|&&e| e >= GOSSIP_EPOCHS).count();
    let truth = (n as f64 - 1.0) / 2.0;
    let estimates: Vec<f64> = latest.iter().copied().filter(|e| e.is_finite()).collect();
    let mean_abs_error = if estimates.is_empty() {
        f64::NAN
    } else {
        estimates.iter().map(|e| (e - truth).abs()).sum::<f64>() / estimates.len() as f64
    };
    (total_epochs, nodes_done, totals, mean_abs_error)
}

fn wait_for_wave(cluster: &MuxCluster, n: usize) -> (usize, Vec<f64>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut done = vec![false; n];
    let mut estimates = Vec::new();
    loop {
        std::thread::sleep(Duration::from_millis(2));
        for (i, flag) in done.iter_mut().enumerate() {
            if *flag {
                continue;
            }
            let reports = cluster.take_reports(i);
            if let Some(r) = reports.first() {
                *flag = true;
                if let Some(est) = r.scalar(0) {
                    estimates.push(est);
                }
            }
        }
        let completed = done.iter().filter(|&&d| d).count();
        if completed >= n || Instant::now() >= deadline {
            break (completed, estimates);
        }
    }
}

fn mux_config(n: usize, seed: u64, loops: usize, io: IoBackend) -> MuxClusterConfig {
    MuxClusterConfig::new(n, node_config())
        .with_readers(loops)
        .with_io(io)
        .with_seed(seed)
}

fn gossip_config(n: usize, seed: u64, full_views: bool) -> MuxClusterConfig {
    // The full-view baseline reproduces PR 5: no piggybacking, so the
    // dedicated membership plane must gossip at the aggregation cadence
    // to keep views fresh. The delta leg slows the dedicated plane to
    // once per two aggregation epochs (piggybacked trailers carry fresh
    // descriptors in between) and sizes the delta-knowledge LRU to the
    // overlay so deltas stay deltas — the fidelity gate (mean estimate
    // error) checks that nothing was lost.
    let mut gossip = if full_views {
        GossipDirectoryConfig::new(20, CYCLE_MS).with_full_views()
    } else {
        GossipDirectoryConfig::new(20, 2 * CYCLE_MS * GAMMA as u64).with_knowledge_peers(n)
    };
    gossip = gossip.with_introducer_node(0);
    mux_config(n, seed, 2, IoBackend::auto()).with_directory(DirectorySpec::Gossip(gossip))
}

fn io_label(io: IoBackend) -> &'static str {
    match io {
        IoBackend::Batched => "batched",
        IoBackend::Portable => "portable",
    }
}

fn bench_runtimes(c: &mut Criterion) {
    let mut group = c.benchmark_group("net/datagram_throughput");
    group.sample_size(10);
    // The I/O grid: loops × backend × scale. One "element" = one node's
    // completed epoch (gamma cycles). On non-Linux hosts the batched
    // column is skipped (it would silently run the portable path and
    // mislabel the numbers).
    for n in [256usize, 1024, 4096] {
        group.throughput(Throughput::Elements(n as u64));
        for loops in [1usize, 2, 4] {
            for io in [IoBackend::Batched, IoBackend::Portable] {
                if io == IoBackend::Batched && !io.is_batched() {
                    continue;
                }
                let label = format!("mux_l{loops}_{}", io_label(io));
                group.bench_with_input(BenchmarkId::new(&label, n), &n, |b, &n| {
                    let mut seed = 0u64;
                    let mut printed = false;
                    b.iter(|| {
                        seed += 1;
                        let (completed, totals, syscalls) =
                            run_mux_epoch_wave(mux_config(n, seed, loops, io), n);
                        if !printed {
                            printed = true;
                            let datagrams = totals.sent() + totals.received();
                            eprintln!(
                                "{label}/{n}: {} recv + {} send syscalls for {datagrams} \
                                 datagrams = {:.3} syscalls/datagram \
                                 ({completed}/{n} nodes completed, {} send errors)",
                                syscalls.recv_calls,
                                syscalls.send_calls,
                                (syscalls.recv_calls + syscalls.send_calls) as f64
                                    / datagrams.max(1) as f64,
                                totals.send_errors,
                            );
                        }
                        completed
                    });
                });
            }
        }
    }

    // Static vs gossiped membership at n = 256: same epoch wave, the
    // directory is the only difference. `mux_gossip` is the delta +
    // piggyback path; `mux_gossip_full` the pre-delta full-view baseline.
    let n = 256usize;
    group.throughput(Throughput::Elements(n as u64));
    for (label, full_views) in [("mux_gossip", false), ("mux_gossip_full", true)] {
        group.bench_with_input(BenchmarkId::new(label, n), &n, |b, &n| {
            let mut seed = 0u64;
            let mut printed = false;
            b.iter(|| {
                seed += 1;
                let (total_epochs, nodes_done, totals, err) =
                    run_gossip_epoch_wave(gossip_config(n, seed, full_views), n);
                if !printed {
                    printed = true;
                    let per_epoch = |bytes: u64| bytes as f64 / total_epochs.max(1) as f64;
                    eprintln!(
                        "{label}/{n}: membership {} msgs / {} bytes vs aggregation \
                         {} msgs / {} bytes | per converged epoch: {:.1} membership B, \
                         {:.1} aggregation B, ratio {:.3} | mean |err| {err:.3} \
                         ({total_epochs} epochs, {nodes_done}/{n} nodes finished \
                         {GOSSIP_EPOCHS}, {} join retries)",
                        totals.membership_sent,
                        totals.membership_bytes_sent,
                        totals.aggregation_sent,
                        totals.aggregation_bytes_sent,
                        per_epoch(totals.membership_bytes_sent),
                        per_epoch(totals.aggregation_bytes_sent),
                        totals.membership_byte_overhead(),
                        totals.join_retries,
                    );
                }
                total_epochs
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_runtimes);
criterion_main!(benches);
