//! A thousand-node gossip cluster over real UDP — in one process, or
//! sharded across processes and hosts.
//!
//! The `udp_cluster` example runs the paper's Figure 1 literally: one OS
//! thread per node. This example runs the same protocol at a scale that
//! architecture cannot reach on a laptop: 1024 virtual nodes (or far
//! more — see `--n`) multiplexed over a few loops, one socket each,
//! turned by one OS thread per core (`net::mux`), with
//! `recvmmsg`/`sendmmsg` syscall batching on Linux. Every exchange still
//! crosses the kernel's UDP stack; only the per-node thread and socket
//! are gone. The client RPC socket (`--query`) has no thread of its own:
//! protocol thread 0 answers it between steps.
//!
//! The mux wire frame routes by cluster-wide virtual-node id, so the
//! same cluster can be sharded over multiple sockets, processes, or
//! hosts through a `PeerTable`:
//!
//! ```text
//! # one process, 1024 vnodes (the default)
//! cargo run --release --example mux_cluster
//!
//! # four loops (a socket each, on one thread per core), forced portable
//! # (one-syscall-per-datagram) I/O
//! cargo run --release --example mux_cluster -- --readers 4 --io portable
//!
//! # 100k vnodes: slow the cycle down and keep the protocol AVERAGE-only
//! cargo run --release --example mux_cluster -- \
//!     --n 100000 --readers 4 --cycle-ms 2000 --gamma 10 --average --secs 30
//!
//! # the same cluster split across two processes / hosts: run one shard
//! # per process, all with the same --hosts list (shard order); with
//! # --readers k every host publishes k consecutive ports from the listed
//! # one (7000..7003 below), one loop each
//! cargo run --release --example mux_cluster -- --hosts 10.0.0.1:7000,10.0.0.2:7000 --shard 0/2
//! cargo run --release --example mux_cluster -- --hosts 10.0.0.1:7000,10.0.0.2:7000 --shard 1/2 --readers 4
//!
//! # NEWSCAST membership instead of the static table (vnode 0 introduces)
//! cargo run --release --example mux_cluster -- --gossip
//!
//! # serve live metrics while the cluster runs, and dump the protocol
//! # event trace as JSONL on exit
//! cargo run --release --example mux_cluster -- \
//!     --metrics-addr 127.0.0.1:9184 --trace-out /tmp/mux-trace.jsonl
//! # ...then, from another terminal:
//! curl -s http://127.0.0.1:9184/metrics
//!
//! # CI smoke: a small 2-shard cluster over loopback in one process, 2
//! # loops per shard (combines with --readers k for k loops per shard and
//! # --io to smoke those paths); the smoke run always self-scrapes
//! # /metrics and fails on dead telemetry
//! cargo run --release --example mux_cluster -- --smoke
//!
//! # multi-tenant query plane: serve client RPC on a UDP port; with
//! # --smoke this runs the full wire leg — a second named query is
//! # installed over the wire mid-run, submitted to, and read back until
//! # the estimate converges (failing the run if it never does)
//! cargo run --release --example mux_cluster -- --query
//! cargo run --release --example mux_cluster -- --smoke --query
//! ```

use epidemic::aggregation::{AggregateKind, InstanceSpec, LeaderPolicy, NodeConfig};
use epidemic::net::batch::IoBackend;
use epidemic::net::cluster::Cluster;
use epidemic::net::codec::{decode_rpc_response, encode_rpc_request};
use epidemic::net::directory::{DirectorySpec, GossipDirectoryConfig};
use epidemic::net::mux::{MuxCluster, MuxClusterConfig, PeerTable};
use epidemic::net::{write_jsonl, TraceEvent};
use epidemic::query::{QueryDescriptor, QueryPlaneConfig, RpcRequest, RpcStatus};
use std::io::{Read, Write};
use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Per-vnode event-ring capacity when `--trace-out` asks for a trace.
const TRACE_CAPACITY: usize = 4_096;

#[derive(Debug)]
struct Args {
    n: usize,
    readers: Option<usize>, // loop count: a socket each
    io: Option<IoBackend>,
    cycle_ms: u64,
    gamma: u32,
    average: bool,
    seed: u64,
    secs: u64,
    gossip: bool,
    smoke: bool,
    query: bool,
    hosts: Vec<SocketAddr>,
    shard: Option<(usize, usize)>, // (k, m): this process is shard k of m
    metrics_addr: Option<SocketAddr>,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        n: 1024,
        readers: None,
        io: None,
        cycle_ms: 50,
        gamma: 10,
        average: false,
        seed: 0xC0FFEE,
        secs: 3,
        gossip: false,
        smoke: false,
        query: false,
        hosts: Vec::new(),
        shard: None,
        metrics_addr: None,
        trace_out: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--n" => args.n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
            "--readers" => {
                args.readers = Some(
                    value("--readers")?
                        .parse()
                        .map_err(|e| format!("--readers: {e}"))?,
                )
            }
            "--io" => {
                let spec = value("--io")?;
                args.io = Some(
                    IoBackend::from_override(&spec)
                        .ok_or_else(|| format!("--io wants batched|portable, got {spec}"))?,
                );
            }
            "--cycle-ms" => {
                args.cycle_ms = value("--cycle-ms")?
                    .parse()
                    .map_err(|e| format!("--cycle-ms: {e}"))?
            }
            "--gamma" => {
                args.gamma = value("--gamma")?
                    .parse()
                    .map_err(|e| format!("--gamma: {e}"))?
            }
            "--average" => args.average = true,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--secs" => {
                args.secs = value("--secs")?
                    .parse()
                    .map_err(|e| format!("--secs: {e}"))?
            }
            "--gossip" => args.gossip = true,
            "--smoke" => args.smoke = true,
            "--query" => args.query = true,
            "--hosts" => {
                for host in value("--hosts")?.split(',') {
                    args.hosts
                        .push(host.parse().map_err(|e| format!("--hosts {host}: {e}"))?);
                }
            }
            "--metrics-addr" => {
                args.metrics_addr = Some(
                    value("--metrics-addr")?
                        .parse()
                        .map_err(|e| format!("--metrics-addr: {e}"))?,
                )
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--shard" => {
                let spec = value("--shard")?;
                let (k, m) = spec
                    .split_once('/')
                    .ok_or_else(|| format!("--shard wants k/m, got {spec}"))?;
                let k = k.parse().map_err(|e| format!("--shard: {e}"))?;
                let m = m.parse().map_err(|e| format!("--shard: {e}"))?;
                args.shard = Some((k, m));
            }
            other => return Err(format!("unknown flag {other} (see the example header)")),
        }
    }
    if let Some((k, m)) = args.shard {
        if args.hosts.len() != m {
            return Err(format!(
                "--shard {k}/{m} needs exactly {m} --hosts entries, got {}",
                args.hosts.len()
            ));
        }
        if k >= m {
            return Err(format!("--shard {k}/{m}: shard index out of range"));
        }
    } else if !args.hosts.is_empty() {
        return Err("--hosts without --shard k/m".into());
    }
    Ok(args)
}

fn node_config(args: &Args) -> Result<NodeConfig, Box<dyn std::error::Error>> {
    let mut builder = NodeConfig::builder();
    builder
        .gamma(args.gamma)
        .cycle_length(args.cycle_ms) // δ
        .timeout((args.cycle_ms * 2 / 5).max(1))
        .instance(InstanceSpec::AVERAGE)
        .initial_size_guess(args.n as f64);
    if !args.gossip && !args.average {
        // COUNT leaders are elected per epoch; keep the demo focused on
        // AVERAGE when membership itself is still bootstrapping — and
        // when --average asks for the cheapest possible protocol (the
        // 10^5-vnode runs).
        builder.instance(InstanceSpec::CountMap {
            leader: LeaderPolicy::Probability { concurrency: 8.0 },
        });
    }
    Ok(builder.build()?)
}

/// The published socket set of every `--hosts` entry: `--readers k`
/// consecutive ports from the listed one (one without the flag).
fn host_sets(hosts: &[SocketAddr], readers: Option<usize>) -> Result<Vec<Vec<SocketAddr>>, String> {
    let readers = readers.unwrap_or(1);
    let port = |host: &SocketAddr, j: usize| {
        let port = u16::try_from(j)
            .ok()
            .and_then(|j| host.port().checked_add(j));
        port.map(|port| SocketAddr::new(host.ip(), port))
            .ok_or_else(|| format!("--hosts {host}: {readers} ports run past 65535"))
    };
    hosts
        .iter()
        .map(|host| (0..readers).map(|j| port(host, j)).collect())
        .collect()
}

/// Applies the I/O-layout flags (`--readers` sets the loop count, `--io`)
/// to a cluster config; unset flags keep the core-aware spawn defaults.
fn with_io_layout(mut config: MuxClusterConfig, args: &Args) -> MuxClusterConfig {
    if let Some(readers) = args.readers {
        config = config.with_readers(readers);
    }
    if let Some(io) = args.io {
        config = config.with_io(io);
    }
    config
}

/// Applies the `--query` flag: enables the query plane with a
/// smoke-friendly catalog gossip period, and (when `rpc` asks for it)
/// binds the client RPC socket on an ephemeral loopback port.
fn with_query_flags(mut config: MuxClusterConfig, args: &Args, rpc: bool) -> MuxClusterConfig {
    if args.query {
        config = config.with_query_config(QueryPlaneConfig {
            gossip_period: args.cycle_ms,
            ..QueryPlaneConfig::default()
        });
        if rpc {
            config = config.with_rpc_addr("127.0.0.1:0".parse().unwrap());
        }
    }
    config
}

/// Applies the telemetry flags: `--metrics-addr` serves Prometheus text
/// from the cluster's registry, `--trace-out` turns on the per-vnode
/// protocol event rings (dumped as JSONL on exit by [`dump_trace`]).
fn with_telemetry_flags(mut config: MuxClusterConfig, args: &Args) -> MuxClusterConfig {
    if let Some(addr) = args.metrics_addr {
        config = config.with_metrics_addr(addr);
    }
    if args.trace_out.is_some() {
        config = config.with_trace(TRACE_CAPACITY);
    }
    config
}

/// Drains every local vnode's event ring and appends the events to
/// `path` as JSONL (one `TraceEvent` object per line).
fn dump_trace(
    cluster: &MuxCluster,
    path: &std::path::Path,
) -> Result<usize, Box<dyn std::error::Error>> {
    let mut events: Vec<TraceEvent> = Vec::new();
    for i in 0..cluster.len() {
        events.extend(cluster.take_trace(i));
    }
    write_jsonl(path, &events)?;
    Ok(events.len())
}

/// One-shot `GET /metrics` against a [`MetricsServer`] over a plain TCP
/// stream; returns the response body (Prometheus text format).
fn scrape_metrics(addr: SocketAddr) -> Result<String, Box<dyn std::error::Error>> {
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let body = response
        .split_once("\r\n\r\n")
        .ok_or("malformed /metrics response")?
        .1;
    Ok(body.to_string())
}

/// Value of a series in Prometheus text output: a bare `name` sums its
/// labeled instances, `name{label="value"}` reads that one; `None` when
/// the series is absent entirely.
fn series_value(body: &str, name: &str) -> Option<f64> {
    let mut found = false;
    let mut total = 0.0;
    for line in body.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if series != name && series.split('{').next() != Some(name) {
            continue;
        }
        if let Ok(v) = value.parse::<f64>() {
            found = true;
            total += v;
        }
    }
    found.then_some(total)
}

/// `--smoke --query`: the wire leg. With the cluster already running —
/// no restart — a plain UDP client installs a *second* named query
/// through shard 0's RPC socket, submits one sample through whichever
/// node the round-robin picks next, and reads the estimate back until it
/// converges on the cluster-wide truth. Returns `false` (after
/// explaining why) if any step fails or the estimate never settles.
fn run_query_leg(shards: &[MuxCluster], n: usize) -> Result<bool, Box<dyn std::error::Error>> {
    let rpc_addr = shards[0].rpc_addr().ok_or("query: rpc socket not bound")?;
    let client = UdpSocket::bind("127.0.0.1:0")?;
    client.set_read_timeout(Some(Duration::from_millis(500)))?;
    let rpc = |request: RpcRequest| -> Result<_, Box<dyn std::error::Error>> {
        let frame = encode_rpc_request(&request);
        let mut buf = [0u8; 64];
        for _ in 0..10 {
            client.send_to(&frame, rpc_addr)?;
            match client.recv_from(&mut buf) {
                Ok((len, _)) => {
                    let response = decode_rpc_response(&buf[..len])?;
                    if response.id == request.id() {
                        return Ok(response);
                    }
                    // A late reply to an earlier retry: keep draining.
                    continue;
                }
                Err(_) => continue, // UDP timeout: retry
            }
        }
        Err(format!("query: rpc to {rpc_addr} got no response").into())
    };
    let mut next_id = 100u64;
    let mut id = || {
        next_id += 1;
        next_id
    };

    // Tenant #2 arrives over the wire mid-run ("wire.temp"; tenant #1,
    // "shard.load", was installed through the operator seam at spawn).
    let descriptor = QueryDescriptor::new("wire.temp", AggregateKind::Average)
        .with_gamma(8)
        .with_cycle_length(40)
        .with_default_value(2.0);
    let install = rpc(RpcRequest::Install {
        id: id(),
        descriptor,
    })?;
    if install.status != RpcStatus::Ok {
        eprintln!("query: wire install rejected: {install:?}");
        return Ok(false);
    }

    // Submit through a different node (requests round-robin): this
    // succeeds only once catalog gossip delivered the query there.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let response = rpc(RpcRequest::Submit {
            id: id(),
            name: "wire.temp".into(),
            value: 66.0,
        })?;
        match response.status {
            RpcStatus::Ok => break,
            RpcStatus::UnknownQuery if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(30));
            }
            other => {
                eprintln!("query: wire submit failed with {other:?}");
                return Ok(false);
            }
        }
    }

    // Read back until the estimate converges on the cluster-wide truth:
    // n−1 nodes hold the 2.0 default, one client submitted 66.0 — far
    // enough from the all-defaults mean (2.0) that a read can only pass
    // once the submitted sample has actually mixed in.
    let truth = ((n - 1) as f64 * 2.0 + 66.0) / n as f64;
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut last = f64::NAN;
    while Instant::now() < deadline {
        let response = rpc(RpcRequest::Read {
            id: id(),
            name: "wire.temp".into(),
        })?;
        if response.status == RpcStatus::Ok {
            last = response.estimate;
            if (last - truth).abs() < 0.2 {
                println!("query: wire.temp converged to {last:.3} (truth {truth:.3})");
                return Ok(true);
            }
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    eprintln!("query: wire.temp never converged: last {last} vs truth {truth:.3}");
    Ok(false)
}

fn directory_spec(gossip: bool) -> DirectorySpec {
    if gossip {
        // Vnode 0 is the introducer; everyone else bootstraps over the
        // wire — no static peer table anywhere.
        DirectorySpec::Gossip(GossipDirectoryConfig::new(20, 40).with_introducer_node(0))
    } else {
        DirectorySpec::Static
    }
}

/// Harvests every local node's latest report and prints shard-level
/// aggregate estimates. Returns the mean AVERAGE estimate, if any.
fn report(label: &str, cluster: &MuxCluster, truth_avg: f64, n: usize) -> Option<f64> {
    let reports = cluster.take_all_reports();
    let totals = cluster.total_datagram_counts();
    let mut epochs_seen = 0usize;
    let mut avg_sum = 0.0;
    let mut avg_count = 0usize;
    let mut size_sum = 0.0;
    let mut size_count = 0usize;
    for node_reports in &reports {
        epochs_seen += node_reports.len();
        if let Some(last) = node_reports.last() {
            if let Some(avg) = last.scalar(0) {
                avg_sum += avg;
                avg_count += 1;
            }
            if let Some(size) = last.count_estimate() {
                size_sum += size;
                size_count += 1;
            }
        }
    }
    println!(
        "{label}: {epochs_seen} epoch reports from {avg_count} of {} local nodes; \
         {} frames in / {} out, {} send errors \
         (membership: {} in / {} out, byte overhead {:.3})",
        cluster.len(),
        totals.received(),
        totals.sent(),
        totals.send_errors,
        totals.membership_received,
        totals.membership_sent,
        totals.membership_byte_overhead(),
    );
    let syscalls = cluster.syscall_counts();
    let moved = totals.received() + totals.sent();
    if moved > 0 {
        println!(
            "{label}: {} recv + {} send syscalls for {moved} frames \
             ({:.3} syscalls/frame, {:?} backend, {} loops)",
            syscalls.recv_calls,
            syscalls.send_calls,
            (syscalls.recv_calls + syscalls.send_calls) as f64 / moved as f64,
            cluster.io_backend(),
            cluster.reader_count(),
        );
    }
    let mean = (avg_count > 0).then(|| avg_sum / avg_count as f64);
    if let Some(mean) = mean {
        println!("{label}: mean AVERAGE estimate {mean:.3} (truth {truth_avg})");
    }
    if size_count > 0 {
        println!(
            "{label}: mean COUNT estimate {:.1} (truth {n})",
            size_sum / size_count as f64
        );
    }
    mean
}

/// `--smoke`: a small 2-shard cluster over loopback in one process, each
/// shard publishing `--readers` sockets (default 2), one loop each; used
/// by CI to keep the cross-socket sharding path from rotting (combined
/// with `--readers` / `--io` it smokes the multi-loop socket set and
/// the portable fallback too, and with `--gossip` the cross-shard
/// join/delta-view path). Shard 0 always serves `/metrics` on
/// an ephemeral loopback port and the run self-scrapes it at the end,
/// failing if the load-bearing telemetry series are absent or zero.
/// Exits with an error if the shards fail to converge.
fn run_smoke(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let readers = args.readers.unwrap_or(2);
    let smoke_args = Args {
        n: 64,
        readers: Some(readers),
        io: args.io,
        cycle_ms: args.cycle_ms,
        gamma: args.gamma,
        average: args.average,
        seed: args.seed,
        secs: args.secs,
        gossip: args.gossip,
        smoke: true,
        query: args.query,
        hosts: Vec::new(),
        shard: None,
        metrics_addr: Some(
            args.metrics_addr
                .unwrap_or_else(|| "127.0.0.1:0".parse().unwrap()),
        ),
        trace_out: args.trace_out.clone(),
    };
    let n = smoke_args.n;
    let truth = (n as f64 + 1.0) / 2.0; // values 1..=n
    let config = node_config(&smoke_args)?;
    let table = PeerTable::loopback_split_readers(n, 2, readers)?;
    println!(
        "smoke: {n} vnodes over 2 loopback shards ({:?} and {:?})",
        table.shard_sockets(0),
        table.shard_sockets(1)
    );
    let shards = [
        MuxCluster::spawn(
            with_query_flags(
                with_telemetry_flags(
                    with_io_layout(
                        MuxClusterConfig::sharded(table.clone(), 0, config.clone())
                            .with_directory(directory_spec(smoke_args.gossip)),
                        &smoke_args,
                    ),
                    &smoke_args,
                ),
                &smoke_args,
                true,
            ),
            |i| (i + 1) as f64,
        )?,
        MuxCluster::spawn(
            with_query_flags(
                with_io_layout(
                    MuxClusterConfig::sharded(table, 1, config)
                        .with_directory(directory_spec(smoke_args.gossip)),
                    &smoke_args,
                ),
                &smoke_args,
                false,
            ),
            |i| (i + 1) as f64,
        )?,
    ];
    println!(
        "smoke: {} loops per shard, {:?} backend",
        shards[0].reader_count(),
        shards[0].io_backend()
    );
    if smoke_args.query {
        // Tenant #1 goes in through the operator seam while the cluster
        // is still settling; the wire leg below adds tenant #2 mid-run.
        shards[0].install_query(
            0,
            QueryDescriptor::new("shard.load", AggregateKind::Average)
                .with_gamma(8)
                .with_cycle_length(40)
                .with_default_value(1.0),
        )?;
    }
    std::thread::sleep(Duration::from_millis(2_000));
    let mut ok = true;
    for (s, shard) in shards.iter().enumerate() {
        match report(&format!("shard {s}"), shard, truth, n) {
            Some(mean) if (mean - truth).abs() < truth * 0.05 => {}
            Some(mean) => {
                eprintln!("shard {s}: mean {mean} too far from truth {truth}");
                ok = false;
            }
            None => {
                eprintln!("shard {s}: no epoch reports");
                ok = false;
            }
        }
        let counts = shard.total_datagram_counts();
        if counts.sent() == 0 || counts.received() == 0 {
            eprintln!("shard {s}: no frames moved");
            ok = false;
        }
    }

    // The wire leg runs against the still-live cluster: install tenant
    // #2 over UDP, submit, and read back until it converges.
    if smoke_args.query && !run_query_leg(&shards, n)? {
        ok = false;
    }

    // Telemetry self-scrape: the registry must expose live protocol
    // signal, not just serve an empty page. ρ is fed from the epoch
    // reports the `report()` calls above just drained.
    let metrics_addr = shards[0]
        .metrics_addr()
        .ok_or("smoke: /metrics not bound")?;
    let body = scrape_metrics(metrics_addr)?;
    let mut required = vec!["agg_exchanges", "epoch_variance_reduction_rho"];
    if smoke_args.gossip {
        required.extend([
            "membership_delta_bytes",
            "io_frames_sent{plane=\"membership\"}",
        ]);
    }
    if smoke_args.query {
        // Both tenants live → installed gauge ≥ 2; the wire leg's
        // install/submit/read all ran through shard 0's RPC socket.
        required.extend([
            "query_installed",
            "query_submits",
            "rpc_requests",
            "io_frames_sent{plane=\"query\"}",
        ]);
    }
    for name in required {
        match series_value(&body, name) {
            Some(v) if v > 0.0 => println!("smoke: /metrics {name} = {v:.4}"),
            Some(_) => {
                eprintln!("smoke: /metrics series {name} is zero");
                ok = false;
            }
            None => {
                eprintln!("smoke: /metrics series {name} is absent");
                ok = false;
            }
        }
    }

    // Bundling must be live: on average more than one frame per datagram
    // (both counters read off the scrape), and — what the portable leg is
    // there to catch, at one `send_to` per datagram — fewer send syscalls
    // than frames sent.
    let frames = series_value(&body, "io_frames_sent").unwrap_or(0.0);
    let datagrams = series_value(&body, "io_datagrams_sent").unwrap_or(0.0);
    if frames > datagrams && datagrams > 0.0 {
        println!(
            "smoke: /metrics frames per datagram = {:.4}",
            frames / datagrams
        );
    } else {
        eprintln!("smoke: /metrics {frames} frames in {datagrams} datagrams never shared one");
        ok = false;
    }
    let send_calls = shards[0].syscall_counts().send_calls;
    let frames_sent = shards[0].total_datagram_counts().sent();
    if send_calls >= frames_sent {
        eprintln!("smoke: {send_calls} send syscalls for {frames_sent} frames");
        ok = false;
    }

    if let Some(path) = &smoke_args.trace_out {
        let events = dump_trace(&shards[0], path)?;
        println!("smoke: wrote {events} trace events to {}", path.display());
    }
    for shard in shards {
        shard.shutdown();
    }
    if !ok {
        return Err("smoke run failed to converge".into());
    }
    println!("smoke: both shards converged");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().map_err(|e| -> Box<dyn std::error::Error> { e.into() })?;
    if args.smoke {
        return run_smoke(&args);
    }

    let config = node_config(&args)?;
    let directory = directory_spec(args.gossip);
    let truth = (args.n as f64 + 1.0) / 2.0; // values 1..=n
    let started = Instant::now();
    let cluster = match args.shard {
        None => {
            println!(
                "spawning {} virtual gossip nodes on a set of loops...",
                args.n
            );
            MuxCluster::spawn(
                with_query_flags(
                    with_telemetry_flags(
                        with_io_layout(
                            MuxClusterConfig::new(args.n, config)
                                .with_seed(args.seed)
                                .with_directory(directory),
                            &args,
                        ),
                        &args,
                    ),
                    &args,
                    true,
                ),
                |i| (i + 1) as f64,
            )?
        }
        Some((k, m)) => {
            let table = PeerTable::split_sets(args.n, host_sets(&args.hosts, args.readers)?);
            println!(
                "spawning shard {k}/{m}: vnodes {:?} on {:?}...",
                table.shard_range(k),
                table.shard_sockets(k)
            );
            MuxCluster::spawn(
                with_query_flags(
                    with_telemetry_flags(
                        with_io_layout(
                            MuxClusterConfig::sharded(table, k, config)
                                .with_seed(args.seed)
                                .with_directory(directory),
                            &args,
                        ),
                        &args,
                    ),
                    &args,
                    k == 0,
                ),
                |i| (i + 1) as f64,
            )?
        }
    };
    println!(
        "up in {:?}: socket {}, {} OS threads ({} loops, {:?} backend) \
         hosting {} of {} vnodes{}",
        started.elapsed(),
        cluster.addr(),
        cluster.thread_count(),
        cluster.reader_count(),
        cluster.io_backend(),
        cluster.len(),
        cluster.total_len(),
        if args.gossip {
            " (NEWSCAST membership, introducer vnode 0)"
        } else {
            " (static directory)"
        },
    );

    if let Some(addr) = cluster.metrics_addr() {
        println!("serving Prometheus text on http://{addr}/metrics");
    }
    if let Some(addr) = cluster.rpc_addr() {
        println!("serving query-plane client RPC on udp://{addr}");
    }

    std::thread::sleep(Duration::from_secs(args.secs.max(1)));
    report("cluster", &cluster, truth, args.n);
    if let Some(path) = &args.trace_out {
        let events = dump_trace(&cluster, path)?;
        println!("wrote {events} trace events to {}", path.display());
    }
    cluster.shutdown();
    Ok(())
}
