//! The three `MuxCluster` workloads: `wire_static`, `wire_gossip`,
//! `query_rpc`.
//!
//! One driver, three specifications. Each run brings the cluster up
//! (spawn, tenant install and rollout, first converged epoch), measures a
//! window through the `Cluster` seam, optionally drives the UDP RPC
//! listener with one closed-loop client, and shuts down. Everything the
//! product sees — node values, tenant values, the request schedule — is
//! generated from the seed; the truth every estimate is checked against
//! is computed from those same generated inputs.

use crate::gen::{self, RequestOp, RequestSchedule, SUBMIT_BAND};
use crate::metrics::{rel_err, EPSILON};
use crate::replay::{self, FrameKind};
use crate::run::{BudgetRow, RunOptions, RunResult, Size};
use crate::span::Spans;
use crate::{alloc, stats, sys};
use epidemic_aggregation::{AggregateKind, EpochReport};
use epidemic_net::cluster::{Cluster, TrafficCounts};
use epidemic_net::codec::{decode_rpc_response, encode_rpc_request};
use epidemic_net::directory::{DirectorySpec, GossipDirectoryConfig};
use epidemic_net::mux::{MuxCluster, MuxClusterConfig};
use epidemic_query::{QueryDescriptor, QueryError, QueryPlaneConfig, RpcRequest, RpcStatus};
use epidemic_telemetry::TraceKind;
use std::collections::BTreeMap;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

const GAMMA: u32 = 15;
/// Interval between harness polls of reports, tenant reads and traces.
const POLL: Duration = Duration::from_millis(200);
/// Interval between readiness polls while the cluster comes up.
const READY_POLL: Duration = Duration::from_millis(10);
/// A cluster that is not serving converged answers by then is broken.
const SETUP_DEADLINE: Duration = Duration::from_secs(60);
const RPC_TIMEOUT: Duration = Duration::from_millis(200);
/// The client's pause between bursts. Without it the closed loop keeps
/// the one core saturated, gossip exchanges miss their timeouts and the
/// tenants stop converging: the workload would measure an overloaded
/// cluster and fail its own correctness check.
const RPC_THINK: Duration = Duration::from_millis(1);
const TRACE_CAPACITY: usize = 4_096;

/// What distinguishes the three workloads.
#[derive(Debug, Clone)]
struct Spec {
    n: usize,
    delta_ms: u64,
    /// NEWSCAST view size; `None` = static directory.
    gossip_view: Option<usize>,
    tenants: usize,
    /// Share of `--seconds` spent in the RPC phase (0 = no client).
    rpc_share: f64,
    /// Epochs after spawn before which the window never starts. The
    /// cluster is ready when its state says so (see [`bring_up`]), but how
    /// soon that is varies with the seed by whole epochs — gossip
    /// bootstrap has stragglers — so set-up is held to this floor, chosen
    /// above every readiness time seen at baseline. A bring-up that gets
    /// slower than the floor still shows; `directory.bootstrap_s` and
    /// `plane.rollout_s` report the unfloored times.
    floor_epochs: u64,
}

impl Spec {
    fn of(options: &RunOptions) -> Spec {
        let toy = options.size == Size::Toy;
        match options.workload.name {
            "wire_static" => Spec {
                n: if toy { 128 } else { 4_096 },
                delta_ms: if toy { 20 } else { 50 },
                gossip_view: None,
                tenants: 0,
                rpc_share: 0.0,
                floor_epochs: if toy { 0 } else { 2 },
            },
            "wire_gossip" => Spec {
                n: if toy { 96 } else { 1_024 },
                delta_ms: 20,
                gossip_view: Some(if toy { 12 } else { 20 }),
                tenants: 0,
                rpc_share: 0.0,
                floor_epochs: if toy { 0 } else { 14 },
            },
            "query_rpc" => Spec {
                n: if toy { 64 } else { 256 },
                delta_ms: if toy { 20 } else { 40 },
                gossip_view: None,
                tenants: if toy { 3 } else { 8 },
                rpc_share: 0.4,
                floor_epochs: if toy { 0 } else { 7 },
            },
            other => unreachable!("{other} is not a wire workload"),
        }
    }

    fn epoch_ms(&self) -> u64 {
        u64::from(GAMMA) * self.delta_ms
    }

    fn gossip_config(&self) -> Option<GossipDirectoryConfig> {
        self.gossip_view.map(|view| {
            GossipDirectoryConfig::new(view, 8 * self.delta_ms)
                .with_knowledge_peers(self.n)
                .with_introducer_node(0)
        })
    }

    fn tenant_descriptors(&self) -> Vec<QueryDescriptor> {
        (0..self.tenants)
            .map(|k| {
                let mut descriptor =
                    QueryDescriptor::new(format!("ledger.t{k}"), AggregateKind::Average)
                        .with_gamma(GAMMA)
                        .with_cycle_length(self.delta_ms)
                        .with_default_value(tenant_base(k));
                // Same exchange timeout as the base plane, δ/2.
                descriptor.timeout = self.delta_ms / 2;
                descriptor
            })
            .collect()
    }

    fn plane_config(&self) -> QueryPlaneConfig {
        QueryPlaneConfig {
            gossip_period: self.delta_ms,
            ..QueryPlaneConfig::default()
        }
    }
}

/// Tenant `k`'s base value; its per-node contributions are drawn around
/// it.
fn tenant_base(k: usize) -> f64 {
    100.0 * (k + 1) as f64
}

fn within(estimate: f64, truth: f64) -> bool {
    rel_err(Some(estimate), truth) <= EPSILON
}

/// One tenant as the harness knows it.
#[derive(Debug, Clone)]
struct Tenant {
    name: String,
    /// Exact mean of the contributions submitted through the seam.
    truth: f64,
    /// Interval the true mean stays in once the RPC client overwrites
    /// contributions with values inside [`SUBMIT_BAND`] of the base.
    band: (f64, f64),
    /// First epoch that started after every node held its contribution.
    floor_epoch: u64,
    /// Last epoch counted, per node.
    seen: Vec<u64>,
}

/// A cluster that is up and serving converged answers.
struct Up {
    cluster: MuxCluster,
    truth: f64,
    tenants: Vec<Tenant>,
    setup_s: f64,
    spawn_ms: f64,
    bootstrap_s: f64,
    rollout_s: f64,
}

/// Per-epoch tally of base-plane reports while the cluster comes up.
#[derive(Default)]
struct EpochTally(BTreeMap<u64, (usize, usize)>);

impl EpochTally {
    fn add(&mut self, report: &EpochReport, truth: f64) {
        let entry = self.0.entry(report.epoch).or_default();
        entry.0 += 1;
        entry.1 += usize::from(report.scalar(0).is_some_and(|e| within(e, truth)));
    }

    /// An epoch is clean when a quarter of the nodes have reported it and
    /// every report is inside ε. The plane has converged once a clean
    /// epoch follows a clean epoch (or is epoch 0, which has none before
    /// it): gossiped membership needs a few epochs before its last
    /// stragglers stop reporting from a half-mixed overlay.
    fn converged(&self, n: usize) -> bool {
        let clean = |epoch: u64| {
            self.0
                .get(&epoch)
                .is_some_and(|&(total, ok)| total * 4 >= n && ok == total)
        };
        self.0
            .keys()
            .any(|&epoch| clean(epoch) && (epoch == 0 || clean(epoch - 1)))
    }
}

fn bring_up(spec: &Spec, seed: u64, trace_capacity: usize, spans: &mut Spans) -> Up {
    let span = spans.begin("harness.setup", Spans::ROOT);
    let started = Instant::now();
    let (values, truth) = gen::node_values(seed, 1, spec.n, 0.0, 100.0);
    let mut config = MuxClusterConfig::new(
        spec.n,
        super::node_config(GAMMA, spec.delta_ms, spec.delta_ms / 2),
    )
    .with_seed(seed)
    .with_workers(2)
    .with_readers(1)
    .with_trace(trace_capacity)
    .with_query_config(spec.plane_config());
    if let Some(gossip) = spec.gossip_config() {
        config = config.with_directory(DirectorySpec::Gossip(gossip));
    }
    if spec.rpc_share > 0.0 {
        config = config.with_rpc_addr("127.0.0.1:0".parse().expect("literal address"));
    }
    let cluster = spans.record("mux.spawn", span, || {
        MuxCluster::spawn(config, |i| values[i]).expect("loopback cluster spawns")
    });
    let spawn_ms = started.elapsed().as_secs_f64() * 1e3;
    let deadline = started + SETUP_DEADLINE;

    // Tenants: install at vnode 0, wait for catalog gossip to reach every
    // node, then hand every node its generated contribution.
    let mut tenants = Vec::new();
    let mut rollout_s = 0.0;
    if spec.tenants > 0 {
        let descriptors = spec.tenant_descriptors();
        for descriptor in &descriptors {
            cluster
                .install_query(0, descriptor.clone())
                .expect("tenant installs at vnode 0");
        }
        let unknown = |node: usize, name: &str| {
            matches!(
                cluster.query_estimate(node, name),
                Err(QueryError::UnknownQuery)
            )
        };
        while (0..spec.n).any(|node| descriptors.iter().any(|d| unknown(node, &d.name))) {
            assert!(Instant::now() < deadline, "tenant rollout stalled");
            std::thread::sleep(READY_POLL);
        }
        rollout_s = started.elapsed().as_secs_f64() - spawn_ms / 1e3;
        for (k, descriptor) in descriptors.iter().enumerate() {
            let base = tenant_base(k);
            let (contributions, mean) = gen::node_values(seed, 100 + k as u64, spec.n, 0.0, 2.0);
            let mut newest = 0;
            for (node, share) in contributions.iter().enumerate() {
                cluster
                    .submit_query(node, &descriptor.name, base * share)
                    .expect("unlimited admission accepts the contribution");
                if let Ok(estimate) = cluster.query_estimate(node, &descriptor.name) {
                    newest = newest.max(estimate.epoch);
                }
            }
            let truth = base * mean;
            tenants.push(Tenant {
                name: descriptor.name.clone(),
                truth,
                band: (
                    truth.min(base * (1.0 - SUBMIT_BAND)),
                    truth.max(base * (1.0 + SUBMIT_BAND)),
                ),
                // A contribution takes effect at the node's next epoch;
                // the one after that started with all of them in place.
                floor_epoch: newest + 2,
                seen: vec![0; spec.n],
            });
        }
    }

    // Ready = the base plane has produced a converged epoch and every
    // tenant has a settled post-contribution epoch at most nodes.
    let mut tally = EpochTally::default();
    let mut bootstrap_s = None;
    loop {
        for node in 0..spec.n {
            for report in cluster.take_reports(node) {
                tally.add(&report, truth);
            }
        }
        if bootstrap_s.is_none() && tally.converged(spec.n) {
            bootstrap_s = Some(started.elapsed().as_secs_f64());
        }
        let tenants_ready = tenants.iter().all(|tenant| {
            let settled = (0..spec.n)
                .filter_map(|node| cluster.query_estimate(node, &tenant.name).ok())
                .filter(|e| e.settled && e.epoch >= tenant.floor_epoch)
                .collect::<Vec<_>>();
            settled.len() * 100 >= spec.n * 95
                && settled.iter().all(|e| within(e.value, tenant.truth))
        });
        if bootstrap_s.is_some() && tenants_ready {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cluster never served a converged epoch"
        );
        std::thread::sleep(READY_POLL);
    }
    let floor = started + Duration::from_millis(spec.floor_epochs * spec.epoch_ms());
    std::thread::sleep(floor.saturating_duration_since(Instant::now()));
    spans.end(span);
    Up {
        cluster,
        truth,
        tenants,
        setup_s: started.elapsed().as_secs_f64(),
        spawn_ms,
        bootstrap_s: bootstrap_s.expect("loop exits only once set"),
        rollout_s,
    }
}

/// Cumulative counters read off a running cluster.
struct Snapshot {
    at: Instant,
    cpu_ns: u64,
    traffic: TrafficCounts,
    recv_calls: u64,
    send_calls: u64,
    recv_timeouts: u64,
    exchanges: u64,
    fire_lag: [u64; epidemic_telemetry::registry::BUCKETS],
    rss: u64,
    allocs: (u64, u64),
}

impl Snapshot {
    fn take(cluster: &MuxCluster) -> Snapshot {
        let syscalls = cluster.syscall_counts();
        let registry = cluster.registry();
        Snapshot {
            at: Instant::now(),
            cpu_ns: sys::process_cpu_ns(),
            traffic: cluster.total_datagram_counts(),
            recv_calls: syscalls.recv_calls,
            send_calls: syscalls.send_calls,
            recv_timeouts: registry.counter_value("io.recv_timeouts"),
            exchanges: registry.counter_value("agg.exchanges"),
            fire_lag: registry.histogram("timer.fire_lag_us").bucket_counts(),
            rss: sys::rss_bytes(),
            allocs: alloc::counts(),
        }
    }
}

/// What one measurement window observed.
#[derive(Default)]
struct Window {
    wall_s: f64,
    cpu_ns: u64,
    /// Datagrams and bytes sent, per plane.
    sent: [u64; 3],
    bytes: [u64; 3],
    received: [u64; 3],
    send_errors: u64,
    join_retries: u64,
    recv_calls: u64,
    send_calls: u64,
    recv_timeouts: u64,
    exchanges: u64,
    fires: u64,
    fire_lag_p50: f64,
    fire_lag_p99: f64,
    rss_growth: i64,
    allocs: u64,
    alloc_bytes: u64,
    queue_depth_max: f64,
    view_dead_fraction: f64,
    base_ok: u64,
    tenant_ok: u64,
    failed: u64,
    rel_errs: Vec<f64>,
    trace_inits: u64,
    trace_timeouts: u64,
}

const AGG: usize = 0;
const MEMBER: usize = 1;
const QUERY: usize = 2;

impl Window {
    fn datagrams_sent(&self) -> u64 {
        self.sent.iter().sum()
    }

    fn datagrams_received(&self) -> u64 {
        self.received.iter().sum()
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Converged node-epochs: reports and settled tenant reads inside ε.
    fn node_epochs(&self) -> u64 {
        self.base_ok + self.tenant_ok
    }

    fn count(&mut self, ok: bool, tenant: bool) {
        match (ok, tenant) {
            (false, _) => self.failed += 1,
            (true, false) => self.base_ok += 1,
            (true, true) => self.tenant_ok += 1,
        }
    }
}

/// One harness poll: drains reports, reads tenants, drains traces.
fn poll(up: &mut Up, traced: bool, window: &mut Window) {
    let cluster = &up.cluster;
    for node in 0..cluster.len() {
        for report in cluster.take_reports(node) {
            let rel_err = rel_err(report.scalar(0), up.truth);
            window.count(rel_err <= EPSILON, false);
            window.rel_errs.push(rel_err);
        }
        for tenant in &mut up.tenants {
            let Ok(estimate) = cluster.query_estimate(node, &tenant.name) else {
                continue;
            };
            if estimate.settled
                && estimate.epoch >= tenant.floor_epoch
                && estimate.epoch > tenant.seen[node]
            {
                tenant.seen[node] = estimate.epoch;
                let rel_err = rel_err(Some(estimate.value), tenant.truth);
                window.count(rel_err <= EPSILON, true);
                window.rel_errs.push(rel_err);
            }
        }
        if traced {
            for event in cluster.take_trace(node) {
                match event.kind {
                    TraceKind::ExchangeInit => window.trace_inits += 1,
                    TraceKind::ExchangeTimeout => window.trace_timeouts += 1,
                    _ => {}
                }
            }
        }
    }
    let registry = cluster.registry();
    let depth = registry.gauge_value("worker.queue_depth").unwrap_or(0.0);
    window.queue_depth_max = window.queue_depth_max.max(depth);
}

/// Measures `seconds` of the running cluster.
fn measure(up: &mut Up, seconds: f64, traced: bool, spans: &mut Spans) -> Window {
    let span = spans.begin("harness.window", Spans::ROOT);
    // Whatever was produced before the window is not the window's.
    poll(up, traced, &mut Window::default());
    let mut window = Window::default();
    let before = Snapshot::take(&up.cluster);
    let end = before.at + Duration::from_secs_f64(seconds);
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        std::thread::sleep(POLL.min(end - now));
        spans.record("harness.poll", span, || poll(up, traced, &mut window));
    }
    let after = Snapshot::take(&up.cluster);
    spans.end(span);

    let (t0, t1) = (&before.traffic, &after.traffic);
    window.wall_s = (after.at - before.at).as_secs_f64();
    window.cpu_ns = after.cpu_ns - before.cpu_ns;
    window.sent = [
        t1.aggregation_sent - t0.aggregation_sent,
        t1.membership_sent - t0.membership_sent,
        t1.query_sent - t0.query_sent,
    ];
    window.bytes = [
        t1.aggregation_bytes_sent - t0.aggregation_bytes_sent,
        t1.membership_bytes_sent - t0.membership_bytes_sent,
        t1.query_bytes_sent - t0.query_bytes_sent,
    ];
    window.received = [
        t1.aggregation_received - t0.aggregation_received,
        t1.membership_received - t0.membership_received,
        t1.query_received - t0.query_received,
    ];
    window.send_errors = t1.send_errors - t0.send_errors;
    window.join_retries = t1.join_retries;
    window.recv_calls = after.recv_calls - before.recv_calls;
    window.send_calls = after.send_calls - before.send_calls;
    window.recv_timeouts = after.recv_timeouts - before.recv_timeouts;
    window.exchanges = after.exchanges - before.exchanges;
    window.fires = after.fire_lag.iter().sum::<u64>() - before.fire_lag.iter().sum::<u64>();
    let lag = |q| stats::bucket_percentile(&before.fire_lag, &after.fire_lag, q).unwrap_or(0.0);
    window.fire_lag_p50 = lag(0.5);
    window.fire_lag_p99 = lag(0.99);
    window.rss_growth = after.rss as i64 - before.rss as i64;
    window.allocs = after.allocs.0 - before.allocs.0;
    window.alloc_bytes = after.allocs.1 - before.allocs.1;
    window.view_dead_fraction = up
        .cluster
        .registry()
        .gauge_value("membership.view_dead_fraction")
        .unwrap_or(0.0);
    window
}

/// What the closed-loop client observed.
#[derive(Default)]
struct RpcPhase {
    /// Seconds with a request outstanding (think time excluded).
    busy_s: f64,
    ok: u64,
    failed: u64,
    timeouts: u64,
    rejects: u64,
    /// Round-trip times of successful calls, in µs.
    submit_rtts: Vec<f64>,
    read_rtts: Vec<f64>,
}

/// One closed-loop client for `seconds`: within a burst the next request
/// leaves only after the previous reply (or its timeout); between bursts
/// the client thinks for [`RPC_THINK`].
fn rpc_phase(up: &Up, seed: u64, seconds: f64, spans: &mut Spans) -> RpcPhase {
    let span = spans.begin("harness.rpc_phase", Spans::ROOT);
    let target = up.cluster.rpc_addr().expect("RPC listener was configured");
    let client = UdpSocket::bind(("127.0.0.1", 0)).expect("client socket binds");
    client
        .set_read_timeout(Some(RPC_TIMEOUT))
        .expect("read timeout is non-zero");
    let bases = (0..up.tenants.len()).map(tenant_base).collect();
    let mut phase = RpcPhase::default();
    let mut buf = [0u8; 128];
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    for (id, request) in (1u64..).zip(RequestSchedule::new(seed, bases)) {
        if Instant::now() >= end {
            break;
        }
        let tenant = &up.tenants[request.tenant];
        let name = tenant.name.clone();
        let frame = encode_rpc_request(&match request.op {
            RequestOp::Submit(value) => RpcRequest::Submit { id, name, value },
            RequestOp::Read => RpcRequest::Read { id, name },
        });
        let call = spans.begin("rpc.call", span);
        let sent_at = Instant::now();
        client.send_to(&frame, target).expect("loopback send");
        // Replies to requests that already timed out are skipped.
        let reply = loop {
            match client.recv_from(&mut buf) {
                Ok((len, _)) => match decode_rpc_response(&buf[..len]) {
                    Ok(response) if response.id == id => break Some(response),
                    _ => continue,
                },
                Err(_) => break None,
            }
        };
        let rtt = sent_at.elapsed();
        let rtt_us = rtt.as_nanos() as f64 / 1e3;
        phase.busy_s += rtt.as_secs_f64();
        spans.end(call);
        let ok = match (reply, request.op) {
            (None, _) => {
                phase.timeouts += 1;
                false
            }
            (Some(r), _) if r.status != RpcStatus::Ok => {
                phase.rejects += 1;
                false
            }
            (Some(_), RequestOp::Submit(_)) => {
                phase.submit_rtts.push(rtt_us);
                true
            }
            (Some(r), RequestOp::Read) => {
                phase.read_rtts.push(rtt_us);
                r.estimate >= tenant.band.0 * (1.0 - EPSILON)
                    && r.estimate <= tenant.band.1 * (1.0 + EPSILON)
            }
        };
        phase.ok += u64::from(ok);
        phase.failed += u64::from(!ok);
        if request.ends_burst {
            std::thread::sleep(RPC_THINK);
        }
    }
    spans.end(span);
    phase
}

fn shutdown(cluster: MuxCluster, spans: &mut Spans) -> f64 {
    let start = Instant::now();
    spans.record("mux.shutdown", Spans::ROOT, || cluster.shutdown());
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs one of the three wire workloads.
pub fn run(options: &RunOptions, spans: &mut Spans) -> RunResult {
    let spec = Spec::of(options);
    let mut result = RunResult::new(options);
    let seconds = options.seconds as f64;
    let window_s = seconds * (1.0 - spec.rpc_share);
    let mut silent = Spans::new(false, options.seed);

    // A traced run first measures an untraced reference window, the
    // denominator of the tracing overhead.
    let mut reference_cpu_per_op = None;
    if options.traced {
        let mut up = bring_up(&spec, options.seed, 0, &mut silent);
        let reference = measure(&mut up, window_s / 2.0, false, &mut silent);
        reference_cpu_per_op = Some(reference.cpu_ns as f64 / reference.node_epochs() as f64);
        up.cluster.shutdown();
        alloc::set_counting(true);
    }

    let trace_capacity = if options.traced { TRACE_CAPACITY } else { 0 };
    let mut up = bring_up(&spec, options.seed, trace_capacity, spans);
    let setup_s = up.setup_s;
    let window = measure(&mut up, window_s, options.traced, spans);
    let rpc = (spec.rpc_share > 0.0)
        .then(|| rpc_phase(&up, options.seed, seconds * spec.rpc_share, spans));
    let rpc_ops = rpc.as_ref().map_or((0, 0), |r| (r.ok, r.failed));
    result.attempted = window.node_epochs() + window.failed + rpc_ops.0 + rpc_ops.1;
    result.failed = window.failed + rpc_ops.1;
    let render_start = Instant::now();
    std::hint::black_box(up.cluster.registry().render_prometheus());
    let render_ms = render_start.elapsed().as_secs_f64() * 1e3;
    let rpc_rejects_counted = up.cluster.registry().counter_value("rpc.rejects");
    let times = Times {
        spawn_ms: up.spawn_ms,
        bootstrap_s: up.bootstrap_s,
        rollout_s: up.rollout_s,
        render_ms,
        shutdown_ms: shutdown(up.cluster, spans),
    };

    let node_epochs = window.node_epochs() as f64;
    let cpu_s = window.cpu_ns as f64 / 1e9;
    result.window_cpu_ns = window.cpu_ns;
    result.set("setup_s", setup_s);
    result.set("node_epochs_per_cpu_s", node_epochs / cpu_s);
    result.set(
        "wire_bytes_per_node_epoch",
        window.bytes_sent() as f64 / node_epochs,
    );
    result.set(
        "peak_rss_mb",
        sys::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
    );

    let mut all_rtts = Vec::new();
    if let Some(rpc) = &rpc {
        all_rtts = [rpc.submit_rtts.as_slice(), rpc.read_rtts.as_slice()].concat();
        stats::sort(&mut all_rtts);
        result.set("rpc_per_s", rpc.ok as f64 / rpc.busy_s);
        for (name, q) in [("rpc_rtt_us_p50", 0.5), ("rpc_rtt_us_p99", 0.99)] {
            match stats::percentile(&all_rtts, q) {
                Some(value) => result.set(name, value),
                None => result.violations.push(format!(
                    "{} RPC samples cannot support {name}",
                    all_rtts.len()
                )),
            }
        }
        if rpc_rejects_counted != rpc.rejects {
            result.violations.push(format!(
                "client saw {} rejects, the listener counted {rpc_rejects_counted}",
                rpc.rejects
            ));
        }
    }
    if options.traced {
        let reference = reference_cpu_per_op.expect("measured above for a traced run");
        window_layer_metrics(&mut result, &spec, &window, rpc.as_ref(), &all_rtts, &times);
        result.set(
            "trace.overhead_pct",
            (window.cpu_ns as f64 / node_epochs / reference - 1.0) * 100.0,
        );
        replay_layers(&mut result, &spec, &window, spans);
        alloc::set_counting(false);
    }
    result
}

/// Wall-clock pieces of one run outside its window.
struct Times {
    spawn_ms: f64,
    bootstrap_s: f64,
    rollout_s: f64,
    render_ms: f64,
    shutdown_ms: f64,
}

/// Per-layer metrics read off the window's counters.
fn window_layer_metrics(
    result: &mut RunResult,
    spec: &Spec,
    window: &Window,
    rpc: Option<&RpcPhase>,
    all_rtts: &[f64],
    times: &Times,
) {
    let node_epochs = window.node_epochs() as f64;
    let cpu_s = window.cpu_ns as f64 / 1e9;
    let datagrams = window.datagrams_sent() as f64;
    let mut sorted_errs = window.rel_errs.clone();
    stats::sort(&mut sorted_errs);
    let epochs_elapsed = window.wall_s * 1e3 / spec.epoch_ms() as f64;
    result.set(
        "codec.bytes_per_frame",
        window.bytes_sent() as f64 / datagrams,
    );
    result.set(
        "core.epoch_yield",
        node_epochs / ((spec.n * (1 + spec.tenants)) as f64 * epochs_elapsed),
    );
    result.set(
        "core.exchange_timeout_ratio",
        window.trace_timeouts as f64 / window.trace_inits.max(1) as f64,
    );
    result.set(
        "core.rel_err_p99",
        stats::percentile(&sorted_errs, 0.99).unwrap_or(0.0),
    );
    result.set(
        "directory.bytes_per_node_epoch",
        window.bytes[MEMBER] as f64 / node_epochs,
    );
    result.set("directory.bootstrap_s", times.bootstrap_s);
    result.set("directory.join_retries", window.join_retries as f64);
    result.set("directory.view_dead_fraction", window.view_dead_fraction);
    if spec.tenants > 0 {
        result.set(
            "plane.bytes_per_tenant_epoch",
            window.bytes[QUERY] as f64 / window.tenant_ok.max(1) as f64,
        );
        result.set(
            "plane.byte_overhead",
            window.bytes[QUERY] as f64 / window.bytes[AGG].max(1) as f64,
        );
        result.set("plane.rollout_s", times.rollout_s);
    }
    result.set("timer.fire_lag_us_p50", window.fire_lag_p50);
    result.set("timer.fire_lag_us_p99", window.fire_lag_p99);
    let syscalls = (window.recv_calls + window.send_calls) as f64;
    result.set(
        "batch.syscalls_per_datagram",
        syscalls / (datagrams + window.datagrams_received() as f64),
    );
    result.set(
        "batch.datagrams_per_send_call",
        datagrams / window.send_calls.max(1) as f64,
    );
    result.set(
        "batch.datagrams_per_recv_call",
        window.datagrams_received() as f64
            / window
                .recv_calls
                .saturating_sub(window.recv_timeouts)
                .max(1) as f64,
    );
    result.set("batch.recv_timeouts", window.recv_timeouts as f64);
    result.set(
        "mux.cpu_us_per_datagram",
        window.cpu_ns as f64 / 1e3 / datagrams,
    );
    result.set("mux.allocs_per_datagram", window.allocs as f64 / datagrams);
    result.set(
        "mux.alloc_bytes_per_datagram",
        window.alloc_bytes as f64 / datagrams,
    );
    result.set("mux.queue_depth_max", window.queue_depth_max);
    result.set("mux.cpu_utilisation", cpu_s / window.wall_s);
    result.set("mux.send_errors", window.send_errors as f64);
    result.set("mux.spawn_ms", times.spawn_ms);
    result.set("mux.shutdown_ms", times.shutdown_ms);
    result.set(
        "mux.rss_growth_mb",
        window.rss_growth as f64 / (1024.0 * 1024.0),
    );
    result.set("telemetry.render_ms", times.render_ms);
    if let Some(rpc) = rpc {
        let median_of = |rtts: &[f64]| stats::median(rtts).unwrap_or(0.0);
        result.set("rpc.submit_rtt_us_p50", median_of(&rpc.submit_rtts));
        result.set("rpc.read_rtt_us_p50", median_of(&rpc.read_rtts));
        result.set(
            "rpc.rtt_us_p999",
            stats::percentile(all_rtts, 0.999).unwrap_or(0.0),
        );
        result.set("rpc.timeouts", rpc.timeouts as f64);
        result.set("rpc.rejects", rpc.rejects as f64);
        // The client never re-sends: a timed-out call is a failed call.
        result.set("rpc.retries", 0.0);
    }
}

/// Replays every layer over the window's observed frame mix and prices
/// the stage budget.
fn replay_layers(result: &mut RunResult, spec: &Spec, window: &Window, spans: &mut Spans) {
    let datagrams = window.datagrams_sent() as f64;
    let span = spans.begin("harness.replay", Spans::ROOT);
    let node_config = super::node_config(GAMMA, spec.delta_ms, spec.delta_ms / 2);
    let core = replay::core(spans, span, &node_config, 60);
    let directory = match spec.gossip_config() {
        Some(gossip) => replay::gossip_directory(spans, span, &gossip, 20),
        None => replay::static_directory(spans, span, spec.n),
    };
    let descriptors = spec.tenant_descriptors();
    let (plane, plane_frames) = replay::plane(spans, span, spec.plane_config(), &descriptors, 200);
    let timer = replay::timer(spans, span, spec.delta_ms, spec.n, 20);
    let frame_len = (window.bytes_sent() / window.datagrams_sent().max(1)) as usize;
    let batch = replay::batch_io(spans, span, frame_len, 400).expect("loopback burst replays");
    let telemetry = replay::telemetry(spans, span);

    // The observed mix: plane shares by datagram count; inside the query
    // plane, the catalog share that explains the observed mean frame size.
    let (exchange_frames, catalog_frames) = replay::query_frames(plane_frames);
    let catalog_share = catalog_share(window, &exchange_frames, &catalog_frames);
    let share = |plane: usize| window.sent[plane] as f64 / datagrams;
    let mix = [
        FrameKind {
            weight: share(AGG),
            encode: replay::aggregation_frames(),
        },
        FrameKind {
            weight: share(MEMBER),
            encode: replay::membership_frames(directory.payloads.clone()),
        },
        FrameKind {
            weight: share(QUERY) * (1.0 - catalog_share),
            encode: exchange_frames,
        },
        FrameKind {
            weight: share(QUERY) * catalog_share,
            encode: catalog_frames,
        },
    ];
    let codec = replay::codec(spans, span, &mix, 200);
    spans.end(span);

    result.set("codec.encode_ns", codec.encode.ns);
    result.set("codec.decode_ns", codec.decode.ns);
    result.set(
        "codec.allocs_per_frame",
        codec.encode.allocs + codec.decode.allocs,
    );
    result.set("core.poll_ns", core.poll.ns);
    result.set("core.handle_ns", core.handle.ns);
    result.set(
        "core.allocs_per_exchange",
        core.poll.allocs + 2.0 * core.handle.allocs,
    );
    result.set("directory.poll_ns", directory.poll.ns);
    result.set("directory.handle_ns", directory.handle.ns);
    result.set("plane.poll_ns", plane.poll.ns);
    result.set("plane.handle_ns", plane.handle.ns);
    result.set("plane.submit_ns", plane.submit.ns);
    result.set("plane.read_ns", plane.read.ns);
    result.set("plane.allocs_per_poll", plane.poll.allocs);
    result.set("timer.schedule_ns", timer.schedule.ns);
    result.set("timer.fire_ns", timer.fire.ns);
    result.set("batch.send_ns_per_datagram", batch.send.ns);
    result.set("batch.recv_ns_per_datagram", batch.recv.ns);
    result.set("telemetry.counter_inc_ns", telemetry.counter_inc.ns);
    result.set(
        "telemetry.histogram_record_ns",
        telemetry.histogram_record.ns,
    );

    // ---- the stage budget ----
    let tenant_frames = |count: u64| (count as f64 * (1.0 - catalog_share)) as u64;
    let row = |stage, ops, ns_per_op| BudgetRow {
        stage,
        ops,
        ns_per_op,
    };
    result.budget = vec![
        row("batch.recv", window.datagrams_received(), batch.recv.ns),
        row("codec.decode", window.datagrams_received(), codec.decode.ns),
        row("timer.schedule", window.fires, timer.schedule.ns),
        row("timer.fire", window.fires, timer.fire.ns),
        row("core.poll", window.exchanges, core.poll.ns),
        row("core.handle", window.received[AGG], core.handle.ns),
        // A static table only draws a peer per initiated exchange; a
        // gossip directory polls once per view exchange it starts.
        match spec.gossip_view {
            None => row("directory.poll", window.exchanges, directory.poll.ns),
            Some(_) => row("directory.poll", window.sent[MEMBER] / 2, directory.poll.ns),
        },
        row(
            "directory.handle",
            window.received[MEMBER],
            directory.handle.ns,
        ),
        // With tenants a poll is priced per tenant exchange it starts;
        // without, it is the idle plane's cost on every wake.
        match spec.tenants {
            0 => row("plane.poll", window.fires, plane.poll.ns),
            t => row(
                "plane.poll",
                tenant_frames(window.sent[QUERY]) / 2,
                plane.poll.ns / t as f64,
            ),
        },
        row(
            "plane.handle",
            tenant_frames(window.received[QUERY]),
            plane.handle.ns,
        ),
        row("codec.encode", window.datagrams_sent(), codec.encode.ns),
        row("batch.send", window.datagrams_sent(), batch.send.ns),
    ];
    result.set("budget.coverage", super::budget_coverage(result));
}

/// The share of query-plane datagrams that were catalog pushes, solved
/// from the observed mean query frame size and the two sample sizes.
fn catalog_share(
    window: &Window,
    exchange: &[replay::Encoder],
    catalog: &[replay::Encoder],
) -> f64 {
    let (Some(exchange), Some(catalog)) = (exchange.first(), catalog.first()) else {
        return 0.0;
    };
    let (small, large) = (exchange().len() as f64, catalog().len() as f64);
    let mean = window.bytes[QUERY] as f64 / window.sent[QUERY].max(1) as f64;
    ((mean - small) / (large - small)).clamp(0.0, 1.0)
}
