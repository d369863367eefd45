//! Multi-tenant query plane, end to end: the event simulator and the mux
//! runtime drive the *same* sans-io [`epidemic::query::QueryPlane`], so a
//! named query installed at one node must spread epidemically, serve
//! submits and reads at *any* node, and converge to the same answer in
//! both time models. The operator-seam tests drive the mux on an
//! in-memory network in virtual milliseconds. The wire test is the
//! acceptance scenario, on real sockets because its subject is the RPC
//! listener: a plain UDP client installs a query through the listener of
//! a running mux cluster — no restart — and reads the converged estimate
//! back through a different node.

use epidemic::aggregation::{AggregateKind, InstanceSpec, NodeConfig};
use epidemic::net::cluster::Cluster;
use epidemic::net::codec::{decode_rpc_response, encode_rpc_request};
use epidemic::net::mux::{MemNetwork, MuxCluster, MuxClusterConfig};
use epidemic::query::{QueryDescriptor, QueryError, QueryPlaneConfig, RpcRequest, RpcStatus};
use epidemic::sim::event::{EventConfig, QueryAction};
use epidemic::sim::scenario::{Scenario, ValueInit};
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// The shared workload: an AVERAGE query whose nodes default to 4.0 with
/// one client submitting 10.0 — truth (31·4 + 10)/32 = 4.1875 at n = 32.
const N: usize = 32;
const TRUTH: f64 = (31.0 * 4.0 + 10.0) / 32.0;

fn sim_descriptor(name: &str) -> QueryDescriptor {
    QueryDescriptor::new(name, AggregateKind::Average)
        .with_gamma(5)
        .with_cycle_length(500)
        .with_default_value(4.0)
}

fn mux_descriptor(name: &str) -> QueryDescriptor {
    // Same query, wall-clock geometry: 8-cycle epochs of 40 ms.
    QueryDescriptor::new(name, AggregateKind::Average)
        .with_gamma(8)
        .with_cycle_length(40)
        .with_default_value(4.0)
}

/// Runs the event-sim side of the conformance pair: install at node 1,
/// submit at node 5, plus a second query installed and removed
/// mid-epoch. Returns (per-node final values of "load", final values of
/// "tmp").
fn run_sim_side(seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut cfg = EventConfig {
        scenario: Scenario {
            n: N,
            values: ValueInit::Linear,
            ..Scenario::default()
        },
        duration: 40_000,
        ..EventConfig::default()
    };
    cfg.query_script = vec![
        QueryAction {
            at: 2_000,
            node: 1,
            request: RpcRequest::Install {
                id: 1,
                descriptor: sim_descriptor("load"),
            },
        },
        // Second tenant, installed mid-run…
        QueryAction {
            at: 3_000,
            node: 2,
            request: RpcRequest::Install {
                id: 2,
                descriptor: sim_descriptor("tmp"),
            },
        },
        QueryAction {
            at: 8_000,
            node: 5,
            request: RpcRequest::Submit {
                id: 3,
                name: "load".into(),
                value: 10.0,
            },
        },
        // …and removed mid-epoch through a different node ("tmp"'s
        // boundaries sit at 3000 + k·2500; 9800 is mid-epoch).
        QueryAction {
            at: 9_800,
            node: 9,
            request: RpcRequest::Remove {
                id: 4,
                name: "tmp".into(),
            },
        },
    ];
    let out = cfg.run(seed);
    for response in &out.query_responses {
        assert_eq!(
            response.status,
            RpcStatus::Ok,
            "sim rpc failed: {response:?}"
        );
    }
    (out.query_values("load"), out.query_values("tmp"))
}

/// Polls `read` every 30 virtual ms of `network` until it returns a value
/// within `tol` of `truth`, panicking with `what` after 15 virtual s.
fn drive_until(
    network: &MemNetwork,
    what: &str,
    truth: f64,
    tol: f64,
    mut read: impl FnMut() -> Option<f64>,
) -> f64 {
    let mut last = f64::NAN;
    for _ in 0..500 {
        if let Some(value) = read() {
            last = value;
            if (value - truth).abs() < tol {
                return value;
            }
        }
        network.advance(30);
    }
    panic!("{what} never converged: last {last} vs truth {truth} (tol {tol})");
}

/// Retries `attempt` every 30 ms of wall clock until it returns a value,
/// panicking with `what` after 15 s.
fn retry_until<T>(what: &str, mut attempt: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if let Some(value) = attempt() {
            return value;
        }
        assert!(Instant::now() < deadline, "{what} timed out");
        std::thread::sleep(Duration::from_millis(30));
    }
}

#[test]
fn query_conformance_sim_vs_mux_on_one_seed() {
    // Sim side.
    let (sim_load, sim_tmp) = run_sim_side(11);
    assert_eq!(sim_load.len(), N, "sim: query missing at some nodes");
    assert!(sim_tmp.is_empty(), "sim: removed query still installed");
    let sim_mean = sim_load.iter().sum::<f64>() / sim_load.len() as f64;
    assert!(
        (sim_mean - TRUTH).abs() < 0.2,
        "sim mean {sim_mean} vs truth {TRUTH}"
    );

    // Mux side: same tenants, driven through the Cluster seam.
    let node_config = NodeConfig::builder()
        .gamma(10)
        .cycle_length(40)
        .timeout(16)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap();
    let network = MemNetwork::new();
    let cluster = MuxCluster::in_memory(
        MuxClusterConfig::new(N, node_config)
            .with_workers(2)
            .with_seed(11)
            .with_query_config(QueryPlaneConfig {
                gossip_period: 50,
                ..QueryPlaneConfig::default()
            }),
        &network,
        |i| i as f64,
    )
    .unwrap();
    cluster.install_query(1, mux_descriptor("load")).unwrap();
    cluster.install_query(2, mux_descriptor("tmp")).unwrap();
    // Submit at a different node once catalog gossip reaches it.
    drive_until(&network, "mux submit at node 5", 0.0, 0.5, || match cluster
        .submit_query(5, "load", 10.0)
    {
        Ok(()) => Some(0.0),
        Err(QueryError::UnknownQuery) => None,
        Err(err) => panic!("submit failed: {err}"),
    });
    // Remove the second tenant mid-epoch via yet another node.
    drive_until(
        &network,
        "mux remove at node 9",
        0.0,
        0.5,
        || match cluster.remove_query(9, "tmp") {
            Ok(()) => Some(0.0),
            Err(QueryError::UnknownQuery) => None,
            Err(err) => panic!("remove failed: {err}"),
        },
    );
    // Read the converged estimate at an uninvolved node.
    let mux_value = drive_until(
        &network,
        "mux read at node 20",
        TRUTH,
        0.2,
        || match cluster.query_estimate(20, "load") {
            Ok(est) if est.settled => Some(est.value),
            _ => None,
        },
    );
    // The tombstone spreads until reads at other nodes reject.
    drive_until(
        &network,
        "mux tombstone at node 20",
        0.0,
        0.5,
        || match cluster.query_estimate(20, "tmp") {
            Err(QueryError::UnknownQuery) => Some(0.0),
            _ => None,
        },
    );
    // Per-query telemetry reached the shared registry.
    let text = cluster.registry().render_prometheus();
    assert!(
        text.contains("query_submits{query=\"load\"}"),
        "missing per-query submit series:\n{text}"
    );
    cluster.shutdown();

    // The conformance pin: both engines answer the same workload with
    // the same number, despite completely different time models.
    assert!(
        (sim_mean - mux_value).abs() < 0.3,
        "engines disagree: sim {sim_mean} vs mux {mux_value}"
    );
}

/// Asks the RPC endpoint at `addr` for a query nobody installed: the
/// reject reaches the client, and `rpc.rejects` — the series
/// `TrafficCounts::rpc_rejects` reads — counts it.
fn unknown_query_is_rejected_and_counted(cluster: &MuxCluster, addr: SocketAddr) {
    let client = UdpSocket::bind("127.0.0.1:0").unwrap();
    client
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let request = encode_rpc_request(&RpcRequest::Read {
        id: 7_777,
        name: "no-such-query".into(),
    });
    let mut buf = [0u8; 64];
    let response = (0..10).find_map(|_| {
        client.send_to(&request, addr).unwrap();
        let (len, _) = client.recv_from(&mut buf).ok()?;
        decode_rpc_response(&buf[..len]).ok()
    });
    assert_eq!(
        response.expect("no response").status,
        RpcStatus::UnknownQuery
    );
    let registry = cluster.registry();
    assert!(registry.counter_value("rpc.requests") > 0);
    let rejects = registry.counter_value("rpc.rejects");
    assert!(rejects > 0, "reject not counted");
    assert_eq!(cluster.total_datagram_counts().rpc_rejects, rejects);
}

/// The operator script of [`install_through_the_seam_needs_no_wake`]:
/// each call is one of `Cluster`'s provided verbs, i.e.
/// `Cluster::with_stack` and nothing else.
fn installed_query_spreads(network: &MemNetwork, cluster: &MuxCluster, what: &str) {
    cluster
        .install_query(0, mux_descriptor("seam").with_default_value(6.0))
        .unwrap();
    // Every node (installer or not) converges on the default fixed point.
    let last = cluster.node_count() - 1;
    drive_until(network, what, 6.0, 1e-6, || {
        match cluster.query_estimate(last, "seam") {
            Ok(est) if est.settled => Some(est.value),
            _ => None,
        }
    });
    let installed = cluster.with_stack(last, |stack, _now| stack.installed_queries());
    assert_eq!(installed, ["seam"], "{what}");
}

#[test]
fn install_through_the_seam_needs_no_wake() {
    // A ten-minute base cycle: no node has a deadline of its own inside
    // this test, so the install spreads only if the runtime re-arms node
    // 0's timer when `with_stack` returns — nothing here wakes it.
    let node_config = NodeConfig::builder()
        .gamma(10)
        .cycle_length(600_000)
        .timeout(1_000)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap();
    let query = QueryPlaneConfig {
        gossip_period: 50,
        ..QueryPlaneConfig::default()
    };
    let mux = MuxClusterConfig::new(8, node_config)
        .with_workers(2)
        .with_query_config(query);
    let network = MemNetwork::new();
    let cluster = MuxCluster::in_memory(mux, &network, |i| i as f64).unwrap();
    installed_query_spreads(&network, &cluster, "mux cluster");
    // Admission errors surface through the seam, not as silent drops.
    assert!(matches!(
        cluster.submit_query(3, "nope", 1.0),
        Err(QueryError::UnknownQuery)
    ));
    cluster.shutdown();
}

/// The acceptance scenario: a running mux cluster, no restart, accepts a
/// query installed over the wire at its RPC endpoint; catalog gossip
/// carries it to all nodes; the client submits and reads through
/// *different* nodes (the listener round-robins requests over vnodes);
/// the estimate converges within the query's epoch geometry.
#[test]
fn query_rpc_over_the_wire_at_any_node() {
    let n = 16usize;
    let truth = (15.0 * 2.0 + 18.0) / 16.0; // defaults 2.0, one submit 18.0
    let node_config = NodeConfig::builder()
        .gamma(10)
        .cycle_length(40)
        .timeout(16)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .unwrap();
    let cluster = MuxCluster::spawn(
        MuxClusterConfig::new(n, node_config)
            .with_workers(2)
            .with_seed(3)
            .with_query_config(QueryPlaneConfig {
                gossip_period: 50,
                ..QueryPlaneConfig::default()
            })
            .with_rpc_addr("127.0.0.1:0".parse().unwrap()),
        |i| i as f64,
    )
    .unwrap();
    let rpc_addr = cluster.rpc_addr().expect("rpc listener bound");
    let client = UdpSocket::bind("127.0.0.1:0").unwrap();
    client
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let mut next_id = 0u64;
    let rpc = |request: RpcRequest| {
        let frame = encode_rpc_request(&request);
        let mut buf = [0u8; 64];
        // UDP: retry a few times on timeout before giving up.
        for _ in 0..10 {
            client.send_to(&frame, rpc_addr).unwrap();
            match client.recv_from(&mut buf) {
                Ok((len, _)) => {
                    let response = decode_rpc_response(&buf[..len]).expect("decodable response");
                    assert_eq!(response.id, request.id(), "correlation id mismatch");
                    return response;
                }
                Err(_) => continue,
            }
        }
        panic!("rpc {request:?} got no response");
    };
    let mut id = || {
        next_id += 1;
        next_id
    };

    // Install over the wire at whichever node the round-robin picks.
    let descriptor = QueryDescriptor::new("cpu", AggregateKind::Average)
        .with_gamma(8)
        .with_cycle_length(40)
        .with_default_value(2.0);
    let install = rpc(RpcRequest::Install {
        id: id(),
        descriptor,
    });
    assert_eq!(
        install.status,
        RpcStatus::Ok,
        "install rejected: {install:?}"
    );

    // Submit through a *different* node: the next requests round-robin
    // onward, and succeed only once catalog gossip delivered the query
    // there — retry until it has.
    retry_until("submit at another node", || {
        let response = rpc(RpcRequest::Submit {
            id: id(),
            name: "cpu".into(),
            value: 18.0,
        });
        match response.status {
            RpcStatus::Ok => Some(()),
            RpcStatus::UnknownQuery => None,
            other => panic!("submit failed with {other:?}"),
        }
    });

    // Read until the estimate settles on the truth — each read lands on
    // yet another node, so this also proves every node serves the query.
    retry_until("a converged read", || {
        let response = rpc(RpcRequest::Read {
            id: id(),
            name: "cpu".into(),
        });
        let converged = (response.estimate - truth).abs() < 0.2;
        (response.status == RpcStatus::Ok && converged).then_some(())
    });

    // A bad request is rejected — visibly, in the response, the traffic
    // counters, and the registry; never swallowed.
    unknown_query_is_rejected_and_counted(&cluster, rpc_addr);
    let registry = cluster.registry();
    let totals = cluster.total_datagram_counts();
    assert!(totals.query_sent > 0, "no query-plane frames on the wire");
    assert!(totals.query_bytes_sent > 0);
    let text = registry.render_prometheus();
    assert!(
        text.contains("query_installed"),
        "missing query series in /metrics text:\n{text}"
    );
    cluster.shutdown();
}
