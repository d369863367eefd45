//! The layer replay: each layer's public functions, timed alone.
//!
//! After a traced run's window the harness rebuilds the frame mix the
//! window observed and drives every layer's public API single-threaded,
//! one timed batch (one span) per call batch. The per-call costs, times
//! the operation counts the window recorded, make the stage budget; what
//! the budget leaves uncovered is hand-off, locks and kernel time that
//! only spans inside the product can split.

use crate::alloc;
use crate::span::{SpanId, Spans};
use epidemic_aggregation::{GossipNode, Message, NodeConfig, PeerSampler};
use epidemic_common::NodeId;
use epidemic_net::batch::{IoBackend, RecvBatch, SendBatch, BATCH};
use epidemic_net::codec;
use epidemic_net::directory::{
    Destination, DirectoryMessage, DirectoryPayload, GossipDirectory, GossipDirectoryConfig,
    PeerDirectory, StaticDirectory,
};
use epidemic_net::timer::ShardedTimerWheel;
use epidemic_query::{QueryDescriptor, QueryOutbound, QueryPlane, QueryPlaneConfig};
use epidemic_telemetry::Registry;
use std::hint::black_box;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Cost of one call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Nanoseconds per call.
    pub ns: f64,
    /// Allocations per call.
    pub allocs: f64,
}

/// Times `f`, which performs `calls` calls, as one span.
fn batch(
    spans: &mut Spans,
    parent: SpanId,
    name: &'static str,
    calls: usize,
    f: impl FnOnce(),
) -> Cost {
    let id = spans.begin(name, parent);
    let start = Instant::now();
    let ((), allocs) = alloc::counted(f);
    let ns = start.elapsed().as_nanos() as f64;
    spans.end(id);
    Cost {
        ns: ns / calls.max(1) as f64,
        allocs: allocs as f64 / calls.max(1) as f64,
    }
}

/// Mean of per-batch costs (zero when no batch ran).
fn mean(costs: &[Cost]) -> Cost {
    if costs.is_empty() {
        return Cost::default();
    }
    let n = costs.len() as f64;
    Cost {
        ns: costs.iter().map(|c| c.ns).sum::<f64>() / n,
        allocs: costs.iter().map(|c| c.allocs).sum::<f64>() / n,
    }
}

/// A sampler that always answers with one fixed peer.
struct FixedPeer(NodeId);

impl PeerSampler for FixedPeer {
    fn draw_peer(&mut self) -> Option<NodeId> {
        Some(self.0)
    }
}

/// `core::node`: one push-pull exchange, split into its three calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreCosts {
    /// `GossipNode::poll` that initiates an exchange.
    pub poll: Cost,
    /// `GossipNode::handle`, mean of the request and the reply side.
    pub handle: Cost,
}

/// Replays `rounds` full exchanges over 256 node pairs.
pub fn core(spans: &mut Spans, parent: SpanId, config: &NodeConfig, rounds: usize) -> CoreCosts {
    const PAIRS: usize = 256;
    let make = |offset: usize| -> Vec<GossipNode> {
        (0..PAIRS)
            .map(|i| {
                let id = NodeId::new((offset + i) as u64);
                GossipNode::founder(id, config.clone(), i as f64, 7)
            })
            .collect()
    };
    let (mut left, mut right) = (make(0), make(PAIRS));
    let mut now = config.cycle_length();
    let (mut polls, mut handles) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        now += config.cycle_length();
        let mut requests = Vec::with_capacity(PAIRS);
        polls.push(batch(spans, parent, "replay.core.poll", PAIRS, || {
            for (i, node) in left.iter_mut().enumerate() {
                requests.push(node.poll(now, Some(NodeId::new((PAIRS + i) as u64))));
            }
        }));
        let mut replies = Vec::with_capacity(PAIRS);
        let request_side = batch(spans, parent, "replay.core.handle", PAIRS, || {
            for (node, request) in right.iter_mut().zip(&requests) {
                replies.push(request.as_ref().and_then(|r| node.handle(&r.message, now)));
            }
        });
        let reply_side = batch(spans, parent, "replay.core.handle", PAIRS, || {
            for (node, reply) in left.iter_mut().zip(&replies) {
                if let Some(reply) = reply {
                    black_box(node.handle(&reply.message, now));
                }
            }
        });
        handles.push(mean(&[request_side, reply_side]));
        // The right side never polls, so it never reports; the left
        // side's epoch reports are drained so they do not pile up.
        for node in &mut left {
            black_box(node.take_reports());
        }
    }
    CoreCosts {
        poll: mean(&polls),
        handle: mean(&handles),
    }
}

/// `net::directory`: what a wake and a membership frame cost.
#[derive(Debug, Default)]
pub struct DirectoryCosts {
    /// Static: one `draw_peer`. Gossip: one `poll` that gossips a view.
    pub poll: Cost,
    /// Gossip: one `handle` of a view frame (0 for a static table).
    pub handle: Cost,
    /// Membership payloads the replay produced, for the codec replay.
    pub payloads: Vec<(NodeId, DirectoryPayload)>,
}

/// Replays a static table's only work: the peer draw.
pub fn static_directory(spans: &mut Spans, parent: SpanId, n: usize) -> DirectoryCosts {
    const CALLS: usize = 100_000;
    let mut directory = StaticDirectory::id_routed(n, NodeId::new(0), 7);
    let poll = batch(spans, parent, "replay.directory.poll", CALLS, || {
        for _ in 0..CALLS {
            black_box(directory.draw_peer());
        }
    });
    DirectoryCosts {
        poll,
        ..DirectoryCosts::default()
    }
}

/// Replays NEWSCAST gossip among 128 directories in memory: untimed
/// rounds until the views are full, then `rounds` timed ones.
pub fn gossip_directory(
    spans: &mut Spans,
    parent: SpanId,
    config: &GossipDirectoryConfig,
    rounds: usize,
) -> DirectoryCosts {
    const POPULATION: usize = 128;
    const WARM_ROUNDS: usize = 40;
    let mut dirs: Vec<GossipDirectory> = (0..POPULATION)
        .map(|i| GossipDirectory::id_routed(NodeId::new(i as u64), config, 7))
        .collect();
    let mut now = 0u64;
    let (mut polls, mut handles, mut payloads) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..WARM_ROUNDS + rounds {
        let timed = round >= WARM_ROUNDS;
        now += config.cycle_length;
        let mut outbox: Vec<DirectoryMessage> = Vec::new();
        let poll_all = |dirs: &mut Vec<GossipDirectory>, out: &mut Vec<DirectoryMessage>| {
            for dir in dirs.iter_mut() {
                dir.poll(now, out);
            }
        };
        if timed {
            polls.push(batch(
                spans,
                parent,
                "replay.directory.poll",
                POPULATION,
                || {
                    poll_all(&mut dirs, &mut outbox);
                },
            ));
        } else {
            poll_all(&mut dirs, &mut outbox);
        }
        // Deliver requests, then the replies they caused.
        while !outbox.is_empty() {
            let mut next: Vec<DirectoryMessage> = Vec::new();
            let deliveries: Vec<(usize, &DirectoryPayload)> = outbox
                .iter()
                .filter_map(|m| match m.to {
                    Destination::Node(to) if to.index() < POPULATION => {
                        Some((to.index(), &m.payload))
                    }
                    _ => None,
                })
                .collect();
            let deliver_all = |dirs: &mut Vec<GossipDirectory>, out: &mut Vec<DirectoryMessage>| {
                for (to, payload) in &deliveries {
                    dirs[*to].handle(payload, None, now, out);
                }
            };
            if timed && !deliveries.is_empty() {
                let name = "replay.directory.handle";
                handles.push(batch(spans, parent, name, deliveries.len(), || {
                    deliver_all(&mut dirs, &mut next);
                }));
                if payloads.len() < 512 {
                    payloads.extend(
                        deliveries
                            .iter()
                            .map(|(to, p)| (NodeId::new(*to as u64), (*p).clone())),
                    );
                }
            } else {
                deliver_all(&mut dirs, &mut next);
            }
            outbox = next;
        }
    }
    DirectoryCosts {
        poll: mean(&polls),
        handle: mean(&handles),
        payloads,
    }
}

/// `query::plane` with the workload's tenant count.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlaneCosts {
    /// One `QueryPlane::poll` with every tenant's cycle due.
    pub poll: Cost,
    /// One `QueryPlane::handle_aggregation`.
    pub handle: Cost,
    /// One `QueryPlane::submit`.
    pub submit: Cost,
    /// One `QueryPlane::estimate`.
    pub read: Cost,
}

/// Replays two planes exchanging every tenant's frames for `rounds`
/// cycles. Returns the costs and the frames one poll produced (for the
/// codec replay).
pub fn plane(
    spans: &mut Spans,
    parent: SpanId,
    config: QueryPlaneConfig,
    tenants: &[QueryDescriptor],
    rounds: usize,
) -> (PlaneCosts, Vec<QueryOutbound>) {
    let (a_id, b_id) = (NodeId::new(0), NodeId::new(1));
    let mut a = QueryPlane::new(a_id, config, 7, Registry::new());
    let mut b = QueryPlane::new(b_id, config, 7, Registry::new());
    for descriptor in tenants {
        a.install(descriptor.clone(), 0)
            .expect("replay tenant installs");
    }
    b.handle_catalog(&a.catalog_entries(), 0);
    let delta = tenants.first().map_or(50, |d| d.cycle_length);
    let mut now = 0u64;
    let (mut polls, mut handles) = (Vec::new(), Vec::new());
    let mut frames = Vec::new();
    for _ in 0..rounds {
        now += delta;
        let mut out = Vec::new();
        polls.push(batch(spans, parent, "replay.plane.poll", 1, || {
            out = a.poll(now, &mut FixedPeer(b_id));
        }));
        let requests: Vec<(String, Message)> = out
            .iter()
            .filter_map(|o| match o {
                QueryOutbound::Aggregation { query, message, .. } => {
                    Some((query.clone(), message.clone()))
                }
                QueryOutbound::Catalog { .. } => None,
            })
            .collect();
        if !requests.is_empty() {
            let mut replies = Vec::new();
            let request_side = batch(spans, parent, "replay.plane.handle", requests.len(), || {
                for (query, message) in &requests {
                    replies.push(b.handle_aggregation(query, message, now));
                }
            });
            let reply_side = batch(spans, parent, "replay.plane.handle", requests.len(), || {
                for reply in replies.iter().flatten() {
                    if let QueryOutbound::Aggregation { query, message, .. } = reply {
                        black_box(a.handle_aggregation(query, message, now));
                    }
                }
            });
            handles.push(mean(&[request_side, reply_side]));
        }
        black_box((a.take_epochs(), b.take_epochs()));
        if out.len() > frames.len() {
            frames = out;
        }
    }
    let mut costs = PlaneCosts {
        poll: mean(&polls),
        handle: mean(&handles),
        ..PlaneCosts::default()
    };
    if let Some(first) = tenants.first() {
        const CALLS: usize = 50_000;
        costs.submit = batch(spans, parent, "replay.plane.submit", CALLS, || {
            for i in 0..CALLS {
                black_box(a.submit(&first.name, i as f64, now)).expect("unlimited admission");
            }
        });
        costs.read = batch(spans, parent, "replay.plane.read", CALLS, || {
            for _ in 0..CALLS {
                black_box(a.estimate(&first.name)).expect("a running tenant is readable");
            }
        });
    }
    (costs, frames)
}

/// A boxed encoder of one sample frame.
pub type Encoder = Box<dyn Fn() -> Vec<u8>>;

/// One kind of frame in the observed mix.
pub struct FrameKind {
    /// Share of the window's datagrams that were of this kind.
    pub weight: f64,
    /// Encoders of sample frames of this kind.
    pub encode: Vec<Encoder>,
}

/// `net::codec`: mix-weighted cost of one frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecCosts {
    /// Encoding one frame.
    pub encode: Cost,
    /// Decoding one frame.
    pub decode: Cost,
}

/// Replays encode and decode over `mix`, `rounds` passes per kind.
pub fn codec(spans: &mut Spans, parent: SpanId, mix: &[FrameKind], rounds: usize) -> CodecCosts {
    let mut costs = CodecCosts::default();
    for kind in mix
        .iter()
        .filter(|k| k.weight > 0.0 && !k.encode.is_empty())
    {
        let calls = kind.encode.len() * rounds;
        let mut encoded = Vec::with_capacity(calls);
        let encode = batch(spans, parent, "replay.codec.encode", calls, || {
            for _ in 0..rounds {
                for make in &kind.encode {
                    encoded.push(make());
                }
            }
        });
        let decode = batch(spans, parent, "replay.codec.decode", calls, || {
            for frame in &encoded {
                black_box(codec::decode_mux_datagram(frame)).expect("own frames decode");
            }
        });
        costs.encode.ns += kind.weight * encode.ns;
        costs.encode.allocs += kind.weight * encode.allocs;
        costs.decode.ns += kind.weight * decode.ns;
        costs.decode.allocs += kind.weight * decode.allocs;
    }
    costs
}

/// A representative AVERAGE request and reply, as mux frame encoders.
pub fn aggregation_frames() -> Vec<Encoder> {
    use epidemic_aggregation::InstanceState::Scalar;
    let request = Message::request(NodeId::new(17), 42, vec![Scalar(49.5)]);
    let reply = Message::reply(NodeId::new(4_000), 42, vec![Scalar(50.25)]);
    vec![
        Box::new(move || codec::encode_mux_frame(NodeId::new(4_000), &request)),
        Box::new(move || codec::encode_mux_frame(NodeId::new(17), &reply)),
    ]
}

/// Encoders for membership payloads captured by the directory replay.
pub fn membership_frames(payloads: Vec<(NodeId, DirectoryPayload)>) -> Vec<Encoder> {
    payloads
        .into_iter()
        .map(|(to, payload)| -> Encoder {
            Box::new(move || codec::encode_mux_directory_frame(to, &payload))
        })
        .collect()
}

/// Encoders for query-plane frames captured by the plane replay; returns
/// `(tenant exchange frames, catalog frames)`.
pub fn query_frames(frames: Vec<QueryOutbound>) -> (Vec<Encoder>, Vec<Encoder>) {
    let (mut exchange, mut catalog): (Vec<Encoder>, Vec<Encoder>) = (Vec::new(), Vec::new());
    for frame in frames {
        match frame {
            QueryOutbound::Aggregation { to, query, message } => {
                exchange.push(Box::new(move || {
                    codec::encode_mux_query_frame(to, &query, &message)
                }))
            }
            QueryOutbound::Catalog { to, entries } => catalog.push(Box::new(move || {
                codec::encode_mux_catalog_frame(to, NodeId::new(0), &entries)
            })),
        }
    }
    (exchange, catalog)
}

/// `net::timer`: the wheel the mux runtime builds for cycle length δ.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimerCosts {
    /// One `schedule`.
    pub schedule: Cost,
    /// One fired entry inside `advance_entries`.
    pub fire: Cost,
}

/// Replays `rounds` cycles of `n` deadlines spread over one cycle.
pub fn timer(
    spans: &mut Spans,
    parent: SpanId,
    cycle_ms: u64,
    n: usize,
    rounds: usize,
) -> TimerCosts {
    let mut wheel = ShardedTimerWheel::for_cycle(1, cycle_ms);
    let mut now = 0u64;
    let (mut schedules, mut fires) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        schedules.push(batch(spans, parent, "replay.timer.schedule", n, || {
            for token in 0..n as u64 {
                wheel.schedule(now + 1 + token % cycle_ms, token as u32);
            }
        }));
        let mut fired = 0usize;
        fires.push(batch(spans, parent, "replay.timer.fire", n, || {
            // The timer thread ticks every millisecond.
            for tick in 1..=cycle_ms {
                wheel.advance_entries(now + tick, |deadline, token| {
                    fired += 1;
                    black_box((deadline, token));
                });
            }
        }));
        assert_eq!(fired, n, "every scheduled deadline fires within its cycle");
        now += cycle_ms;
    }
    TimerCosts {
        schedule: mean(&schedules),
        fire: mean(&fires),
    }
}

/// `net::batch`: loopback send and receive bursts of [`BATCH`] frames.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchCosts {
    /// Per datagram of a flushed send burst (syscall included).
    pub send: Cost,
    /// Per datagram of a drained receive burst (syscall included).
    pub recv: Cost,
}

/// Replays `rounds` bursts of `frame_len`-byte datagrams.
///
/// # Errors
///
/// Propagates socket errors.
pub fn batch_io(
    spans: &mut Spans,
    parent: SpanId,
    frame_len: usize,
    rounds: usize,
) -> std::io::Result<BatchCosts> {
    let sender = UdpSocket::bind(("127.0.0.1", 0))?;
    let receiver = UdpSocket::bind(("127.0.0.1", 0))?;
    receiver.set_read_timeout(Some(Duration::from_millis(200)))?;
    let target = receiver.local_addr()?;
    let io = IoBackend::auto();
    let mut send_batch: SendBatch<()> = SendBatch::new();
    let mut recv_batch = RecvBatch::new();
    let (mut sends, mut recvs) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        // Building the frames is the codec's cost; only push + flush
        // are the batch layer's.
        let frames: Vec<Vec<u8>> = (0..BATCH).map(|_| vec![0xA5; frame_len.max(1)]).collect();
        let mut delivered = 0usize;
        sends.push(batch(spans, parent, "replay.batch.send", BATCH, || {
            for frame in frames {
                send_batch.push(frame, target, ());
            }
            send_batch.flush(&sender, io, |(), _, ok| delivered += usize::from(ok));
        }));
        let mut got = 0usize;
        let mut failed = None;
        recvs.push(batch(spans, parent, "replay.batch.recv", delivered, || {
            while got < delivered {
                match recv_batch.recv(&receiver, io) {
                    Ok(count) => {
                        for i in 0..count {
                            black_box(recv_batch.datagram(i));
                        }
                        got += count;
                    }
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
        }));
        if let Some(e) = failed {
            return Err(e);
        }
    }
    Ok(BatchCosts {
        send: mean(&sends),
        recv: mean(&recvs),
    })
}

/// `telemetry`: the two handle operations on the hot path.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryCosts {
    /// `Counter::inc`.
    pub counter_inc: Cost,
    /// `Histogram::record`.
    pub histogram_record: Cost,
}

/// Replays a million updates of each handle kind.
pub fn telemetry(spans: &mut Spans, parent: SpanId) -> TelemetryCosts {
    const CALLS: usize = 1_000_000;
    let registry = Registry::new();
    let counter = registry.counter("replay.counter");
    let histogram = registry.histogram("replay.histogram");
    TelemetryCosts {
        counter_inc: batch(spans, parent, "replay.telemetry.counter_inc", CALLS, || {
            for _ in 0..CALLS {
                black_box(&counter).inc();
            }
        }),
        histogram_record: batch(
            spans,
            parent,
            "replay.telemetry.histogram_record",
            CALLS,
            || {
                for i in 0..CALLS as u64 {
                    black_box(&histogram).record(i & 0xFFFF);
                }
            },
        ),
    }
}
