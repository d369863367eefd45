//! Property-based tests of the wire codec's size derivation and framing.
//!
//! The event engine charges traffic against a bandwidth model using
//! `WireFrame::encoded_len` instead of encoding real buffers, so the
//! central invariant pinned here is `encoded_len() == encode().len()`
//! over arbitrary frames of every plane — one generic property, plain,
//! behind the lone mux prefix and inside a bundle — plus decode
//! round-trips, truncation and re-tagging for everything generated.
//! The bundle properties pin what the mux runtime actually puts on the
//! wire: many frames per datagram, length-delimited, where a corrupt
//! frame or a truncated tail never takes its neighbours along. The
//! plain tests at the end pin the bytes themselves (golden frames) and
//! sweep damaged input through every decoder (the fuzz loop).

use epidemic_aggregation::value::InstanceMap;
use epidemic_aggregation::{InstanceState, Message};
use epidemic_common::rng::Xoshiro256;
use epidemic_common::NodeId;
use epidemic_net::codec::{
    bundle_frame_len, decode_bundle, decode_datagram, decode_message, decode_mux_datagram,
    decode_rpc_response, encode_message, encode_mux_catalog_frame, encode_mux_directory_frame,
    encode_mux_frame, encode_mux_query_frame, encode_rpc_request, encode_rpc_response, encoded_len,
    push_bundle_frame, DecodeError, WireFrame, WirePayload, BUNDLE_BUDGET, BUNDLE_VERSION,
    MUX_WIRE_VERSION, WIRE_VERSION,
};
use epidemic_net::directory::{DirectoryPayload, IntroduceEntry, ViewPayload};
use epidemic_newscast::Descriptor;
use epidemic_query::{
    kind_from_code, AdmissionConfig, CatalogEntry, QueryDescriptor, RpcRequest, RpcResponse,
    RpcStatus,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::{IpAddr, SocketAddr};

/// Raw generated material for one query descriptor: `(name, kind code,
/// gamma, cycle length, timeout fraction, ttl, default, rate, burst)`.
type DescriptorRaw = (String, u8, u32, u64, f64, u64, f64, u32, u32);

/// Builds a wire-valid descriptor from generated raw material.
fn query_descriptor(raw: DescriptorRaw) -> QueryDescriptor {
    let (name, kind_code, gamma, cycle, timeout_frac, ttl, default, rate, burst) = raw;
    let kind = kind_from_code(kind_code % 8).expect("kind code in range");
    let timeout = 1 + (timeout_frac * (cycle - 2) as f64) as u64;
    QueryDescriptor {
        name,
        kind,
        gamma,
        cycle_length: cycle,
        timeout,
        ttl_ms: ttl,
        default_value: default,
        admission: AdmissionConfig {
            rate_per_sec: rate,
            burst,
        },
    }
}

/// Raw generated material for one catalog entry: `(descriptor, version,
/// deleted, installed at, expires at)`.
type EntryRaw = (DescriptorRaw, u32, bool, u64, u64);

/// Builds catalog entries from generated raw material.
fn catalog_entries(raw: Vec<EntryRaw>) -> Vec<CatalogEntry> {
    raw.into_iter()
        .map(
            |(d, version, deleted, installed_at, expires_at)| CatalogEntry {
                descriptor: query_descriptor(d),
                version,
                deleted,
                installed_at,
                expires_at,
            },
        )
        .collect()
}

/// Query names: 1–19 chars from a wire-safe alphabet (stays well under
/// the u8 length prefix).
fn query_name() -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.";
    prop::collection::vec(0u8..ALPHABET.len() as u8, 1..20).prop_map(|idx| {
        idx.into_iter()
            .map(|i| ALPHABET[i as usize] as char)
            .collect()
    })
}

/// Strategy for one descriptor's raw material (floats stay finite and
/// bounded so decoded equality is exact).
fn descriptor_raw() -> impl Strategy<Value = DescriptorRaw> {
    (
        (query_name(), any::<u8>(), 1u32..1_000),
        (2u64..100_000, 0.0f64..1.0, 0u64..10_000_000),
        (-1e9f64..1e9, any::<u32>(), any::<u32>()),
    )
        .prop_map(
            |((name, kind, gamma), (cycle, frac, ttl), (default, rate, burst))| {
                (name, kind, gamma, cycle, frac, ttl, default, rate, burst)
            },
        )
}

/// Raw generated material for one instance state: `(is_map, scalar,
/// map_entries)`.
type StateRaw = (bool, f64, Vec<(u64, f64)>);

/// Builds one of the four message bodies from generated raw material.
fn message(from: u64, epoch: u64, tag: u8, states_raw: Vec<StateRaw>) -> Message {
    let states: Vec<InstanceState> = states_raw
        .into_iter()
        .map(|(is_map, scalar, entries)| {
            if is_map {
                InstanceState::Map(InstanceMap::from_entries(entries))
            } else {
                InstanceState::Scalar(scalar)
            }
        })
        .collect();
    let from = NodeId::new(from);
    match tag % 4 {
        0 => Message::request(from, epoch, states),
        1 => Message::reply(from, epoch, states),
        2 => Message::epoch_notice(from, epoch),
        _ => Message::refuse(from, epoch),
    }
}

/// An optional socket address from generated raw material: kind 0 none,
/// 1 IPv4, anything else IPv6.
fn socket_addr(kind: u8, ip: u32, port: u32) -> Option<SocketAddr> {
    match kind {
        0 => None,
        1 => Some(SocketAddr::new(IpAddr::from(ip.to_le_bytes()), port as u16)),
        _ => {
            let mut octets = [0u8; 16];
            octets[..4].copy_from_slice(&ip.to_le_bytes());
            octets[12..].copy_from_slice(&port.to_le_bytes());
            Some(SocketAddr::new(IpAddr::from(octets), (port >> 16) as u16))
        }
    }
}

/// One frame of any plane a mux socket carries, as the decoder reports
/// it: the four aggregation bodies, full and delta views, join,
/// introduce (with and without addresses), catalog pushes and named-query
/// frames.
fn wire_payload() -> impl Strategy<Value = WirePayload> {
    (
        (0u8..6, any::<u64>(), any::<u64>(), any::<u8>()),
        prop::collection::vec(
            (
                any::<bool>(),
                -1e6f64..1e6,
                prop::collection::vec((any::<u64>(), 0.0f64..1.0), 0..6),
            ),
            0..4,
        ),
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..24),
        // (node, addr kind, ip material, port material)
        prop::collection::vec((any::<u32>(), 0u8..3, any::<u32>(), any::<u32>()), 0..6),
        query_name(),
        prop::collection::vec(
            (
                descriptor_raw(),
                any::<u32>(),
                any::<bool>(),
                any::<u64>(),
                any::<u64>(),
            ),
            0..4,
        ),
    )
        .prop_map(
            |((plane, from, epoch, tag), states, descs, addrs, name, entries)| {
                let msg = message(from, epoch, tag, states);
                let descriptors: Vec<Descriptor> =
                    descs.iter().map(|&(n, t)| Descriptor::new(n, t)).collect();
                match plane {
                    0 => WirePayload::Aggregation(msg),
                    1 => WirePayload::Directory(DirectoryPayload::View {
                        view: ViewPayload {
                            from: from as u32,
                            descriptors,
                        },
                        reply: tag & 1 == 1,
                        delta: tag & 2 == 2,
                    }),
                    2 => WirePayload::Catalog {
                        from: NodeId::new(from),
                        entries: catalog_entries(entries),
                    },
                    3 => WirePayload::Query {
                        query: name,
                        message: msg,
                    },
                    4 => WirePayload::Directory(DirectoryPayload::Join { from: from as u32 }),
                    _ => WirePayload::Directory(DirectoryPayload::Introduce {
                        from: from as u32,
                        peers: descs
                            .iter()
                            .zip(addrs.iter().cycle())
                            .map(
                                |(&(node, timestamp), &(_, kind, ip, port))| IntroduceEntry {
                                    node,
                                    timestamp,
                                    addr: socket_addr(kind, ip, port),
                                },
                            )
                            .collect(),
                    }),
                }
            },
        )
}

/// The borrowed encode-side view of a generated payload.
fn frame_of(payload: &WirePayload) -> WireFrame<'_> {
    match payload {
        WirePayload::Aggregation(msg) => WireFrame::Aggregation(msg),
        WirePayload::Directory(payload) => WireFrame::Directory(payload),
        WirePayload::Catalog { from, entries } => WireFrame::Catalog(*from, entries),
        WirePayload::Query { query, message } => WireFrame::Query(query, message),
        WirePayload::Rpc(_) | WirePayload::RpcReply(_) => unreachable!("not generated"),
    }
}

/// Packs `frames` into one bundle; also returns where each frame ends.
fn bundle_of(frames: &[(u64, WirePayload)]) -> (Vec<u8>, Vec<usize>) {
    let mut bundle = Vec::new();
    let mut ends = Vec::new();
    for (to, payload) in frames {
        push_bundle_frame(&mut bundle, NodeId::new(*to), &frame_of(payload));
        ends.push(bundle.len());
    }
    (bundle, ends)
}

/// What walking an undamaged bundle of `frames` yields.
fn expected(frames: &[(u64, WirePayload)]) -> Vec<Result<(NodeId, WirePayload), DecodeError>> {
    frames
        .iter()
        .map(|(to, payload)| Ok((NodeId::new(*to), payload.clone())))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Everything a frame of any plane owes its callers, in one place.
    #[test]
    fn every_frame_sizes_round_trips_and_rejects_damage(
        to in any::<u64>(),
        payload in wire_payload(),
        bump in 1u8..200,
    ) {
        let to = NodeId::new(to);
        let frame = frame_of(&payload);
        let encoded = frame.encode();
        // The size is the encoder on a counting sink: never a different number.
        prop_assert_eq!(frame.encoded_len(), encoded.len(), "encoded_len for {:?}", payload);
        let mut appended = vec![0xAA];
        frame.encode_into(&mut appended);
        prop_assert_eq!(&appended[1..], &encoded[..], "encode_into appends");
        prop_assert_eq!(decode_datagram(&encoded), Ok(payload.clone()));
        // The plain-`Message` entry points are the same layout.
        if let WirePayload::Aggregation(msg) = &payload {
            prop_assert_eq!(encoded_len(msg), encoded.len());
            prop_assert_eq!(&encode_message(msg), &encoded);
            prop_assert_eq!(decode_message(&encoded), Ok(msg.clone()));
        }
        // Every strict prefix runs out of input somewhere, and says so.
        for cut in 0..encoded.len() {
            prop_assert_eq!(
                decode_datagram(&encoded[..cut]),
                Err(DecodeError::Truncated),
                "prefix of length {} of {:?}", cut, payload
            );
        }
        // A foreign wire version is rejected before any payload parsing…
        let mut damaged = encoded.clone();
        damaged[0] = WIRE_VERSION.wrapping_add(bump);
        prop_assert_eq!(decode_datagram(&damaged), Err(DecodeError::BadVersion(damaged[0])));
        // …and under any other tag the body is parsed as that tag's
        // layout: whatever comes out, it is not this payload.
        damaged[0] = WIRE_VERSION;
        for tag in (0..=15).filter(|&tag| tag != encoded[1]) {
            damaged[1] = tag;
            prop_assert!(decode_datagram(&damaged) != Ok(payload.clone()), "re-tagged {}", tag);
        }
        // Behind the lone mux prefix: 9 bytes in front, routed by vnode.
        let lone = match &payload {
            WirePayload::Aggregation(msg) => encode_mux_frame(to, msg),
            WirePayload::Directory(directory) => encode_mux_directory_frame(to, directory),
            WirePayload::Catalog { from, entries } => encode_mux_catalog_frame(to, *from, entries),
            WirePayload::Query { query, message } => encode_mux_query_frame(to, query, message),
            WirePayload::Rpc(_) | WirePayload::RpcReply(_) => unreachable!("not generated"),
        };
        prop_assert_eq!(lone.len(), 1 + 8 + encoded.len());
        prop_assert_eq!(&lone[9..], &encoded[..]);
        prop_assert_eq!(decode_mux_datagram(&lone), Ok((to, payload.clone())));
        // Inside a bundle: header byte, then the len twin's worth of frame.
        let mut bundle = Vec::new();
        push_bundle_frame(&mut bundle, to, &frame);
        prop_assert_eq!(bundle.len(), 1 + bundle_frame_len(&frame));
        let walked: Vec<_> = decode_bundle(&bundle).expect("bundle").collect();
        prop_assert_eq!(walked, vec![Ok((to, payload))]);
    }

    #[test]
    fn rpc_frames_round_trip_and_size(
        id in any::<u64>(),
        op in 0u8..4,
        name in query_name(),
        value in -1e9f64..1e9,
        descriptor in descriptor_raw(),
        status_code in 0u8..6,
        epoch in any::<u64>(),
    ) {
        let request = match op {
            0 => RpcRequest::Install { id, descriptor: query_descriptor(descriptor) },
            1 => RpcRequest::Remove { id, name },
            2 => RpcRequest::Submit { id, name, value },
            _ => RpcRequest::Read { id, name },
        };
        let encoded = encode_rpc_request(&request);
        for cut in 0..encoded.len() {
            prop_assert_eq!(decode_datagram(&encoded[..cut]), Err(DecodeError::Truncated));
        }
        prop_assert_eq!(decode_datagram(&encoded), Ok(WirePayload::Rpc(request)));
        // Responses are fixed-size frames:
        // version + tag + id + status + estimate + epoch.
        let response = RpcResponse {
            id,
            status: RpcStatus::from_code(status_code).expect("status code in range"),
            estimate: value,
            epoch,
        };
        let encoded = encode_rpc_response(&response);
        prop_assert_eq!(encoded.len(), 1 + 1 + 8 + 1 + 8 + 8);
        prop_assert_eq!(decode_rpc_response(&encoded), Ok(response.clone()));
        prop_assert_eq!(decode_datagram(&encoded), Ok(WirePayload::RpcReply(response)));
    }

    #[test]
    fn query_plane_frames_reject_foreign_versions_and_tags(
        from in any::<u64>(),
        bump in 1u8..200,
        raw in prop::collection::vec(
            (descriptor_raw(), any::<u32>(), any::<bool>(), any::<u64>(), any::<u64>()),
            0..3,
        ),
    ) {
        let payload = WirePayload::Catalog { from: NodeId::new(from), entries: catalog_entries(raw) };
        let mut encoded = frame_of(&payload).encode();
        // A foreign wire version is rejected before any payload parsing…
        let foreign = encoded[0].wrapping_add(bump);
        encoded[0] = foreign;
        prop_assert_eq!(decode_datagram(&encoded), Err(DecodeError::BadVersion(foreign)));
        encoded[0] = WIRE_VERSION;
        // …and a catalog body re-tagged as a query frame is parsed as one:
        // it fails however it fails, but never panics and never yields
        // the catalog back.
        encoded[1] = 12;
        prop_assert!(decode_datagram(&encoded) != Ok(payload));
    }

    #[test]
    fn bundle_len_twin_matches_and_mixed_planes_round_trip(
        frames in prop::collection::vec((any::<u64>(), wire_payload()), 1..12),
    ) {
        let (bundle, ends) = bundle_of(&frames);
        let mut start = 1; // the header byte
        for ((_, payload), end) in frames.iter().zip(&ends) {
            let frame = frame_of(payload);
            prop_assert_eq!(bundle_frame_len(&frame), end - start, "len twin for {:?}", payload);
            // The length prefix replaces the lone frame's version byte.
            if frame.encoded_len() + 8 < 128 {
                prop_assert_eq!(bundle_frame_len(&frame), 1 + 8 + frame.encoded_len());
            }
            start = *end;
        }
        let decoded: Vec<_> = decode_bundle(&bundle).expect("bundle").collect();
        prop_assert_eq!(decoded, expected(&frames));
    }

    #[test]
    fn truncated_bundle_yields_exactly_the_complete_frame_prefix(
        frames in prop::collection::vec((any::<u64>(), wire_payload()), 1..6),
    ) {
        let (bundle, ends) = bundle_of(&frames);
        prop_assert_eq!(decode_bundle(&[]).err(), Some(DecodeError::Truncated));
        for cut in 1..bundle.len() {
            let walked: Vec<_> = decode_bundle(&bundle[..cut]).expect("header").collect();
            let complete = ends.iter().filter(|&&end| end <= cut).count();
            // Whole frames decode; a cut-off tail is one error, then the end.
            prop_assert_eq!(&walked[..complete], &expected(&frames)[..complete], "cut at {}", cut);
            let tail: Vec<_> = walked[complete..].to_vec();
            if cut == 1 || ends.contains(&cut) {
                prop_assert!(tail.is_empty(), "cut at {}: {:?}", cut, tail);
            } else {
                prop_assert_eq!(tail, vec![Err(DecodeError::Truncated)], "cut at {}", cut);
            }
        }
    }

    #[test]
    fn corrupt_bundle_frame_does_not_lose_its_neighbours(
        frames in prop::collection::vec((any::<u64>(), wire_payload()), 2..6),
        victim in any::<u32>(),
    ) {
        let (mut bundle, ends) = bundle_of(&frames);
        let victim = victim as usize % frames.len();
        // The victim's message starts with its wire-version byte.
        let body = frame_of(&frames[victim].1).encoded_len();
        bundle[ends[victim] - body] = 0xEE;
        let walked: Vec<_> = decode_bundle(&bundle).expect("header").collect();
        let mut want = expected(&frames);
        want[victim] = Err(DecodeError::BadVersion(0xEE));
        prop_assert_eq!(walked, want);
    }

    #[test]
    fn bundle_rejects_foreign_headers_and_overlong_lengths(
        to in any::<u64>(),
        payload in wire_payload(),
        header in any::<u8>(),
        tail in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let frames = vec![(to, payload)];
        let (mut bundle, _) = bundle_of(&frames);
        // Neither a lone mux frame, nor a plain message of any version
        // ever emitted, nor anything else that is not a bundle gets in.
        for foreign in [header, MUX_WIRE_VERSION, WIRE_VERSION, 1, 3] {
            if foreign != BUNDLE_VERSION {
                let mut bad = bundle.clone();
                bad[0] = foreign;
                prop_assert_eq!(decode_bundle(&bad).err(), Some(DecodeError::BadVersion(foreign)));
            }
        }
        // A fourth length byte loses the framing: reported once, the tail
        // (whatever it holds) is dropped, the frame before it survives.
        bundle.extend_from_slice(&[0x80, 0x80, 0x80]);
        bundle.extend_from_slice(&tail);
        let walked: Vec<_> = decode_bundle(&bundle).expect("header").collect();
        let mut want = expected(&frames);
        want.push(Err(DecodeError::BadLength));
        prop_assert_eq!(walked, want);
    }
}

/// The budget is the documented one: a 1500-byte MTU less IPv6 and UDP
/// headers — bundles never IP-fragment.
#[test]
fn bundle_budget_fits_an_ethernet_mtu() {
    assert_eq!(BUNDLE_BUDGET, 1500 - 40 - 8);
}
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Plain encoding of any payload, client RPC included.
fn encode(payload: &WirePayload) -> Vec<u8> {
    match payload {
        WirePayload::Rpc(request) => encode_rpc_request(request),
        WirePayload::RpcReply(response) => encode_rpc_response(response),
        framed => frame_of(framed).encode(),
    }
}

/// The bytes tag 10 carried while it was live: a piggybacked membership
/// trailer (sender 12, two descriptors, two addresses) in front of a
/// refuse. The tag is retired, not reused, so these bytes must decode as
/// an unknown tag — a lost message, not a frame.
const RETIRED_TAG_10: &str = "040a0c000000020100000009000000ffffffff000000000201000000040a010203591b020000000620010db8000000000000000000000009ffff040304000000000000000700000000000000";

/// `hex`'s inverse.
fn unhex(hex: &str) -> Vec<u8> {
    let digit = |at| u8::from_str_radix(&hex[at..at + 2], 16).unwrap();
    (0..hex.len()).step_by(2).map(digit).collect()
}

/// One fixed frame per live body tag 0–14 (the four RPC ops each; tag 10
/// is retired, see [`RETIRED_TAG_10`]) next to its pinned bytes.
fn golden_frames() -> Vec<(WirePayload, &'static str)> {
    let v4: SocketAddr = "10.1.2.3:7001".parse().unwrap();
    let v6: SocketAddr = "[2001:db8::9]:65535".parse().unwrap();
    let descriptors = vec![Descriptor::new(1, 9), Descriptor::new(u32::MAX, 0)];
    let request = Message::request(
        NodeId::new(7),
        42,
        vec![
            InstanceState::Scalar(3.25),
            InstanceState::Map(InstanceMap::from_entries([(3, 0.125), (900, 1.0)])),
        ],
    );
    let view = |reply, delta| {
        WirePayload::Directory(DirectoryPayload::View {
            view: ViewPayload {
                from: 0xDEAD_BEEF,
                descriptors: descriptors.clone(),
            },
            reply,
            delta,
        })
    };
    let descriptor = QueryDescriptor {
        name: "load.p99".to_string(),
        kind: kind_from_code(6).unwrap(),
        gamma: 12,
        cycle_length: 750,
        timeout: 150,
        ttl_ms: 90_000,
        default_value: -2.5,
        admission: AdmissionConfig::limited(100, 25),
    };
    let response = RpcResponse {
        id: 9,
        status: RpcStatus::from_code(2).unwrap(),
        estimate: 1024.5,
        epoch: 31,
    };
    vec![
        (WirePayload::Aggregation(request.clone()), "040007000000000000002a000000000000000200000000000000000a400102000300000000000000000000000000c03f8403000000000000000000000000f03f"),
        (
            WirePayload::Aggregation(Message::reply(
                NodeId::new(u64::MAX),
                u64::MAX,
                vec![InstanceState::Scalar(-1.5)],
            )),
            "0401ffffffffffffffffffffffffffffffff010000000000000000f8bf",
        ),
        (WirePayload::Aggregation(Message::epoch_notice(NodeId::new(1), 2)), "040201000000000000000200000000000000"),
        (WirePayload::Aggregation(Message::refuse(NodeId::new(3), 4)), "040303000000000000000400000000000000"),
        (view(false, false), "0404efbeadde02000100000009000000ffffffff00000000"),
        (view(true, false), "0405efbeadde02000100000009000000ffffffff00000000"),
        (WirePayload::Directory(DirectoryPayload::Join { from: 0xBEEF }), "0406efbe0000"),
        (
            WirePayload::Directory(DirectoryPayload::Introduce {
                from: 7,
                peers: vec![
                    IntroduceEntry { node: 1, timestamp: 99, addr: None },
                    IntroduceEntry { node: 2, timestamp: 0, addr: Some(v4) },
                    IntroduceEntry { node: u32::MAX, timestamp: u32::MAX, addr: Some(v6) },
                ],
            }),
            "04070700000003000100000063000000000200000000000000040a010203591bffffffffffffffff0620010db8000000000000000000000009ffff",
        ),
        (view(false, true), "0408efbeadde02000100000009000000ffffffff00000000"),
        (view(true, true), "0409efbeadde02000100000009000000ffffffff00000000"),
        (
            WirePayload::Catalog {
                from: NodeId::new(42),
                entries: vec![
                    CatalogEntry {
                        descriptor: descriptor.clone(),
                        version: 3,
                        deleted: false,
                        installed_at: 12_345,
                        expires_at: 102_345,
                    },
                    CatalogEntry {
                        descriptor: QueryDescriptor::new("gone", kind_from_code(0).unwrap()),
                        version: 9,
                        deleted: true,
                        installed_at: 0,
                        expires_at: 0,
                    },
                ],
            },
            "040b2a000000000000000200086c6f61642e703939060c000000ee020000000000009600000000000000905f01000000000000000000000004c0640000001900000003000000003930000000000000c98f01000000000004676f6e65000a000000e803000000000000c800000000000000000000000000000000000000000000000000000000000000090000000100000000000000000000000000000000",
        ),
        (WirePayload::Query { query: "load.p99".to_string(), message: request.clone() }, "040c086c6f61642e703939040007000000000000002a000000000000000200000000000000000a400102000300000000000000000000000000c03f8403000000000000000000000000f03f"),
        (WirePayload::Rpc(RpcRequest::Install { id: 1, descriptor }), "040d010000000000000000086c6f61642e703939060c000000ee020000000000009600000000000000905f01000000000000000000000004c06400000019000000"),
        (WirePayload::Rpc(RpcRequest::Remove { id: u64::MAX, name: "q".to_string() }), "040dffffffffffffffff010171"),
        (WirePayload::Rpc(RpcRequest::Submit { id: 3, name: "q".to_string(), value: -0.125 }), "040d0300000000000000020171000000000000c0bf"),
        (WirePayload::Rpc(RpcRequest::Read { id: 4, name: String::new() }), "040d04000000000000000300"),
        (WirePayload::RpcReply(response), "040e09000000000000000200000000000290401f00000000000000"),
        (WirePayload::Aggregation(Message::request(NodeId::new(2), 1, vec![])), "0400020000000000000001000000000000000000"),
    ]
}

/// A slip made symmetrically in an encoder and its decoder passes every
/// round-trip property above and fails here. Re-pin only together with a
/// `WIRE_VERSION` bump.
#[test]
fn golden_bytes_pin_every_tag() {
    let golden = golden_frames();
    assert_eq!(
        golden
            .iter()
            .map(|(_, bytes)| &bytes[2..4])
            .collect::<BTreeSet<_>>()
            .len(),
        14,
        "one frame per live tag"
    );
    for (payload, want) in &golden {
        let encoded = encode(payload);
        assert_eq!(hex(&encoded), *want, "encoding of {payload:?}");
        assert_eq!(decode_datagram(&encoded).as_ref(), Ok(payload));
    }
    assert_eq!(
        decode_datagram(&unhex(RETIRED_TAG_10)),
        Err(DecodeError::BadTag(10))
    );
    // A lone mux frame and a bundle of three around the same bodies.
    let WirePayload::Aggregation(request) = &golden[0].0 else {
        unreachable!("tag 0 comes first")
    };
    let lone = encode_mux_frame(NodeId::new(0x0102_0304_0506_0708), request);
    assert_eq!(hex(&lone), "020807060504030201040007000000000000002a000000000000000200000000000000000a400102000300000000000000000000000000c03f8403000000000000000000000000f03f");
    let frames: Vec<(u64, WirePayload)> =
        [(5, &golden[3]), (u64::MAX, &golden[6]), (300, &golden[10])]
            .map(|(to, (payload, _))| (to, payload.clone()))
            .to_vec();
    let (bundle, _) = bundle_of(&frames);
    assert_eq!(hex(&bundle), "b51a05000000000000000403030000000000000004000000000000000effffffffffffffff0406efbe0000a6012c01000000000000040b2a000000000000000200086c6f61642e703939060c000000ee020000000000009600000000000000905f01000000000000000000000004c0640000001900000003000000003930000000000000c98f01000000000004676f6e65000a000000e803000000000000c800000000000000000000000000000000000000000000000000000000000000090000000100000000000000000000000000000000");
    let walked: Vec<_> = decode_bundle(&bundle).expect("bundle").collect();
    assert_eq!(walked, expected(&frames));
}

/// Feeds `input` to every public decoder. Whatever decodes must re-encode
/// into no more bytes than the input held: no count field, name length or
/// nested message conjures data (or a buffer) the datagram did not pay for.
fn decoders_survive(input: &[u8]) {
    let _ = decode_message(input);
    let _ = decode_rpc_response(input);
    if let Ok(payload) = decode_datagram(input) {
        assert!(encode(&payload).len() <= input.len(), "{}", hex(input));
    }
    if let Ok((_, payload)) = decode_mux_datagram(input) {
        assert!(
            1 + 8 + encode(&payload).len() <= input.len(),
            "{}",
            hex(input)
        );
    }
    // Bundles: as received, and behind a valid header so the frame walk
    // itself sees the damage.
    let behind_header = [&[BUNDLE_VERSION][..], input].concat();
    for bundle in [input, &behind_header] {
        if let Ok(frames) = decode_bundle(bundle) {
            let held: usize = frames
                .flatten()
                .map(|(_, payload)| 1 + 8 + encode(&payload).len())
                .sum();
            // The header byte is on top of what the frames hold.
            assert!(held < bundle.len(), "{}", hex(bundle));
        }
    }
}

/// The standing fuzz loop: every wire image of every golden frame, damaged
/// every way a count, a length, a tag, a cut or a splice can, plus seeded random
/// bytes. Exhaustive sweeps, one seed, no wall clock.
#[test]
fn fuzz_damaged_input_never_panics_and_never_amplifies() {
    let golden = golden_frames();
    let framed: Vec<(u64, WirePayload)> = (0u64..)
        .zip(&golden)
        .filter(|(_, (payload, _))| {
            !matches!(payload, WirePayload::Rpc(_) | WirePayload::RpcReply(_))
        })
        .map(|(to, (payload, _))| (to, payload.clone()))
        .collect();
    // (image, offset of the body's tag byte): each frame plain, behind
    // the lone mux prefix and alone in a bundle; then all in one bundle.
    let mut images: Vec<(Vec<u8>, Option<usize>)> = Vec::new();
    for (payload, _) in &golden {
        let plain = encode(payload);
        let lone = [&[MUX_WIRE_VERSION][..], &7u64.to_le_bytes(), &plain].concat();
        images.extend([(lone, Some(10)), (plain, Some(1))]);
    }
    for frame in &framed {
        let (bundle, _) = bundle_of(std::slice::from_ref(frame));
        let tag_at = bundle.len() - frame_of(&frame.1).encoded_len() + 1;
        images.push((bundle, Some(tag_at)));
    }
    images.push((bundle_of(&framed).0, None));
    // The retired tag's bytes too: damage turns them into every other tag.
    images.push((unhex(RETIRED_TAG_10), Some(1)));

    let mut inputs = 0usize;
    let mut feed = |input: &[u8]| {
        decoders_survive(input);
        inputs += 1;
    };
    for (image, tag_at) in &images {
        for cut in 0..image.len() {
            feed(&image[..cut]);
        }
        for at in 0..image.len() {
            let mut damaged = image.clone();
            for bit in 0..8 {
                damaged[at] = image[at] ^ (1 << bit);
                feed(&damaged);
            }
            // Count-field inflation, wherever a count lives: u8, then u16.
            damaged[at] = 0xFF;
            feed(&damaged);
            if let Some(next) = damaged.get_mut(at + 1) {
                *next = 0xFF;
                feed(&damaged);
            }
            // A field spliced over its neighbour one stride on: the
            // second map entry now names the first one's leader.
            if at + 24 <= image.len() {
                let mut spliced = image.clone();
                spliced.copy_within(at..at + 8, at + 16);
                feed(&spliced);
            }
        }
        for tag in 0..=15 {
            if let Some(at) = *tag_at {
                let mut swapped = image.clone();
                swapped[at] = tag;
                feed(&swapped);
            }
        }
    }
    let mut rng = Xoshiro256::seed_from_u64(0xF022);
    for _ in 0..4_000 {
        let mut noise = vec![0u8; rng.index(97)];
        rng.fill_bytes(&mut noise);
        feed(&noise);
        // A few random overwrites of a random image.
        let mut damaged = images[rng.index(images.len())].0.clone();
        for _ in 0..=rng.index(4) {
            let at = rng.index(damaged.len());
            damaged[at] = rng.next_u64() as u8;
        }
        feed(&damaged);
    }
    assert!(inputs >= 20_000, "only {inputs} inputs");
}
