//! Property-based tests of the wire codec's size arithmetic and framing.
//!
//! The event engine charges view traffic against a bandwidth model using
//! the `*_len` helpers instead of encoding real buffers, so the central
//! invariant pinned here is `encoded_len() == encode().len()` over
//! arbitrary messages — aggregation bodies, view exchanges, and mux
//! frames alike — plus decode round-trips for everything generated.
//! The bundle properties at the end pin what the mux runtime actually
//! puts on the wire: many frames per datagram, length-delimited, where a
//! corrupt frame or a truncated tail never takes its neighbours along.

use epidemic_aggregation::value::InstanceMap;
use epidemic_aggregation::{InstanceState, Message};
use epidemic_common::NodeId;
use epidemic_net::codec::{
    bundle_frame_len, decode_bundle, decode_datagram, decode_directory_message, decode_message,
    decode_mux_datagram, decode_piggyback_message, directory_encoded_len, encode_message,
    encode_mux_directory_frame, encode_mux_frame, encoded_len, piggyback_message_len,
    piggyback_trailer_len, push_bundle_frame, view_message_len, DecodeError, WireFrame,
    WirePayload, BUNDLE_BUDGET, BUNDLE_VERSION, MUX_WIRE_VERSION, WIRE_VERSION,
};
use epidemic_net::directory::{DirectoryPayload, IntroduceEntry, Piggyback};
use epidemic_newscast::node::ViewPayload;
use epidemic_newscast::Descriptor;
use epidemic_query::{
    kind_from_code, AdmissionConfig, CatalogEntry, QueryDescriptor, RpcRequest, RpcResponse,
    RpcStatus,
};
use proptest::prelude::*;
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

/// One frame of any plane a mux socket carries, as the decoder reports it.
fn wire_payload() -> impl Strategy<Value = WirePayload> {
    (
        (0u8..5, any::<u64>(), any::<u64>(), any::<u8>()),
        prop::collection::vec(
            (
                any::<bool>(),
                -1e6f64..1e6,
                prop::collection::vec((any::<u64>(), 0.0f64..1.0), 0..4),
            ),
            0..3,
        ),
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..6),
        query_name(),
        prop::collection::vec(
            (
                descriptor_raw(),
                any::<u32>(),
                any::<bool>(),
                any::<u64>(),
                any::<u64>(),
            ),
            0..3,
        ),
    )
        .prop_map(
            |((plane, from, epoch, tag), states, descs, name, entries)| {
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
                    2 => WirePayload::Piggybacked(
                        msg,
                        Piggyback {
                            from: from as u32,
                            descriptors,
                            addrs: vec![],
                        },
                    ),
                    3 => WirePayload::Catalog {
                        from: NodeId::new(from),
                        entries: catalog_entries(entries),
                    },
                    _ => WirePayload::Query {
                        query: name,
                        message: msg,
                    },
                }
            },
        )
}

/// The borrowed encode-side view of a generated payload.
fn frame_of(payload: &WirePayload) -> WireFrame<'_> {
    match payload {
        WirePayload::Aggregation(msg) => WireFrame::Aggregation(msg),
        WirePayload::Directory(payload) => WireFrame::Directory(payload),
        WirePayload::Piggybacked(msg, pb) => WireFrame::Piggybacked(msg, pb),
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

    #[test]
    fn encoded_len_matches_encode_for_aggregation_messages(
        from in any::<u64>(),
        epoch in any::<u64>(),
        tag in 0u8..4,
        states_raw in prop::collection::vec(
            (any::<bool>(), -1e12f64..1e12, prop::collection::vec((any::<u64>(), 0.0f64..1.0), 0..8)),
            0..5,
        ),
    ) {
        let msg = message(from, epoch, tag, states_raw);
        let encoded = encode_message(&msg);
        prop_assert_eq!(encoded_len(&msg), encoded.len(), "encoded_len mismatch for {:?}", msg);
        let decoded = decode_message(&encoded).expect("round trip");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn encoded_len_matches_encode_for_view_messages(
        from in any::<u32>(),
        reply in any::<bool>(),
        delta in any::<bool>(),
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 0..40),
    ) {
        // Full and delta view messages share one layout; the tag alone
        // (4/5 vs 8/9) carries the full-vs-delta bit.
        let payload = DirectoryPayload::View {
            view: ViewPayload {
                from,
                descriptors: raw.iter().map(|&(n, t)| Descriptor::new(n, t)).collect(),
            },
            reply,
            delta,
        };
        let encoded = WireFrame::Directory(&payload).encode();
        prop_assert_eq!(view_message_len(raw.len()), encoded.len());
        prop_assert_eq!(directory_encoded_len(&payload), encoded.len());
        prop_assert_eq!(encoded[1], [[4, 5], [8, 9]][usize::from(delta)][usize::from(reply)]);
        let decoded = decode_directory_message(&encoded).expect("round trip");
        prop_assert_eq!(&decoded, &payload);
        // The plane router agrees with the dedicated decoder.
        prop_assert_eq!(decode_datagram(&encoded), Ok(WirePayload::Directory(payload)));
    }

    #[test]
    fn piggybacked_message_round_trips_and_sizes_match(
        from in any::<u64>(),
        epoch in any::<u64>(),
        tag in 0u8..4,
        states_raw in prop::collection::vec(
            (any::<bool>(), -1e6f64..1e6, prop::collection::vec((any::<u64>(), 0.0f64..1.0), 0..4)),
            0..3,
        ),
        pb_from in any::<u32>(),
        descs in prop::collection::vec((any::<u32>(), any::<u32>()), 0..8),
        addrs in prop::collection::vec(
            // (node, v6?, ip material, port material)
            (any::<u32>(), any::<bool>(), any::<u32>(), any::<u32>()),
            0..6,
        ),
        mux_to in any::<u64>(),
    ) {
        let msg = message(from, epoch, tag, states_raw);
        let piggyback = Piggyback {
            from: pb_from,
            descriptors: descs.iter().map(|&(n, t)| Descriptor::new(n, t)).collect(),
            addrs: addrs
                .iter()
                .map(|&(node, v6, ip, port)| {
                    let port = port as u16;
                    let addr = if v6 {
                        let mut octets = [0u8; 16];
                        octets[..4].copy_from_slice(&ip.to_le_bytes());
                        SocketAddr::new(IpAddr::from(octets), port)
                    } else {
                        SocketAddr::new(IpAddr::from(ip.to_le_bytes()), port)
                    };
                    (node, addr)
                })
                .collect(),
        };
        let encoded = WireFrame::Piggybacked(&msg, &piggyback).encode();
        prop_assert_eq!(piggyback_message_len(&msg, &piggyback), encoded.len());
        // The trailer is what the membership ledger gets charged; it must
        // never exceed the datagram it rides on.
        prop_assert!(piggyback_trailer_len(&piggyback) < encoded.len());
        let (dmsg, dpb) = decode_piggyback_message(&encoded).expect("round trip");
        prop_assert_eq!(&dmsg, &msg);
        prop_assert_eq!(&dpb, &piggyback);
        // The plane router agrees with the dedicated decoder.
        prop_assert_eq!(
            decode_datagram(&encoded).expect("datagram"),
            epidemic_net::codec::WirePayload::Piggybacked(msg.clone(), piggyback.clone())
        );
        // And a bundle routes it by destination vnode.
        let mut bundle = Vec::new();
        let frame = WireFrame::Piggybacked(&msg, &piggyback);
        push_bundle_frame(&mut bundle, NodeId::new(mux_to), &frame);
        prop_assert_eq!(1 + bundle_frame_len(&frame), bundle.len());
        let decoded: Vec<_> = decode_bundle(&bundle).expect("bundle").collect();
        prop_assert_eq!(
            decoded,
            vec![Ok((NodeId::new(mux_to), WirePayload::Piggybacked(msg, piggyback)))]
        );
    }

    #[test]
    fn mux_frame_len_matches_and_routes(
        to in any::<u64>(),
        from in any::<u64>(),
        epoch in any::<u64>(),
        tag in 0u8..4,
        states_raw in prop::collection::vec(
            (any::<bool>(), -1e6f64..1e6, prop::collection::vec((any::<u64>(), 0.0f64..1.0), 0..4)),
            0..3,
        ),
    ) {
        let msg = message(from, epoch, tag, states_raw);
        let frame = encode_mux_frame(NodeId::new(to), &msg);
        prop_assert_eq!(1 + 8 + encoded_len(&msg), frame.len());
        let (dst, decoded) = decode_mux_datagram(&frame).expect("round trip");
        prop_assert_eq!(dst, NodeId::new(to));
        prop_assert_eq!(decoded, WirePayload::Aggregation(msg));
    }

    #[test]
    fn encoded_len_matches_encode_for_join_and_introduce(
        from in any::<u32>(),
        is_join in any::<bool>(),
        raw in prop::collection::vec(
            // (node, timestamp, addr kind, ip material, port)
            (any::<u32>(), any::<u32>(), 0u8..3, any::<u32>(), any::<u32>()),
            0..24,
        ),
    ) {
        let payload = if is_join {
            DirectoryPayload::Join { from }
        } else {
            let peers = raw
                .iter()
                .map(|&(node, timestamp, kind, ip, port)| IntroduceEntry {
                    node,
                    timestamp,
                    addr: match kind {
                        0 => None,
                        1 => Some(SocketAddr::new(
                            IpAddr::from(ip.to_le_bytes()),
                            port as u16,
                        )),
                        _ => {
                            let mut octets = [0u8; 16];
                            octets[..4].copy_from_slice(&ip.to_le_bytes());
                            octets[12..].copy_from_slice(&port.to_le_bytes());
                            Some(SocketAddr::new(IpAddr::from(octets), (port >> 16) as u16))
                        }
                    },
                })
                .collect();
            DirectoryPayload::Introduce { from, peers }
        };
        let encoded = WireFrame::Directory(&payload).encode();
        prop_assert_eq!(directory_encoded_len(&payload), encoded.len());
        let decoded = decode_directory_message(&encoded).expect("round trip");
        prop_assert_eq!(&decoded, &payload);
        // The plane router agrees with the dedicated decoder.
        prop_assert_eq!(
            decode_datagram(&encoded).expect("datagram"),
            epidemic_net::codec::WirePayload::Directory(payload)
        );
    }

    #[test]
    fn mux_directory_frame_len_matches_and_routes(
        to in any::<u64>(),
        from in any::<u32>(),
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 0..16),
    ) {
        let payload = DirectoryPayload::Introduce {
            from,
            peers: raw
                .iter()
                .map(|&(node, timestamp)| IntroduceEntry { node, timestamp, addr: None })
                .collect(),
        };
        let frame = encode_mux_directory_frame(NodeId::new(to), &payload);
        prop_assert_eq!(1 + 8 + directory_encoded_len(&payload), frame.len());
        let (dst, decoded) = decode_mux_datagram(&frame).expect("round trip");
        prop_assert_eq!(dst, NodeId::new(to));
        prop_assert_eq!(decoded, epidemic_net::codec::WirePayload::Directory(payload));
    }

    #[test]
    fn catalog_message_len_matches_and_round_trips(
        from in any::<u64>(),
        mux_to in any::<u64>(),
        raw in prop::collection::vec(
            (descriptor_raw(), any::<u32>(), any::<bool>(), any::<u64>(), any::<u64>()),
            0..6,
        ),
    ) {
        let entries = catalog_entries(raw);
        let from = NodeId::new(from);
        let encoded = WireFrame::Catalog(from, &entries).encode();
        prop_assert_eq!(epidemic_net::codec::catalog_message_len(&entries), encoded.len());
        let (dfrom, dentries) =
            epidemic_net::codec::decode_catalog_message(&encoded).expect("round trip");
        prop_assert_eq!(dfrom, from);
        prop_assert_eq!(&dentries, &entries);
        // The plane router agrees with the dedicated decoder.
        prop_assert_eq!(
            decode_datagram(&encoded).expect("datagram"),
            epidemic_net::codec::WirePayload::Catalog { from, entries: entries.clone() }
        );
        // The mux framing routes it by destination vnode.
        let frame =
            epidemic_net::codec::encode_mux_catalog_frame(NodeId::new(mux_to), from, &entries);
        prop_assert_eq!(1 + 8 + epidemic_net::codec::catalog_message_len(&entries), frame.len());
        let (dst, decoded) = decode_mux_datagram(&frame).expect("mux round trip");
        prop_assert_eq!(dst, NodeId::new(mux_to));
        prop_assert_eq!(
            decoded,
            epidemic_net::codec::WirePayload::Catalog { from, entries }
        );
    }

    #[test]
    fn query_frame_len_matches_and_routes(
        name in query_name(),
        from in any::<u64>(),
        epoch in any::<u64>(),
        tag in 0u8..4,
        mux_to in any::<u64>(),
        states_raw in prop::collection::vec(
            (any::<bool>(), -1e6f64..1e6, prop::collection::vec((any::<u64>(), 0.0f64..1.0), 0..4)),
            0..3,
        ),
    ) {
        let msg = message(from, epoch, tag, states_raw);
        let encoded = WireFrame::Query(&name, &msg).encode();
        prop_assert_eq!(epidemic_net::codec::query_message_len(&name, &msg), encoded.len());
        let (dname, dmsg) =
            epidemic_net::codec::decode_query_message(&encoded).expect("round trip");
        prop_assert_eq!(&dname, &name);
        prop_assert_eq!(&dmsg, &msg);
        prop_assert_eq!(
            decode_datagram(&encoded).expect("datagram"),
            epidemic_net::codec::WirePayload::Query { query: name.clone(), message: msg.clone() }
        );
        let frame =
            epidemic_net::codec::encode_mux_query_frame(NodeId::new(mux_to), &name, &msg);
        prop_assert_eq!(
            1 + 8 + epidemic_net::codec::query_message_len(&name, &msg),
            frame.len()
        );
        let (dst, decoded) = decode_mux_datagram(&frame).expect("mux round trip");
        prop_assert_eq!(dst, NodeId::new(mux_to));
        prop_assert_eq!(
            decoded,
            epidemic_net::codec::WirePayload::Query { query: name, message: msg }
        );
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
        let encoded = epidemic_net::codec::encode_rpc_request(&request);
        prop_assert_eq!(epidemic_net::codec::rpc_request_len(&request), encoded.len());
        let decoded = epidemic_net::codec::decode_rpc_request(&encoded).expect("round trip");
        prop_assert_eq!(&decoded, &request);
        prop_assert_eq!(
            decode_datagram(&encoded).expect("datagram"),
            epidemic_net::codec::WirePayload::Rpc(request)
        );
        // Responses are fixed-size frames.
        let response = RpcResponse {
            id,
            status: RpcStatus::from_code(status_code).expect("status code in range"),
            estimate: value,
            epoch,
        };
        let encoded = epidemic_net::codec::encode_rpc_response(&response);
        prop_assert_eq!(epidemic_net::codec::rpc_response_len(), encoded.len());
        let decoded = epidemic_net::codec::decode_rpc_response(&encoded).expect("round trip");
        prop_assert_eq!(&decoded, &response);
        prop_assert_eq!(
            decode_datagram(&encoded).expect("datagram"),
            epidemic_net::codec::WirePayload::RpcReply(response)
        );
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
        let entries = catalog_entries(raw);
        let mut encoded = WireFrame::Catalog(NodeId::new(from), &entries).encode();
        // A foreign wire version is rejected before any payload parsing…
        let foreign = encoded[0].wrapping_add(bump);
        encoded[0] = foreign;
        prop_assert_eq!(
            epidemic_net::codec::decode_catalog_message(&encoded),
            Err(epidemic_net::codec::DecodeError::BadVersion(foreign))
        );
        encoded[0] = epidemic_net::codec::WIRE_VERSION;
        // …and a wrong tag is rejected by the dedicated decoders.
        encoded[1] = 12;
        prop_assert_eq!(
            epidemic_net::codec::decode_catalog_message(&encoded),
            Err(epidemic_net::codec::DecodeError::BadTag(12))
        );
    }

    #[test]
    fn truncated_frames_never_panic(
        raw in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Arbitrary bytes: decoders must reject or decode, never panic.
        let _ = decode_message(&raw);
        let _ = decode_directory_message(&raw);
        let _ = decode_piggyback_message(&raw);
        let _ = decode_datagram(&raw);
        let _ = decode_mux_datagram(&raw);
        let _ = epidemic_net::codec::decode_catalog_message(&raw);
        let _ = epidemic_net::codec::decode_query_message(&raw);
        let _ = epidemic_net::codec::decode_rpc_request(&raw);
        let _ = epidemic_net::codec::decode_rpc_response(&raw);
        // Bundles: as received, and behind a valid header so the frame
        // walk itself sees the garbage.
        if let Ok(frames) = decode_bundle(&raw) {
            frames.for_each(drop);
        }
        let mut bundle = vec![BUNDLE_VERSION];
        bundle.extend_from_slice(&raw);
        decode_bundle(&bundle).expect("header is valid").for_each(drop);
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
