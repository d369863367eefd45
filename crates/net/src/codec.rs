//! Binary wire format.
//!
//! One datagram carries one [`Message`]. The format is little-endian,
//! versioned, and deliberately simple:
//!
//! ```text
//! u8  version (=4; 2 is reserved for the mux routing prefix below)
//! u8  body tag: 0 request, 1 reply, 2 epoch notice, 3 refuse,
//!               4 view exchange, 5 view reply, 6 join, 7 introduce,
//!               8 delta view exchange, 9 delta view reply,
//!               11 catalog gossip, 12 query aggregation,
//!               13 rpc request, 14 rpc response
//!               (10 is retired: it decodes as an unknown tag)
//! -- aggregation bodies (tags 0-3) --
//! u64 sender id
//! u64 epoch
//! -- request/reply only --
//! u16 instance count
//!   per instance: u8 state tag (0 scalar, 1 map)
//!     scalar: f64
//!     map:    u16 entry count, then (u64 leader, f64 estimate)*,
//!             leaders strictly increasing
//! -- membership bodies (tags 4-5 full view, 8-9 delta view) --
//! u32 sender id
//! u16 descriptor count, then (u32 node, u32 timestamp)*
//! -- bootstrap bodies (tags 6-7) --
//! u32 sender id
//! -- introduce (tag 7) only --
//! u16 entry count, then per entry:
//!   u32 node, u32 timestamp,
//!   u8 addr kind (0 none, 4 IPv4, 6 IPv6), [ip bytes, u16 port]
//!   (written empty — kind 0; kept for the layout)
//! -- catalog gossip (tag 11) --
//! u64 sender id
//! u16 entry count, then per entry:
//!   descriptor (u8 name len, name bytes, u8 kind code, u32 gamma,
//!               u64 cycle length, u64 timeout, u64 ttl,
//!               f64 default value, u32 admission rate, u32 burst)
//!   u32 entry version, u8 deleted, u64 installed at, u64 expires at
//! -- query aggregation (tag 12) --
//! u8 name len, name bytes
//! ... then one complete aggregation message (version + tag 0-3) ...
//! -- rpc request (tag 13) --
//! u64 request id
//! u8 op (0 install, 1 remove, 2 submit, 3 read)
//!   install: descriptor (as in tag 11)
//!   remove/read: u8 name len, name bytes
//!   submit: u8 name len, name bytes, f64 value
//! -- rpc response (tag 14) --
//! u64 request id, u8 status, f64 estimate, u64 epoch
//! ```
//!
//! Delta view messages (tags 8/9) share the full-view body layout; the
//! tag alone tells the receiver whether the payload is the sender's whole
//! view (replace your record of what it holds) or only the descriptors
//! you were not known to hold (extend it). Peers are routed by node id,
//! so the address slots of tag 7 are written empty and ignored on
//! receipt; they are kept for the layout.
//!
//! The multiplexed runtime ([`crate::mux`]) hosts many protocol nodes
//! behind one socket, so a frame carries a routing prefix in front of the
//! regular message. A lone frame ([`encode_mux_frame`], which tools and
//! the benchmark replay use) is `u8 mux version (=2) · u64 destination
//! virtual-node id · the message bytes`. What the runtime puts on the
//! wire is a **bundle** ([`push_bundle_frame`] / [`decode_bundle`]):
//! every frame a loop has queued for one destination socket, in
//! datagrams of at most [`BUNDLE_BUDGET`] bytes. The length prefix takes
//! the place of the per-frame version byte, so a frame under 128 bytes
//! costs the same 9 bytes of prefix either way:
//!
//! ```text
//! u8  bundle version (=0xB5)
//! then, until the datagram ends, per frame:
//!   varint length of the rest of the frame (LEB128, at most 3 bytes)
//!   u64    destination virtual-node id
//!   ...    the message bytes (version + tag + body) ...
//! ```
//!
//! # One statement per layout and direction
//!
//! Each body is written down twice in this module and nowhere else: a
//! `put_*` encoder, generic over the byte sink, and a `get_*` decoder
//! over a bounds-checked reader. Everything else is derived. A frame's
//! size ([`WireFrame::encoded_len`], [`encoded_len`],
//! [`bundle_frame_len`]) is its encoder run on a sink that only counts,
//! so traffic models charge wire bytes without materializing buffers
//! and a size can never disagree with the bytes.
//! A short datagram is whichever getter runs out of input reporting
//! [`DecodeError::Truncated`]; no getter can panic, and a count field
//! never reserves more memory than the bytes behind it could fill.
//! `version · tag` is parsed in one place — by [`decode_datagram`], and
//! again for the message nested in tag 12 — so errors surface in
//! wire order: `[9]` is `BadVersion(9)` (the per-type decoders this
//! replaced length-checked first and said `Truncated`; nothing depended
//! on which), and a body is parsed as whatever its tag says it is.
//!
//! # Public surface
//!
//! Bodies are encoded through [`WireFrame`] (`encoded_len`,
//! `encode_into`, `encode`) and decoded through [`decode_datagram`];
//! bundles through [`push_bundle_frame`] / [`bundle_frame_len`] /
//! [`decode_bundle`]. [`encode_message`] / [`decode_message`] are the
//! façade's plain-`Message` entry points, [`encode_rpc_request`] /
//! [`decode_rpc_response`] the client's half of the RPC (and
//! [`encode_rpc_response`] the listener's). The five lone-frame functions
//! [`encode_mux_frame`], [`encode_mux_directory_frame`],
//! [`encode_mux_query_frame`], [`encode_mux_catalog_frame`] and
//! [`decode_mux_datagram`] exist for the benchmark replay
//! (`crates/ledger`), which compiles against them; no runtime emits the
//! v2 prefix.

use crate::directory::{DirectoryPayload, IntroduceEntry, ViewPayload};
use epidemic_aggregation::value::InstanceMap;
use epidemic_aggregation::{InstanceState, Message, MessageBody};
use epidemic_common::NodeId;
use epidemic_newscast::Descriptor;
use epidemic_query::descriptor::{kind_code, kind_from_code, AdmissionConfig, MAX_NAME_LEN};
use epidemic_query::{CatalogEntry, QueryDescriptor, RpcRequest, RpcResponse, RpcStatus};
use std::error::Error;
use std::fmt;
use std::net::{IpAddr, SocketAddr};

/// Wire format version emitted by [`encode_message`]. Version 1 lacked
/// the delta view tags and tag 10 (piggybacked trailers, since retired),
/// version 3 the query plane (tags 11–14); version 2 is permanently
/// reserved for the mux routing prefix so the two framings can never be
/// confused.
pub const WIRE_VERSION: u8 = 4;

/// Wire version of the virtual-node-routed frames emitted by
/// [`encode_mux_frame`]. Distinct from [`WIRE_VERSION`] so a mux socket
/// and a plain socket can never misparse each other's datagrams.
pub const MUX_WIRE_VERSION: u8 = 2;

/// Error raised when a datagram cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The datagram ended before the layout did.
    Truncated,
    /// Unknown wire version.
    BadVersion(u8),
    /// Unknown body or state tag.
    BadTag(u8),
    /// A carried string (query name) was not valid UTF-8.
    BadName,
    /// A bundle frame's length prefix was longer than any datagram.
    BadLength,
    /// A map state's leaders were not strictly increasing.
    BadMap,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "datagram truncated"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::BadTag(t) => write!(f, "unknown tag {t}"),
            DecodeError::BadName => write!(f, "query name is not valid UTF-8"),
            DecodeError::BadLength => write!(f, "bundle frame length is over-long"),
            DecodeError::BadMap => write!(f, "map leaders are not strictly increasing"),
        }
    }
}

impl Error for DecodeError {}

/// A byte sink with little-endian write helpers (stand-in for the `bytes`
/// crate's `BufMut`, which is unavailable offline). Encoders are generic
/// over it: on a `Vec<u8>` they produce the bytes, on a [`ByteCount`]
/// their length.
trait WireWrite {
    fn put(&mut self, bytes: &[u8]);

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }
    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
    #[inline]
    fn put_f64_le(&mut self, v: f64) {
        self.put(&v.to_le_bytes());
    }
}

impl WireWrite for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The sink that only measures.
struct ByteCount(usize);

impl WireWrite for ByteCount {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Bytes `put` writes, without writing them.
#[inline]
fn counted(put: impl FnOnce(&mut ByteCount)) -> usize {
    let mut count = ByteCount(0);
    put(&mut count);
    count.0
}

/// Little-endian read helpers that advance a byte slice (stand-in for the
/// `bytes` crate's `Buf`). Every getter is [`take`](WireRead::take) plus a
/// conversion, so running out of input is [`DecodeError::Truncated`] and
/// never a panic.
trait WireRead<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError>;

    /// `N` bytes as whatever `from` makes of them.
    #[inline]
    fn get<const N: usize, T>(
        &mut self,
        from: impl FnOnce([u8; N]) -> T,
    ) -> Result<T, DecodeError> {
        let mut raw = [0; N];
        raw.copy_from_slice(self.take(N)?);
        Ok(from(raw))
    }
    #[inline]
    fn get_u8(&mut self) -> Result<u8, DecodeError> {
        self.get(u8::from_le_bytes)
    }
    #[inline]
    fn get_u16_le(&mut self) -> Result<u16, DecodeError> {
        self.get(u16::from_le_bytes)
    }
    #[inline]
    fn get_u32_le(&mut self) -> Result<u32, DecodeError> {
        self.get(u32::from_le_bytes)
    }
    #[inline]
    fn get_u64_le(&mut self) -> Result<u64, DecodeError> {
        self.get(u64::from_le_bytes)
    }
    #[inline]
    fn get_f64_le(&mut self) -> Result<f64, DecodeError> {
        self.get(f64::from_le_bytes)
    }
}

impl<'a> WireRead<'a> for &'a [u8] {
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.len() {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.split_at(n);
        *self = rest;
        Ok(head)
    }
}

/// Reads `count` items with `get`. `min_len` is the fewest wire bytes one
/// item takes: the vector is reserved up front only if the bytes left
/// could hold `count` of them, so a hostile count field cannot buy an
/// allocation — it grows with the items that really arrive, until the
/// input runs out.
fn get_list<T>(
    data: &mut &[u8],
    count: usize,
    min_len: usize,
    mut get: impl FnMut(&mut &[u8]) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let fits = count * min_len <= data.len();
    let mut items = Vec::with_capacity(if fits { count } else { 0 });
    // A by-value cursor stays in registers through the loop.
    let mut rest = *data;
    for _ in 0..count {
        items.push(get(&mut rest)?);
    }
    *data = rest;
    Ok(items)
}

fn put_header<W: WireWrite>(buf: &mut W, tag: u8) {
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(tag);
}

/// Reads `version · tag` and returns the tag — the one place a message's
/// version is checked.
fn get_header(data: &mut &[u8]) -> Result<u8, DecodeError> {
    let version = data.get_u8()?;
    if version != WIRE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    data.get_u8()
}

/// Encodes a message into a fresh buffer.
pub fn encode_message(msg: &Message) -> Vec<u8> {
    WireFrame::Aggregation(msg).encode()
}

/// A complete aggregation message (tags 0–3), header included: it also
/// rides nested inside tags 10 and 12.
fn put_message<W: WireWrite>(buf: &mut W, msg: &Message) {
    let (tag, states): (u8, Option<&[InstanceState]>) = match &msg.body {
        MessageBody::Request(s) => (0, Some(s)),
        MessageBody::Reply(s) => (1, Some(s)),
        MessageBody::EpochNotice => (2, None),
        MessageBody::Refuse => (3, None),
    };
    put_header(buf, tag);
    buf.put_u64_le(msg.from.as_u64());
    buf.put_u64_le(msg.epoch);
    if let Some(states) = states {
        buf.put_u16_le(states.len() as u16);
        for state in states {
            match state {
                InstanceState::Scalar(v) => {
                    buf.put_u8(0);
                    buf.put_f64_le(*v);
                }
                InstanceState::Map(map) => {
                    buf.put_u8(1);
                    buf.put_u16_le(u16::try_from(map.len()).expect("COUNT map over u16"));
                    for (leader, estimate) in map.iter() {
                        buf.put_u64_le(leader);
                        buf.put_f64_le(estimate);
                    }
                }
            }
        }
    }
}

/// Decodes a datagram produced by [`encode_message`].
///
/// # Errors
///
/// Returns a [`DecodeError`] if the datagram is truncated, has an unknown
/// version, or contains an unknown tag.
pub fn decode_message(mut data: &[u8]) -> Result<Message, DecodeError> {
    get_message(&mut data)
}

/// A complete aggregation message, header included (see [`put_message`]).
fn get_message(data: &mut &[u8]) -> Result<Message, DecodeError> {
    let tag = get_header(data)?;
    get_message_body(tag, data)
}

fn get_message_body(tag: u8, data: &mut &[u8]) -> Result<Message, DecodeError> {
    let from = NodeId::new(data.get_u64_le()?);
    let epoch = data.get_u64_le()?;
    let body = match tag {
        0 => MessageBody::Request(get_states(data)?),
        1 => MessageBody::Reply(get_states(data)?),
        2 => MessageBody::EpochNotice,
        3 => MessageBody::Refuse,
        t => return Err(DecodeError::BadTag(t)),
    };
    Ok(Message { from, epoch, body })
}

fn get_states(data: &mut &[u8]) -> Result<Vec<InstanceState>, DecodeError> {
    let count = data.get_u16_le()? as usize;
    // The smallest state is an empty map: tag + entry count.
    get_list(data, count, 3, |data| match data.get_u8()? {
        0 => Ok(InstanceState::Scalar(data.get_f64_le()?)),
        1 => {
            let entries = data.get_u16_le()? as usize;
            let pairs = get_list(data, entries, 16, |data| {
                Ok((data.get_u64_le()?, data.get_f64_le()?))
            })?;
            // `InstanceMap` is sorted and duplicate-free by construction
            // (and panics on a duplicate), so the wire must be too.
            if pairs.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
                return Err(DecodeError::BadMap);
            }
            Ok(InstanceState::Map(InstanceMap::from_entries(pairs)))
        }
        t => Err(DecodeError::BadTag(t)),
    })
}

/// Exact encoded size of [`encode_message`]'s output for `msg`, without
/// allocating. Lets traffic models charge wire bytes per message.
pub fn encoded_len(msg: &Message) -> usize {
    WireFrame::Aggregation(msg).encoded_len()
}

/// `(u32 node, u32 timestamp)*` — a view's descriptor run, after its
/// count.
fn put_descriptors<W: WireWrite>(buf: &mut W, descriptors: &[Descriptor]) {
    for d in descriptors {
        buf.put_u32_le(d.node);
        buf.put_u32_le(d.timestamp);
    }
}

fn get_descriptors(data: &mut &[u8], count: usize) -> Result<Vec<Descriptor>, DecodeError> {
    get_list(data, count, 8, |data| {
        Ok(Descriptor::new(data.get_u32_le()?, data.get_u32_le()?))
    })
}

/// Writes a socket address: u8 kind (4 IPv4, 6 IPv6), ip bytes, u16 port.
fn put_addr<W: WireWrite>(buf: &mut W, addr: SocketAddr) {
    match addr.ip() {
        IpAddr::V4(ip) => {
            buf.put_u8(4);
            buf.put(&ip.octets());
        }
        IpAddr::V6(ip) => {
            buf.put_u8(6);
            buf.put(&ip.octets());
        }
    }
    buf.put_u16_le(addr.port());
}

/// Reads the ip bytes and port that follow an address `kind` byte.
#[inline]
fn get_addr(kind: u8, data: &mut &[u8]) -> Result<SocketAddr, DecodeError> {
    let ip = match kind {
        4 => data.get::<4, _>(IpAddr::from)?,
        6 => data.get::<16, _>(IpAddr::from)?,
        t => return Err(DecodeError::BadTag(t)),
    };
    Ok(SocketAddr::new(ip, data.get_u16_le()?))
}

/// A membership-plane payload (tags 4–9). For a NEWSCAST view, `reply`
/// distinguishes the passive side's answer (absorbed without a response)
/// from the initiator's opening message; `delta` marks a payload carrying
/// only the descriptors the partner was not known to hold (tags 8/9)
/// instead of the sender's full view (tags 4/5). Tag 6 is a bootstrap
/// join request ("introduce me, `from`"), tag 7 the introduction: a
/// snapshot of the introducer's view (its address slots are written
/// empty; kept for the layout).
fn put_directory<W: WireWrite>(buf: &mut W, payload: &DirectoryPayload) {
    match payload {
        DirectoryPayload::View { view, reply, delta } => {
            put_header(
                buf,
                match (delta, reply) {
                    (false, false) => 4,
                    (false, true) => 5,
                    (true, false) => 8,
                    (true, true) => 9,
                },
            );
            buf.put_u32_le(view.from);
            buf.put_u16_le(view.descriptors.len() as u16);
            put_descriptors(buf, &view.descriptors);
        }
        DirectoryPayload::Join { from } => {
            put_header(buf, 6);
            buf.put_u32_le(*from);
        }
        DirectoryPayload::Introduce { from, peers } => {
            put_header(buf, 7);
            buf.put_u32_le(*from);
            buf.put_u16_le(peers.len() as u16);
            for entry in peers {
                buf.put_u32_le(entry.node);
                buf.put_u32_le(entry.timestamp);
                match entry.addr {
                    None => buf.put_u8(0),
                    Some(addr) => put_addr(buf, addr),
                }
            }
        }
    }
}

fn get_directory(tag: u8, data: &mut &[u8]) -> Result<DirectoryPayload, DecodeError> {
    let from = data.get_u32_le()?;
    if tag == 6 {
        return Ok(DirectoryPayload::Join { from });
    }
    let count = data.get_u16_le()? as usize;
    if tag == 7 {
        // An entry without an address: node + timestamp + kind.
        let peers = get_list(data, count, 9, |data| {
            Ok(IntroduceEntry {
                node: data.get_u32_le()?,
                timestamp: data.get_u32_le()?,
                addr: match data.get_u8()? {
                    0 => None,
                    kind => Some(get_addr(kind, data)?),
                },
            })
        })?;
        return Ok(DirectoryPayload::Introduce { from, peers });
    }
    Ok(DirectoryPayload::View {
        view: ViewPayload {
            from,
            descriptors: get_descriptors(data, count)?,
        },
        reply: tag == 5 || tag == 9,
        delta: tag >= 8,
    })
}

// ---------------------------------------------------------------------
// Query plane (tags 11–14)
// ---------------------------------------------------------------------

fn put_name<W: WireWrite>(buf: &mut W, name: &str) {
    debug_assert!(name.len() <= MAX_NAME_LEN);
    buf.put_u8(name.len() as u8);
    buf.put(name.as_bytes());
}

fn get_name(data: &mut &[u8]) -> Result<String, DecodeError> {
    let len = data.get_u8()? as usize;
    let name = std::str::from_utf8(data.take(len)?).map_err(|_| DecodeError::BadName)?;
    Ok(name.to_string())
}

fn put_descriptor<W: WireWrite>(buf: &mut W, d: &QueryDescriptor) {
    put_name(buf, &d.name);
    buf.put_u8(kind_code(d.kind));
    buf.put_u32_le(d.gamma);
    buf.put_u64_le(d.cycle_length);
    buf.put_u64_le(d.timeout);
    buf.put_u64_le(d.ttl_ms);
    buf.put_f64_le(d.default_value);
    buf.put_u32_le(d.admission.rate_per_sec);
    buf.put_u32_le(d.admission.burst);
}

fn get_descriptor(data: &mut &[u8]) -> Result<QueryDescriptor, DecodeError> {
    let name = get_name(data)?;
    let kind_byte = data.get_u8()?;
    let kind = kind_from_code(kind_byte).ok_or(DecodeError::BadTag(kind_byte))?;
    let mut descriptor = QueryDescriptor::new(name, kind);
    descriptor.gamma = data.get_u32_le()?;
    descriptor.cycle_length = data.get_u64_le()?;
    descriptor.timeout = data.get_u64_le()?;
    descriptor.ttl_ms = data.get_u64_le()?;
    descriptor.default_value = data.get_f64_le()?;
    let rate_per_sec = data.get_u32_le()?;
    let burst = data.get_u32_le()?;
    descriptor.admission = if rate_per_sec == 0 && burst == 0 {
        AdmissionConfig::UNLIMITED
    } else {
        AdmissionConfig::limited(rate_per_sec, burst)
    };
    Ok(descriptor)
}

/// A catalog gossip push (tag 11): the sender's full entry list,
/// tombstones included.
fn put_catalog<W: WireWrite>(buf: &mut W, from: NodeId, entries: &[CatalogEntry]) {
    put_header(buf, 11);
    buf.put_u64_le(from.as_u64());
    buf.put_u16_le(entries.len() as u16);
    for entry in entries {
        put_descriptor(buf, &entry.descriptor);
        buf.put_u32_le(entry.version);
        buf.put_u8(u8::from(entry.deleted));
        buf.put_u64_le(entry.installed_at);
        buf.put_u64_le(entry.expires_at);
    }
}

fn get_catalog(data: &mut &[u8]) -> Result<WirePayload, DecodeError> {
    let from = NodeId::new(data.get_u64_le()?);
    let count = data.get_u16_le()? as usize;
    // The smallest entry has an empty name: 46 descriptor bytes + 21.
    let entries = get_list(data, count, 67, |data| {
        Ok(CatalogEntry {
            descriptor: get_descriptor(data)?,
            version: data.get_u32_le()?,
            deleted: data.get_u8()? != 0,
            installed_at: data.get_u64_le()?,
            expires_at: data.get_u64_le()?,
        })
    })?;
    Ok(WirePayload::Catalog { from, entries })
}

/// A client RPC request (tag 13).
fn put_rpc_request<W: WireWrite>(buf: &mut W, request: &RpcRequest) {
    put_header(buf, 13);
    buf.put_u64_le(request.id());
    buf.put_u8(request.op_code());
    match request {
        RpcRequest::Install { descriptor, .. } => put_descriptor(buf, descriptor),
        RpcRequest::Remove { name, .. } | RpcRequest::Read { name, .. } => put_name(buf, name),
        RpcRequest::Submit { name, value, .. } => {
            put_name(buf, name);
            buf.put_f64_le(*value);
        }
    }
}

/// Encodes a client RPC request (tag 13).
pub fn encode_rpc_request(request: &RpcRequest) -> Vec<u8> {
    let mut buf = Vec::with_capacity(counted(|n| put_rpc_request(n, request)));
    put_rpc_request(&mut buf, request);
    buf
}

fn get_rpc_request(data: &mut &[u8]) -> Result<RpcRequest, DecodeError> {
    let id = data.get_u64_le()?;
    match data.get_u8()? {
        0 => Ok(RpcRequest::Install {
            id,
            descriptor: get_descriptor(data)?,
        }),
        1 => Ok(RpcRequest::Remove {
            id,
            name: get_name(data)?,
        }),
        2 => Ok(RpcRequest::Submit {
            id,
            name: get_name(data)?,
            value: data.get_f64_le()?,
        }),
        3 => Ok(RpcRequest::Read {
            id,
            name: get_name(data)?,
        }),
        op => Err(DecodeError::BadTag(op)),
    }
}

/// A client RPC response (tag 14).
fn put_rpc_response<W: WireWrite>(buf: &mut W, response: &RpcResponse) {
    put_header(buf, 14);
    buf.put_u64_le(response.id);
    buf.put_u8(response.status as u8);
    buf.put_f64_le(response.estimate);
    buf.put_u64_le(response.epoch);
}

/// Encodes a client RPC response (tag 14).
pub fn encode_rpc_response(response: &RpcResponse) -> Vec<u8> {
    let mut buf = Vec::with_capacity(counted(|n| put_rpc_response(n, response)));
    put_rpc_response(&mut buf, response);
    buf
}

/// Decodes a datagram produced by [`encode_rpc_response`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, an unknown version or tag, or
/// an unknown status code.
pub fn decode_rpc_response(mut data: &[u8]) -> Result<RpcResponse, DecodeError> {
    match get_header(&mut data)? {
        14 => get_rpc_response(&mut data),
        tag => Err(DecodeError::BadTag(tag)),
    }
}

fn get_rpc_response(data: &mut &[u8]) -> Result<RpcResponse, DecodeError> {
    let id = data.get_u64_le()?;
    let status_byte = data.get_u8()?;
    let status = RpcStatus::from_code(status_byte).ok_or(DecodeError::BadTag(status_byte))?;
    Ok(RpcResponse {
        id,
        status,
        estimate: data.get_f64_le()?,
        epoch: data.get_u64_le()?,
    })
}

/// Wraps an encoded catalog gossip push in a mux routing frame addressed
/// to the virtual node `to`.
pub fn encode_mux_catalog_frame(to: NodeId, from: NodeId, entries: &[CatalogEntry]) -> Vec<u8> {
    mux_wrap(to, &WireFrame::Catalog(from, entries))
}

/// Wraps an encoded query aggregation frame in a mux routing frame
/// addressed to the virtual node `to`.
pub fn encode_mux_query_frame(to: NodeId, query: &str, msg: &Message) -> Vec<u8> {
    mux_wrap(to, &WireFrame::Query(query, msg))
}

/// Any decodable datagram body: an aggregation-plane [`Message`]
/// (tags 0–3), a membership-plane [`DirectoryPayload`] (tags 4–9), or
/// query-plane traffic (tags 11–14).
#[derive(Debug, Clone, PartialEq)]
pub enum WirePayload {
    /// Aggregation protocol traffic.
    Aggregation(Message),
    /// Membership / bootstrap traffic.
    Directory(DirectoryPayload),
    /// Query catalog gossip (tag 11).
    Catalog {
        /// Sending node.
        from: NodeId,
        /// The sender's full entry list, tombstones included.
        entries: Vec<CatalogEntry>,
    },
    /// A named query's aggregation frame (tag 12).
    Query {
        /// Owning query.
        query: String,
        /// The carried aggregation message.
        message: Message,
    },
    /// A client RPC request (tag 13).
    Rpc(RpcRequest),
    /// A client RPC response (tag 14).
    RpcReply(RpcResponse),
}

/// The borrowed, encode-side twin of [`WirePayload`]: any body a runtime
/// frames for a peer (client RPC never rides a protocol socket).
#[derive(Debug, Clone, Copy)]
pub enum WireFrame<'a> {
    /// Aggregation protocol traffic.
    Aggregation(&'a Message),
    /// Membership / bootstrap traffic.
    Directory(&'a DirectoryPayload),
    /// Query catalog gossip (tag 11): sending node, its full entry list.
    Catalog(NodeId, &'a [CatalogEntry]),
    /// A named query's aggregation frame (tag 12): owning query, message.
    /// The name goes first so concurrent named queries multiplex over one
    /// socket without interfering.
    Query(&'a str, &'a Message),
}

impl WireFrame<'_> {
    fn put<W: WireWrite>(&self, buf: &mut W) {
        match *self {
            WireFrame::Aggregation(msg) => put_message(buf, msg),
            WireFrame::Directory(payload) => put_directory(buf, payload),
            WireFrame::Catalog(from, entries) => put_catalog(buf, from, entries),
            WireFrame::Query(query, msg) => {
                put_header(buf, 12);
                put_name(buf, query);
                put_message(buf, msg);
            }
        }
    }

    /// Exact size of the body's encoding.
    pub fn encoded_len(&self) -> usize {
        counted(|n| self.put(n))
    }

    /// Appends the body's plain (version + tag + …) encoding to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        self.put(buf);
    }

    /// Encodes the body into a fresh, exactly sized buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// The owned twin — what [`decode_datagram`] makes of
    /// [`WireFrame::encode`], without the bytes in between. An in-memory
    /// transport queues this.
    pub fn to_payload(&self) -> WirePayload {
        match *self {
            WireFrame::Aggregation(msg) => WirePayload::Aggregation(msg.clone()),
            WireFrame::Directory(payload) => WirePayload::Directory(payload.clone()),
            WireFrame::Catalog(from, entries) => WirePayload::Catalog {
                from,
                entries: entries.to_vec(),
            },
            WireFrame::Query(query, msg) => WirePayload::Query {
                query: query.to_string(),
                message: msg.clone(),
            },
        }
    }

    /// `true` for the first message of a two-way exchange — a push-pull
    /// request, a view request, a join. A failed link never carries it,
    /// so the whole exchange is lost; replies and one-way catalog pushes
    /// only meet per-message loss.
    pub fn opens_exchange(&self) -> bool {
        match *self {
            WireFrame::Aggregation(msg) | WireFrame::Query(_, msg) => {
                matches!(msg.body, MessageBody::Request(_))
            }
            WireFrame::Directory(DirectoryPayload::View { reply, .. }) => !reply,
            WireFrame::Directory(DirectoryPayload::Join { .. }) => true,
            WireFrame::Directory(DirectoryPayload::Introduce { .. }) | WireFrame::Catalog(..) => {
                false
            }
        }
    }
}

/// Decodes any datagram: reads `version · tag` once and hands the rest to
/// the body decoder the tag names.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the datagram is truncated, has an unknown
/// version, or carries an unknown tag.
pub fn decode_datagram(mut data: &[u8]) -> Result<WirePayload, DecodeError> {
    let data = &mut data;
    Ok(match get_header(data)? {
        tag @ 0..=3 => WirePayload::Aggregation(get_message_body(tag, data)?),
        tag @ 4..=9 => WirePayload::Directory(get_directory(tag, data)?),
        11 => get_catalog(data)?,
        12 => WirePayload::Query {
            query: get_name(data)?,
            message: get_message(data)?,
        },
        13 => WirePayload::Rpc(get_rpc_request(data)?),
        14 => WirePayload::RpcReply(get_rpc_response(data)?),
        t => return Err(DecodeError::BadTag(t)),
    })
}

/// Wraps an encoded v1 message in a mux routing frame addressed to the
/// virtual node `to`. The receiving process reads the prefix, routes the
/// remainder to `to`'s state machine, and decodes it with
/// [`decode_message`].
pub fn encode_mux_frame(to: NodeId, msg: &Message) -> Vec<u8> {
    mux_wrap(to, &WireFrame::Aggregation(msg))
}

/// Wraps an encoded membership payload in a mux routing frame addressed
/// to the virtual node `to` (the membership twin of
/// [`encode_mux_frame`]).
pub fn encode_mux_directory_frame(to: NodeId, payload: &DirectoryPayload) -> Vec<u8> {
    mux_wrap(to, &WireFrame::Directory(payload))
}

fn mux_wrap(to: NodeId, frame: &WireFrame<'_>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + 8 + frame.encoded_len());
    buf.put_u8(MUX_WIRE_VERSION);
    buf.put_u64_le(to.as_u64());
    frame.encode_into(&mut buf);
    buf
}

/// Decodes a mux-framed datagram into the destination virtual-node id
/// and the carried payload, whichever plane it belongs to.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the routing prefix is truncated or has
/// the wrong version, or if the carried payload fails to decode.
pub fn decode_mux_datagram(data: &[u8]) -> Result<(NodeId, WirePayload), DecodeError> {
    decode_routed(strip_version(data, MUX_WIRE_VERSION)?)
}

fn strip_version(data: &[u8], expected: u8) -> Result<&[u8], DecodeError> {
    match data.split_first() {
        None => Err(DecodeError::Truncated),
        Some((&version, rest)) if version == expected => Ok(rest),
        Some((&version, _)) => Err(DecodeError::BadVersion(version)),
    }
}

/// Decodes `u64 destination vnode · message` — what a lone mux frame and
/// a bundled one share.
fn decode_routed(mut data: &[u8]) -> Result<(NodeId, WirePayload), DecodeError> {
    let to = NodeId::new(data.get_u64_le()?);
    Ok((to, decode_datagram(data)?))
}

/// First byte of a bundle datagram. Distinct from [`MUX_WIRE_VERSION`]
/// and from every [`WIRE_VERSION`] ever emitted (1, 3, 4) — a future one
/// must skip it — so the three framings can never be confused.
pub const BUNDLE_VERSION: u8 = 0xB5;

/// Most bytes the mux runtime packs into one bundle: 1500-byte Ethernet
/// MTU − 40 (IPv6 header) − 8 (UDP header), so a bundle never
/// IP-fragments. A single frame larger than this travels alone.
pub const BUNDLE_BUDGET: usize = 1452;

/// Frame lengths are LEB128 varints of at most three bytes: 21 bits,
/// more than any UDP datagram can carry.
fn varint_len(value: usize) -> usize {
    match value {
        0..=0x7F => 1,
        0x80..=0x3FFF => 2,
        _ => 3,
    }
}

fn put_varint(buf: &mut Vec<u8>, mut value: usize) {
    debug_assert!(value < 1 << 21, "frame longer than any datagram");
    while value >= 0x80 {
        buf.put_u8(value as u8 | 0x80);
        value >>= 7;
    }
    buf.put_u8(value as u8);
}

fn get_varint(data: &mut &[u8]) -> Result<usize, DecodeError> {
    let mut value = 0;
    for shift in [0, 7, 14] {
        let byte = data.get_u8()?;
        value |= usize::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(DecodeError::BadLength)
}

/// Bytes [`push_bundle_frame`] appends for `frame` to a bundle that is
/// already open (an empty buffer costs one more: the header byte).
pub fn bundle_frame_len(frame: &WireFrame<'_>) -> usize {
    let body = 8 + frame.encoded_len();
    varint_len(body) + body
}

/// Appends `frame`, addressed to virtual node `to`, to the bundle in
/// `buf`; an empty `buf` is opened with the [`BUNDLE_VERSION`] byte first.
pub fn push_bundle_frame(buf: &mut Vec<u8>, to: NodeId, frame: &WireFrame<'_>) {
    if buf.is_empty() {
        buf.put_u8(BUNDLE_VERSION);
    }
    put_varint(buf, 8 + frame.encoded_len());
    buf.put_u64_le(to.as_u64());
    frame.encode_into(buf);
}

/// Opens a bundle datagram for reading.
///
/// # Errors
///
/// [`DecodeError::Truncated`] for an empty datagram, otherwise
/// [`DecodeError::BadVersion`] unless it starts with [`BUNDLE_VERSION`].
pub fn decode_bundle(data: &[u8]) -> Result<BundleFrames<'_>, DecodeError> {
    Ok(BundleFrames {
        rest: strip_version(data, BUNDLE_VERSION)?,
    })
}

/// The frames of one bundle, in wire order. A frame whose body fails to
/// decode yields its error and the walk continues; a length that is
/// over-long ([`DecodeError::BadLength`]) or runs past the datagram
/// ([`DecodeError::Truncated`]) is reported once and the tail dropped.
#[derive(Debug, Clone)]
pub struct BundleFrames<'a> {
    rest: &'a [u8],
}

impl Iterator for BundleFrames<'_> {
    type Item = Result<(NodeId, WirePayload), DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        let body = get_varint(&mut self.rest).and_then(|len| self.rest.take(len));
        if body.is_err() {
            self.rest = &[];
        }
        Some(body.and_then(decode_routed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &Message) {
        let encoded = encode_message(msg);
        let decoded = decode_message(&encoded).expect("decode");
        assert_eq!(&decoded, msg);
    }

    #[test]
    fn a_count_frame_at_the_map_bound_fills_one_datagram_exactly() {
        use epidemic_aggregation::{InstanceMap, MAX_MAP_LEADERS};
        let map = InstanceMap::from_entries((0..MAX_MAP_LEADERS as u64).map(|l| (l, 0.5)));
        let msg = Message::request(NodeId::new(1), 9, vec![InstanceState::Map(map)]);
        let mut bundle = Vec::new();
        push_bundle_frame(&mut bundle, NodeId::new(2), &WireFrame::Aggregation(&msg));
        // The largest UDP payload over IPv4: 65,535 − 20 (IP) − 8 (UDP).
        assert_eq!(bundle.len(), 65_507);
        let mut frames = decode_bundle(&bundle).unwrap();
        let (to, payload) = frames.next().unwrap().unwrap();
        assert_eq!(
            (to, payload),
            (NodeId::new(2), WirePayload::Aggregation(msg))
        );
        assert!(frames.next().is_none());
        // The kernel takes it as one datagram.
        let socket = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let sent = socket.send_to(&bundle, socket.local_addr().unwrap());
        assert_eq!(sent.unwrap(), bundle.len());
    }

    #[test]
    fn round_trip_scalar_request() {
        round_trip(&Message::request(
            NodeId::new(7),
            42,
            vec![InstanceState::Scalar(3.25), InstanceState::Scalar(-1.5)],
        ));
    }

    #[test]
    fn round_trip_map_reply() {
        let map = InstanceMap::from_entries([(3, 0.125), (900, 1.0), (u64::MAX, 1e-30)]);
        round_trip(&Message::reply(
            NodeId::new(u64::MAX),
            u64::MAX,
            vec![InstanceState::Map(map), InstanceState::Scalar(0.0)],
        ));
    }

    #[test]
    fn round_trip_control_messages() {
        round_trip(&Message::epoch_notice(NodeId::new(0), 0));
        round_trip(&Message::refuse(NodeId::new(1), 9));
    }

    #[test]
    fn round_trip_empty_states_and_map() {
        round_trip(&Message::request(NodeId::new(2), 1, vec![]));
        round_trip(&Message::request(
            NodeId::new(2),
            1,
            vec![InstanceState::Map(InstanceMap::new())],
        ));
    }

    #[test]
    fn round_trip_special_floats() {
        round_trip(&Message::request(
            NodeId::new(3),
            2,
            vec![
                InstanceState::Scalar(f64::MAX),
                InstanceState::Scalar(f64::MIN_POSITIVE),
                InstanceState::Scalar(f64::INFINITY),
            ],
        ));
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let msg = Message::request(
            NodeId::new(7),
            42,
            vec![
                InstanceState::Scalar(1.0),
                InstanceState::Map(InstanceMap::from_entries([(1, 0.5)])),
            ],
        );
        let encoded = encode_message(&msg);
        for len in 0..encoded.len() {
            let err = decode_message(&encoded[..len]).unwrap_err();
            assert_eq!(err, DecodeError::Truncated, "prefix of length {len}");
        }
        assert!(decode_message(&encoded).is_ok());
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut encoded = encode_message(&Message::refuse(NodeId::new(1), 0));
        encoded[0] = 99;
        assert_eq!(decode_message(&encoded), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn decode_rejects_bad_tags() {
        let mut encoded = encode_message(&Message::refuse(NodeId::new(1), 0));
        encoded[1] = 9;
        assert_eq!(decode_message(&encoded), Err(DecodeError::BadTag(9)));

        let mut encoded = encode_message(&Message::request(
            NodeId::new(1),
            0,
            vec![InstanceState::Scalar(1.0)],
        ));
        encoded[20] = 7; // the state tag
        assert_eq!(decode_message(&encoded), Err(DecodeError::BadTag(7)));
    }

    #[test]
    fn hostile_headers_counts_and_maps_are_errors() {
        // Errors surface in wire order: the version byte is judged first.
        assert_eq!(decode_datagram(&[9]), Err(DecodeError::BadVersion(9)));
        assert_eq!(
            decode_datagram(&[WIRE_VERSION]),
            Err(DecodeError::Truncated)
        );
        // 20 bytes claiming 65,535 instance states.
        let mut inflated = encode_message(&Message::request(NodeId::new(1), 0, vec![]));
        inflated[18..20].copy_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(decode_message(&inflated), Err(DecodeError::Truncated));
        // `InstanceMap::from_entries` panics on a duplicate leader; the
        // decoder must not hand it one.
        let map = InstanceMap::from_entries([(3, 0.125), (900, 1.0)]);
        let msg = Message::reply(NodeId::new(1), 0, vec![InstanceState::Map(map)]);
        let mut encoded = encode_message(&msg);
        assert_eq!(encoded[39..47], 900u64.to_le_bytes());
        encoded[39..47].copy_from_slice(&3u64.to_le_bytes());
        assert_eq!(decode_message(&encoded), Err(DecodeError::BadMap));
    }

    #[test]
    fn encoding_is_compact() {
        // The paper argues COUNT messages stay small ("a few hundred
        // bytes" for 20 instances); verify the format's arithmetic.
        let map = InstanceMap::from_entries((0..20u64).map(|l| (l, 1.0 / 20.0)));
        let msg = Message::request(NodeId::new(1), 5, vec![InstanceState::Map(map)]);
        let encoded = encode_message(&msg);
        assert!(encoded.len() < 350, "encoded size {}", encoded.len());
    }

    #[test]
    fn encoded_len_matches_encoding() {
        let map = InstanceMap::from_entries([(3, 0.125), (900, 1.0)]);
        for msg in [
            Message::request(
                NodeId::new(7),
                42,
                vec![InstanceState::Scalar(3.25), InstanceState::Map(map)],
            ),
            Message::reply(NodeId::new(1), 0, vec![]),
            Message::epoch_notice(NodeId::new(0), 0),
            Message::refuse(NodeId::new(1), 9),
        ] {
            assert_eq!(
                encoded_len(&msg),
                encode_message(&msg).len(),
                "size mismatch for {msg:?}"
            );
        }
    }

    fn view(descriptors: Vec<Descriptor>, reply: bool, delta: bool) -> DirectoryPayload {
        DirectoryPayload::View {
            view: ViewPayload {
                from: 0xDEAD_BEEF,
                descriptors,
            },
            reply,
            delta,
        }
    }

    #[test]
    fn round_trip_view_messages() {
        for delta in [false, true] {
            for reply in [false, true] {
                let descriptors = vec![Descriptor::new(1, 9), Descriptor::new(u32::MAX, 0)];
                let payload = view(descriptors, reply, delta);
                let encoded = WireFrame::Directory(&payload).encode();
                assert_eq!(encoded.len(), WireFrame::Directory(&payload).encoded_len());
                assert_eq!(
                    decode_datagram(&encoded),
                    Ok(WirePayload::Directory(payload))
                );
            }
        }
    }

    #[test]
    fn delta_and_full_views_use_distinct_tags() {
        let encode = |reply, delta| {
            WireFrame::Directory(&view(vec![Descriptor::new(2, 3)], reply, delta)).encode()
        };
        assert_eq!(encode(false, false)[1], 4);
        assert_eq!(encode(true, false)[1], 5);
        assert_eq!(encode(false, true)[1], 8);
        assert_eq!(encode(true, true)[1], 9);
        // Same body layout: only the tag byte differs.
        assert_eq!(encode(false, false)[2..], encode(false, true)[2..]);
    }

    #[test]
    fn view_decode_rejects_truncation_and_foreign_tags() {
        let descriptors = vec![Descriptor::new(4, 5), Descriptor::new(6, 7)];
        for delta in [false, true] {
            let encoded = WireFrame::Directory(&view(descriptors.clone(), false, delta)).encode();
            for len in 0..encoded.len() {
                assert_eq!(
                    decode_datagram(&encoded[..len]),
                    Err(DecodeError::Truncated),
                    "prefix of length {len} (delta={delta})"
                );
            }
            assert_eq!(
                decode_message(&encoded),
                Err(DecodeError::BadTag(if delta { 8 } else { 4 }))
            );
        }
    }

    #[test]
    fn mux_frame_rejects_plain_messages_and_truncation() {
        let msg = Message::refuse(NodeId::new(1), 0);
        // A v1 datagram hitting a mux socket must not decode.
        assert_eq!(
            decode_mux_datagram(&encode_message(&msg)),
            Err(DecodeError::BadVersion(WIRE_VERSION))
        );
        let frame = encode_mux_frame(NodeId::new(5), &msg);
        for len in 0..frame.len() {
            assert_eq!(
                decode_mux_datagram(&frame[..len]),
                Err(DecodeError::Truncated),
                "prefix of length {len}"
            );
        }
    }

    #[test]
    fn view_exchange_size_arithmetic() {
        // A c=30 view exchange: each side ships 31 descriptors.
        let payload = view(
            (0..31).map(|i| Descriptor::new(i, i)).collect(),
            false,
            false,
        );
        assert_eq!(
            WireFrame::Directory(&payload).encoded_len(),
            1 + 1 + 4 + 2 + 31 * 8
        );
    }

    #[test]
    fn decode_datagram_routes_both_planes() {
        let agg = Message::request(NodeId::new(1), 2, vec![InstanceState::Scalar(0.5)]);
        assert_eq!(
            decode_datagram(&encode_message(&agg)),
            Ok(WirePayload::Aggregation(agg))
        );
        for delta in [false, true] {
            let view = DirectoryPayload::View {
                view: ViewPayload {
                    from: 3,
                    descriptors: vec![Descriptor::new(4, 5)],
                },
                reply: true,
                delta,
            };
            assert_eq!(
                decode_datagram(&WireFrame::Directory(&view).encode()),
                Ok(WirePayload::Directory(view))
            );
        }
        let join = DirectoryPayload::Join { from: 11 };
        assert_eq!(
            decode_datagram(&WireFrame::Directory(&join).encode()),
            Ok(WirePayload::Directory(join))
        );
        // Tag 10 (piggybacked trailers) is retired, not reused.
        let retired = [WIRE_VERSION, 10, 9, 0, 0, 0, 0, 0];
        assert_eq!(decode_datagram(&retired), Err(DecodeError::BadTag(10)));
        assert_eq!(
            decode_datagram(&[WIRE_VERSION, 99, 0, 0]),
            Err(DecodeError::BadTag(99))
        );
        assert_eq!(
            decode_datagram(&[77, 0, 0, 0]),
            Err(DecodeError::BadVersion(77))
        );
    }

    fn sample_descriptor(name: &str) -> QueryDescriptor {
        use epidemic_aggregation::AggregateKind;
        QueryDescriptor::new(name, AggregateKind::Variance)
            .with_gamma(12)
            .with_cycle_length(750)
            .with_ttl_ms(90_000)
            .with_default_value(-2.5)
            .with_admission(AdmissionConfig::limited(100, 25))
    }

    fn sample_entries() -> Vec<CatalogEntry> {
        use epidemic_aggregation::AggregateKind;
        vec![
            CatalogEntry {
                descriptor: sample_descriptor("load.p99"),
                version: 3,
                deleted: false,
                installed_at: 12_345,
                expires_at: 102_345,
            },
            CatalogEntry {
                descriptor: QueryDescriptor::new("gone", AggregateKind::Count),
                version: 9,
                deleted: true,
                installed_at: 0,
                expires_at: 0,
            },
        ]
    }

    #[test]
    fn round_trip_catalog_messages() {
        for entries in [vec![], sample_entries()] {
            let encoded = WireFrame::Catalog(NodeId::new(42), &entries).encode();
            assert_eq!(
                encoded.len(),
                WireFrame::Catalog(NodeId::new(42), &entries).encoded_len()
            );
            assert_eq!(
                decode_datagram(&encoded),
                Ok(WirePayload::Catalog {
                    from: NodeId::new(42),
                    entries,
                })
            );
        }
    }

    #[test]
    fn catalog_decode_rejects_corruption() {
        let entries = sample_entries();
        let encoded = WireFrame::Catalog(NodeId::new(1), &entries).encode();
        for len in 0..encoded.len() {
            assert_eq!(
                decode_datagram(&encoded[..len]),
                Err(DecodeError::Truncated),
                "prefix of length {len}"
            );
        }
        // An unknown aggregate kind code must not decode. The kind byte
        // sits right after the first name (header 12 + name len byte).
        let mut bad_kind = encoded.clone();
        bad_kind[12 + 1 + entries[0].descriptor.name.len()] = 250;
        assert_eq!(decode_datagram(&bad_kind), Err(DecodeError::BadTag(250)));
        // Invalid UTF-8 in the name is rejected, not lossily accepted.
        let mut bad_name = encoded;
        bad_name[13] = 0xFF;
        assert_eq!(decode_datagram(&bad_name), Err(DecodeError::BadName));
    }

    #[test]
    fn round_trip_query_messages() {
        let msg = Message::request(
            NodeId::new(9),
            4,
            vec![InstanceState::Scalar(1.5), InstanceState::Scalar(0.25)],
        );
        let encoded = WireFrame::Query("load.p99", &msg).encode();
        // version + tag + name len + name + carried message
        assert_eq!(
            encoded.len(),
            1 + 1 + 1 + "load.p99".len() + encoded_len(&msg)
        );
        assert_eq!(
            decode_datagram(&encoded),
            Ok(WirePayload::Query {
                query: "load.p99".to_string(),
                message: msg.clone(),
            })
        );
        for len in 0..encoded.len() {
            assert_eq!(
                decode_datagram(&encoded[..len]),
                Err(DecodeError::Truncated),
                "prefix of length {len}"
            );
        }
        // The mux framing routes to the right virtual node.
        let frame = encode_mux_query_frame(NodeId::new(77), "load.p99", &msg);
        assert_eq!(frame.len(), 1 + 8 + encoded.len());
        let (to, payload) = decode_mux_datagram(&frame).expect("decode");
        assert_eq!(to, NodeId::new(77));
        assert_eq!(
            payload,
            WirePayload::Query {
                query: "load.p99".to_string(),
                message: msg,
            }
        );
    }

    #[test]
    fn round_trip_rpc_requests() {
        let requests = [
            RpcRequest::Install {
                id: 1,
                descriptor: sample_descriptor("q"),
            },
            RpcRequest::Remove {
                id: u64::MAX,
                name: "q".to_string(),
            },
            RpcRequest::Submit {
                id: 3,
                name: "q".to_string(),
                value: -0.125,
            },
            RpcRequest::Read {
                id: 4,
                name: String::new(),
            },
        ];
        for request in requests {
            let encoded = encode_rpc_request(&request);
            assert_eq!(decode_datagram(&encoded), Ok(WirePayload::Rpc(request)));
            for len in 0..encoded.len() {
                assert_eq!(
                    decode_datagram(&encoded[..len]),
                    Err(DecodeError::Truncated),
                    "prefix of length {len}"
                );
            }
        }
        // Unknown op codes bounce.
        let mut bad_op = encode_rpc_request(&RpcRequest::Read {
            id: 1,
            name: "q".to_string(),
        });
        bad_op[10] = 9;
        assert_eq!(decode_datagram(&bad_op), Err(DecodeError::BadTag(9)));
    }

    #[test]
    fn round_trip_rpc_responses() {
        let responses = [
            RpcResponse::ack(7),
            RpcResponse::reject(8, RpcStatus::AdmissionRejected),
            RpcResponse {
                id: 9,
                status: RpcStatus::Ok,
                estimate: 1024.5,
                epoch: 31,
            },
        ];
        for response in responses {
            let encoded = encode_rpc_response(&response);
            // version + tag + id + status + estimate + epoch: fixed-size
            assert_eq!(encoded.len(), 1 + 1 + 8 + 1 + 8 + 8);
            assert_eq!(decode_rpc_response(&encoded), Ok(response.clone()));
            assert_eq!(
                decode_datagram(&encoded),
                Ok(WirePayload::RpcReply(response))
            );
            for len in 0..encoded.len() {
                assert_eq!(
                    decode_rpc_response(&encoded[..len]),
                    Err(DecodeError::Truncated),
                    "prefix of length {len}"
                );
            }
        }
        // Unknown status codes bounce.
        let mut bad = encode_rpc_response(&RpcResponse::ack(1));
        bad[10] = 200;
        assert_eq!(decode_rpc_response(&bad), Err(DecodeError::BadTag(200)));
    }

    #[test]
    fn error_display() {
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
        assert!(DecodeError::BadVersion(3).to_string().contains('3'));
        assert!(DecodeError::BadTag(9).to_string().contains('9'));
    }
}
