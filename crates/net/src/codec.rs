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
//!               10 piggybacked aggregation,
//!               11 catalog gossip, 12 query aggregation,
//!               13 rpc request, 14 rpc response
//! -- aggregation bodies (tags 0-3) --
//! u64 sender id
//! u64 epoch
//! -- request/reply only --
//! u16 instance count
//!   per instance: u8 state tag (0 scalar, 1 map)
//!     scalar: f64
//!     map:    u16 entry count, then (u64 leader, f64 estimate)*
//! -- membership bodies (tags 4-5 full view, 8-9 delta view) --
//! u32 sender id
//! u16 descriptor count, then (u32 node, u32 timestamp)*
//! -- bootstrap bodies (tags 6-7) --
//! u32 sender id
//! -- introduce (tag 7) only --
//! u16 entry count, then per entry:
//!   u32 node, u32 timestamp,
//!   u8 addr kind (0 none, 4 IPv4, 6 IPv6), [ip bytes, u16 port]
//! -- piggybacked aggregation (tag 10) --
//! u32 sender membership id
//! u8 descriptor count, then (u32 node, u32 timestamp)*
//! u8 address count, then per entry:
//!   u32 node, u8 addr kind (4 IPv4, 6 IPv6), ip bytes, u16 port
//! ... then one complete aggregation message (version + tag 0-3) ...
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
//! you were not known to hold (extend it). Tag 10 lets a membership
//! trailer ride on an aggregation datagram already leaving the socket —
//! descriptors keep views fresh between gossip cycles and the optional
//! addresses spread the address book without introducer round trips.
//!
//! The multiplexed runtime ([`crate::mux`]) hosts many protocol nodes
//! behind one socket, so a frame carries a routing prefix in front of the
//! regular message. A lone frame ([`encode_mux_frame`], which tools and
//! the benchmark replay use) is `u8 mux version (=2) · u64 destination
//! virtual-node id · the message bytes`. What the runtime puts on the
//! wire is a **bundle** ([`push_bundle_frame`] / [`decode_bundle`]):
//! every frame a worker has queued for one destination socket, in
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
//! Every encoder has an exact size twin (`*_len`) so traffic models can
//! charge wire bytes without materializing buffers; the property suite in
//! `tests/properties.rs` pins `encoded_len() == encode().len()`.

use crate::directory::{DirectoryPayload, IntroduceEntry, Piggyback};
use epidemic_aggregation::value::InstanceMap;
use epidemic_aggregation::{InstanceState, Message, MessageBody};
use epidemic_common::NodeId;
use epidemic_newscast::node::ViewPayload;
use epidemic_newscast::Descriptor;
use epidemic_query::descriptor::{kind_code, kind_from_code, AdmissionConfig, MAX_NAME_LEN};
use epidemic_query::{CatalogEntry, QueryDescriptor, RpcRequest, RpcResponse, RpcStatus};
use std::error::Error;
use std::fmt;
use std::net::{IpAddr, SocketAddr};

/// Wire format version emitted by [`encode_message`]. Version 1 lacked
/// the delta view and piggyback tags, version 3 the query plane
/// (tags 11–14); version 2 is permanently reserved for the mux routing
/// prefix so the two framings can never be confused.
pub const WIRE_VERSION: u8 = 4;

/// Wire version of the virtual-node-routed frames emitted by
/// [`encode_mux_frame`]. Distinct from [`WIRE_VERSION`] so a mux socket
/// and a plain socket can never misparse each other's datagrams.
pub const MUX_WIRE_VERSION: u8 = 2;

/// Error raised when a datagram cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The datagram was shorter than the fixed header.
    Truncated,
    /// Unknown wire version.
    BadVersion(u8),
    /// Unknown body or state tag.
    BadTag(u8),
    /// A carried string (query name) was not valid UTF-8.
    BadName,
    /// A bundle frame's length prefix was longer than any datagram.
    BadLength,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "datagram truncated"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::BadTag(t) => write!(f, "unknown tag {t}"),
            DecodeError::BadName => write!(f, "query name is not valid UTF-8"),
            DecodeError::BadLength => write!(f, "bundle frame length is over-long"),
        }
    }
}

impl Error for DecodeError {}

/// Little-endian write helpers over a plain byte vector (stand-in for the
/// `bytes` crate's `BufMut`, which is unavailable offline).
trait WireWrite {
    fn put_u8(&mut self, v: u8);
    fn put_u16_le(&mut self, v: u16);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    fn put_f64_le(&mut self, v: f64);
}

impl WireWrite for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64_le(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

/// Little-endian read helpers that advance a byte slice (stand-in for the
/// `bytes` crate's `Buf`). Callers must check `remaining()` first; the
/// getters panic on underflow like their `bytes` counterparts.
trait WireRead {
    fn remaining(&self) -> usize;
    fn get_u8(&mut self) -> u8;
    fn get_u16_le(&mut self) -> u16;
    fn get_u32_le(&mut self) -> u32;
    fn get_u64_le(&mut self) -> u64;
    fn get_f64_le(&mut self) -> f64;
}

impl WireRead for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn get_u8(&mut self) -> u8 {
        let (head, rest) = self.split_at(1);
        *self = rest;
        head[0]
    }
    fn get_u16_le(&mut self) -> u16 {
        let (head, rest) = self.split_at(2);
        *self = rest;
        u16::from_le_bytes(head.try_into().unwrap())
    }
    fn get_u32_le(&mut self) -> u32 {
        let (head, rest) = self.split_at(4);
        *self = rest;
        u32::from_le_bytes(head.try_into().unwrap())
    }
    fn get_u64_le(&mut self) -> u64 {
        let (head, rest) = self.split_at(8);
        *self = rest;
        u64::from_le_bytes(head.try_into().unwrap())
    }
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

/// Encodes a message into a fresh buffer.
pub fn encode_message(msg: &Message) -> Vec<u8> {
    WireFrame::Aggregation(msg).encode()
}

/// Appends [`encode_message`]'s bytes to `buf` without allocating.
pub fn encode_message_into(buf: &mut Vec<u8>, msg: &Message) {
    buf.put_u8(WIRE_VERSION);
    let (tag, states): (u8, Option<&[InstanceState]>) = match &msg.body {
        MessageBody::Request(s) => (0, Some(s)),
        MessageBody::Reply(s) => (1, Some(s)),
        MessageBody::EpochNotice => (2, None),
        MessageBody::Refuse => (3, None),
    };
    buf.put_u8(tag);
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
                    buf.put_u16_le(map.len() as u16);
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
    if data.remaining() < 18 {
        return Err(DecodeError::Truncated);
    }
    let version = data.get_u8();
    if version != WIRE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let tag = data.get_u8();
    let from = NodeId::new(data.get_u64_le());
    let epoch = data.get_u64_le();
    let body = match tag {
        2 => MessageBody::EpochNotice,
        3 => MessageBody::Refuse,
        0 | 1 => {
            if data.remaining() < 2 {
                return Err(DecodeError::Truncated);
            }
            let count = data.get_u16_le() as usize;
            let mut states = Vec::with_capacity(count);
            for _ in 0..count {
                if data.remaining() < 1 {
                    return Err(DecodeError::Truncated);
                }
                match data.get_u8() {
                    0 => {
                        if data.remaining() < 8 {
                            return Err(DecodeError::Truncated);
                        }
                        states.push(InstanceState::Scalar(data.get_f64_le()));
                    }
                    1 => {
                        if data.remaining() < 2 {
                            return Err(DecodeError::Truncated);
                        }
                        let entries = data.get_u16_le() as usize;
                        if data.remaining() < entries * 16 {
                            return Err(DecodeError::Truncated);
                        }
                        let mut pairs = Vec::with_capacity(entries);
                        for _ in 0..entries {
                            let leader = data.get_u64_le();
                            let estimate = data.get_f64_le();
                            pairs.push((leader, estimate));
                        }
                        states.push(InstanceState::Map(InstanceMap::from_entries(pairs)));
                    }
                    t => return Err(DecodeError::BadTag(t)),
                }
            }
            if tag == 0 {
                MessageBody::Request(states)
            } else {
                MessageBody::Reply(states)
            }
        }
        t => return Err(DecodeError::BadTag(t)),
    };
    Ok(Message { from, epoch, body })
}

/// Exact encoded size of [`encode_message`]'s output for `msg`, without
/// allocating. Lets traffic models charge wire bytes per message.
pub fn encoded_len(msg: &Message) -> usize {
    let states: Option<&[InstanceState]> = match &msg.body {
        MessageBody::Request(s) | MessageBody::Reply(s) => Some(s),
        MessageBody::EpochNotice | MessageBody::Refuse => None,
    };
    // version + tag + sender + epoch
    let mut len = 1 + 1 + 8 + 8;
    if let Some(states) = states {
        len += 2; // instance count
        for state in states {
            len += 1; // state tag
            len += match state {
                InstanceState::Scalar(_) => 8,
                InstanceState::Map(map) => 2 + 16 * map.len(),
            };
        }
    }
    len
}

/// Encodes a NEWSCAST view-exchange payload. `reply` distinguishes the
/// passive side's answer (absorbed without a response) from the
/// initiator's opening message; `delta` marks a payload carrying only the
/// descriptors the partner was not known to hold (tags 8/9) instead of
/// the sender's full view (tags 4/5).
fn put_view(buf: &mut Vec<u8>, payload: &ViewPayload, reply: bool, delta: bool) {
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(match (delta, reply) {
        (false, false) => 4,
        (false, true) => 5,
        (true, false) => 8,
        (true, true) => 9,
    });
    buf.put_u32_le(payload.from);
    buf.put_u16_le(payload.descriptors.len() as u16);
    for d in &payload.descriptors {
        buf.put_u32_le(d.node);
        buf.put_u32_le(d.timestamp);
    }
}

/// Encoded size of a view message carrying `descriptors` descriptors.
///
/// A full NEWSCAST exchange over a view of size `c` costs
/// `2 * view_message_len(c + 1)` wire bytes: each side sends its view plus
/// a fresh self-descriptor.
pub const fn view_message_len(descriptors: usize) -> usize {
    // version + tag + sender(u32) + count(u16) + (node, timestamp) pairs
    1 + 1 + 4 + 2 + 8 * descriptors
}

/// Writes a socket address: u8 kind (4 IPv4, 6 IPv6), ip bytes, u16 port.
fn put_addr(buf: &mut Vec<u8>, addr: SocketAddr) {
    match addr.ip() {
        IpAddr::V4(ip) => {
            buf.put_u8(4);
            buf.extend_from_slice(&ip.octets());
        }
        IpAddr::V6(ip) => {
            buf.put_u8(6);
            buf.extend_from_slice(&ip.octets());
        }
    }
    buf.put_u16_le(addr.port());
}

/// Bytes [`put_addr`] writes after the kind byte: ip and port.
fn addr_len(addr: SocketAddr) -> usize {
    2 + if addr.is_ipv4() { 4 } else { 16 }
}

/// Reads the ip bytes and port that follow an address `kind` byte.
fn get_addr(kind: u8, data: &mut &[u8]) -> Result<SocketAddr, DecodeError> {
    let ip_len = match kind {
        4 => 4,
        6 => 16,
        t => return Err(DecodeError::BadTag(t)),
    };
    if data.remaining() < ip_len + 2 {
        return Err(DecodeError::Truncated);
    }
    let (ip, rest) = data.split_at(ip_len);
    *data = rest;
    let ip = match <[u8; 4]>::try_from(ip) {
        Ok(v4) => IpAddr::from(v4),
        Err(_) => IpAddr::from(<[u8; 16]>::try_from(ip).expect("ip_len is 4 or 16")),
    };
    Ok(SocketAddr::new(ip, data.get_u16_le()))
}

/// Encodes a bootstrap join request (tag 6): "introduce me, `from`".
fn put_join(buf: &mut Vec<u8>, from: u32) {
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(6);
    buf.put_u32_le(from);
}

/// Encodes a bootstrap introduction (tag 7): a snapshot of the
/// introducer's view with optional peer addresses.
fn put_introduce(buf: &mut Vec<u8>, from: u32, peers: &[IntroduceEntry]) {
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(7);
    buf.put_u32_le(from);
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

/// Appends a membership-plane payload's encoding (tags 4–9) to `buf`.
pub fn encode_directory_message_into(buf: &mut Vec<u8>, payload: &DirectoryPayload) {
    match payload {
        DirectoryPayload::View { view, reply, delta } => put_view(buf, view, *reply, *delta),
        DirectoryPayload::Join { from } => put_join(buf, *from),
        DirectoryPayload::Introduce { from, peers } => put_introduce(buf, *from, peers),
    }
}

/// Exact encoded size of a membership-plane payload.
pub fn directory_encoded_len(payload: &DirectoryPayload) -> usize {
    match payload {
        DirectoryPayload::View { view, .. } => view_message_len(view.descriptors.len()),
        DirectoryPayload::Join { .. } => 1 + 1 + 4, // version + tag + sender
        DirectoryPayload::Introduce { peers, .. } => {
            // version + tag + sender + entry count, then per entry
            // node + timestamp + addr kind (+ ip and port)
            let addrs: usize = peers.iter().map(|e| e.addr.map_or(0, addr_len)).sum();
            1 + 1 + 4 + 2 + peers.len() * (4 + 4 + 1) + addrs
        }
    }
}

/// Decodes a membership-plane datagram (tags 4–9).
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, an unknown version, or a tag
/// outside the membership plane.
pub fn decode_directory_message(mut data: &[u8]) -> Result<DirectoryPayload, DecodeError> {
    // version + tag + sender
    if data.remaining() < 1 + 1 + 4 {
        return Err(DecodeError::Truncated);
    }
    let version = data.get_u8();
    if version != WIRE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let tag = data.get_u8();
    let from = data.get_u32_le();
    if tag == 6 {
        return Ok(DirectoryPayload::Join { from });
    }
    if !matches!(tag, 4 | 5 | 7 | 8 | 9) {
        return Err(DecodeError::BadTag(tag));
    }
    if data.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let count = data.get_u16_le() as usize;
    if tag == 7 {
        let mut peers = Vec::with_capacity(count.min(256));
        for _ in 0..count {
            if data.remaining() < 9 {
                return Err(DecodeError::Truncated);
            }
            let node = data.get_u32_le();
            let timestamp = data.get_u32_le();
            let addr = match data.get_u8() {
                0 => None,
                kind => Some(get_addr(kind, &mut data)?),
            };
            peers.push(IntroduceEntry {
                node,
                timestamp,
                addr,
            });
        }
        return Ok(DirectoryPayload::Introduce { from, peers });
    }
    if data.remaining() < count * 8 {
        return Err(DecodeError::Truncated);
    }
    let mut descriptors = Vec::with_capacity(count);
    for _ in 0..count {
        let node = data.get_u32_le();
        let timestamp = data.get_u32_le();
        descriptors.push(Descriptor::new(node, timestamp));
    }
    Ok(DirectoryPayload::View {
        view: ViewPayload { from, descriptors },
        reply: tag == 5 || tag == 9,
        delta: tag >= 8,
    })
}

/// Appends an aggregation message with a piggybacked membership trailer
/// (tag 10): a few descriptors (and optionally their addresses) riding on
/// a datagram that was leaving the socket anyway.
pub fn encode_piggyback_message_into(buf: &mut Vec<u8>, msg: &Message, piggyback: &Piggyback) {
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(10);
    buf.put_u32_le(piggyback.from);
    buf.put_u8(piggyback.descriptors.len() as u8);
    for d in &piggyback.descriptors {
        buf.put_u32_le(d.node);
        buf.put_u32_le(d.timestamp);
    }
    buf.put_u8(piggyback.addrs.len() as u8);
    for &(node, addr) in &piggyback.addrs {
        buf.put_u32_le(node);
        put_addr(buf, addr);
    }
    encode_message_into(buf, msg);
}

/// Decodes a piggybacked aggregation datagram (tag 10).
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, an unknown version or tag, or
/// when the carried aggregation message fails to decode.
pub fn decode_piggyback_message(mut data: &[u8]) -> Result<(Message, Piggyback), DecodeError> {
    if data.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    let version = data.get_u8();
    if version != WIRE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let tag = data.get_u8();
    if tag != 10 {
        return Err(DecodeError::BadTag(tag));
    }
    let from = data.get_u32_le();
    let ndesc = data.get_u8() as usize;
    if data.remaining() < ndesc * 8 + 1 {
        return Err(DecodeError::Truncated);
    }
    let mut descriptors = Vec::with_capacity(ndesc);
    for _ in 0..ndesc {
        let node = data.get_u32_le();
        let timestamp = data.get_u32_le();
        descriptors.push(Descriptor::new(node, timestamp));
    }
    let naddr = data.get_u8() as usize;
    let mut addrs = Vec::with_capacity(naddr);
    for _ in 0..naddr {
        if data.remaining() < 5 {
            return Err(DecodeError::Truncated);
        }
        let node = data.get_u32_le();
        let kind = data.get_u8();
        let addr = get_addr(kind, &mut data)?;
        addrs.push((node, addr));
    }
    let message = decode_message(data)?;
    Ok((
        message,
        Piggyback {
            from,
            descriptors,
            addrs,
        },
    ))
}

/// Exact encoded size of a piggybacked aggregation datagram.
pub fn piggyback_message_len(msg: &Message, piggyback: &Piggyback) -> usize {
    piggyback_trailer_len(piggyback) + encoded_len(msg)
}

/// Wire bytes the membership trailer adds on top of the plain aggregation
/// message — the share traffic accounting charges to the membership
/// plane.
pub fn piggyback_trailer_len(piggyback: &Piggyback) -> usize {
    // version + tag + sender + descriptor count + descriptors + addr count
    let mut len = 1 + 1 + 4 + 1 + 8 * piggyback.descriptors.len() + 1;
    for &(_, addr) in &piggyback.addrs {
        len += 4 + 1 + addr_len(addr); // node + addr kind + ip and port
    }
    len
}

// ---------------------------------------------------------------------
// Query plane (tags 11–14)
// ---------------------------------------------------------------------

fn put_name(buf: &mut Vec<u8>, name: &str) {
    debug_assert!(name.len() <= MAX_NAME_LEN);
    buf.put_u8(name.len() as u8);
    buf.extend_from_slice(name.as_bytes());
}

fn get_name(data: &mut &[u8]) -> Result<String, DecodeError> {
    if data.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let len = data.get_u8() as usize;
    if data.remaining() < len {
        return Err(DecodeError::Truncated);
    }
    let (bytes, rest) = data.split_at(len);
    let name = std::str::from_utf8(bytes).map_err(|_| DecodeError::BadName)?;
    *data = rest;
    Ok(name.to_string())
}

fn put_descriptor(buf: &mut Vec<u8>, d: &QueryDescriptor) {
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
    if data.remaining() < 1 + 4 + 8 + 8 + 8 + 8 + 4 + 4 {
        return Err(DecodeError::Truncated);
    }
    let kind_byte = data.get_u8();
    let kind = kind_from_code(kind_byte).ok_or(DecodeError::BadTag(kind_byte))?;
    let mut descriptor = QueryDescriptor::new(name, kind);
    descriptor.gamma = data.get_u32_le();
    descriptor.cycle_length = data.get_u64_le();
    descriptor.timeout = data.get_u64_le();
    descriptor.ttl_ms = data.get_u64_le();
    descriptor.default_value = data.get_f64_le();
    let rate_per_sec = data.get_u32_le();
    let burst = data.get_u32_le();
    descriptor.admission = if rate_per_sec == 0 && burst == 0 {
        AdmissionConfig::UNLIMITED
    } else {
        AdmissionConfig::limited(rate_per_sec, burst)
    };
    Ok(descriptor)
}

fn descriptor_len(d: &QueryDescriptor) -> usize {
    // name len + name + kind + gamma + cycle + timeout + ttl + default
    // + rate + burst
    1 + d.name.len() + 1 + 4 + 8 + 8 + 8 + 8 + 4 + 4
}

/// Appends a catalog gossip push (tag 11): the sender's full entry list,
/// tombstones included.
pub fn encode_catalog_message_into(buf: &mut Vec<u8>, from: NodeId, entries: &[CatalogEntry]) {
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(11);
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

/// Decodes a catalog gossip push (tag 11).
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, an unknown version or tag, an
/// unknown aggregate kind, or a malformed query name.
pub fn decode_catalog_message(mut data: &[u8]) -> Result<(NodeId, Vec<CatalogEntry>), DecodeError> {
    if data.remaining() < 12 {
        return Err(DecodeError::Truncated);
    }
    let version = data.get_u8();
    if version != WIRE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let tag = data.get_u8();
    if tag != 11 {
        return Err(DecodeError::BadTag(tag));
    }
    let from = NodeId::new(data.get_u64_le());
    let count = data.get_u16_le() as usize;
    let mut entries = Vec::with_capacity(count.min(256));
    for _ in 0..count {
        let descriptor = get_descriptor(&mut data)?;
        if data.remaining() < 4 + 1 + 8 + 8 {
            return Err(DecodeError::Truncated);
        }
        let entry_version = data.get_u32_le();
        let deleted = data.get_u8() != 0;
        let installed_at = data.get_u64_le();
        let expires_at = data.get_u64_le();
        entries.push(CatalogEntry {
            descriptor,
            version: entry_version,
            deleted,
            installed_at,
            expires_at,
        });
    }
    Ok((from, entries))
}

/// Exact encoded size of a catalog gossip push.
pub fn catalog_message_len(entries: &[CatalogEntry]) -> usize {
    // version + tag + sender + entry count
    let mut len = 1 + 1 + 8 + 2;
    for entry in entries {
        // descriptor + version + deleted + installed_at + expires_at
        len += descriptor_len(&entry.descriptor) + 4 + 1 + 8 + 8;
    }
    len
}

/// Appends a query-plane aggregation frame (tag 12): the owning query's
/// name followed by a complete aggregation message, so concurrent named
/// queries multiplex over one socket without interfering.
pub fn encode_query_message_into(buf: &mut Vec<u8>, query: &str, msg: &Message) {
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(12);
    put_name(buf, query);
    encode_message_into(buf, msg);
}

/// Decodes a query-plane aggregation frame (tag 12).
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, an unknown version or tag, a
/// malformed query name, or when the carried message fails to decode.
pub fn decode_query_message(mut data: &[u8]) -> Result<(String, Message), DecodeError> {
    if data.remaining() < 3 {
        return Err(DecodeError::Truncated);
    }
    let version = data.get_u8();
    if version != WIRE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let tag = data.get_u8();
    if tag != 12 {
        return Err(DecodeError::BadTag(tag));
    }
    let query = get_name(&mut data)?;
    let message = decode_message(data)?;
    Ok((query, message))
}

/// Exact encoded size of a query-plane aggregation frame.
pub fn query_message_len(query: &str, msg: &Message) -> usize {
    // version + tag + name len + name + carried message
    1 + 1 + 1 + query.len() + encoded_len(msg)
}

/// Encodes a client RPC request (tag 13).
pub fn encode_rpc_request(request: &RpcRequest) -> Vec<u8> {
    let mut buf = Vec::with_capacity(rpc_request_len(request));
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(13);
    buf.put_u64_le(request.id());
    buf.put_u8(request.op_code());
    match request {
        RpcRequest::Install { descriptor, .. } => put_descriptor(&mut buf, descriptor),
        RpcRequest::Remove { name, .. } | RpcRequest::Read { name, .. } => put_name(&mut buf, name),
        RpcRequest::Submit { name, value, .. } => {
            put_name(&mut buf, name);
            buf.put_f64_le(*value);
        }
    }
    buf
}

/// Decodes a datagram produced by [`encode_rpc_request`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, an unknown version, tag, op,
/// or aggregate kind, or a malformed query name.
pub fn decode_rpc_request(mut data: &[u8]) -> Result<RpcRequest, DecodeError> {
    if data.remaining() < 11 {
        return Err(DecodeError::Truncated);
    }
    let version = data.get_u8();
    if version != WIRE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let tag = data.get_u8();
    if tag != 13 {
        return Err(DecodeError::BadTag(tag));
    }
    let id = data.get_u64_le();
    match data.get_u8() {
        0 => Ok(RpcRequest::Install {
            id,
            descriptor: get_descriptor(&mut data)?,
        }),
        1 => Ok(RpcRequest::Remove {
            id,
            name: get_name(&mut data)?,
        }),
        2 => {
            let name = get_name(&mut data)?;
            if data.remaining() < 8 {
                return Err(DecodeError::Truncated);
            }
            Ok(RpcRequest::Submit {
                id,
                name,
                value: data.get_f64_le(),
            })
        }
        3 => Ok(RpcRequest::Read {
            id,
            name: get_name(&mut data)?,
        }),
        op => Err(DecodeError::BadTag(op)),
    }
}

/// Exact encoded size of [`encode_rpc_request`]'s output.
pub fn rpc_request_len(request: &RpcRequest) -> usize {
    // version + tag + request id + op
    let header = 1 + 1 + 8 + 1;
    header
        + match request {
            RpcRequest::Install { descriptor, .. } => descriptor_len(descriptor),
            RpcRequest::Remove { name, .. } | RpcRequest::Read { name, .. } => 1 + name.len(),
            RpcRequest::Submit { name, .. } => 1 + name.len() + 8,
        }
}

/// Encodes a client RPC response (tag 14).
pub fn encode_rpc_response(response: &RpcResponse) -> Vec<u8> {
    let mut buf = Vec::with_capacity(rpc_response_len());
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(14);
    buf.put_u64_le(response.id);
    buf.put_u8(response.status as u8);
    buf.put_f64_le(response.estimate);
    buf.put_u64_le(response.epoch);
    buf
}

/// Decodes a datagram produced by [`encode_rpc_response`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, an unknown version or tag, or
/// an unknown status code.
pub fn decode_rpc_response(mut data: &[u8]) -> Result<RpcResponse, DecodeError> {
    if data.remaining() < rpc_response_len() {
        return Err(DecodeError::Truncated);
    }
    let version = data.get_u8();
    if version != WIRE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let tag = data.get_u8();
    if tag != 14 {
        return Err(DecodeError::BadTag(tag));
    }
    let id = data.get_u64_le();
    let status_byte = data.get_u8();
    let status = RpcStatus::from_code(status_byte).ok_or(DecodeError::BadTag(status_byte))?;
    let estimate = data.get_f64_le();
    let epoch = data.get_u64_le();
    Ok(RpcResponse {
        id,
        status,
        estimate,
        epoch,
    })
}

/// Exact encoded size of [`encode_rpc_response`]'s output (responses are
/// fixed-size).
pub const fn rpc_response_len() -> usize {
    1 + 1 + 8 + 1 + 8 + 8 // version + tag + id + status + estimate + epoch
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
/// (tags 0–3), a membership-plane [`DirectoryPayload`] (tags 4–9), an
/// aggregation message with a piggybacked membership trailer (tag 10), or
/// query-plane traffic (tags 11–14).
#[derive(Debug, Clone, PartialEq)]
pub enum WirePayload {
    /// Aggregation protocol traffic.
    Aggregation(Message),
    /// Membership / bootstrap traffic.
    Directory(DirectoryPayload),
    /// Aggregation traffic with a membership trailer riding along.
    Piggybacked(Message, Piggyback),
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
    /// Aggregation traffic with a membership trailer riding along.
    Piggybacked(&'a Message, &'a Piggyback),
    /// Query catalog gossip (tag 11): sending node, its full entry list.
    Catalog(NodeId, &'a [CatalogEntry]),
    /// A named query's aggregation frame (tag 12): owning query, message.
    Query(&'a str, &'a Message),
}

impl WireFrame<'_> {
    /// Exact size of the body's encoding.
    pub fn encoded_len(&self) -> usize {
        match *self {
            WireFrame::Aggregation(msg) => encoded_len(msg),
            WireFrame::Directory(payload) => directory_encoded_len(payload),
            WireFrame::Piggybacked(msg, pb) => piggyback_message_len(msg, pb),
            WireFrame::Catalog(_, entries) => catalog_message_len(entries),
            WireFrame::Query(query, msg) => query_message_len(query, msg),
        }
    }

    /// Appends the body's plain (version + tag + …) encoding to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match *self {
            WireFrame::Aggregation(msg) => encode_message_into(buf, msg),
            WireFrame::Directory(payload) => encode_directory_message_into(buf, payload),
            WireFrame::Piggybacked(msg, pb) => encode_piggyback_message_into(buf, msg, pb),
            WireFrame::Catalog(from, entries) => encode_catalog_message_into(buf, from, entries),
            WireFrame::Query(query, msg) => encode_query_message_into(buf, query, msg),
        }
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
            WireFrame::Piggybacked(msg, pb) => WirePayload::Piggybacked(msg.clone(), pb.clone()),
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
            WireFrame::Aggregation(msg)
            | WireFrame::Piggybacked(msg, _)
            | WireFrame::Query(_, msg) => matches!(msg.body, MessageBody::Request(_)),
            WireFrame::Directory(DirectoryPayload::View { reply, .. }) => !reply,
            WireFrame::Directory(DirectoryPayload::Join { .. }) => true,
            WireFrame::Directory(DirectoryPayload::Introduce { .. }) | WireFrame::Catalog(..) => {
                false
            }
        }
    }
}

/// Decodes any datagram, routing by plane (tags 0–3 vs 4–9 vs 10 vs
/// 11–14).
///
/// # Errors
///
/// Returns a [`DecodeError`] if the datagram is truncated, has an unknown
/// version, or carries an unknown tag.
pub fn decode_datagram(data: &[u8]) -> Result<WirePayload, DecodeError> {
    if data.len() < 2 {
        return Err(DecodeError::Truncated);
    }
    if data[0] != WIRE_VERSION {
        return Err(DecodeError::BadVersion(data[0]));
    }
    match data[1] {
        0..=3 => Ok(WirePayload::Aggregation(decode_message(data)?)),
        4..=9 => Ok(WirePayload::Directory(decode_directory_message(data)?)),
        10 => {
            let (message, piggyback) = decode_piggyback_message(data)?;
            Ok(WirePayload::Piggybacked(message, piggyback))
        }
        11 => {
            let (from, entries) = decode_catalog_message(data)?;
            Ok(WirePayload::Catalog { from, entries })
        }
        12 => {
            let (query, message) = decode_query_message(data)?;
            Ok(WirePayload::Query { query, message })
        }
        13 => Ok(WirePayload::Rpc(decode_rpc_request(data)?)),
        14 => Ok(WirePayload::RpcReply(decode_rpc_response(data)?)),
        t => Err(DecodeError::BadTag(t)),
    }
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
    if data.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    let to = NodeId::new(data.get_u64_le());
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
        if data.remaining() < 1 {
            return Err(DecodeError::Truncated);
        }
        let byte = data.get_u8();
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
        let body = get_varint(&mut self.rest).and_then(|len| {
            if len > self.rest.len() {
                return Err(DecodeError::Truncated);
            }
            let (body, rest) = self.rest.split_at(len);
            self.rest = rest;
            Ok(body)
        });
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
                assert_eq!(encoded.len(), directory_encoded_len(&payload));
                assert_eq!(decode_directory_message(&encoded), Ok(payload));
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
                    decode_directory_message(&encoded[..len]),
                    Err(DecodeError::Truncated),
                    "prefix of length {len} (delta={delta})"
                );
            }
            assert_eq!(
                decode_message(&encoded),
                Err(DecodeError::BadTag(if delta { 8 } else { 4 }))
            );
        }
        // An aggregation message is not a view message and vice versa.
        let agg = encode_message(&Message::refuse(NodeId::new(1), 0));
        assert_eq!(decode_directory_message(&agg), Err(DecodeError::BadTag(3)));
    }

    #[test]
    fn round_trip_mux_frame() {
        let msg = Message::request(NodeId::new(77), 3, vec![InstanceState::Scalar(1.5)]);
        let frame = encode_mux_frame(NodeId::new(1023), &msg);
        assert_eq!(frame.len(), 1 + 8 + encoded_len(&msg));
        let (to, decoded) = decode_mux_datagram(&frame).expect("decode");
        assert_eq!(to, NodeId::new(1023));
        assert_eq!(decoded, WirePayload::Aggregation(msg));
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
        assert_eq!(view_message_len(31), 1 + 1 + 4 + 2 + 31 * 8);
        let payload = view(
            (0..31).map(|i| Descriptor::new(i, i)).collect(),
            false,
            false,
        );
        assert_eq!(directory_encoded_len(&payload), view_message_len(31));
    }

    #[test]
    fn round_trip_join_and_introduce() {
        let join = DirectoryPayload::Join { from: 0xBEEF };
        let encoded = WireFrame::Directory(&join).encode();
        assert_eq!(encoded.len(), directory_encoded_len(&join));
        assert_eq!(decode_directory_message(&encoded), Ok(join));

        let intro = DirectoryPayload::Introduce {
            from: 7,
            peers: vec![
                IntroduceEntry {
                    node: 1,
                    timestamp: 99,
                    addr: None,
                },
                IntroduceEntry {
                    node: 2,
                    timestamp: 0,
                    addr: Some("127.0.0.1:4040".parse().unwrap()),
                },
                IntroduceEntry {
                    node: u32::MAX,
                    timestamp: u32::MAX,
                    addr: Some("[2001:db8::1]:65535".parse().unwrap()),
                },
            ],
        };
        let encoded = WireFrame::Directory(&intro).encode();
        assert_eq!(encoded.len(), directory_encoded_len(&intro));
        assert_eq!(decode_directory_message(&encoded), Ok(intro));
    }

    #[test]
    fn join_and_introduce_reject_truncation() {
        let intro = DirectoryPayload::Introduce {
            from: 3,
            peers: vec![
                IntroduceEntry {
                    node: 1,
                    timestamp: 2,
                    addr: Some("10.0.0.1:9".parse().unwrap()),
                },
                IntroduceEntry {
                    node: 4,
                    timestamp: 5,
                    addr: None,
                },
            ],
        };
        let encoded = WireFrame::Directory(&intro).encode();
        for len in 0..encoded.len() {
            assert_eq!(
                decode_directory_message(&encoded[..len]),
                Err(DecodeError::Truncated),
                "prefix of length {len}"
            );
        }
        let join = WireFrame::Directory(&DirectoryPayload::Join { from: 9 }).encode();
        for len in 0..join.len() {
            assert_eq!(
                decode_directory_message(&join[..len]),
                Err(DecodeError::Truncated)
            );
        }
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
        let pb = Piggyback {
            from: 9,
            descriptors: vec![Descriptor::new(1, 2)],
            addrs: vec![],
        };
        let inner = Message::refuse(NodeId::new(4), 7);
        assert_eq!(
            decode_datagram(&WireFrame::Piggybacked(&inner, &pb).encode()),
            Ok(WirePayload::Piggybacked(inner, pb))
        );
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
            assert_eq!(encoded.len(), catalog_message_len(&entries));
            let (from, decoded) = decode_catalog_message(&encoded).expect("decode");
            assert_eq!(from, NodeId::new(42));
            assert_eq!(decoded, entries);
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
                decode_catalog_message(&encoded[..len]),
                Err(DecodeError::Truncated),
                "prefix of length {len}"
            );
        }
        // An unknown aggregate kind code must not decode. The kind byte
        // sits right after the first name (header 12 + name len byte).
        let mut bad_kind = encoded.clone();
        bad_kind[12 + 1 + entries[0].descriptor.name.len()] = 250;
        assert_eq!(
            decode_catalog_message(&bad_kind),
            Err(DecodeError::BadTag(250))
        );
        // Invalid UTF-8 in the name is rejected, not lossily accepted.
        let mut bad_name = encoded;
        bad_name[13] = 0xFF;
        assert_eq!(decode_catalog_message(&bad_name), Err(DecodeError::BadName));
        // Foreign tags bounce.
        let agg = encode_message(&Message::refuse(NodeId::new(1), 0));
        assert_eq!(decode_catalog_message(&agg), Err(DecodeError::BadTag(3)));
    }

    #[test]
    fn round_trip_query_messages() {
        let msg = Message::request(
            NodeId::new(9),
            4,
            vec![InstanceState::Scalar(1.5), InstanceState::Scalar(0.25)],
        );
        let encoded = WireFrame::Query("load.p99", &msg).encode();
        assert_eq!(encoded.len(), query_message_len("load.p99", &msg));
        let (query, decoded) = decode_query_message(&encoded).expect("decode");
        assert_eq!(query, "load.p99");
        assert_eq!(decoded, msg);
        assert_eq!(
            decode_datagram(&encoded),
            Ok(WirePayload::Query {
                query,
                message: msg.clone(),
            })
        );
        for len in 0..encoded.len() {
            assert_eq!(
                decode_query_message(&encoded[..len]),
                Err(DecodeError::Truncated),
                "prefix of length {len}"
            );
        }
        // The mux framing routes to the right virtual node.
        let frame = encode_mux_query_frame(NodeId::new(77), "load.p99", &msg);
        assert_eq!(frame.len(), 1 + 8 + query_message_len("load.p99", &msg));
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
    fn mux_catalog_frames_round_trip() {
        let entries = sample_entries();
        let frame = encode_mux_catalog_frame(NodeId::new(5), NodeId::new(2), &entries);
        assert_eq!(frame.len(), 1 + 8 + catalog_message_len(&entries));
        let (to, payload) = decode_mux_datagram(&frame).expect("decode");
        assert_eq!(to, NodeId::new(5));
        assert_eq!(
            payload,
            WirePayload::Catalog {
                from: NodeId::new(2),
                entries,
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
            assert_eq!(encoded.len(), rpc_request_len(&request), "{request:?}");
            assert_eq!(decode_rpc_request(&encoded), Ok(request.clone()));
            assert_eq!(decode_datagram(&encoded), Ok(WirePayload::Rpc(request)));
            for len in 0..encoded.len() {
                assert_eq!(
                    decode_rpc_request(&encoded[..len]),
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
        assert_eq!(decode_rpc_request(&bad_op), Err(DecodeError::BadTag(9)));
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
            assert_eq!(encoded.len(), rpc_response_len());
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
    fn round_trip_piggyback_messages() {
        let msg = Message::request(
            NodeId::new(77),
            3,
            vec![InstanceState::Scalar(1.5), InstanceState::Scalar(-0.25)],
        );
        for pb in [
            Piggyback {
                from: 12,
                descriptors: vec![],
                addrs: vec![],
            },
            Piggyback {
                from: u32::MAX,
                descriptors: vec![Descriptor::new(1, 9), Descriptor::new(2, u32::MAX)],
                addrs: vec![
                    (1, "10.1.2.3:7001".parse().unwrap()),
                    (2, "[2001:db8::9]:65535".parse().unwrap()),
                ],
            },
        ] {
            let encoded = WireFrame::Piggybacked(&msg, &pb).encode();
            assert_eq!(encoded.len(), piggyback_message_len(&msg, &pb));
            assert_eq!(
                encoded.len(),
                piggyback_trailer_len(&pb) + encoded_len(&msg),
                "trailer arithmetic"
            );
            let (decoded, decoded_pb) = decode_piggyback_message(&encoded).expect("decode");
            assert_eq!(decoded, msg);
            assert_eq!(decoded_pb, pb);
        }
    }

    #[test]
    fn piggyback_rejects_truncation_and_foreign_tags() {
        let msg = Message::request(NodeId::new(1), 2, vec![InstanceState::Scalar(0.5)]);
        let pb = Piggyback {
            from: 3,
            descriptors: vec![Descriptor::new(4, 5)],
            addrs: vec![(4, "127.0.0.1:9000".parse().unwrap())],
        };
        let encoded = WireFrame::Piggybacked(&msg, &pb).encode();
        for len in 0..encoded.len() {
            assert_eq!(
                decode_piggyback_message(&encoded[..len]),
                Err(DecodeError::Truncated),
                "prefix of length {len}"
            );
        }
        let plain = encode_message(&msg);
        assert_eq!(
            decode_piggyback_message(&plain),
            Err(DecodeError::BadTag(0))
        );
    }

    #[test]
    fn mux_directory_frames_round_trip() {
        let payload = DirectoryPayload::Introduce {
            from: 2,
            peers: vec![IntroduceEntry {
                node: 3,
                timestamp: 4,
                addr: Some("127.0.0.1:5555".parse().unwrap()),
            }],
        };
        let frame = encode_mux_directory_frame(NodeId::new(900), &payload);
        assert_eq!(frame.len(), 1 + 8 + directory_encoded_len(&payload));
        let (to, decoded) = decode_mux_datagram(&frame).expect("decode");
        assert_eq!(to, NodeId::new(900));
        assert_eq!(decoded, WirePayload::Directory(payload));

        // Aggregation frames route through the same decoder.
        let msg = Message::refuse(NodeId::new(1), 0);
        let (to, decoded) = decode_mux_datagram(&encode_mux_frame(NodeId::new(5), &msg)).unwrap();
        assert_eq!(to, NodeId::new(5));
        assert_eq!(decoded, WirePayload::Aggregation(msg));
    }

    #[test]
    fn error_display() {
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
        assert!(DecodeError::BadVersion(3).to_string().contains('3'));
        assert!(DecodeError::BadTag(9).to_string().contains('9'));
    }
}
