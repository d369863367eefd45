//! Protocol event tracing: bounded per-node ring buffers of structured
//! events with JSONL export.
//!
//! The sans-io node cores ([`GossipNode`], the NEWSCAST membership node,
//! the gossip directory) record [`TraceEvent`]s into a [`TraceRing`]
//! they own, so every embedding — event simulator, multiplexed runtime —
//! is instrumented once and produces the
//! *same* trace for the same protocol execution. Events carry logical
//! protocol coordinates (epoch, cycle, peer), never wall-clock time, so
//! same-seed runs of different engines are byte-comparable (the
//! sim-vs-mux conformance test relies on this).
//!
//! [`GossipNode`]: https://docs.rs/epidemic-aggregation

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

/// What happened. The discriminant names double as the JSONL `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceKind {
    /// An aggregation exchange was initiated toward `peer`.
    ExchangeInit,
    /// An exchange finished: `detail` 0 = initiator, reply unusable;
    /// 1 = initiator, states merged; 2 = passive side, states merged.
    ExchangeComplete,
    /// A pending exchange expired unanswered (crash masking).
    ExchangeTimeout,
    /// The node entered a new epoch (`detail` 1 = γ cycles completed
    /// naturally, 0 = epidemic jump/activation).
    EpochTransition,
    /// A membership view merge absorbed `detail` descriptors from `peer`.
    ViewMerge,
    /// A bootstrap `Join` was re-sent (`detail` = attempt number).
    JoinRetry,
}

impl TraceKind {
    /// Stable snake_case name used in the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::ExchangeInit => "exchange_init",
            TraceKind::ExchangeComplete => "exchange_complete",
            TraceKind::ExchangeTimeout => "exchange_timeout",
            TraceKind::EpochTransition => "epoch_transition",
            TraceKind::ViewMerge => "view_merge",
            TraceKind::JoinRetry => "join_retry",
        }
    }
}

/// One structured protocol event, in logical coordinates only — no
/// wall-clock timestamps, so traces from different engines running the
/// same seed compare byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The node this event happened on.
    pub node: u64,
    /// Event kind.
    pub kind: TraceKind,
    /// The node's epoch when the event fired.
    pub epoch: u64,
    /// Cycles completed in that epoch when the event fired.
    pub cycle: u64,
    /// The peer involved, if any.
    pub peer: Option<u64>,
    /// Kind-specific detail (see [`TraceKind`]).
    pub detail: u64,
}

impl TraceEvent {
    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"node\":{},\"kind\":\"{}\",\"epoch\":{},\"cycle\":{},\"peer\":",
            self.node,
            self.kind.as_str(),
            self.epoch,
            self.cycle
        );
        match self.peer {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"detail\":{}}}", self.detail);
        out
    }
}

/// Bounded ring buffer of [`TraceEvent`]s. Capacity 0 (the default)
/// disables recording entirely — one branch per `record` call. When
/// full, the oldest event is dropped and counted, so a post-mortem
/// export states how much history it lost.
#[derive(Debug, Clone, Default)]
pub struct TraceRing {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceRing {
    /// A ring holding up to `capacity` events (0 = disabled).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRing {
            capacity,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// A disabled ring (capacity 0).
    pub fn disabled() -> Self {
        TraceRing::default()
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Re-sizes the ring; shrinking drops the oldest events.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.events.len() > capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
    }

    /// Records one event (dropping the oldest when full).
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains all buffered events, oldest first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }
}

/// Writes events as JSON Lines to `path` (one object per line,
/// overwriting any existing file).
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn write_jsonl<'a, I>(path: &Path, events: I) -> io::Result<()>
where
    I: IntoIterator<Item = &'a TraceEvent>,
{
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    for event in events {
        file.write_all(event.to_json().as_bytes())?;
        file.write_all(b"\n")?;
    }
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(node: u64, detail: u64) -> TraceEvent {
        TraceEvent {
            node,
            kind: TraceKind::ExchangeInit,
            epoch: 1,
            cycle: 2,
            peer: Some(9),
            detail,
        }
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut ring = TraceRing::disabled();
        ring.record(ev(0, 0));
        assert!(ring.is_empty());
        assert!(!ring.is_enabled());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_oldest_and_counts() {
        let mut ring = TraceRing::with_capacity(2);
        ring.record(ev(0, 0));
        ring.record(ev(0, 1));
        ring.record(ev(0, 2));
        assert_eq!(ring.dropped(), 1);
        let drained = ring.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].detail, 1);
        assert_eq!(drained[1].detail, 2);
        assert!(ring.is_empty());
    }

    #[test]
    fn json_shape_is_stable() {
        let e = TraceEvent {
            node: 3,
            kind: TraceKind::EpochTransition,
            epoch: 4,
            cycle: 0,
            peer: None,
            detail: 1,
        };
        assert_eq!(
            e.to_json(),
            r#"{"node":3,"kind":"epoch_transition","epoch":4,"cycle":0,"peer":null,"detail":1}"#
        );
        assert_eq!(
            ev(1, 7).to_json(),
            r#"{"node":1,"kind":"exchange_init","epoch":1,"cycle":2,"peer":9,"detail":7}"#
        );
    }

    #[test]
    fn jsonl_round_trips_through_a_file() {
        let dir = std::env::temp_dir().join("epidemic-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        write_jsonl(&path, [ev(0, 0), ev(1, 1)].iter()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        std::fs::remove_file(&path).ok();
    }
}
