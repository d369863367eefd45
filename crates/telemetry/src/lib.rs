//! Unified telemetry plane for the epidemic aggregation workspace.
//!
//! Every engine in the workspace — the event-driven simulator, the
//! thread-per-node UDP runtime, and the multiplexed runtime — used to
//! expose observability through ad-hoc structs with divergent shapes.
//! This crate is the one seam they all report through:
//!
//! * [`registry`] — a dependency-free, lock-free **metrics registry**:
//!   atomic [`Counter`]s, [`Gauge`]s, and log-bucketed [`Histogram`]s
//!   behind typed handles, registered under a dotted series namespace
//!   (`agg.exchanges`, `membership.delta_bytes`, `timer.fire_lag_us`,
//!   `epoch.variance_reduction_rho`, …) with optional labels, rendered
//!   as Prometheus text exposition.
//! * [`trace`] — **protocol event tracing**: a bounded per-(v)node ring
//!   buffer of structured [`TraceEvent`]s (exchange init / complete /
//!   timeout, view merge, join retry, epoch transition)
//!   recorded from the sans-io node cores, so the sim and both wire
//!   runtimes are instrumented once; exported as JSONL for post-mortem
//!   analysis of any failed run.
//! * [`http`] — a hand-rolled (std-only) Prometheus-text `/metrics`
//!   HTTP endpoint ([`MetricsServer`]).
//! * [`ViewHealth`] — the engine-independent membership health snapshot
//!   (mean view fill, dead-entry fraction), shared by the sim's
//!   population summaries and the wire `GossipDirectory`.
//!
//! The registry's hot path is wait-free (`Relaxed` atomics); the only
//! lock is taken at handle registration. A [`Registry::disabled`]
//! registry (and a capacity-0 [`TraceRing`]) compiles every record call
//! down to one branch — the "stub" leg of the overhead benchmark.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod http;
pub mod registry;
pub mod trace;

pub use http::MetricsServer;
pub use registry::{bucket_bounds, bucket_index, Counter, Gauge, Histogram, Registry};
pub use trace::{write_jsonl, TraceEvent, TraceKind, TraceRing};

/// Health snapshot of a population of NEWSCAST partial views: how full
/// they are and how many entries still point at peers believed gone
/// (the self-healing signal of the paper's Section 4.4).
///
/// Engine-independent: the simulator summarizes the whole population
/// against ground-truth liveness, the wire `GossipDirectory` summarizes
/// its own view against descriptor-age staleness.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ViewHealth {
    /// Number of views summarized (live nodes).
    pub views: usize,
    /// Mean view fill (entries per view).
    pub mean_size: f64,
    /// Fraction of descriptors whose target is no longer alive (or, on
    /// the wire, stale beyond the freshness horizon). Decays toward
    /// zero after a crash wave as fresh descriptors displace stale ones.
    pub dead_entry_fraction: f64,
}
