//! The benchmark's vocabulary: workloads, metrics, units, bounds.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in one-to-one agreement. The README carries the prose
//! version of these tables (definitions, and which end-to-end metric each
//! layer metric should move on which workload).

/// Relative error beyond which an estimate counts as a failed operation.
pub const EPSILON: f64 = 0.05;

/// Relative error of `estimate` against `truth`; a missing estimate is
/// infinitely wrong.
pub fn rel_err(estimate: Option<f64>, truth: f64) -> f64 {
    estimate.map_or(f64::INFINITY, |e| (e - truth).abs() / truth.abs())
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
}

/// The four workloads, in the order `run --all` runs them.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "sim_churn",
        why: "Event simulator under churn, loss and drift: exact counts per seed; the I/O layers do no work here, so an I/O optimisation must not move it",
    },
    WorkloadDef {
        name: "wire_static",
        why: "Mux runtime, static directory, smallest frames: the per-datagram hot path (batch, codec, queue, core, timer) undiluted by membership or tenants",
    },
    WorkloadDef {
        name: "wire_gossip",
        why: "Mux runtime over gossiped NEWSCAST membership: variable-length view frames and piggyback trailers; a membership change moves this and not wire_static",
    },
    WorkloadDef {
        name: "query_rpc",
        why: "Eight tenants plus a closed-loop UDP client, 75% Submit / 25% Read, Zipf tenants, Poisson bursts: tenant wire cost and the client-facing RPC path",
    },
];

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, in `BENCHMARK.json`'s unit alphabet.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before
    /// `ledger compare` reports a regression; `None` = reported only.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics every workload measures: `BENCHMARK.json`'s
/// `end_to_end` list, printed by an untraced run.
pub const END_TO_END: [MetricDef; 4] = [
    gated("setup_s", "s", Lower, 0.25),
    gated("node_epochs_per_cpu_s", "1/s", Higher, 0.20),
    gated("wire_bytes_per_node_epoch", "B", Lower, 0.08),
    gated("peak_rss_mb", "MB", Lower, 0.10),
];

/// End-to-end metrics only `query_rpc` has (elsewhere they read 0).
/// `BENCHMARK.json` requires
/// every `end_to_end` metric from every workload, so there they sit in
/// `per_layer`; `ledger compare` still holds them to these bounds.
pub const RPC_END_TO_END: [MetricDef; 3] = [
    gated("rpc_per_s", "1/s", Higher, 0.20),
    gated("rpc_rtt_us_p50", "us", Lower, 0.15),
    gated("rpc_rtt_us_p99", "us", Lower, 0.25),
];

/// Per-layer metrics, measured by the traced run. Layers are this
/// repository's modules; the prefix names the layer.
pub const PER_LAYER: [MetricDef; 61] = [
    // net::codec
    layer("codec.encode_ns", "ns", Lower),
    layer("codec.decode_ns", "ns", Lower),
    layer("codec.allocs_per_frame", "count", Lower),
    layer("codec.bytes_per_frame", "B", Lower),
    // core::node
    layer("core.poll_ns", "ns", Lower),
    layer("core.handle_ns", "ns", Lower),
    layer("core.allocs_per_exchange", "count", Lower),
    layer("core.epoch_yield", "ratio", Higher),
    layer("core.exchange_timeout_ratio", "ratio", Lower),
    layer("core.rel_err_p99", "ratio", Lower),
    // net::directory, newscast
    layer("directory.poll_ns", "ns", Lower),
    layer("directory.handle_ns", "ns", Lower),
    layer("directory.bytes_per_node_epoch", "B", Lower),
    layer("directory.bootstrap_s", "s", Lower),
    layer("directory.join_retries", "count", Lower),
    layer("directory.view_dead_fraction", "ratio", Lower),
    // query::plane
    layer("plane.poll_ns", "ns", Lower),
    layer("plane.handle_ns", "ns", Lower),
    layer("plane.submit_ns", "ns", Lower),
    layer("plane.read_ns", "ns", Lower),
    layer("plane.allocs_per_poll", "count", Lower),
    layer("plane.bytes_per_tenant_epoch", "B", Lower),
    layer("plane.byte_overhead", "ratio", Lower),
    layer("plane.rollout_s", "s", Lower),
    // net::timer
    layer("timer.schedule_ns", "ns", Lower),
    layer("timer.fire_ns", "ns", Lower),
    layer("timer.fire_lag_us_p50", "us", Lower),
    layer("timer.fire_lag_us_p99", "us", Lower),
    // net::batch
    layer("batch.send_ns_per_datagram", "ns", Lower),
    layer("batch.recv_ns_per_datagram", "ns", Lower),
    layer("batch.syscalls_per_datagram", "ratio", Lower),
    layer("batch.datagrams_per_send_call", "ratio", Higher),
    layer("batch.datagrams_per_recv_call", "ratio", Higher),
    layer("batch.recv_timeouts", "count", Lower),
    // net::mux
    layer("mux.cpu_us_per_datagram", "us", Lower),
    layer("mux.allocs_per_datagram", "count", Lower),
    layer("mux.alloc_bytes_per_datagram", "B", Lower),
    layer("mux.queue_depth_max", "count", Lower),
    layer("mux.cpu_utilisation", "ratio", Lower),
    layer("mux.send_errors", "count", Lower),
    layer("mux.spawn_ms", "ms", Lower),
    layer("mux.shutdown_ms", "ms", Lower),
    layer("mux.rss_growth_mb", "MB", Lower),
    // RPC listener + query::rpc
    layer("rpc.submit_rtt_us_p50", "us", Lower),
    layer("rpc.read_rtt_us_p50", "us", Lower),
    layer("rpc.rtt_us_p999", "us", Lower),
    layer("rpc.timeouts", "count", Lower),
    layer("rpc.rejects", "count", Lower),
    layer("rpc.retries", "count", Lower),
    // sim::event
    layer("sim.new_ms", "ms", Lower),
    layer("sim.run_s", "s", Lower),
    layer("sim.ns_per_message", "ns", Lower),
    layer("sim.allocs_per_message", "count", Lower),
    layer("sim.rss_bytes_per_node", "B", Lower),
    layer("sim.messages", "count", Lower),
    layer("sim.messages_lost", "count", Lower),
    // telemetry
    layer("telemetry.counter_inc_ns", "ns", Lower),
    layer("telemetry.histogram_record_ns", "ns", Lower),
    layer("telemetry.render_ms", "ms", Lower),
    // the stage budget
    layer("budget.coverage", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// Every metric `ledger compare` gates: the universal end-to-end metrics
/// and the RPC ones.
pub fn gated_metrics() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().chain(RPC_END_TO_END.iter())
}

/// Every metric a traced run prints: `BENCHMARK.json`'s `per_layer` list.
pub fn traced_metrics() -> impl Iterator<Item = &'static MetricDef> {
    RPC_END_TO_END.iter().chain(PER_LAYER.iter())
}

/// Looks a metric up by name across all three tables.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    gated_metrics()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_alphabet(s: &str, extra: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut names = Vec::new();
        for m in gated_metrics().chain(PER_LAYER.iter()) {
            assert!(
                in_alphabet(m.name, "_.-") && m.name.len() <= 64,
                "{}",
                m.name
            );
            assert!(
                in_alphabet(m.unit, "_/%.-") && m.unit.len() <= 16,
                "{}",
                m.unit
            );
            names.push(m.name);
        }
        for w in &WORKLOADS {
            assert!(
                in_alphabet(w.name, "_.-") && w.name.len() <= 64,
                "{}",
                w.name
            );
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn bounds_stay_inside_the_contract() {
        for m in gated_metrics() {
            let bound = m.bound.expect("gated metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(gated_metrics().all(|m| m.bound <= setup.bound));
    }
}
