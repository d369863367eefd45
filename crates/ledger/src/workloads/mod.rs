//! The four workloads and the tables a run prints.

pub mod sim_churn;
pub mod wire;

use crate::run::{RunOptions, RunResult};
use crate::span::Spans;
use crate::{metrics, sys};
use epidemic_aggregation::{InstanceSpec, NodeConfig};

/// The AVERAGE node configuration every workload runs.
pub(crate) fn node_config(gamma: u32, delta_ms: u64, timeout_ms: u64) -> NodeConfig {
    NodeConfig::builder()
        .gamma(gamma)
        .cycle_length(delta_ms)
        .timeout(timeout_ms)
        .instance(InstanceSpec::AVERAGE)
        .build()
        .expect("benchmark node configuration is valid")
}

/// Runs `options.workload`: pins nothing itself (the caller pinned the
/// process), records spans when traced and writes them when the run
/// ends.
pub fn run(options: &RunOptions) -> RunResult {
    let mut spans = Spans::new(options.traced, options.seed);
    let result = match options.workload.name {
        "sim_churn" => sim_churn::run(options, &mut spans),
        _ => wire::run(options, &mut spans),
    };
    if let (true, Some(path)) = (options.traced, &options.span_path) {
        match spans.write_jsonl(path) {
            Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("ledger: cannot write spans to {}: {e}", path.display()),
        }
    }
    result
}

/// Share of the window's CPU time the priced stages account for.
pub(crate) fn budget_coverage(result: &RunResult) -> f64 {
    let priced: f64 = result
        .budget
        .iter()
        .map(|row| row.ops as f64 * row.ns_per_op)
        .sum();
    priced / result.window_cpu_ns.max(1) as f64
}

/// Prints every metric the run measured, and for a traced run the stage
/// budget, as aligned text.
pub fn print_tables(result: &RunResult, pinning: sys::Pinning) {
    let pinned = match pinning.core {
        Some(core) => format!("pinned to core {core}"),
        None => "UNPINNED - CPU figures are not comparable".to_string(),
    };
    println!(
        "{} seed {} {} s {} [{pinned}]: {} attempted, {} failed",
        result.workload,
        result.seed,
        result.seconds,
        if result.traced { "traced" } else { "untraced" },
        result.attempted,
        result.failed,
    );
    for violation in &result.violations {
        println!("  VIOLATION: {violation}");
    }
    for (name, value) in &result.metrics {
        let unit = metrics::metric(name).map_or("", |m| m.unit);
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    if result.budget.is_empty() {
        return;
    }
    println!(
        "  stage budget ({:.3} CPU s in the window):",
        result.window_cpu_ns as f64 / 1e9
    );
    println!(
        "    {:<20} {:>12} {:>12} {:>8}",
        "stage", "ops", "ns/op", "share"
    );
    for row in &result.budget {
        println!(
            "    {:<20} {:>12} {:>12.1} {:>7.1}%",
            row.stage,
            row.ops,
            row.ns_per_op,
            row.ops as f64 * row.ns_per_op / result.window_cpu_ns.max(1) as f64 * 100.0,
        );
    }
}
