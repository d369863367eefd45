//! The benchmark checked against its own contract: names agree with
//! `BENCHMARK.json`, and every workload passes its correctness checks at
//! toy size.

use epidemic_ledger::alloc::CountingAlloc;
use epidemic_ledger::cli;
use epidemic_ledger::json::Json;
use epidemic_ledger::metrics::{self, MetricDef};

// Installed here as in the `ledger` binary, so the traced toy runs below
// exercise the allocation columns.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {}", entry.render()))
}

fn assert_metrics_agree<'a>(
    listed: &[Json],
    defs: impl Iterator<Item = &'a MetricDef>,
    bounded: bool,
) {
    let defs: Vec<&MetricDef> = defs.collect();
    assert_eq!(listed.len(), defs.len(), "metric lists differ in length");
    for (entry, def) in listed.iter().zip(defs) {
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(entry, "better"), def.better.as_str(), "{}", def.name);
        let keys = entry.fields().len();
        if bounded {
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
            assert_eq!(keys, 4, "{}", def.name);
        } else {
            assert_eq!(keys, 3, "{}", def.name);
        }
    }
}

#[test]
fn names_units_and_bounds_agree_with_benchmark_json() {
    let bench = benchmark_json();
    let keys: Vec<&str> = bench.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = bench.get("workloads").unwrap().items();
    assert_eq!(workloads.len(), metrics::WORKLOADS.len());
    for (entry, def) in workloads.iter().zip(&metrics::WORKLOADS) {
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "why"), def.why);
        assert_eq!(entry.fields().len(), 2);
    }
    assert_metrics_agree(
        bench.get("end_to_end").unwrap().items(),
        metrics::END_TO_END.iter(),
        true,
    );
    assert_metrics_agree(
        bench.get("per_layer").unwrap().items(),
        metrics::traced_metrics(),
        false,
    );
    assert_eq!(
        bench.get("run_seconds").and_then(Json::as_f64),
        Some(cli::DEFAULT_SECONDS as f64)
    );
    let paths: Vec<&str> = bench
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["crates/ledger"]);
}

#[test]
fn every_workload_passes_its_checks_at_toy_size() {
    let report = cli::check(1);
    assert!(report.problems.is_empty(), "{:#?}", report.problems);
    // 4 workloads untraced and traced, plus the sim_churn repeat pair.
    assert_eq!(report.results.len(), 10);
    for result in &report.results {
        assert!(
            result.attempted > 0 && result.failed == 0,
            "{}",
            result.workload
        );
        for def in &metrics::END_TO_END {
            let value = result.get(def.name).unwrap_or(0.0);
            assert!(value > 0.0, "{} {} = {value}", result.workload, def.name);
        }
    }
    let traced = |name: &str| {
        report
            .results
            .iter()
            .find(|r| r.traced && r.workload == name)
            .unwrap()
    };
    // The traced runs price their layers and count their allocations.
    let wire = traced("wire_static");
    assert!(wire.get("mux.allocs_per_datagram").unwrap() > 0.0);
    assert!(wire.get("codec.allocs_per_frame").unwrap() > 0.0);
    assert!(wire.get("budget.coverage").unwrap() > 0.0);
    assert!(!wire.budget.is_empty());
    let rpc = traced("query_rpc");
    assert!(rpc.get("rpc_per_s").unwrap() > 0.0);
    assert!(rpc.get("plane.byte_overhead").unwrap() > 1.0);
    assert!(
        traced("wire_gossip")
            .get("directory.bytes_per_node_epoch")
            .unwrap()
            > 0.0
    );
    assert!(traced("sim_churn").get("sim.allocs_per_message").unwrap() > 0.0);
}
