//! What a run is asked to do and what it reports.

use crate::json::Json;
use crate::metrics::{self, MetricDef, WorkloadDef};
use crate::sys::Pinning;
use std::path::PathBuf;

/// How big a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is judged at.
    Full,
    /// `run --check`: every workload at n ≤ 128 for at most 3 s, only to
    /// prove the harness and the product still agree on correctness.
    Toy,
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Which workload.
    pub workload: &'static WorkloadDef,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measurement window in seconds.
    pub seconds: u64,
    /// `true` = the traced run (per-layer metrics); `false` = the
    /// untraced run (end-to-end metrics).
    pub traced: bool,
    /// Full or toy sizes.
    pub size: Size,
    /// Where a traced run writes its spans.
    pub span_path: Option<PathBuf>,
}

/// One row of the stage budget: a layer operation priced by the layer
/// replay and counted in the measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    /// `layer.operation`.
    pub stage: &'static str,
    /// Times the operation ran in the window.
    pub ops: u64,
    /// Replayed cost of one operation.
    pub ns_per_op: f64,
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload that ran.
    pub workload: &'static str,
    /// Its seed.
    pub seed: u64,
    /// Its window length.
    pub seconds: u64,
    /// Whether it was the traced run.
    pub traced: bool,
    /// Operations attempted (reports, settled reads, RPCs).
    pub attempted: u64,
    /// Operations that failed their correctness check.
    pub failed: u64,
    /// Harness-level checks that failed (a missing reply stream, counts
    /// that do not add up); any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Every metric measured, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// The stage budget (traced runs).
    pub budget: Vec<BudgetRow>,
    /// CPU nanoseconds of the window the budget is a share of.
    pub window_cpu_ns: u64,
}

impl RunResult {
    /// An empty result for `options`.
    pub fn new(options: &RunOptions) -> Self {
        RunResult {
            workload: options.workload.name,
            seed: options.seed,
            seconds: options.seconds,
            traced: options.traced,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            metrics: Vec::new(),
            budget: Vec::new(),
            window_cpu_ns: 0,
        }
    }

    /// Records metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`crate::metrics`] or set twice: both
    /// are harness bugs.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(metrics::metric(name).is_some(), "unknown metric {name}");
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.metrics.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Counts one operation; `ok = false` counts it as failed too.
    pub fn count_op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `true` when no operation failed, no harness check was violated and
    /// every recorded metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.violations.is_empty()
            && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    fn metrics_json<'a>(&self, defs: impl Iterator<Item = &'a MetricDef>) -> Json {
        let mut out = Json::object();
        for def in defs {
            let mut entry = Json::object();
            // A metric this workload has no layer for reads 0.
            entry.insert("value", Json::Num(self.get(def.name).unwrap_or(0.0)));
            entry.insert("unit", Json::Str(def.unit.into()));
            out.insert(def.name, entry);
        }
        out
    }

    /// The result line the benchmark driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics` — every end-to-end metric for
    /// an untraced run, every per-layer metric for a traced one.
    pub fn driver_line(&self) -> Json {
        let mut out = Json::object();
        out.insert("correct", Json::Bool(self.correct()));
        out.insert("attempted", Json::Num(self.attempted as f64));
        out.insert("failed", Json::Num(self.failed as f64));
        let metrics = if self.traced {
            self.metrics_json(metrics::traced_metrics())
        } else {
            self.metrics_json(metrics::END_TO_END.iter())
        };
        out.insert("metrics", metrics);
        out
    }

    /// The ledger entry of this run: everything it measured.
    pub fn ledger_entry(&self, pinning: Pinning) -> Json {
        let mut out = Json::object();
        out.insert("workload", Json::Str(self.workload.into()));
        out.insert("seed", Json::Num(self.seed as f64));
        out.insert("seconds", Json::Num(self.seconds as f64));
        out.insert("traced", Json::Bool(self.traced));
        out.insert("pinned", Json::Bool(pinning.pinned()));
        out.insert("correct", Json::Bool(self.correct()));
        out.insert("attempted", Json::Num(self.attempted as f64));
        out.insert("failed", Json::Num(self.failed as f64));
        out.insert(
            "violations",
            Json::Arr(self.violations.iter().cloned().map(Json::Str).collect()),
        );
        let measured = self
            .metrics
            .iter()
            .map(|(name, _)| metrics::metric(name).expect("set() checked the name"));
        out.insert("metrics", self.metrics_json(measured));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(traced: bool) -> RunOptions {
        RunOptions {
            workload: &metrics::WORKLOADS[0],
            seed: 1,
            seconds: 1,
            traced,
            size: Size::Toy,
            span_path: None,
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut result = RunResult::new(&options(false));
        result.count_op(true);
        result.set("setup_s", 0.25);
        let line = result.driver_line();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let expected: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        let traced = RunResult::new(&options(true)).driver_line();
        assert_eq!(
            traced.get("metrics").unwrap().fields().len(),
            metrics::traced_metrics().count()
        );
    }

    #[test]
    fn a_failed_op_a_violation_or_a_nan_makes_the_run_incorrect() {
        let mut ok = RunResult::new(&options(false));
        assert!(!ok.correct(), "no operations attempted");
        ok.count_op(true);
        assert!(ok.correct());
        let mut failed = ok.clone();
        failed.count_op(false);
        assert!(!failed.correct());
        let mut violated = ok.clone();
        violated.violations.push("x".into());
        assert!(!violated.correct());
        let mut nan = ok.clone();
        nan.set("setup_s", f64::NAN);
        assert!(!nan.correct());
    }
}
