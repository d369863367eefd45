//! `ledger compare`: two ledgers, metric by metric, against the bounds.
//!
//! The same tool serves the repeatability check (two runs of one commit
//! must agree within the benchmark's own bounds) and later A/B reviews
//! (baseline first, candidate second).

use crate::json::Json;
use crate::metrics::{self, Better};

/// One workload × metric row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Value in the first (baseline) ledger.
    pub a: f64,
    /// Value in the second ledger.
    pub b: f64,
    /// Relative change in the direction that counts as worse (negative =
    /// the second ledger is better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
}

impl Row {
    /// `true` when the second ledger is worse by more than the bound.
    pub fn exceeded(&self) -> bool {
        self.worse_by > self.bound
    }
}

/// Failure share of one workload in both ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct Failures {
    /// Workload name.
    pub workload: String,
    /// `(failed, attempted)` in the first ledger.
    pub a: (f64, f64),
    /// `(failed, attempted)` in the second ledger.
    pub b: (f64, f64),
}

/// The outcome of comparing two ledgers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// Every gated metric both ledgers measured.
    pub rows: Vec<Row>,
    /// Failure shares, side by side.
    pub failures: Vec<Failures>,
    /// Workloads or metrics one ledger has and the other lacks.
    pub missing: Vec<String>,
}

impl Comparison {
    /// `true` when no bound is exceeded, nothing is missing and the
    /// second ledger fails no larger a share of operations.
    pub fn passes(&self) -> bool {
        self.missing.is_empty()
            && self.rows.iter().all(|r| !r.exceeded())
            && self.failures.iter().all(|f| f.b.0 * f.a.1 <= f.a.0 * f.b.1)
    }

    /// The comparison as an aligned text table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:<28} {:>14} {:>14} {:>9} {:>7}",
            "workload", "metric", "a", "b", "worse by", "bound"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<12} {:<28} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{}",
                row.workload,
                row.metric,
                row.a,
                row.b,
                row.worse_by * 100.0,
                row.bound * 100.0,
                if row.exceeded() { "  EXCEEDED" } else { "" },
            );
        }
        for f in &self.failures {
            let _ = writeln!(
                out,
                "{:<12} failed/attempted: a {}/{}  b {}/{}",
                f.workload, f.a.0, f.a.1, f.b.0, f.b.1
            );
        }
        for what in &self.missing {
            let _ = writeln!(out, "MISSING: {what}");
        }
        out
    }
}

/// The per-workload entries of a ledger: a `run --all` file has them
/// under `workloads`, a single run's `--out` file is one entry itself.
fn entries(ledger: &Json) -> Vec<(String, &Json)> {
    match ledger.get("workloads") {
        Some(workloads) => workloads
            .fields()
            .iter()
            .map(|(name, entry)| (name.clone(), entry))
            .collect(),
        None => ledger
            .get("workload")
            .and_then(Json::as_str)
            .map(|name| (name.to_string(), ledger))
            .into_iter()
            .collect(),
    }
}

fn metric_value(entry: &Json, name: &str) -> Option<f64> {
    entry.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn failure_pair(entry: &Json) -> (f64, f64) {
    let number = |key| entry.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    (number("failed"), number("attempted"))
}

/// Compares ledger `b` against baseline `a`.
pub fn compare(a: &Json, b: &Json) -> Comparison {
    let mut out = Comparison::default();
    let (entries_a, entries_b) = (entries(a), entries(b));
    if entries_a.is_empty() {
        out.missing
            .push("first ledger has no workload entries".into());
    }
    for (workload, _) in &entries_b {
        if !entries_a.iter().any(|(w, _)| w == workload) {
            out.missing
                .push(format!("{workload} is only in the second ledger"));
        }
    }
    for (workload, entry_a) in &entries_a {
        let Some((_, entry_b)) = entries_b.iter().find(|(w, _)| w == workload) else {
            out.missing
                .push(format!("{workload} is only in the first ledger"));
            continue;
        };
        out.failures.push(Failures {
            workload: workload.clone(),
            a: failure_pair(entry_a),
            b: failure_pair(entry_b),
        });
        for def in metrics::gated_metrics() {
            let (va, vb) = (
                metric_value(entry_a, def.name),
                metric_value(entry_b, def.name),
            );
            let (va, vb) = match (va, vb) {
                (Some(va), Some(vb)) => (va, vb),
                (None, None) => continue,
                _ => {
                    out.missing
                        .push(format!("{workload}: {} is in one ledger only", def.name));
                    continue;
                }
            };
            let change = (vb - va) / va;
            out.rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                a: va,
                b: vb,
                worse_by: match def.better {
                    Better::Lower => change,
                    Better::Higher => -change,
                },
                bound: def.bound.expect("gated metrics carry a bound"),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(epochs_per_cpu_s: f64, bytes: f64, failed: f64) -> Json {
        Json::parse(&format!(
            r#"{{"seed": 1, "workloads": {{"wire_static": {{
                "attempted": 1000, "failed": {failed},
                "metrics": {{
                    "node_epochs_per_cpu_s": {{"value": {epochs_per_cpu_s}, "unit": "1/s"}},
                    "wire_bytes_per_node_epoch": {{"value": {bytes}, "unit": "B"}},
                    "codec.encode_ns": {{"value": 99, "unit": "ns"}}
                }}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn within_bounds_passes_and_direction_is_respected() {
        let base = ledger(4000.0, 2300.0, 0.0);
        // 5% fewer epochs per CPU second (worse, inside the bound); 4% fewer
        // bytes (better).
        let cmp = compare(&base, &ledger(3800.0, 2208.0, 0.0));
        assert!(cmp.passes(), "{}", cmp.render());
        assert_eq!(cmp.rows.len(), 2, "ungated metrics are not compared");
        let epochs = &cmp.rows[0];
        assert_eq!(epochs.metric, "node_epochs_per_cpu_s");
        assert!((epochs.worse_by - 0.05).abs() < 1e-12);
        assert!(cmp.rows[1].worse_by < 0.0);
    }

    #[test]
    fn an_exceeded_bound_or_new_failures_fail_the_comparison() {
        let base = ledger(4000.0, 2300.0, 0.0);
        let slower = compare(&base, &ledger(3000.0, 2300.0, 0.0));
        assert!(!slower.passes());
        assert!(slower.render().contains("EXCEEDED"));
        let fatter = compare(&base, &ledger(4000.0, 2500.0, 0.0));
        assert!(!fatter.passes());
        let failing = compare(&base, &ledger(4000.0, 2300.0, 3.0));
        assert!(!failing.passes());
        // Faster is never a regression, however large the change.
        assert!(compare(&base, &ledger(8000.0, 1000.0, 0.0)).passes());
    }

    #[test]
    fn a_single_run_entry_compares_and_a_missing_workload_is_reported() {
        let single = Json::parse(
            r#"{"workload": "sim_churn", "attempted": 10, "failed": 0,
                "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#,
        )
        .unwrap();
        let cmp = compare(&single, &single);
        assert!(cmp.passes());
        assert_eq!(cmp.rows.len(), 1);
        let cross = compare(&single, &ledger(1.0, 1.0, 0.0));
        assert!(!cross.passes());
        assert_eq!(cross.missing.len(), 2);
    }
}
