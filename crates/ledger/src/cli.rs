//! The `ledger` command line.
//!
//! ```text
//! ledger run --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--out <file>]
//! ledger run --all --seed <u64> [--seconds <n>] [--trace [0|1]] [--out <file>]
//! ledger run --check [--seed <u64>]
//! ledger compare <a.json> <b.json>
//! ```
//!
//! A single-workload run ends its standard output with the one-line JSON
//! result `BENCHMARK.json`'s driver reads. `run --all` runs every
//! workload in a process of its own (peak RSS is per process) and merges
//! the entries into one ledger file.

use crate::json::Json;
use crate::metrics::{self, WORKLOADS};
use crate::run::{RunOptions, RunResult, Size};
use crate::workloads::{self, sim_churn};
use crate::{compare, sys};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const DEFAULT_SECONDS: u64 = 10;
/// Window of a `run --check` toy run.
const CHECK_SECONDS: u64 = 2;
/// Where runs leave their files unless told otherwise.
const OUT_DIR: &str = "ledger-out";

const USAGE: &str = "usage:
  ledger run --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--out <file>]
  ledger run --all --seed <u64> [--seconds <n>] [--trace [0|1]] [--out <file>]
  ledger run --check [--seed <u64>]
  ledger compare <a.json> <b.json>
workloads: sim_churn wire_static wire_gossip query_rpc";

#[derive(Debug, Default, PartialEq)]
struct RunArgs {
    workload: Option<String>,
    all: bool,
    check: bool,
    seed: Option<u64>,
    seconds: Option<u64>,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs::default();
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        let mut value = |what: &str| {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--all" => parsed.all = true,
            "--check" => parsed.check = true,
            "--seed" => {
                let text = value("a number")?;
                parsed.seed = Some(text.parse().map_err(|_| format!("bad seed {text}"))?);
            }
            "--seconds" => {
                let text = value("a number")?;
                let seconds: u64 = text.parse().map_err(|_| format!("bad seconds {text}"))?;
                if !(1..=60).contains(&seconds) {
                    return Err(format!("--seconds must be 1..=60, got {seconds}"));
                }
                parsed.seconds = Some(seconds);
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a file")?)),
            // `--trace` alone, `--trace 1` and `--trace 0` are accepted.
            "--trace" => {
                parsed.traced = match rest.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        rest.next();
                        false
                    }
                    Some("1") => {
                        rest.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let modes = usize::from(parsed.workload.is_some())
        + usize::from(parsed.all)
        + usize::from(parsed.check);
    if modes != 1 {
        return Err("give exactly one of --workload, --all, --check".into());
    }
    Ok(parsed)
}

fn write_json(path: &Path, value: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process; ends stdout with the driver line.
fn run_one(args: &RunArgs, name: &str) -> Result<bool, String> {
    let workload = metrics::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = args.seed.ok_or("--workload needs --seed")?;
    let pinning = sys::pin_to_first_core();
    let options = RunOptions {
        workload,
        seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        traced: args.traced,
        size: Size::Full,
        span_path: Some(Path::new(OUT_DIR).join(format!("spans-{name}.jsonl"))),
    };
    let result = workloads::run(&options);
    workloads::print_tables(&result, pinning);
    if let Some(out) = &args.out {
        write_json(out, &result.ledger_entry(pinning))?;
    }
    println!("{}", result.driver_line().render());
    Ok(result.correct())
}

/// Every workload, each in a child process, merged into one ledger.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let seed = args.seed.ok_or("--all needs --seed")?;
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let child = |name: &str, traced: bool| -> Result<Json, String> {
        let file = Path::new(OUT_DIR).join(format!("run-{name}-{seed}-t{}.json", u8::from(traced)));
        // A run that failed its checks exits 1 but still wrote its entry;
        // one that crashed did not, and reading the file reports that —
        // provided an earlier run's file is not lying there.
        let _ = std::fs::remove_file(&file);
        Command::new(&exe)
            .args(["run", "--workload", name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&file)
            .status()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        read_json(&file)
    };
    let mut entries = Json::object();
    let mut all_correct = true;
    let mut pinned = true;
    for workload in &WORKLOADS {
        let mut entry = child(workload.name, false)?;
        let mut correct = entry.get("correct").and_then(Json::as_bool) == Some(true);
        pinned &= entry.get("pinned").and_then(Json::as_bool) == Some(true);
        if args.traced {
            // End-to-end metrics always come from the untraced run; the
            // traced run contributes what only it measures.
            let traced = child(workload.name, true)?;
            correct &= traced.get("correct").and_then(Json::as_bool) == Some(true);
            let mut per_layer = Json::object();
            for (name, value) in traced.get("metrics").map_or(&[][..], Json::fields) {
                if entry.get("metrics").and_then(|m| m.get(name)).is_none() {
                    per_layer.insert(name, value.clone());
                }
            }
            entry.insert("per_layer", per_layer);
            entry.insert(
                "traced_failed",
                traced.get("failed").cloned().unwrap_or(Json::Null),
            );
        }
        all_correct &= correct;
        entries.insert(workload.name, entry);
    }
    let mut ledger = Json::object();
    ledger.insert("seed", Json::Num(seed as f64));
    ledger.insert("seconds", Json::Num(seconds as f64));
    ledger.insert("pinned", Json::Bool(pinned));
    ledger.insert("correct", Json::Bool(all_correct));
    ledger.insert("workloads", entries);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("ledger-{seed}.json")));
    write_json(&out, &ledger)?;
    println!("ledger written to {}", out.display());
    Ok(all_correct)
}

/// What `run --check` found.
#[derive(Debug)]
pub struct CheckReport {
    /// Every toy run, in the order it ran.
    pub results: Vec<RunResult>,
    /// What was wrong (empty = the check passes).
    pub problems: Vec<String>,
}

/// Every workload at toy size, untraced and traced, in this process,
/// then `sim_churn` twice more to prove its counts repeat.
pub fn check(seed: u64) -> CheckReport {
    let pinning = sys::pin_to_first_core();
    let mut report = CheckReport {
        results: Vec::new(),
        problems: Vec::new(),
    };
    let mut toy = |workload, traced| {
        let result = workloads::run(&RunOptions {
            workload,
            seed,
            seconds: CHECK_SECONDS,
            traced,
            size: Size::Toy,
            span_path: None,
        });
        workloads::print_tables(&result, pinning);
        if !result.correct() {
            report.problems.push(format!(
                "{} (traced: {traced}): {} of {} operations failed, violations {:?}",
                result.workload, result.failed, result.attempted, result.violations
            ));
        }
        report.results.push(result);
    };
    for workload in &WORKLOADS {
        toy(workload, false);
        toy(workload, true);
    }
    toy(&WORKLOADS[0], false);
    toy(&WORKLOADS[0], false);
    let [.., first, second] = report.results.as_slice() else {
        unreachable!("ten runs were pushed");
    };
    let (first, second) = (
        sim_churn::exact_counts(first),
        sim_churn::exact_counts(second),
    );
    if first != second {
        report.problems.push(format!(
            "sim_churn counts differ between two runs of seed {seed}: {first:?} vs {second:?}"
        ));
    }
    report
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare needs exactly two ledger files".into());
    };
    let comparison = compare::compare(&read_json(Path::new(a))?, &read_json(Path::new(b))?);
    print!("{}", comparison.render());
    Ok(comparison.passes())
}

/// Runs the command line; the exit code is 0 on success, 1 when a
/// correctness check or a bound failed, 2 on a usage or I/O error.
pub fn main(args: &[String]) -> ExitCode {
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => parse_run(rest).and_then(|parsed| {
            if parsed.check {
                let report = check(parsed.seed.unwrap_or(1));
                for problem in &report.problems {
                    eprintln!("ledger: check failed: {problem}");
                }
                Ok(report.problems.is_empty())
            } else if parsed.all {
                run_all(&parsed)
            } else {
                let name = parsed.workload.clone().expect("parse_run checked the mode");
                run_one(&parsed, &name)
            }
        }),
        Some((command, rest)) if command == "compare" => run_compare(rest),
        _ => Err("expected `run` or `compare`".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ledger: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_and_issue_spellings_of_trace_parse() {
        let driver = parse_run(&args(
            "--workload wire_static --seed 7 --seconds 10 --trace 1",
        ));
        let driver = driver.unwrap();
        assert_eq!(driver.workload.as_deref(), Some("wire_static"));
        assert_eq!(
            (driver.seed, driver.seconds, driver.traced),
            (Some(7), Some(10), true)
        );
        assert!(!parse_run(&args("--all --seed 1 --trace 0")).unwrap().traced);
        let bare = parse_run(&args("--workload query_rpc --trace --seed 3")).unwrap();
        assert!(bare.traced);
        assert_eq!(bare.seed, Some(3));
    }

    #[test]
    fn malformed_invocations_are_rejected() {
        assert!(parse_run(&args("--seed 1")).is_err());
        assert!(parse_run(&args("--all --check")).is_err());
        assert!(parse_run(&args("--all --seed x")).is_err());
        assert!(parse_run(&args("--all --seed 1 --seconds 0")).is_err());
        assert!(parse_run(&args("--all --seed 1 --seconds 61")).is_err());
        assert!(parse_run(&args("--all --seed")).is_err());
        assert!(parse_run(&args("--all --bogus")).is_err());
    }
}
