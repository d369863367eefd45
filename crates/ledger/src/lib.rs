//! The repository's benchmark: pinned, seeded workloads and a ledger.
//!
//! Four workloads drive the product through its public API only; each run
//! checks every output against a truth computed from the same generated
//! inputs and prints every metric by name with its unit. See the crate
//! README for the workload and metric tables, and `BENCHMARK.json` at the
//! repository root for the contract the benchmark driver holds it to.

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod span;
pub mod stats;
pub mod sys;
pub mod workloads;
