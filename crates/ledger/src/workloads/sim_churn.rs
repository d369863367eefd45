//! `sim_churn`: the event simulator under churn, loss and drift.
//!
//! The researcher's path, and the only workload whose counts are exact:
//! one thread, one seeded event queue, so the same seed yields the same
//! messages, bytes and reports on any host. The work is fixed by the
//! seed and `--seconds` (six simulated cycles per second asked for, about
//! what the baseline simulates per CPU second at this size), never by a
//! wall clock.

use crate::metrics::{rel_err, EPSILON};
use crate::replay;
use crate::run::{BudgetRow, RunOptions, RunResult, Size};
use crate::span::Spans;
use crate::{alloc, stats, sys};
use epidemic_aggregation::{InstanceState, Message};
use epidemic_common::NodeId;
use epidemic_net::codec;
use epidemic_net::directory::GossipDirectoryConfig;
use epidemic_sim::event::{EventConfig, EventOutcome, EventSim, MembershipModel};
use epidemic_sim::{CommFailure, FailureModel, OverlaySpec, Scenario, ValueInit};
use epidemic_telemetry::TraceKind;
use std::time::Instant;

const GAMMA: u32 = 15;
const CYCLE_TICKS: u64 = 1_000;
const VIEW_SIZE: usize = 30;
/// Mean of `Uniform[0, 100)`, and the value every churn joiner brings, so
/// the true average stays within sampling error (under 1%) of it however
/// the simulator's own draws pick the nodes that leave.
const TRUTH: f64 = 50.0;
/// Times `EventSim::new` runs; `setup_s` is their median.
const SETUPS: usize = 9;
const TRACE_CAPACITY: usize = 4_096;

fn config(options: &RunOptions, trace_capacity: usize) -> EventConfig {
    let (n, churn, cycles) = match options.size {
        Size::Full => (2_048, 10, 6 * options.seconds),
        // Three epochs, whatever window was asked for.
        Size::Toy => (128, 1, 3 * u64::from(GAMMA)),
    };
    EventConfig {
        scenario: Scenario {
            n,
            overlay: OverlaySpec::Newscast { c: VIEW_SIZE },
            values: ValueInit::Uniform { lo: 0.0, hi: 100.0 },
            failure: FailureModel::Churn { per_cycle: churn },
            comm: CommFailure::messages(0.01),
            joiner_value: TRUTH,
            ..Scenario::default()
        },
        node: super::node_config(GAMMA, CYCLE_TICKS, 200),
        delay: (10, 50),
        drift: 0.01,
        duration: cycles * CYCLE_TICKS,
        membership: MembershipModel::Gossip,
        trace_capacity,
        ..EventConfig::default()
    }
}

/// One timed `EventSim::run`.
struct Measured {
    outcome: EventOutcome,
    cpu_ns: u64,
    wall_s: f64,
    allocs: u64,
    /// Median seconds of [`SETUPS`] `EventSim::new` calls.
    new_s: f64,
    /// RSS growth from before the first `new` to after `run`.
    rss_growth: u64,
}

fn measure(config: &EventConfig, seed: u64, spans: &mut Spans) -> Measured {
    let rss_before = sys::rss_bytes();
    let mut new_times = Vec::with_capacity(SETUPS);
    let mut sim = None;
    for _ in 0..SETUPS {
        drop(sim.take());
        let start = Instant::now();
        sim = Some(spans.record("sim.new", Spans::ROOT, || EventSim::new(config, seed)));
        new_times.push(start.elapsed().as_secs_f64());
    }
    let sim = sim.expect("SETUPS > 0");
    let window = spans.begin("harness.window", Spans::ROOT);
    let cpu_before = sys::process_cpu_ns();
    let start = Instant::now();
    let (outcome, allocs) = alloc::counted(|| spans.record("sim.run", window, || sim.run()));
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_ns = sys::process_cpu_ns() - cpu_before;
    spans.end(window);
    Measured {
        outcome,
        cpu_ns,
        wall_s,
        allocs,
        new_s: stats::median(&new_times).expect("SETUPS > 0"),
        rss_growth: sys::peak_rss_bytes().saturating_sub(rss_before),
    }
}

/// Wire bytes the simulated run would have sent: view and query traffic
/// as the simulator priced it, aggregation messages at the codec's size
/// for an AVERAGE exchange frame.
fn wire_bytes(outcome: &EventOutcome) -> u64 {
    let frame = Message::request(NodeId::new(0), 0, vec![InstanceState::Scalar(TRUTH)]);
    (outcome.view_bytes_sent
        + outcome.query_bytes_sent
        + outcome.messages_sent * codec::encoded_len(&frame)) as u64
}

/// Runs the workload.
pub fn run(options: &RunOptions, spans: &mut Spans) -> RunResult {
    let mut result = RunResult::new(options);
    let untraced = config(options, 0);
    let n = untraced.scenario.n;
    let reference = measure(&untraced, options.seed, spans);
    let measured = if options.traced {
        alloc::set_counting(true);
        let traced = measure(&config(options, TRACE_CAPACITY), options.seed, spans);
        // Same seed, same events: tracing may cost time, never behaviour.
        if traced.outcome.messages_sent != reference.outcome.messages_sent {
            result
                .violations
                .push("traced and untraced runs of one seed sent different messages".into());
        }
        result.set(
            "trace.overhead_pct",
            (traced.cpu_ns as f64 / reference.cpu_ns as f64 - 1.0) * 100.0,
        );
        traced
    } else {
        reference
    };
    let outcome = &measured.outcome;

    let mut rel_errs = Vec::new();
    for report in outcome.reports.iter().flatten() {
        let rel_err = rel_err(report.scalar(0), TRUTH);
        result.count_op(rel_err <= EPSILON);
        rel_errs.push(rel_err);
    }
    let converged = (result.attempted - result.failed) as f64;
    let cpu_s = measured.cpu_ns as f64 / 1e9;
    let bytes = wire_bytes(outcome);
    let messages = outcome.messages_sent + outcome.view_messages_sent + outcome.query_messages_sent;
    if outcome.final_alive != n {
        result.violations.push(format!(
            "churn must keep the population at {n}, found {}",
            outcome.final_alive
        ));
    }

    result.window_cpu_ns = measured.cpu_ns;
    result.set("setup_s", measured.new_s);
    result.set("node_epochs_per_cpu_s", converged / cpu_s);
    result.set("wire_bytes_per_node_epoch", bytes as f64 / converged);
    result.set(
        "peak_rss_mb",
        sys::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
    );
    if !options.traced {
        return result;
    }

    let epochs_elapsed = (untraced.duration / CYCLE_TICKS) as f64 / f64::from(GAMMA);
    stats::sort(&mut rel_errs);
    result.set("core.epoch_yield", converged / (n as f64 * epochs_elapsed));
    result.set(
        "core.rel_err_p99",
        stats::percentile(&rel_errs, 0.99).unwrap_or(0.0),
    );
    let count = |kind: TraceKind| -> u64 {
        outcome
            .traces
            .iter()
            .flatten()
            .filter(|e| e.kind == kind)
            .count() as u64
    };
    let inits = count(TraceKind::ExchangeInit);
    result.set(
        "core.exchange_timeout_ratio",
        count(TraceKind::ExchangeTimeout) as f64 / inits.max(1) as f64,
    );
    result.set(
        "directory.bytes_per_node_epoch",
        outcome.view_bytes_sent as f64 / converged,
    );
    result.set(
        "directory.view_dead_fraction",
        outcome.view_health.map_or(0.0, |h| h.dead_entry_fraction),
    );
    result.set("sim.new_ms", measured.new_s * 1e3);
    result.set("sim.run_s", measured.wall_s);
    result.set(
        "sim.ns_per_message",
        measured.cpu_ns as f64 / messages as f64,
    );
    result.set(
        "sim.allocs_per_message",
        measured.allocs as f64 / messages as f64,
    );
    result.set(
        "sim.rss_bytes_per_node",
        measured.rss_growth as f64 / n as f64,
    );
    result.set("sim.messages", messages as f64);
    result.set(
        "sim.messages_lost",
        (outcome.messages_lost + outcome.view_messages_lost + outcome.query_messages_lost) as f64,
    );
    let render_start = Instant::now();
    std::hint::black_box(outcome.registry.render_prometheus());
    result.set(
        "telemetry.render_ms",
        render_start.elapsed().as_secs_f64() * 1e3,
    );

    // The layers the simulator embeds, replayed alone.
    let replay_span = spans.begin("harness.replay", Spans::ROOT);
    let core = replay::core(
        spans,
        replay_span,
        &super::node_config(GAMMA, CYCLE_TICKS, 200),
        60,
    );
    let directory = replay::gossip_directory(
        spans,
        replay_span,
        &GossipDirectoryConfig::new(VIEW_SIZE, CYCLE_TICKS).with_introducer_node(0),
        20,
    );
    let telemetry = replay::telemetry(spans, replay_span);
    spans.end(replay_span);
    result.set("core.poll_ns", core.poll.ns);
    result.set("core.handle_ns", core.handle.ns);
    result.set(
        "core.allocs_per_exchange",
        core.poll.allocs + 2.0 * core.handle.allocs,
    );
    result.set("directory.poll_ns", directory.poll.ns);
    result.set("directory.handle_ns", directory.handle.ns);
    result.set("telemetry.counter_inc_ns", telemetry.counter_inc.ns);
    result.set(
        "telemetry.histogram_record_ns",
        telemetry.histogram_record.ns,
    );
    let delivered = |sent: usize, lost: usize| (sent - lost) as u64;
    result.budget = vec![
        BudgetRow {
            stage: "core.poll",
            ops: inits,
            ns_per_op: core.poll.ns,
        },
        BudgetRow {
            stage: "core.handle",
            ops: delivered(outcome.messages_sent, outcome.messages_lost),
            ns_per_op: core.handle.ns,
        },
        BudgetRow {
            stage: "directory.poll",
            ops: outcome.view_messages_sent as u64 / 2,
            ns_per_op: directory.poll.ns,
        },
        BudgetRow {
            stage: "directory.handle",
            ops: delivered(outcome.view_messages_sent, outcome.view_messages_lost),
            ns_per_op: directory.handle.ns,
        },
    ];
    result.set("budget.coverage", super::budget_coverage(&result));
    alloc::set_counting(false);
    result
}

/// The counts of a run that must repeat exactly for one seed.
pub fn exact_counts(result: &RunResult) -> (u64, u64, Option<f64>) {
    (
        result.attempted,
        result.failed,
        result.get("wire_bytes_per_node_epoch"),
    )
}
