//! Cross-crate integration of the practical protocol (Section 4): epochs,
//! joins, synchronization and timeouts, exercised through the sans-io
//! state machine driven both by hand and by the event simulator.

use epidemic::aggregation::node::GossipNode;
use epidemic::aggregation::{InstanceSpec, Message, NodeConfig};
use epidemic::common::NodeId;
use epidemic::sim::event::EventConfig;
use epidemic::sim::scenario::{Scenario, ValueInit};
use epidemic::sim::CommFailure;

fn config(gamma: u32) -> NodeConfig {
    NodeConfig::builder()
        .gamma(gamma)
        .cycle_length(1_000)
        .timeout(200)
        .instance(InstanceSpec::AVERAGE)
        .instance(InstanceSpec::count(8.0))
        .build()
        .unwrap()
}

#[test]
fn event_sim_produces_correct_averages_and_counts() {
    let n = 100;
    let out = EventConfig {
        scenario: Scenario {
            n,
            values: ValueInit::Linear,
            ..Scenario::default()
        },
        node: config(20),
        delay: (5, 40),
        drift: 0.01,
        duration: 100_000,
        ..EventConfig::default()
    }
    .run(4);
    let truth = (n as f64 - 1.0) / 2.0;
    let mut avg_errs = Vec::new();
    let mut count_estimates = Vec::new();
    for reports in &out.reports {
        for r in reports {
            if r.epoch == 0 {
                continue; // epoch 0 starts desynchronized by construction
            }
            avg_errs.push((r.scalar(0).unwrap() - truth).abs() / truth);
            if let Some(c) = r.count_estimate() {
                count_estimates.push(c);
            }
        }
    }
    assert!(!avg_errs.is_empty());
    let mean_err = avg_errs.iter().sum::<f64>() / avg_errs.len() as f64;
    assert!(mean_err < 0.01, "mean avg error {mean_err}");
    // COUNT with self-elected leaders: correct within a factor of ~1.5
    // at this scale (Poisson leader count adds noise).
    assert!(!count_estimates.is_empty());
    let mean_count = count_estimates.iter().sum::<f64>() / count_estimates.len() as f64;
    assert!(
        mean_count > n as f64 * 0.6 && mean_count < n as f64 * 1.6,
        "mean count {mean_count}"
    );
}

#[test]
fn joiner_waits_and_participates_later() {
    let cfg = config(5);
    // A founder runs alone; a joiner arrives mid-epoch.
    let mut founder = GossipNode::founder(NodeId::new(0), cfg.clone(), 10.0, 1);
    let mut joiner = GossipNode::joiner(NodeId::new(1), cfg, 50.0, 2, 0, 5_500);

    let mut t = 0u64;
    let mut joiner_merged_epoch = None;
    while t < 30_000 && joiner_merged_epoch.is_none() {
        t += 10;
        if let Some(out) = founder.poll(t, Some(NodeId::new(1))) {
            if let Some(resp) = joiner.handle(&out.message, t) {
                founder.handle(&resp.message, t);
                if joiner.is_active() {
                    joiner_merged_epoch = Some(out.message.epoch);
                }
            }
        }
        joiner.poll(t, Some(NodeId::new(0)));
    }
    assert!(joiner.is_active(), "joiner never activated");
    // Joiner participates in an epoch strictly after the one it saw first.
    assert!(joiner.epoch() >= 1);
}

#[test]
fn epoch_identifiers_synchronize_epidemically() {
    let cfg = config(10);
    let mut slow = GossipNode::founder(NodeId::new(0), cfg.clone(), 1.0, 1);
    assert_eq!(slow.epoch(), 0);
    // A message from epoch 7 drags the slow node forward immediately. An
    // epoch is adopted only within `elapsed / (γ·δ) + 2` of the node's
    // own, so the message arrives five epochs (γ·δ = 10,000 ticks) in.
    let msg = Message::request(
        NodeId::new(9),
        7,
        vec![
            epidemic::aggregation::InstanceState::Scalar(3.0),
            epidemic::aggregation::InstanceState::Map(Default::default()),
        ],
    );
    let resp = slow.handle(&msg, 50_100).unwrap();
    assert_eq!(slow.epoch(), 7);
    assert!(matches!(
        resp.message.body,
        epidemic::aggregation::MessageBody::Reply(_)
    ));
}

#[test]
fn message_loss_slows_but_epochs_still_complete() {
    let out = EventConfig {
        scenario: Scenario {
            n: 60,
            values: ValueInit::Linear,
            comm: CommFailure::messages(0.3),
            ..Scenario::default()
        },
        node: config(15),
        delay: (5, 30),
        drift: 0.02,
        duration: 80_000,
        ..EventConfig::default()
    }
    .run(8);
    assert!(out.messages_lost > 0);
    let completed: usize = out.reports.iter().map(Vec::len).sum();
    assert!(
        completed > 60,
        "only {completed} epochs completed under loss"
    );
}

#[test]
fn isolated_node_epochs_do_not_stall() {
    // A node with no peers must still restart epochs on its own timer
    // (availability under partition).
    let mut node = GossipNode::founder(NodeId::new(0), config(3), 5.0, 1);
    for t in 0..20_000 {
        node.poll(t, None);
    }
    let reports = node.take_reports();
    assert!(
        reports.len() >= 4,
        "only {} epochs while isolated",
        reports.len()
    );
    for r in &reports {
        assert_eq!(r.scalar(0), Some(5.0)); // its own value is the average
    }
}
