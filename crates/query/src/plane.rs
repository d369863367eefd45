//! The per-node query plane: one sans-io state machine multiplexing
//! every installed query.
//!
//! A [`QueryPlane`] owns the node's catalog replica plus one
//! [`GossipNode`] per live query — each query is its own epoch-restart
//! schedule over the shared exchange plane, so concurrent queries with
//! different γ and δ coexist without interfering (their frames are
//! routed by query name, see `epidemic-net`'s tag 12). Like the
//! aggregation core it performs no I/O and holds no clock: embeddings
//! call [`QueryPlane::poll`] with the current time and a peer sampler,
//! deliver incoming frames through [`QueryPlane::handle_catalog`] /
//! [`QueryPlane::handle_aggregation`], serve clients through
//! [`QueryPlane::handle_rpc`], and transmit whatever [`QueryOutbound`]
//! frames come back. The event simulator and the UDP runtime drive
//! this exact type, which is what makes sim-vs-wire conformance a test
//! rather than a hope.
//!
//! Each query's epoch schedule is anchored cluster-wide at the gossiped
//! install timestamp: the installing node activates into epoch 1
//! immediately, and a node that learns of the query later starts its
//! [`GossipNode`] as a Section 4.2 joiner that waits for the next common
//! boundary `installed_at + k·γδ`. Deriving boundaries from the shared
//! anchor (rather than each node's local discovery time) keeps epoch
//! restarts aligned, so every replica settles every epoch instead of
//! being perpetually jumped forward by earlier-anchored peers.

use crate::admission::TokenBucket;
use crate::catalog::{CatalogEntry, QueryCatalog};
use crate::descriptor::QueryDescriptor;
use crate::rpc::{RpcRequest, RpcResponse, RpcStatus};
use crate::QueryError;
use epidemic_aggregation::{
    AggregateKind, EpochReport, GossipNode, InstanceState, Message, NodeConfig, PeerSampler,
};
use epidemic_common::NodeId;
use epidemic_telemetry::{Counter, Gauge, Registry};
use std::collections::BTreeMap;

/// Plane-wide tuning knobs shared by every node of a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryPlaneConfig {
    /// Catalog anti-entropy cadence in milliseconds: how often a node
    /// pushes its entry list to a random peer when nothing changed.
    pub gossip_period: u64,
    /// Peers contacted per gossip round while a recent change is being
    /// spread (the rumor-mongering boost).
    pub boost_fanout: usize,
    /// Gossip rounds the boost lasts after a change.
    pub boost_rounds: u32,
    /// `C` of `P_lead = C/N̂` for queries that need a COUNT instance.
    pub count_concurrency: f64,
    /// Initial network-size guess handed to each query's gossip node.
    pub initial_size_guess: f64,
}

impl Default for QueryPlaneConfig {
    fn default() -> Self {
        QueryPlaneConfig {
            gossip_period: 250,
            boost_fanout: 4,
            boost_rounds: 4,
            count_concurrency: 16.0,
            initial_size_guess: 64.0,
        }
    }
}

/// An outbound query-plane frame with its destination.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutbound {
    /// A push-pull aggregation message belonging to the named query
    /// (wire tag 12).
    Aggregation {
        /// Destination node.
        to: NodeId,
        /// Owning query.
        query: String,
        /// The embedded aggregation message.
        message: Message,
    },
    /// A catalog gossip push (wire tag 11).
    Catalog {
        /// Destination node.
        to: NodeId,
        /// Full entry list, tombstones included.
        entries: Vec<CatalogEntry>,
    },
}

/// A readable estimate of one query at one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryEstimate {
    /// The estimated aggregate value.
    pub value: f64,
    /// Epoch the estimate belongs to.
    pub epoch: u64,
    /// `true` when the value comes from a completed epoch (a consistent
    /// snapshot); `false` for a mid-epoch read of the converging state.
    pub settled: bool,
}

/// One completed query epoch, drained by the embedding for cluster-level
/// telemetry (per-query estimate drift).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryEpoch {
    /// Owning query.
    pub query: String,
    /// The completed epoch number.
    pub epoch: u64,
    /// This node's estimate for that epoch (`None` when the aggregate
    /// could not be extracted, e.g. no COUNT mass reached the node).
    pub estimate: Option<f64>,
}

struct RunningQuery {
    node: GossipNode,
    version: u32,
    kind: AggregateKind,
    bucket: TokenBucket,
    latest: Option<(u64, f64)>,
    submits: Counter,
    reads: Counter,
    rejects: Counter,
}

impl RunningQuery {
    /// Moves the node's completed epochs into `epochs`, remembering the
    /// newest readable estimate.
    fn harvest(&mut self, name: &str, epochs: &mut Vec<QueryEpoch>) {
        for report in self.node.take_reports() {
            let estimate = self.kind.extract(&report, 0);
            if let Some(value) = estimate {
                self.latest = Some((report.epoch, value));
            }
            epochs.push(QueryEpoch {
                query: name.to_string(),
                epoch: report.epoch,
                estimate,
            });
        }
    }
}

impl std::fmt::Debug for RunningQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningQuery")
            .field("kind", &self.kind)
            .field("epoch", &self.node.epoch())
            .field("latest", &self.latest)
            .finish()
    }
}

/// The per-node query plane state machine.
#[derive(Debug)]
pub struct QueryPlane {
    id: NodeId,
    seed: u64,
    config: QueryPlaneConfig,
    catalog: QueryCatalog,
    running: BTreeMap<String, RunningQuery>,
    next_gossip_at: u64,
    boost_left: u32,
    epochs: Vec<QueryEpoch>,
    registry: Registry,
    installed_gauge: Gauge,
}

impl QueryPlane {
    /// Creates an empty plane for node `id`. Metrics go to `registry`
    /// (pass [`Registry::disabled`] to run without telemetry).
    pub fn new(id: NodeId, config: QueryPlaneConfig, seed: u64, registry: Registry) -> Self {
        let installed_gauge = registry.gauge("query.installed");
        QueryPlane {
            id,
            seed,
            config,
            catalog: QueryCatalog::new(),
            running: BTreeMap::new(),
            next_gossip_at: u64::MAX,
            boost_left: 0,
            epochs: Vec::new(),
            registry,
            installed_gauge,
        }
    }

    /// Node this plane belongs to.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Names of the queries currently running at this node.
    pub fn installed(&self) -> Vec<String> {
        self.running.keys().cloned().collect()
    }

    /// The catalog replica (tombstones included) — the gossip payload.
    pub fn catalog_entries(&self) -> Vec<CatalogEntry> {
        self.catalog.entries().cloned().collect()
    }

    /// Installs a query at this node and starts spreading it.
    ///
    /// # Errors
    ///
    /// Propagates [`QueryCatalog::install`] failures (validation,
    /// conflict).
    pub fn install(&mut self, descriptor: QueryDescriptor, now: u64) -> Result<(), QueryError> {
        if self.catalog.install(descriptor, now)? {
            self.mark_changed(now);
            self.sync_running(now);
        }
        Ok(())
    }

    /// Removes (tombstones) a query and starts spreading the removal.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownQuery`] when no live query of that name
    /// exists.
    pub fn remove(&mut self, name: &str, now: u64) -> Result<(), QueryError> {
        self.catalog.remove(name, now)?;
        self.mark_changed(now);
        self.sync_running(now);
        Ok(())
    }

    /// Submits this node's contribution to a query, subject to the
    /// query's admission limits. The value takes effect at the query's
    /// next epoch (snapshot semantics, same as `set_local_value`).
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownQuery`] or [`QueryError::AdmissionRejected`]
    /// — the latter is also counted in the per-query
    /// `query.admission_rejects` series, never swallowed.
    pub fn submit(&mut self, name: &str, value: f64, now: u64) -> Result<(), QueryError> {
        let query = self.running.get_mut(name).ok_or(QueryError::UnknownQuery)?;
        if !query.bucket.try_take(now) {
            query.rejects.inc();
            return Err(QueryError::AdmissionRejected);
        }
        query.node.set_local_value(value);
        query.submits.inc();
        Ok(())
    }

    /// Reads the current estimate of a query at this node.
    ///
    /// Prefers the last completed epoch (a consistent snapshot); before
    /// any epoch completes, scalar-instance aggregates fall back to the
    /// converging mid-epoch state. COUNT-composed aggregates have no
    /// mid-epoch readout and report [`QueryError::NotReady`] until their
    /// first epoch closes.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownQuery`] or [`QueryError::NotReady`].
    pub fn estimate(&mut self, name: &str) -> Result<QueryEstimate, QueryError> {
        let query = self.running.get_mut(name).ok_or(QueryError::UnknownQuery)?;
        query.reads.inc();
        if let Some((epoch, value)) = query.latest {
            return Ok(QueryEstimate {
                value,
                epoch,
                settled: true,
            });
        }
        // Mid-epoch fallback: reconstruct a report from the live scalar
        // states (maps are not exposed mid-epoch).
        let mut states = Vec::new();
        for idx in 0..query.kind.instance_count() {
            match query.node.scalar_estimate(idx) {
                Some(v) => states.push(InstanceState::Scalar(v)),
                None => return Err(QueryError::NotReady),
            }
        }
        let report = EpochReport {
            epoch: query.node.epoch(),
            cycles_run: query.node.cycles_run(),
            states,
        };
        match query.kind.extract(&report, 0) {
            Some(value) => Ok(QueryEstimate {
                value,
                epoch: report.epoch,
                settled: false,
            }),
            None => Err(QueryError::NotReady),
        }
    }

    /// Serves one client RPC — the single entry point shared by every
    /// runtime, so a request is answered identically no matter which
    /// transport delivered it.
    pub fn handle_rpc(&mut self, request: &RpcRequest, now: u64) -> RpcResponse {
        let id = request.id();
        let result = match request {
            RpcRequest::Install { descriptor, .. } => self
                .install(descriptor.clone(), now)
                .map(|()| RpcResponse::ack(id)),
            RpcRequest::Remove { name, .. } => {
                self.remove(name, now).map(|()| RpcResponse::ack(id))
            }
            RpcRequest::Submit { name, value, .. } => self
                .submit(name, *value, now)
                .map(|()| RpcResponse::ack(id)),
            RpcRequest::Read { name, .. } => self.estimate(name).map(|est| RpcResponse {
                id,
                status: RpcStatus::Ok,
                estimate: est.value,
                epoch: est.epoch,
            }),
        };
        result.unwrap_or_else(|err| RpcResponse::reject(id, err.into()))
    }

    /// Advances timers to `now`: expires TTLs, runs every query's gossip
    /// schedule, and emits due catalog gossip. Returns the frames to
    /// transmit. The sampler is the embedding's `GETNEIGHBOR()`; it is
    /// consulted once per initiated exchange and once per catalog push.
    pub fn poll(&mut self, now: u64, sampler: &mut dyn PeerSampler) -> Vec<QueryOutbound> {
        let mut out = Vec::new();
        if self.catalog.expire(now) > 0 {
            self.mark_changed(now);
            self.sync_running(now);
        }
        for (name, query) in self.running.iter_mut() {
            if let Some(outbound) = query.node.poll_sampler(now, sampler) {
                out.push(QueryOutbound::Aggregation {
                    to: outbound.to,
                    query: name.clone(),
                    message: outbound.message,
                });
            }
        }
        self.harvest_reports();
        if now >= self.next_gossip_at && !self.catalog.is_empty() {
            let fanout = if self.boost_left > 0 {
                self.boost_left -= 1;
                self.config.boost_fanout.max(1)
            } else {
                1
            };
            let entries = self.catalog_entries();
            for _ in 0..fanout {
                if let Some(peer) = sampler.draw_peer() {
                    if peer != self.id {
                        out.push(QueryOutbound::Catalog {
                            to: peer,
                            entries: entries.clone(),
                        });
                    }
                }
            }
            self.next_gossip_at = now + self.config.gossip_period;
        }
        out
    }

    /// Merges a gossiped catalog; returns `true` if the replica changed
    /// (in which case the node re-gossips promptly to keep the rumor
    /// spreading, and the embedding should re-read
    /// [`QueryPlane::next_deadline`]).
    pub fn handle_catalog(&mut self, entries: &[CatalogEntry], now: u64) -> bool {
        if self.catalog.merge_all(entries) {
            self.mark_changed(now);
            self.sync_running(now);
            true
        } else {
            // First contact with an equal catalog still starts the
            // gossip schedule (a fresh node may have merged nothing new
            // yet still needs to participate in anti-entropy).
            if self.next_gossip_at == u64::MAX && !self.catalog.is_empty() {
                self.next_gossip_at = now + self.config.gossip_period;
            }
            false
        }
    }

    /// Routes an incoming aggregation message to its query, returning
    /// the reply to transmit. Messages for unknown queries are dropped —
    /// catalog gossip will catch the node up, and the sender's exchange
    /// timeout masks the gap exactly like a crashed peer.
    pub fn handle_aggregation(
        &mut self,
        query: &str,
        message: &Message,
        now: u64,
    ) -> Option<QueryOutbound> {
        let running = self.running.get_mut(query)?;
        let reply = running.node.handle(message, now);
        // Only the touched query can have completed an epoch.
        running.harvest(query, &mut self.epochs);
        reply.map(|outbound| QueryOutbound::Aggregation {
            to: outbound.to,
            query: query.to_string(),
            message: outbound.message,
        })
    }

    /// Earliest tick this plane needs polling again: the soonest query
    /// deadline or the next catalog gossip, whichever comes first.
    /// `u64::MAX` while the plane is empty. Re-read after every local
    /// operation and every `handle_*` call — installs change it.
    pub fn next_deadline(&self) -> u64 {
        let mut deadline = self.next_gossip_at;
        for query in self.running.values() {
            deadline = deadline.min(query.node.next_deadline());
        }
        deadline
    }

    /// Drains the completed query epochs recorded since the last call
    /// (for cluster-level per-query telemetry).
    pub fn take_epochs(&mut self) -> Vec<QueryEpoch> {
        std::mem::take(&mut self.epochs)
    }

    fn mark_changed(&mut self, now: u64) {
        self.boost_left = self.config.boost_rounds;
        self.next_gossip_at = self.next_gossip_at.min(now);
    }

    fn harvest_reports(&mut self) {
        for (name, query) in self.running.iter_mut() {
            query.harvest(name, &mut self.epochs);
        }
    }

    /// Reconciles the running set with the catalog: starts gossip nodes
    /// for newly live queries, drops removed/expired ones.
    fn sync_running(&mut self, now: u64) {
        let live: Vec<CatalogEntry> = self.catalog.live(now).cloned().collect();
        // Version mismatches (a resurrected name with a new descriptor)
        // drop the stale node and restart from the new entry's anchor.
        self.running.retain(|name, query| {
            live.iter()
                .any(|e| e.descriptor.name == *name && e.version == query.version)
        });
        for entry in live {
            let name = entry.descriptor.name.clone();
            if self.running.contains_key(&name) {
                continue;
            }
            let d = &entry.descriptor;
            let mut builder = NodeConfig::builder();
            builder
                .gamma(d.gamma)
                .cycle_length(d.cycle_length)
                .timeout(d.timeout)
                .initial_size_guess(self.config.initial_size_guess);
            for spec in d.kind.instances(self.config.count_concurrency) {
                builder.instance(spec);
            }
            let config = builder
                .build()
                .expect("validated descriptor yields a valid node config");
            // The query's epoch schedule is anchored cluster-wide at the
            // gossiped install time: epoch k spans
            // `anchor + (k-1)·γδ .. anchor + k·γδ`. The installer (and
            // any node learning of the query within the same tick)
            // activates into epoch 1 at once; a late learner joins as a
            // Section 4.2 joiner waiting for the next common boundary so
            // its epoch restarts stay aligned with everyone else's.
            let seed = self.seed ^ name_seed(&name);
            let epoch_len = u64::from(d.gamma) * d.cycle_length;
            let anchor = entry.installed_at;
            let elapsed = now.saturating_sub(anchor);
            let node = if elapsed == 0 {
                let mut node =
                    GossipNode::joiner(self.id, config, d.default_value, seed, 0, anchor);
                // The activation is due immediately; perform it now so an
                // install-then-read at the same tick already sees a live
                // (if unconverged) instance.
                node.poll(now, None);
                node
            } else {
                let boundary = elapsed / epoch_len + 1;
                GossipNode::joiner(
                    self.id,
                    config,
                    d.default_value,
                    seed,
                    boundary,
                    anchor + boundary * epoch_len,
                )
            };
            let labels = [("query", name.as_str())];
            self.running.insert(
                name.clone(),
                RunningQuery {
                    node,
                    version: entry.version,
                    kind: d.kind,
                    bucket: TokenBucket::new(d.admission),
                    latest: None,
                    submits: self.registry.counter_with("query.submits", &labels),
                    reads: self.registry.counter_with("query.reads", &labels),
                    rejects: self
                        .registry
                        .counter_with("query.admission_rejects", &labels),
                },
            );
        }
        self.installed_gauge.set(self.running.len() as f64);
    }
}

/// FNV-1a over the query name: a per-query seed offset so two queries at
/// the same node draw independent randomness streams.
fn name_seed(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::AdmissionConfig;

    struct RoundRobin {
        peers: Vec<u64>,
        at: usize,
    }

    impl PeerSampler for RoundRobin {
        fn draw_peer(&mut self) -> Option<NodeId> {
            let peer = self.peers[self.at % self.peers.len()];
            self.at += 1;
            Some(NodeId::new(peer))
        }
    }

    fn plane(id: u64) -> QueryPlane {
        QueryPlane::new(
            NodeId::new(id),
            QueryPlaneConfig::default(),
            42,
            Registry::disabled(),
        )
    }

    fn fast_query(name: &str, kind: AggregateKind) -> QueryDescriptor {
        QueryDescriptor::new(name, kind)
            .with_gamma(4)
            .with_cycle_length(100)
    }

    /// Drives a fully-connected clique of planes over `from..to` ms.
    fn run_clique(planes: &mut [QueryPlane], from: u64, to: u64) {
        let n = planes.len() as u64;
        for t in from..to {
            for i in 0..planes.len() {
                let mut sampler = RoundRobin {
                    peers: (0..n).filter(|&p| p != i as u64).collect(),
                    at: (t as usize) + i,
                };
                let out = planes[i].poll(t, &mut sampler);
                deliver(planes, out, t);
            }
        }
    }

    fn deliver(planes: &mut [QueryPlane], frames: Vec<QueryOutbound>, t: u64) {
        for frame in frames {
            match frame {
                QueryOutbound::Aggregation { to, query, message } => {
                    let reply =
                        planes[to.as_u64() as usize].handle_aggregation(&query, &message, t);
                    if let Some(reply) = reply {
                        deliver(planes, vec![reply], t);
                    }
                }
                QueryOutbound::Catalog { to, entries } => {
                    planes[to.as_u64() as usize].handle_catalog(&entries, t);
                }
            }
        }
    }

    #[test]
    fn empty_plane_is_idle() {
        let mut p = plane(0);
        assert_eq!(p.next_deadline(), u64::MAX);
        let mut sampler = RoundRobin {
            peers: vec![1],
            at: 0,
        };
        assert!(p.poll(1_000, &mut sampler).is_empty());
        assert!(p.installed().is_empty());
    }

    #[test]
    fn install_starts_gossip_and_schedules() {
        let mut p = plane(0);
        p.install(fast_query("cpu", AggregateKind::Average), 10)
            .unwrap();
        assert_eq!(p.installed(), vec!["cpu".to_string()]);
        assert!(p.next_deadline() <= 10 + 250, "gossip not scheduled");
        let mut sampler = RoundRobin {
            peers: vec![1, 2],
            at: 0,
        };
        let out = p.poll(10, &mut sampler);
        assert!(
            out.iter()
                .any(|f| matches!(f, QueryOutbound::Catalog { .. })),
            "no catalog gossip emitted after install"
        );
    }

    #[test]
    fn catalog_gossip_installs_remotely_and_query_converges() {
        let mut planes: Vec<QueryPlane> = (0..4).map(plane).collect();
        planes[0]
            .install(fast_query("load", AggregateKind::Average), 0)
            .unwrap();
        // Seed distinct values at each node once the query reaches it.
        run_clique(&mut planes, 0, 1_200);
        for (i, p) in planes.iter().enumerate() {
            assert_eq!(
                p.installed(),
                vec!["load".to_string()],
                "node {i} missing query"
            );
        }
        for (i, p) in planes.iter_mut().enumerate() {
            p.submit("load", (i + 1) as f64, 1_200).unwrap();
        }
        run_clique(&mut planes, 1_200, 3_600);
        // Truth = mean of 1..=4 = 2.5 (submits replaced the 0 defaults).
        for (i, p) in planes.iter_mut().enumerate() {
            let est = p.estimate("load").expect("estimate available");
            assert!(est.settled, "node {i} never settled an epoch");
            assert!(
                (est.value - 2.5).abs() < 0.2,
                "node {i} estimate {} off truth 2.5",
                est.value
            );
        }
    }

    #[test]
    fn remove_spreads_and_tears_down() {
        let mut planes: Vec<QueryPlane> = (0..3).map(plane).collect();
        planes[0]
            .install(fast_query("tmp", AggregateKind::Average), 0)
            .unwrap();
        run_clique(&mut planes, 0, 800);
        assert!(planes.iter().all(|p| !p.installed().is_empty()));
        planes[1].remove("tmp", 800).unwrap();
        run_clique(&mut planes, 800, 1_600);
        for (i, p) in planes.iter().enumerate() {
            assert!(p.installed().is_empty(), "node {i} still runs the query");
        }
        assert_eq!(
            planes[2].estimate("tmp").unwrap_err(),
            QueryError::UnknownQuery
        );
    }

    #[test]
    fn ttl_expires_everywhere_without_a_remove() {
        let mut planes: Vec<QueryPlane> = (0..3).map(plane).collect();
        planes[0]
            .install(
                fast_query("blip", AggregateKind::Average).with_ttl_ms(1_000),
                0,
            )
            .unwrap();
        run_clique(&mut planes, 0, 900);
        assert!(planes.iter().all(|p| !p.installed().is_empty()));
        run_clique(&mut planes, 900, 1_300);
        for (i, p) in planes.iter().enumerate() {
            assert!(p.installed().is_empty(), "node {i} outlived the TTL");
        }
    }

    #[test]
    fn admission_limits_reject_and_count() {
        let registry = Registry::new();
        let mut p = QueryPlane::new(
            NodeId::new(0),
            QueryPlaneConfig::default(),
            1,
            registry.clone(),
        );
        let q = fast_query("gated", AggregateKind::Average)
            .with_admission(AdmissionConfig::limited(1, 2));
        p.install(q, 0).unwrap();
        assert!(p.submit("gated", 1.0, 0).is_ok());
        assert!(p.submit("gated", 2.0, 0).is_ok());
        assert_eq!(
            p.submit("gated", 3.0, 0),
            Err(QueryError::AdmissionRejected)
        );
        // After a second of refill one more lands.
        assert!(p.submit("gated", 4.0, 1_000).is_ok());
        assert_eq!(registry.counter_value("query.submits"), 3);
        assert_eq!(registry.counter_value("query.admission_rejects"), 1);
        assert_eq!(registry.gauge_value("query.installed"), Some(1.0));
    }

    #[test]
    fn rpc_dispatch_covers_every_op_and_error() {
        let mut p = plane(0);
        let d = fast_query("q", AggregateKind::Average);
        let ok = p.handle_rpc(
            &RpcRequest::Install {
                id: 1,
                descriptor: d.clone(),
            },
            0,
        );
        assert_eq!(ok, RpcResponse::ack(1));
        // Conflicting re-install.
        let conflict = p.handle_rpc(
            &RpcRequest::Install {
                id: 2,
                descriptor: fast_query("q", AggregateKind::Maximum),
            },
            0,
        );
        assert_eq!(conflict.status, RpcStatus::Conflict);
        let submit = p.handle_rpc(
            &RpcRequest::Submit {
                id: 3,
                name: "q".into(),
                value: 9.0,
            },
            0,
        );
        assert_eq!(submit.status, RpcStatus::Ok);
        let read = p.handle_rpc(
            &RpcRequest::Read {
                id: 4,
                name: "q".into(),
            },
            0,
        );
        assert_eq!(read.status, RpcStatus::Ok);
        assert_eq!(read.id, 4);
        let unknown = p.handle_rpc(
            &RpcRequest::Read {
                id: 5,
                name: "nope".into(),
            },
            0,
        );
        assert_eq!(unknown.status, RpcStatus::UnknownQuery);
        let gone = p.handle_rpc(
            &RpcRequest::Remove {
                id: 6,
                name: "q".into(),
            },
            0,
        );
        assert_eq!(gone.status, RpcStatus::Ok);
        let removed = p.handle_rpc(
            &RpcRequest::Submit {
                id: 7,
                name: "q".into(),
                value: 1.0,
            },
            0,
        );
        assert_eq!(removed.status, RpcStatus::UnknownQuery);
    }

    #[test]
    fn mid_epoch_read_falls_back_for_scalars_only() {
        let mut p = plane(0);
        p.install(fast_query("avg", AggregateKind::Average), 0)
            .unwrap();
        p.install(fast_query("size", AggregateKind::Count), 0)
            .unwrap();
        p.submit("avg", 7.0, 0).unwrap();
        // Activate the joiner nodes (epoch 1 starts at install time).
        let mut sampler = RoundRobin {
            peers: vec![1],
            at: 0,
        };
        p.poll(1, &mut sampler);
        let est = p.estimate("avg").unwrap();
        assert!(!est.settled);
        // The first epoch initialized from the default 0.0 before the
        // submit lands at the next epoch; mid-epoch the scalar is live.
        assert!(est.value.is_finite());
        assert_eq!(p.estimate("size").unwrap_err(), QueryError::NotReady);
    }

    #[test]
    fn concurrent_queries_keep_separate_schedules() {
        let mut planes: Vec<QueryPlane> = (0..3).map(plane).collect();
        planes[0]
            .install(fast_query("fast", AggregateKind::Maximum), 0)
            .unwrap();
        planes[0]
            .install(
                QueryDescriptor::new("slow", AggregateKind::Minimum)
                    .with_gamma(8)
                    .with_cycle_length(300),
                0,
            )
            .unwrap();
        run_clique(&mut planes, 0, 500);
        for (i, p) in planes.iter_mut().enumerate() {
            p.submit("fast", (i * 10) as f64, 500).unwrap();
            p.submit("slow", (i + 1) as f64, 500).unwrap();
        }
        // Submitted values land at the next epoch start, so the first
        // post-submit "slow" epoch closes near t=4500 — but a node that
        // is epoch-jumped at a boundary skips reporting the epoch it was
        // robbed of and settles a later one instead. Drive epoch-sized
        // chunks until every node has settled the post-submit truth,
        // bounded so divergence still fails the test.
        fn converged(p: &mut QueryPlane) -> bool {
            p.estimate("fast")
                .is_ok_and(|e| e.settled && (e.value - 20.0).abs() < 1e-6)
                && p.estimate("slow")
                    .is_ok_and(|e| e.settled && (e.value - 1.0).abs() < 1e-6)
        }
        let mut now = 500;
        while now < 20_000 {
            let next = now + 2_400;
            run_clique(&mut planes, now, next);
            now = next;
            if planes.iter_mut().all(converged) {
                break;
            }
        }
        for (i, p) in planes.iter_mut().enumerate() {
            assert!(converged(p), "node {i} never settled both queries");
        }
    }

    #[test]
    fn take_epochs_reports_completions() {
        let mut planes: Vec<QueryPlane> = (0..2).map(plane).collect();
        planes[0]
            .install(fast_query("e", AggregateKind::Average), 0)
            .unwrap();
        run_clique(&mut planes, 0, 2_000);
        let epochs = planes[0].take_epochs();
        assert!(!epochs.is_empty(), "no epochs harvested");
        assert!(epochs.iter().all(|e| e.query == "e"));
        assert!(planes[0].take_epochs().is_empty(), "drain must empty");
    }

    #[test]
    fn name_seed_separates_queries() {
        assert_ne!(name_seed("a"), name_seed("b"));
        assert_eq!(name_seed("cpu"), name_seed("cpu"));
    }
}
