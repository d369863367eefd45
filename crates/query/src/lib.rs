//! Multi-tenant query plane for the epidemic aggregation stack.
//!
//! The DSN 2004 protocol makes *every* node hold the aggregate — so
//! every node can answer a client. This crate turns that property into a
//! service: clients install **named queries** (an aggregate kind plus
//! its own epoch geometry, TTL, and admission limits), submit values,
//! and read estimates at *any* node. It layers between the aggregation
//! core and the transports:
//!
//! * [`descriptor`] — [`QueryDescriptor`]: the installable unit.
//! * [`catalog`] — [`QueryCatalog`]: the replicated name → descriptor
//!   map, versioned and tombstoned so replicas converge under epidemic
//!   merging in any delivery order.
//! * [`admission`] — deterministic [`TokenBucket`] limiting the submit
//!   path per (query, node).
//! * [`rpc`] — the transport-agnostic client request/response
//!   vocabulary.
//! * [`plane`] — [`QueryPlane`]: the sans-io per-node state machine
//!   multiplexing one `GossipNode` per live query over the shared
//!   exchange plane. The event simulator and the UDP runtime in
//!   `epidemic-net` drive this same type, so query behaviour is
//!   conformance-testable across engines.
//!
//! Like every layer below it, the crate performs no I/O: wire encodings
//! for catalog gossip (tag 11), query aggregation frames (tag 12), and
//! the RPC pair (tags 13/14) live in `epidemic-net`'s codec.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod catalog;
pub mod descriptor;
pub mod plane;
pub mod rpc;

pub use admission::TokenBucket;
pub use catalog::{CatalogEntry, QueryCatalog};
pub use descriptor::{kind_code, kind_from_code, AdmissionConfig, QueryDescriptor, MAX_NAME_LEN};
pub use plane::{QueryEpoch, QueryEstimate, QueryOutbound, QueryPlane, QueryPlaneConfig};
pub use rpc::{RpcRequest, RpcResponse, RpcStatus};

use std::fmt;

/// Errors of the query plane's client-facing operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// No live query of that name at this node.
    UnknownQuery,
    /// The submit exceeded the query's admission limits.
    AdmissionRejected,
    /// A live query of the same name exists with a different descriptor.
    Conflict,
    /// The descriptor failed validation (the message names the
    /// constraint).
    InvalidDescriptor(&'static str),
    /// The query runs but has no readable estimate yet.
    NotReady,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownQuery => f.write_str("unknown query"),
            QueryError::AdmissionRejected => f.write_str("submit rejected by admission limits"),
            QueryError::Conflict => {
                f.write_str("query name already installed with a different descriptor")
            }
            QueryError::InvalidDescriptor(why) => write!(f, "invalid descriptor: {why}"),
            QueryError::NotReady => f.write_str("query has no estimate yet"),
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let all = [
            QueryError::UnknownQuery,
            QueryError::AdmissionRejected,
            QueryError::Conflict,
            QueryError::InvalidDescriptor("empty query name"),
            QueryError::NotReady,
        ];
        for err in all {
            assert!(!err.to_string().is_empty());
        }
        assert!(QueryError::InvalidDescriptor("empty query name")
            .to_string()
            .contains("empty query name"));
    }
}
