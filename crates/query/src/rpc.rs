//! Client RPC vocabulary: the request/response frames any node serves.
//!
//! The paper's point is that *every* node holds the aggregate, so every
//! node is a valid RPC endpoint. These types are transport-agnostic —
//! `epidemic-net` encodes them as wire tags 13/14, the runtimes' in-
//! process `Cluster` methods construct them directly — and the single
//! server-side entry point is [`crate::QueryPlane::handle_rpc`], so the
//! simulator and the UDP runtime answer byte-identically.

use crate::descriptor::QueryDescriptor;
use crate::QueryError;

/// A client request, tagged with a caller-chosen correlation id that the
/// response echoes.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcRequest {
    /// Install a named query cluster-wide.
    Install {
        /// Correlation id echoed by the response.
        id: u64,
        /// The query to install.
        descriptor: QueryDescriptor,
    },
    /// Remove (tombstone) a named query cluster-wide.
    Remove {
        /// Correlation id echoed by the response.
        id: u64,
        /// Name of the query to remove.
        name: String,
    },
    /// Submit this node's contribution to a named query.
    Submit {
        /// Correlation id echoed by the response.
        id: u64,
        /// Target query.
        name: String,
        /// The submitted value.
        value: f64,
    },
    /// Read the current estimate of a named query.
    Read {
        /// Correlation id echoed by the response.
        id: u64,
        /// Target query.
        name: String,
    },
}

impl RpcRequest {
    /// The correlation id.
    pub fn id(&self) -> u64 {
        match self {
            RpcRequest::Install { id, .. }
            | RpcRequest::Remove { id, .. }
            | RpcRequest::Submit { id, .. }
            | RpcRequest::Read { id, .. } => *id,
        }
    }

    /// Stable wire code of the operation.
    pub fn op_code(&self) -> u8 {
        match self {
            RpcRequest::Install { .. } => 0,
            RpcRequest::Remove { .. } => 1,
            RpcRequest::Submit { .. } => 2,
            RpcRequest::Read { .. } => 3,
        }
    }
}

/// Outcome code of an RPC, with a stable wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RpcStatus {
    /// The operation succeeded.
    Ok = 0,
    /// No live query of that name.
    UnknownQuery = 1,
    /// The submit was rejected by the query's admission limits.
    AdmissionRejected = 2,
    /// A live query of the same name exists with a different descriptor.
    Conflict = 3,
    /// The request was malformed (bad descriptor, unknown op).
    BadRequest = 4,
    /// The query exists but has not produced an estimate yet.
    NotReady = 5,
}

impl RpcStatus {
    /// Decodes a wire status code.
    pub fn from_code(code: u8) -> Option<RpcStatus> {
        Some(match code {
            0 => RpcStatus::Ok,
            1 => RpcStatus::UnknownQuery,
            2 => RpcStatus::AdmissionRejected,
            3 => RpcStatus::Conflict,
            4 => RpcStatus::BadRequest,
            5 => RpcStatus::NotReady,
            _ => return None,
        })
    }

    /// `true` for every non-`Ok` outcome — the rejection surface counted
    /// in `TrafficCounts::rpc_rejects`.
    pub fn is_reject(self) -> bool {
        self != RpcStatus::Ok
    }
}

impl From<QueryError> for RpcStatus {
    fn from(err: QueryError) -> RpcStatus {
        match err {
            QueryError::UnknownQuery => RpcStatus::UnknownQuery,
            QueryError::AdmissionRejected => RpcStatus::AdmissionRejected,
            QueryError::Conflict => RpcStatus::Conflict,
            QueryError::InvalidDescriptor(_) | QueryError::NonFiniteValue => RpcStatus::BadRequest,
            QueryError::NotReady => RpcStatus::NotReady,
        }
    }
}

/// The response to an [`RpcRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct RpcResponse {
    /// Correlation id copied from the request.
    pub id: u64,
    /// Outcome.
    pub status: RpcStatus,
    /// Estimate payload; meaningful only for a successful `Read`.
    pub estimate: f64,
    /// Epoch the estimate belongs to; meaningful only for a successful
    /// `Read`.
    pub epoch: u64,
}

impl RpcResponse {
    /// A bare acknowledgement (install/remove/submit success).
    pub fn ack(id: u64) -> Self {
        RpcResponse {
            id,
            status: RpcStatus::Ok,
            estimate: 0.0,
            epoch: 0,
        }
    }

    /// A failure response.
    pub fn reject(id: u64, status: RpcStatus) -> Self {
        RpcResponse {
            id,
            status,
            estimate: 0.0,
            epoch: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_aggregation::AggregateKind;

    #[test]
    fn op_codes_and_ids() {
        let d = QueryDescriptor::new("q", AggregateKind::Average);
        let reqs = [
            RpcRequest::Install {
                id: 7,
                descriptor: d,
            },
            RpcRequest::Remove {
                id: 8,
                name: "q".into(),
            },
            RpcRequest::Submit {
                id: 9,
                name: "q".into(),
                value: 1.0,
            },
            RpcRequest::Read {
                id: 10,
                name: "q".into(),
            },
        ];
        let codes: Vec<u8> = reqs.iter().map(RpcRequest::op_code).collect();
        assert_eq!(codes, vec![0, 1, 2, 3]);
        let ids: Vec<u64> = reqs.iter().map(RpcRequest::id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
    }

    #[test]
    fn status_codes_round_trip() {
        for code in 0..=5 {
            let status = RpcStatus::from_code(code).unwrap();
            assert_eq!(status as u8, code);
        }
        assert_eq!(RpcStatus::from_code(6), None);
        assert!(!RpcStatus::Ok.is_reject());
        assert!(RpcStatus::UnknownQuery.is_reject());
    }

    #[test]
    fn error_to_status_mapping() {
        assert_eq!(
            RpcStatus::from(QueryError::UnknownQuery),
            RpcStatus::UnknownQuery
        );
        assert_eq!(
            RpcStatus::from(QueryError::AdmissionRejected),
            RpcStatus::AdmissionRejected
        );
        assert_eq!(RpcStatus::from(QueryError::Conflict), RpcStatus::Conflict);
        assert_eq!(
            RpcStatus::from(QueryError::InvalidDescriptor("x")),
            RpcStatus::BadRequest
        );
        assert_eq!(RpcStatus::from(QueryError::NotReady), RpcStatus::NotReady);
    }
}
