//! Named query descriptors: what a client asks the network to aggregate.
//!
//! A [`QueryDescriptor`] is the unit of installation in the query plane:
//! a name, an [`AggregateKind`], epoch geometry (γ and the cycle length δ
//! of its private epoch-restart schedule), an optional TTL, a default
//! contribution for nodes no client has submitted to, and per-node
//! admission limits for the submit path. Descriptors travel inside
//! catalog entries (see [`crate::catalog`]) and inside `Install` RPC
//! frames, so every field is plain old data with a stable wire encoding
//! (the aggregate kind is encoded as its index in
//! [`AggregateKind::ALL`]).

use crate::QueryError;
use epidemic_aggregation::AggregateKind;

/// Longest admissible query name in bytes (a `u8` length prefix on the
/// wire).
pub const MAX_NAME_LEN: usize = 255;

/// Longest admissible epoch γ·δ in milliseconds (~8,900 years). Far
/// below `u64::MAX` on purpose: the query plane computes deadlines as
/// `anchor + k·γδ` on a millisecond clock, and a descriptor arrives from
/// the wire, so the bound is what keeps that arithmetic from wrapping.
pub const MAX_EPOCH_MS: u64 = 1 << 48;

/// Per-node token-bucket admission limits for a query's submit path.
///
/// `rate_per_sec == 0` disables limiting entirely (the bucket always
/// grants). `burst` is the bucket capacity: how many submits may land
/// back-to-back before the rate gates them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Sustained submits per second granted per node.
    pub rate_per_sec: u32,
    /// Bucket capacity (maximum burst size).
    pub burst: u32,
}

impl AdmissionConfig {
    /// No admission limiting: every submit is granted.
    pub const UNLIMITED: AdmissionConfig = AdmissionConfig {
        rate_per_sec: 0,
        burst: 0,
    };

    /// Limited to `rate_per_sec` sustained with bursts of `burst`.
    pub fn limited(rate_per_sec: u32, burst: u32) -> Self {
        AdmissionConfig {
            rate_per_sec,
            burst: burst.max(1),
        }
    }

    /// `true` when the config limits at all.
    pub fn is_limited(&self) -> bool {
        self.rate_per_sec > 0
    }
}

/// A named, installable aggregate query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryDescriptor {
    /// Cluster-unique query name (≤ [`MAX_NAME_LEN`] bytes).
    pub name: String,
    /// Which aggregate the query computes.
    pub kind: AggregateKind,
    /// Epoch length γ in cycles: how many cycles each snapshot converges
    /// before it is reported and the query restarts from fresh values.
    pub gamma: u32,
    /// Cycle length δ in milliseconds of this query's gossip schedule.
    pub cycle_length: u64,
    /// Exchange timeout in milliseconds (must be `< cycle_length`).
    pub timeout: u64,
    /// Lifetime in milliseconds after installation; `0` = standing query.
    pub ttl_ms: u64,
    /// Value a node contributes before any client submits to it.
    pub default_value: f64,
    /// Per-node admission limits for submits.
    pub admission: AdmissionConfig,
}

impl QueryDescriptor {
    /// A descriptor with sensible defaults: γ = 10, δ = 1 s, timeout
    /// 200 ms, standing (no TTL), default contribution 0, unlimited
    /// admission.
    pub fn new(name: impl Into<String>, kind: AggregateKind) -> Self {
        QueryDescriptor {
            name: name.into(),
            kind,
            gamma: 10,
            cycle_length: 1_000,
            timeout: 200,
            ttl_ms: 0,
            default_value: 0.0,
            admission: AdmissionConfig::UNLIMITED,
        }
    }

    /// Sets the epoch length γ (cycles per epoch).
    pub fn with_gamma(mut self, gamma: u32) -> Self {
        self.gamma = gamma;
        self
    }

    /// Sets the cycle length δ in milliseconds; the exchange timeout is
    /// re-derived as δ/5 (minimum 1 ms) so the pair stays valid.
    pub fn with_cycle_length(mut self, ms: u64) -> Self {
        self.cycle_length = ms;
        self.timeout = (ms / 5).max(1);
        self
    }

    /// Sets the TTL in milliseconds (`0` = standing query).
    pub fn with_ttl_ms(mut self, ttl: u64) -> Self {
        self.ttl_ms = ttl;
        self
    }

    /// Sets the default per-node contribution.
    pub fn with_default_value(mut self, value: f64) -> Self {
        self.default_value = value;
        self
    }

    /// Sets the admission limits.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Validates the descriptor the way installation will.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidDescriptor`] names the first violated
    /// constraint: empty/oversized name, γ = 0, δ = 0, a timeout not in
    /// `1..cycle_length`, or an epoch γ·δ longer than [`MAX_EPOCH_MS`].
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.name.is_empty() {
            return Err(QueryError::InvalidDescriptor("empty query name"));
        }
        if self.name.len() > MAX_NAME_LEN {
            return Err(QueryError::InvalidDescriptor(
                "query name exceeds 255 bytes",
            ));
        }
        if self.gamma == 0 {
            return Err(QueryError::InvalidDescriptor("gamma must be at least 1"));
        }
        if self.cycle_length == 0 {
            return Err(QueryError::InvalidDescriptor(
                "cycle length must be positive",
            ));
        }
        if self.timeout == 0 || self.timeout >= self.cycle_length {
            return Err(QueryError::InvalidDescriptor(
                "timeout must be positive and shorter than the cycle",
            ));
        }
        let epoch_ms = u64::from(self.gamma).checked_mul(self.cycle_length);
        if epoch_ms.map_or(true, |ms| ms > MAX_EPOCH_MS) {
            return Err(QueryError::InvalidDescriptor(
                "epoch length gamma * cycle is out of range",
            ));
        }
        Ok(())
    }
}

/// Stable wire code of an aggregate kind: its index in
/// [`AggregateKind::ALL`].
pub fn kind_code(kind: AggregateKind) -> u8 {
    AggregateKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("kind present in ALL") as u8
}

/// Inverse of [`kind_code`]; `None` for out-of-range codes.
pub fn kind_from_code(code: u8) -> Option<AggregateKind> {
    AggregateKind::ALL.get(code as usize).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        QueryDescriptor::new("cpu", AggregateKind::Average)
            .validate()
            .unwrap();
    }

    #[test]
    fn builders_compose() {
        let d = QueryDescriptor::new("mem", AggregateKind::Maximum)
            .with_gamma(20)
            .with_cycle_length(500)
            .with_ttl_ms(60_000)
            .with_default_value(1.5)
            .with_admission(AdmissionConfig::limited(100, 10));
        assert_eq!(d.gamma, 20);
        assert_eq!(d.cycle_length, 500);
        assert_eq!(d.timeout, 100);
        assert_eq!(d.ttl_ms, 60_000);
        assert_eq!(d.default_value, 1.5);
        assert!(d.admission.is_limited());
        d.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let base = QueryDescriptor::new("q", AggregateKind::Average);
        assert!(QueryDescriptor {
            name: String::new(),
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(QueryDescriptor {
            name: "x".repeat(256),
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(QueryDescriptor {
            gamma: 0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(QueryDescriptor {
            timeout: 1_000,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(QueryDescriptor {
            timeout: 0,
            ..base.clone()
        }
        .validate()
        .is_err());
        // γ·δ wraps to 0: every field passes on its own, the product does not.
        assert!(QueryDescriptor {
            gamma: 2,
            cycle_length: 1 << 63,
            timeout: 1,
            ..base.clone()
        }
        .validate()
        .is_err());
        let longest = QueryDescriptor {
            gamma: 1 << 8,
            cycle_length: MAX_EPOCH_MS >> 8,
            ..base
        };
        longest.validate().unwrap();
        assert!(QueryDescriptor {
            gamma: (1 << 8) + 1,
            ..longest
        }
        .validate()
        .is_err());
    }

    #[test]
    fn kind_codes_round_trip() {
        for kind in AggregateKind::ALL {
            assert_eq!(kind_from_code(kind_code(kind)), Some(kind));
        }
        assert_eq!(kind_from_code(8), None);
        assert_eq!(kind_from_code(255), None);
    }

    #[test]
    fn unlimited_admission_is_not_limited() {
        assert!(!AdmissionConfig::UNLIMITED.is_limited());
        assert_eq!(AdmissionConfig::limited(5, 0).burst, 1);
    }
}
