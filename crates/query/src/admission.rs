//! Token-bucket admission control for the submit path.
//!
//! One bucket per (query, node): sustained rate `rate_per_sec`, capacity
//! `burst`. The bucket is clock-driven — refills are computed from the
//! caller-supplied `now` in milliseconds — so the same sequence of
//! `(now, try_take)` calls grants the same sequence of admissions under
//! the simulator and the UDP runtime.

use crate::descriptor::AdmissionConfig;

/// Deterministic token bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    config: AdmissionConfig,
    /// Scaled by 1000 so refill math stays integral: one token is
    /// `1000` millitokens, and `rate_per_sec` adds exactly
    /// `rate_per_sec` millitokens per elapsed millisecond.
    millitokens: u64,
    last_refill: u64,
}

impl TokenBucket {
    /// A full bucket with the given limits.
    pub fn new(config: AdmissionConfig) -> Self {
        TokenBucket {
            config,
            millitokens: u64::from(config.burst) * 1000,
            last_refill: 0,
        }
    }

    /// Attempts to take one token at time `now` (milliseconds); `true`
    /// grants. Unlimited configs always grant.
    pub fn try_take(&mut self, now: u64) -> bool {
        if !self.config.is_limited() {
            return true;
        }
        let elapsed = now.saturating_sub(self.last_refill);
        self.last_refill = now;
        let cap = u64::from(self.config.burst) * 1000;
        self.millitokens = self
            .millitokens
            .saturating_add(elapsed.saturating_mul(u64::from(self.config.rate_per_sec)))
            .min(cap);
        if self.millitokens >= 1000 {
            self.millitokens -= 1000;
            true
        } else {
            false
        }
    }

    /// Whole tokens currently available (unlimited buckets report
    /// `u32::MAX`).
    pub fn available(&self) -> u32 {
        if !self.config.is_limited() {
            return u32::MAX;
        }
        (self.millitokens / 1000) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_grants() {
        let mut bucket = TokenBucket::new(AdmissionConfig::UNLIMITED);
        for t in 0..1_000 {
            assert!(bucket.try_take(t));
        }
    }

    #[test]
    fn burst_then_rate_gates() {
        // 10/s sustained, burst of 3: the first three land instantly,
        // the fourth needs 100 ms of refill.
        let mut bucket = TokenBucket::new(AdmissionConfig::limited(10, 3));
        assert!(bucket.try_take(0));
        assert!(bucket.try_take(0));
        assert!(bucket.try_take(0));
        assert!(!bucket.try_take(0));
        assert!(!bucket.try_take(50));
        assert!(bucket.try_take(100));
        assert!(!bucket.try_take(100));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut bucket = TokenBucket::new(AdmissionConfig::limited(1_000, 2));
        assert!(bucket.try_take(0));
        assert!(bucket.try_take(0));
        // A long quiet period refills to burst, not beyond.
        assert_eq!(bucket.available(), 0);
        assert!(bucket.try_take(1_000_000));
        assert!(bucket.try_take(1_000_000));
        assert!(!bucket.try_take(1_000_000));
    }

    #[test]
    fn deterministic_replay() {
        let schedule: Vec<u64> = vec![0, 10, 20, 500, 501, 502, 900, 1_400];
        let run =
            |mut b: TokenBucket| -> Vec<bool> { schedule.iter().map(|&t| b.try_take(t)).collect() };
        let config = AdmissionConfig::limited(2, 1);
        assert_eq!(run(TokenBucket::new(config)), run(TokenBucket::new(config)));
    }
}
