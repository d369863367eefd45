//! The benchmark's own inputs: a seeded PRNG and the generators on it.
//!
//! Everything a workload feeds the product — node values, tenant values,
//! the RPC request schedule — is drawn here from the `--seed` argument, so
//! the same seed replays the same inputs and the product never sees the
//! seed of the schedule itself. Deliberately independent of
//! `epidemic_common::rng` and `epidemic_bench::demand`: a later change to
//! either must not silently change what the benchmark asks of the system.

/// xoshiro256** seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// A generator for `(seed, stream)`; distinct streams of one seed are
    /// independent, so adding a consumer never shifts another's draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Prng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Poisson(`lambda`) by Knuth's product method (small `lambda` only).
    pub fn poisson(&mut self, lambda: f64) -> u32 {
        let limit = (-lambda).exp();
        let mut product = self.next_f64();
        let mut k = 0;
        while product > limit {
            product *= self.next_f64();
            k += 1;
        }
        k
    }
}

/// Zipf(`exponent`) over ranks `0..n` by inverse CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws one rank; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Prng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `n` node values, uniform in `[lo, hi)`, with their exact mean.
pub fn node_values(seed: u64, stream: u64, n: usize, lo: f64, hi: f64) -> (Vec<f64>, f64) {
    let mut rng = Prng::new(seed, stream);
    let values: Vec<f64> = (0..n).map(|_| rng.uniform(lo, hi)).collect();
    let mean = values.iter().sum::<f64>() / n as f64;
    (values, mean)
}

/// One client request of the `query_rpc` schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestOp {
    /// Write this value as the serving node's contribution.
    Submit(f64),
    /// Read the tenant's current estimate.
    Read,
}

/// A request against tenant `tenant` (a rank, 0 most popular).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Tenant rank.
    pub tenant: usize,
    /// What to do there.
    pub op: RequestOp,
    /// `true` for the last request of its burst: the client thinks before
    /// the next one.
    pub ends_burst: bool,
}

/// Share of requests that are writes.
pub const SUBMIT_SHARE: f64 = 0.75;
/// Mean burst length: consecutive requests to one tenant.
pub const BURST_MEAN: f64 = 4.0;
/// Submitted values stay within this relative band around the tenant's
/// base value, so the tenant's true mean stays inside the band whichever
/// nodes the listener's round-robin hands the writes to.
pub const SUBMIT_BAND: f64 = 0.01;

/// The closed-loop client's request stream: Zipf(1.0) tenant popularity,
/// Poisson(4)-sized bursts on one tenant (empty bursts are redrawn), 75%
/// `Submit` / 25% `Read`.
#[derive(Debug, Clone)]
pub struct RequestSchedule {
    rng: Prng,
    zipf: Zipf,
    bases: Vec<f64>,
    tenant: usize,
    left_in_burst: u32,
}

impl RequestSchedule {
    /// A schedule over `bases.len()` tenants; `bases[k]` is tenant `k`'s
    /// base value (see [`SUBMIT_BAND`]).
    pub fn new(seed: u64, bases: Vec<f64>) -> Self {
        RequestSchedule {
            rng: Prng::new(seed, 0x5C4E_D01E),
            zipf: Zipf::new(bases.len(), 1.0),
            bases,
            tenant: 0,
            left_in_burst: 0,
        }
    }
}

impl Iterator for RequestSchedule {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        while self.left_in_burst == 0 {
            self.tenant = self.zipf.sample(&mut self.rng);
            self.left_in_burst = self.rng.poisson(BURST_MEAN);
        }
        self.left_in_burst -= 1;
        let op = if self.rng.next_f64() < SUBMIT_SHARE {
            let base = self.bases[self.tenant];
            RequestOp::Submit(base * self.rng.uniform(1.0 - SUBMIT_BAND, 1.0 + SUBMIT_BAND))
        } else {
            RequestOp::Read
        };
        Some(Request {
            tenant: self.tenant,
            op,
            ends_burst: self.left_in_burst == 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let bases = vec![10.0, 20.0, 30.0, 40.0];
        let take = |seed| -> Vec<Request> {
            RequestSchedule::new(seed, bases.clone())
                .take(2_000)
                .collect()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
    }

    #[test]
    fn schedule_has_the_stated_mix() {
        let bases = vec![100.0; 8];
        let reqs: Vec<Request> = RequestSchedule::new(3, bases).take(40_000).collect();
        let submits = reqs
            .iter()
            .filter(|r| matches!(r.op, RequestOp::Submit(_)))
            .count() as f64;
        assert!((submits / reqs.len() as f64 - SUBMIT_SHARE).abs() < 0.02);
        // Zipf(1.0) over 8 ranks: rank 0 draws 1/H_8 = 36.8% of bursts.
        let top = reqs.iter().filter(|r| r.tenant == 0).count() as f64;
        assert!((top / reqs.len() as f64 - 0.368).abs() < 0.04);
        for r in &reqs {
            if let RequestOp::Submit(v) = r.op {
                assert!((v / 100.0 - 1.0).abs() <= SUBMIT_BAND);
            }
        }
        // Bursts stay on one tenant and average Poisson(4)'s non-zero
        // mean, 4 / (1 - e^-4) = 4.07.
        let bursts = reqs.iter().filter(|r| r.ends_burst).count();
        assert!((reqs.len() as f64 / bursts as f64 - 4.07).abs() < 0.15);
        for pair in reqs.windows(2) {
            assert!(pair[0].ends_burst || pair[0].tenant == pair[1].tenant);
        }
    }

    #[test]
    fn node_values_repeat_and_report_their_mean() {
        let (a, mean_a) = node_values(11, 1, 500, 0.0, 100.0);
        let (b, _) = node_values(11, 1, 500, 0.0, 100.0);
        let (c, _) = node_values(12, 1, 500, 0.0, 100.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|v| (0.0..100.0).contains(v)));
        assert!((mean_a - a.iter().sum::<f64>() / 500.0).abs() < 1e-12);
    }

    #[test]
    fn poisson_mean_is_lambda() {
        let mut rng = Prng::new(5, 0);
        let total: u64 = (0..20_000).map(|_| u64::from(rng.poisson(4.0))).sum();
        assert!((total as f64 / 20_000.0 - 4.0).abs() < 0.1);
    }
}
