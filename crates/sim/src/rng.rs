//! Deterministic pseudo-random numbers for experiments.
//!
//! A self-contained xoshiro256++ generator (public-domain algorithm by
//! Blackman & Vigna) seeded via SplitMix64. Experiments must be exactly
//! reproducible across runs and platforms, and the simulator needs `Clone`
//! for look-ahead, so we implement the generator here rather than depend on
//! an external crate's changing API.

/// xoshiro256++ PRNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed deterministically from one u64 (SplitMix64 expansion).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        Rng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 high bits → [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        // Lemire-style rejection for unbiased sampling.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo >= n || lo >= (u64::MAX - n + 1) % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Exponentially distributed with the given rate (mean `1/rate`).
    pub fn exp(&mut self, rate: f64) -> f64 {
        crate::domain::rate(rate).expect("rate must be positive and finite");
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / rate
    }
}

/// Sampler for the Zipfian distribution over ranks `1..=n` with exponent
/// `a`: `P(k) ∝ 1/k^a`. Used for the paper's query-size distributions
/// (`a = 1.2` in MCQ, `a = 2.2` in SCQ and workload management).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the sampler for ranks `1..=n`.
    pub fn new(n: usize, a: f64) -> Self {
        assert!(n >= 1, "support must be non-empty");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(a);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Sample a rank in `1..=n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }

    /// Probability of rank `k` (1-based).
    pub fn pmf(&self, k: usize) -> f64 {
        assert!((1..=self.cdf.len()).contains(&k), "rank out of range");
        let hi = self.cdf[k - 1];
        let lo = if k >= 2 { self.cdf[k - 2] } else { 0.0 };
        hi - lo
    }

    /// Number of ranks in the support.
    pub fn support(&self) -> usize {
        self.cdf.len()
    }

    /// Expected value of the rank.
    pub fn mean(&self) -> f64 {
        let mut prev = 0.0;
        let mut m = 0.0;
        for (i, c) in self.cdf.iter().enumerate() {
            m += (i + 1) as f64 * (c - prev);
            prev = *c;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_is_in_unit_interval_and_roughly_uniform() {
        let mut r = Rng::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean = {mean}");
    }

    #[test]
    fn below_is_unbiased_ish() {
        let mut r = Rng::seed_from_u64(2);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[r.below(5) as usize] += 1;
        }
        for c in counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "count = {c}");
        }
    }

    #[test]
    fn exp_mean_matches_rate() {
        let mut r = Rng::seed_from_u64(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += r.exp(0.1);
        }
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.2, "mean = {mean}");
    }

    #[test]
    fn zipf_is_skewed_and_bounded() {
        let z = Zipf::new(50, 2.2);
        let mut r = Rng::seed_from_u64(4);
        let mut ones = 0;
        let n = 20_000;
        for _ in 0..n {
            let k = z.sample(&mut r);
            assert!((1..=50).contains(&k));
            if k == 1 {
                ones += 1;
            }
        }
        // For a=2.2 over 1..=50, P(1) ≈ 1/ζ ≈ 0.73.
        let p1 = ones as f64 / n as f64;
        assert!(p1 > 0.65 && p1 < 0.8, "P(1) = {p1}");
    }

    #[test]
    fn zipf_mean_matches_empirical() {
        let z = Zipf::new(50, 1.2);
        let mut r = Rng::seed_from_u64(5);
        let n = 200_000;
        let mut sum = 0usize;
        for _ in 0..n {
            sum += z.sample(&mut r);
        }
        let emp = sum as f64 / n as f64;
        assert!(
            (emp - z.mean()).abs() < 0.1,
            "emp {emp} vs analytic {}",
            z.mean()
        );
    }
}
