//! Query arrival processes.
//!
//! The paper's SCQ experiment (§5.2.3) feeds the system with a Poisson
//! stream of queries of Zipfian-distributed cost. [`PoissonArrivals`]
//! generates the arrival *times*; what arrives is up to the caller.

use crate::rng::Rng;

/// Exponential inter-arrival-time generator (Poisson process with rate λ).
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    lambda: f64,
    rng: Rng,
    now: f64,
}

impl PoissonArrivals {
    /// A Poisson process with `lambda` arrivals per second, starting at
    /// time 0, seeded deterministically.
    pub fn new(lambda: f64, seed: u64) -> Self {
        assert!(lambda >= 0.0, "rate must be non-negative");
        PoissonArrivals {
            lambda,
            rng: Rng::seed_from_u64(seed),
            now: 0.0,
        }
    }

    /// The process rate λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Next arrival time (monotonically increasing); `None` when λ = 0.
    pub fn next_arrival(&mut self) -> Option<f64> {
        if self.lambda <= 0.0 {
            return None;
        }
        self.now += self.rng.exp(self.lambda);
        Some(self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_interarrival_matches_rate() {
        let mut p = PoissonArrivals::new(0.1, 42);
        let n = 5000;
        let mut last = 0.0;
        let mut sum = 0.0;
        for _ in 0..n {
            let t = p.next_arrival().unwrap();
            sum += t - last;
            last = t;
        }
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean inter-arrival = {mean}");
    }

    #[test]
    fn arrivals_are_monotone() {
        let mut p = PoissonArrivals::new(1.0, 7);
        let mut prev = 0.0;
        for _ in 0..100 {
            let t = p.next_arrival().unwrap();
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn zero_rate_never_arrives() {
        let mut p = PoissonArrivals::new(0.0, 1);
        assert_eq!(p.next_arrival(), None);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = PoissonArrivals::new(0.5, 99);
        let mut b = PoissonArrivals::new(0.5, 99);
        for _ in 0..20 {
            assert_eq!(a.next_arrival(), b.next_arrival());
        }
    }

    #[test]
    fn arrivals_until_respects_horizon() {
        let mut p = PoissonArrivals::new(0.2, 3);
        let v: Vec<f64> = std::iter::from_fn(|| p.next_arrival())
            .take_while(|&t| t <= 100.0)
            .collect();
        // Rate 0.2 over 100s ⇒ ~20 arrivals.
        assert!(v.len() > 5 && v.len() < 60, "got {}", v.len());
        // Continuation starts after the horizon.
        let next = p.next_arrival().unwrap();
        assert!(next > 100.0);
    }
}
