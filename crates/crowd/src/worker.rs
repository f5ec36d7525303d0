//! The random worker model (Ipeirotis et al. 2010), as used by the paper
//! for sensitivity analysis (§9.3) and parameter setting (§9.4).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A pool of simulated crowd workers. Each worker `w` answers a yes/no
/// match question with the true label except with probability
/// `error_rate(w)`, independently per question — the *random worker model*.
///
/// The pool also models AMT qualifications coarsely: construction helpers
/// clamp error rates, mirroring the paper's use of approval-rate filters to
/// keep spammers out.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerPool {
    error_rates: Vec<f64>,
}

impl WorkerPool {
    /// A pool of perfectly accurate workers (0% error).
    pub fn perfect(n: usize) -> Self {
        Self::uniform(n, 0.0)
    }

    /// A pool of `n` workers sharing one error rate.
    ///
    /// # Panics
    /// Panics if `error_rate` is outside `[0, 0.5)` — a worker wrong more
    /// than half the time is adversarial, not noisy — or `n == 0`.
    pub fn uniform(n: usize, error_rate: f64) -> Self {
        assert!(n > 0, "pool must have at least one worker");
        assert!(
            (0.0..0.5).contains(&error_rate),
            "error rate must be in [0, 0.5), got {error_rate}"
        );
        WorkerPool { error_rates: vec![error_rate; n] }
    }

    /// A heterogeneous pool: `n` workers with error rates spread uniformly
    /// over `[center - spread, center + spread]`, clamped to `[0, 0.45]`.
    pub fn heterogeneous<R: Rng>(n: usize, center: f64, spread: f64, rng: &mut R) -> Self {
        assert!(n > 0, "pool must have at least one worker");
        let error_rates = (0..n)
            .map(|_| {
                let e = center + rng.gen_range(-spread..=spread);
                e.clamp(0.0, 0.45)
            })
            .collect();
        WorkerPool { error_rates }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.error_rates.len()
    }

    /// True if the pool is empty (never constructible via the helpers).
    pub fn is_empty(&self) -> bool {
        self.error_rates.is_empty()
    }

    /// Remove one worker from the pool (attrition under fault injection).
    /// The departing worker is the pool's worst (highest error rate) —
    /// marketplaces shed unreliable workers first. Refuses to shrink below
    /// two workers so voting always has a quorum; returns whether a worker
    /// actually left.
    pub fn remove_one(&mut self) -> bool {
        if self.error_rates.len() <= 2 {
            return false;
        }
        let worst = self
            .error_rates
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("pool is non-empty");
        self.error_rates.remove(worst);
        true
    }

    /// Mean error rate of the pool.
    pub fn mean_error_rate(&self) -> f64 {
        self.error_rates.iter().sum::<f64>() / self.error_rates.len() as f64
    }

    /// One answer to a question with the given true label, from a worker
    /// drawn uniformly from the pool.
    pub fn answer<R: Rng>(&self, true_label: bool, rng: &mut R) -> bool {
        let w = rng.gen_range(0..self.error_rates.len());
        let wrong = rng.gen_bool(self.error_rates[w]);
        true_label ^ wrong
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn perfect_workers_never_err() {
        let pool = WorkerPool::perfect(5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(pool.answer(true, &mut rng));
            assert!(!pool.answer(false, &mut rng));
        }
    }

    #[test]
    fn error_rate_is_respected_statistically() {
        let pool = WorkerPool::uniform(10, 0.2);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let wrong = (0..n)
            .filter(|_| !pool.answer(true, &mut rng))
            .count() as f64;
        let rate = wrong / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed {rate}");
    }

    #[test]
    fn heterogeneous_rates_clamped() {
        let mut rng = StdRng::seed_from_u64(3);
        let pool = WorkerPool::heterogeneous(100, 0.4, 0.2, &mut rng);
        assert_eq!(pool.len(), 100);
        assert!(pool.mean_error_rate() <= 0.45);
    }

    #[test]
    #[should_panic(expected = "error rate must be in [0, 0.5)")]
    fn adversarial_rate_rejected() {
        WorkerPool::uniform(3, 0.6);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_pool_rejected() {
        WorkerPool::uniform(0, 0.1);
    }
}
