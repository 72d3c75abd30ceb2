//! Zipfian distribution sampler — the YCSB reference algorithm
//! (Gray et al., "Quickly Generating Billion-Record Synthetic Databases",
//! SIGMOD '94), as used by YCSB's `ZipfianGenerator`.
//!
//! Constant-time sampling after an O(n)-free closed-form setup using the
//! incomplete zeta approximation.

use hs1_types::SplitMix64;

/// Zipfian sampler over `[0, n)` with exponent `theta` (YCSB default
/// 0.99).
#[derive(Clone, Debug)]
pub(crate) struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    pub(crate) fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n > 0);
        assert!((0.0..1.0).contains(&theta), "theta in [0,1) required");
        let zetan = Self::zeta_approx(n, theta);
        let zeta2theta = Self::zeta_exact(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian { n, theta, alpha, zetan, eta }
    }

    fn zeta_exact(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Incomplete zeta: exact for small n, Euler–Maclaurin approximation
    /// beyond (error < 1e-9 for n ≥ 10^4, far below sampling noise).
    fn zeta_approx(n: u64, theta: f64) -> f64 {
        const EXACT_LIMIT: u64 = 10_000;
        if n <= EXACT_LIMIT {
            return Self::zeta_exact(n, theta);
        }
        let head = Self::zeta_exact(EXACT_LIMIT, theta);
        // ∫_{L}^{n} x^-θ dx + ½(n^-θ − L^-θ)
        let l = EXACT_LIMIT as f64;
        let nf = n as f64;
        let tail = (nf.powf(1.0 - theta) - l.powf(1.0 - theta)) / (1.0 - theta)
            + 0.5 * (nf.powf(-theta) - l.powf(-theta));
        head + tail
    }

    /// Sample a rank in `[0, n)`; rank 0 is the hottest key.
    pub(crate) fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = ((self.eta * u) - self.eta + 1.0).powf(self.alpha);
        ((self.n as f64) * v) as u64 % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_in_range() {
        let z = Zipfian::new(600_000, 0.99);
        let mut rng = SplitMix64::new(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 600_000);
        }
    }

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let z = Zipfian::new(600_000, 0.99);
        let mut rng = SplitMix64::new(2);
        let samples = 100_000;
        let hot = (0..samples)
            .filter(|_| z.sample(&mut rng) < 600) // hottest 0.1% of keys
            .count();
        let frac = hot as f64 / samples as f64;
        // Under θ=0.99 the top 0.1% of ranks draw roughly a third of the
        // mass; uniform would give 0.001.
        assert!(frac > 0.2, "hot fraction {frac}");
    }

    #[test]
    fn rank_zero_is_hottest() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = SplitMix64::new(3);
        let mut counts = vec![0u32; 10];
        for _ in 0..200_000 {
            let s = z.sample(&mut rng);
            if s < 10 {
                counts[s as usize] += 1;
            }
        }
        assert!(counts[0] > counts[1], "{counts:?}");
        assert!(counts[1] > counts[5], "{counts:?}");
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipfian::new(100, 0.0);
        let mut rng = SplitMix64::new(4);
        let mut counts = vec![0u32; 100];
        let samples = 200_000;
        for _ in 0..samples {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let expected = samples as f64 / 100.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expected * 0.7 && (c as f64) < expected * 1.3,
                "bucket {i}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn zeta_approx_matches_exact() {
        for n in [10_000u64, 20_000, 50_000] {
            let exact = Zipfian::zeta_exact(n, 0.99);
            let approx = Zipfian::zeta_approx(n, 0.99);
            assert!((exact - approx).abs() / exact < 1e-6, "n={n}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let z = Zipfian::new(1000, 0.99);
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }
}
