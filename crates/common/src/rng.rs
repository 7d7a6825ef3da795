//! Deterministic random number generation.
//!
//! Every stochastic component in the reproduction (workload generation, cloud
//! variance noise, model subsampling, train/test splits) draws from a seeded
//! generator so that experiment runs are exactly reproducible.  The generator is
//! an in-tree xoshiro256++ (public-domain algorithm by Blackman & Vigna) seeded
//! through splitmix64 — the workspace builds offline with zero external crates —
//! plus the handful of distributions the paper's simulation needs (log-normal
//! noise for cloud variance, Zipf-like skew for data distributions, Poisson for
//! ad-hoc job arrivals).

/// splitmix64 step: the recommended seeder for xoshiro, also used to decorrelate
/// derived stream labels.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic RNG with the distribution helpers used across the workspace.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { state }
    }

    /// Derive a child generator from this one and a stream label.  Used to give each
    /// cluster / day / job its own independent but reproducible stream.  Does not
    /// advance this generator.
    pub fn derive(&self, label: u64) -> Self {
        // Mix the label with splitmix64 so that nearby labels do not correlate.
        let mut sm = label;
        let z = splitmix64(&mut sm);
        DetRng::new(self.seed_material() ^ z)
    }

    fn seed_material(&self) -> u64 {
        // Peek at the next output without advancing the stream.
        self.clone().next_u64()
    }

    /// The raw xoshiro256++ step: uniform u64.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits → the standard uniform double construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn int_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi >= lo, "int_range: empty range [{lo}, {hi}]");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        // Widening-multiply bounded draw (Lemire, without the rejection step: the
        // residual bias over spans ≪ 2^64 is immaterial for simulation use).
        let m = (self.next_u64() as u128) * ((span + 1) as u128);
        lo + (m >> 64) as u64
    }

    /// Uniform usize in `[0, n)`, for index selection. `n` must be > 0.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        self.int_range(0, (n - 1) as u64) as usize
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Standard normal draw (Box–Muller).
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        let u1 = self.unit().max(1e-12);
        let u2 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std * z
    }

    /// Log-normal multiplicative noise with the given sigma (in log space), mean 1.
    ///
    /// This models cloud runtime variance (Schad et al., cited as \[42\] in the paper):
    /// the same operator on the same data can differ in latency by tens of percent
    /// between runs.
    pub fn lognormal_noise(&mut self, sigma: f64) -> f64 {
        // E[exp(N(mu, sigma^2))] = exp(mu + sigma^2/2); choose mu so the mean is 1.
        let mu = -sigma * sigma / 2.0;
        self.normal(mu, sigma).exp()
    }

    /// Zipf-like skew factor in `[1, n]`: returns a rank with probability proportional
    /// to `1 / rank^theta`.  Used to pick popular inputs/templates.
    pub fn zipf(&mut self, n: usize, theta: f64) -> usize {
        debug_assert!(n > 0);
        // Inverse-CDF over the normalised weights; n is small in our generators
        // (hundreds), so the O(n) loop is fine and keeps the code obvious.
        let norm: f64 = (1..=n).map(|r| 1.0 / (r as f64).powf(theta)).sum();
        let mut u = self.unit() * norm;
        for r in 1..=n {
            let w = 1.0 / (r as f64).powf(theta);
            if u < w {
                return r;
            }
            u -= w;
        }
        n
    }

    /// Poisson draw via Knuth's algorithm (lambda is small in our generators).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            k += 1;
            p *= self.unit();
            if p <= l {
                return k - 1;
            }
            if k > 10_000 {
                return k; // guard against pathological lambda
            }
        }
    }

    /// Sample `k` distinct indices from `[0, n)` without replacement
    /// (partial Fisher–Yates).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Shuffle a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        let n = xs.len();
        if n <= 1 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Pick a random element of a slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.index(xs.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..50).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 5);
    }

    #[test]
    fn derive_gives_independent_streams() {
        let base = DetRng::new(42);
        let mut c1 = base.derive(1);
        let mut c2 = base.derive(2);
        let mut equal = 0;
        for _ in 0..100 {
            if c1.unit() == c2.unit() {
                equal += 1;
            }
        }
        assert!(equal < 3);
    }

    #[test]
    fn derive_does_not_advance_parent() {
        let mut a = DetRng::new(5);
        let mut b = DetRng::new(5);
        let _ = a.derive(9);
        assert_eq!(a.unit().to_bits(), b.unit().to_bits());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            let x = r.uniform(5.0, 9.0);
            assert!((5.0..9.0).contains(&x));
            let i = r.int_range(10, 20);
            assert!((10..=20).contains(&i));
        }
    }

    #[test]
    fn int_range_covers_every_value() {
        let mut r = DetRng::new(31);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.int_range(0, 7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_has_roughly_right_moments() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn lognormal_noise_has_mean_about_one() {
        let mut r = DetRng::new(13);
        let n = 50_000;
        let mean = (0..n).map(|_| r.lognormal_noise(0.3)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut r = DetRng::new(17);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[r.zipf(10, 1.2) - 1] += 1;
        }
        assert!(counts[0] > counts[4]);
        assert!(counts[0] > counts[9] * 3);
    }

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut r = DetRng::new(19);
        let n = 20_000;
        let mean = (0..n).map(|_| r.poisson(4.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let mut r = DetRng::new(23);
        let s = r.sample_indices(100, 30);
        assert_eq!(s.len(), 30);
        let mut seen = std::collections::HashSet::new();
        for &i in &s {
            assert!(i < 100);
            assert!(seen.insert(i));
        }
        // Requesting more than n clamps to n.
        assert_eq!(r.sample_indices(5, 50).len(), 5);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::new(29);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
