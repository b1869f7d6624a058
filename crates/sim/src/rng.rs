//! Deterministic random number generation and YCSB key distributions.
//!
//! A small, fully deterministic PRNG (xoshiro256** seeded via splitmix64)
//! keeps simulation runs reproducible across platforms, plus the key-choice
//! distributions used by the YCSB workloads in the paper's evaluation:
//! uniform, zipfian (with scrambling), and "latest".

/// xoshiro256** PRNG, seeded deterministically with splitmix64.
///
/// ```rust
/// use bypassd_sim::rng::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit value.
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

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's multiply-shift rejection method.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Derives an independent child generator (for per-actor streams).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a based scrambling hash used to spread zipfian-popular keys over
/// the key space (as YCSB's `ScrambledZipfianGenerator` does).
pub fn fnv1a_64(value: u64) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for i in 0..8 {
        hash ^= (value >> (i * 8)) & 0xFF;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Streaming FNV-1a 64-bit hasher.
///
/// Used wherever the simulation needs a cheap, deterministic,
/// platform-stable content digest: journal commit checksums, device media
/// fingerprints, and fault-campaign report fingerprints. Not
/// collision-resistant against adversaries — these are integrity checks
/// against *simulated* corruption, not cryptography.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Creates a hasher with the standard FNV offset basis.
    pub fn new() -> Self {
        Fnv64 {
            state: Self::OFFSET,
        }
    }

    /// Continues hashing from a digest returned by [`Fnv64::finish`].
    pub fn resume(state: u64) -> Self {
        Fnv64 { state }
    }

    /// `P^n` for the FNV prime `P` (wrapping): absorbing any `n` bytes
    /// from state `s` yields `s·P^n + c`, where `c` depends only on the
    /// bytes and on `s mod 256`. XOR touches only the low 8 bits, and
    /// multiplication mod 2^8 sees only the low 8 bits, so the low byte
    /// evolves on its own and the high bits follow linearly.
    pub fn prime_pow(n: u64) -> u64 {
        Self::PRIME.wrapping_pow(n as u32)
    }

    /// Absorbs a byte slice.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// Returns the current digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Key-choice distributions used by the YCSB workloads.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with the YCSB default constant (0.99), scrambled over the
    /// key space.
    Zipfian(Zipfian),
    /// Most recently inserted keys most popular (YCSB workload D).
    Latest(Zipfian),
}

impl KeyDist {
    /// Builds a uniform distribution over `n` keys.
    pub fn uniform() -> Self {
        KeyDist::Uniform
    }

    /// Builds a scrambled zipfian distribution over `n` keys.
    pub fn zipfian(n: u64) -> Self {
        KeyDist::Zipfian(Zipfian::new(n, 0.99))
    }

    /// Builds a "latest" distribution over `n` keys.
    pub fn latest(n: u64) -> Self {
        KeyDist::Latest(Zipfian::new(n, 0.99))
    }

    /// Chooses a key index in `[0, n)`; `n` may have grown since
    /// construction (inserts), which the `Latest` variant honours.
    pub fn next_key(&self, rng: &mut Rng, n: u64) -> u64 {
        match self {
            KeyDist::Uniform => rng.gen_range(n),
            KeyDist::Zipfian(z) => {
                let v = z.next(rng);
                fnv1a_64(v) % n
            }
            KeyDist::Latest(z) => {
                // Popularity skewed towards the most recent insert.
                let v = z.next(rng).min(n - 1);
                n - 1 - v
            }
        }
    }
}

/// YCSB-style zipfian generator (Gray et al. rejection-free method).
///
/// Precomputes `zeta(n, theta)` once; sampling is O(1).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipfian {
    /// Builds a zipfian distribution over `[0, n)` with skew `theta`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian requires at least one item");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let zeta_n = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zeta_n);
        Zipfian {
            n,
            theta,
            alpha,
            zeta_n,
            eta,
            zeta2,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact up to a cutoff, then integral approximation: keeps
        // construction O(1)-ish even for billions of keys.
        const EXACT: u64 = 1_000_000;
        let exact_n = n.min(EXACT);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > EXACT {
            // ∫ x^-theta dx from EXACT to n.
            let a = 1.0 - theta;
            sum += ((n as f64).powf(a) - (EXACT as f64).powf(a)) / a;
        }
        sum
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Samples a rank in `[0, n)`; rank 0 is the most popular.
    pub fn next(&self, rng: &mut Rng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }

    /// The skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// zeta(2, theta), exposed for tests.
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut rng = Rng::new(3);
        for bound in [1u64, 2, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = Rng::new(11);
        for _ in 0..1000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_range_roughly_uniform() {
        let mut rng = Rng::new(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.gen_range(10) as usize] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "count {c} out of range");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left input intact");
    }

    #[test]
    fn zipfian_is_skewed() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = Rng::new(13);
        let mut top = 0u32;
        let total = 100_000;
        for _ in 0..total {
            if z.next(&mut rng) < 10 {
                top += 1;
            }
        }
        // With theta=0.99 the top-10 of 1000 items draw a large share.
        assert!(
            top as f64 / total as f64 > 0.3,
            "zipfian not skewed enough: {top}"
        );
    }

    #[test]
    fn zipfian_within_bounds() {
        let z = Zipfian::new(37, 0.99);
        let mut rng = Rng::new(17);
        for _ in 0..10_000 {
            assert!(z.next(&mut rng) < 37);
        }
    }

    #[test]
    fn zipfian_large_n_constructs_fast() {
        // 1 billion keys: the BPF-KV store size; must not take O(n).
        let z = Zipfian::new(1_000_000_000, 0.99);
        let mut rng = Rng::new(23);
        for _ in 0..100 {
            assert!(z.next(&mut rng) < 1_000_000_000);
        }
    }

    #[test]
    fn latest_prefers_recent() {
        let d = KeyDist::latest(1000);
        let mut rng = Rng::new(29);
        let mut recent = 0;
        for _ in 0..10_000 {
            if d.next_key(&mut rng, 1000) >= 990 {
                recent += 1;
            }
        }
        assert!(
            recent > 3_000,
            "latest distribution not recency-biased: {recent}"
        );
    }

    #[test]
    fn scrambled_zipfian_spreads_keys() {
        let d = KeyDist::zipfian(1000);
        let mut rng = Rng::new(31);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            seen.insert(d.next_key(&mut rng, 1000));
        }
        // Scrambling should hit a broad set of distinct keys.
        assert!(seen.len() > 200, "only {} distinct keys", seen.len());
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a_64(0), fnv1a_64(0));
        assert_ne!(fnv1a_64(1), fnv1a_64(2));
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng::new(99);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
