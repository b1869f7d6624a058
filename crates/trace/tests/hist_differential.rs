//! Differential test: [`Histogram`], whose buckets grow with the samples
//! it records, against a dense reference that allocates all 2,048
//! buckets up front. Every count, sum, mean, extreme, percentile and
//! printed summary must agree after every record and every merge.

use bypassd_sim::rng::Rng;
use bypassd_sim::time::Nanos;
use bypassd_trace::Histogram;

const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;
const QUANTILES: [f64; 7] = [0.0, 1.0 / 32.0, 0.5, 0.9, 0.99, 0.999, 1.0];

/// The dense histogram: 64 majors of 32 sub-buckets, every bucket
/// present from the start.
#[derive(Clone)]
struct Dense {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Dense {
    fn new() -> Self {
        Dense {
            buckets: vec![0; 2048],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index(value: u64) -> usize {
        if value < SUB_COUNT {
            return value as usize;
        }
        let major = 63 - value.leading_zeros() as usize;
        let shift = major as u32 - SUB_BITS;
        let sub = ((value >> shift) - SUB_COUNT) as usize;
        (major - SUB_BITS as usize + 1) * SUB_COUNT as usize + sub
    }

    fn bucket_upper(index: usize) -> u64 {
        let major = index / SUB_COUNT as usize;
        let sub = (index % SUB_COUNT as usize) as u64;
        if major == 0 {
            return sub;
        }
        // 2^64 - 1 for the top bucket, whose shift wraps to zero.
        ((SUB_COUNT + sub + 1) << (major as u32 - 1)).wrapping_sub(1)
    }

    fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn merge(&mut self, other: &Dense) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn sum(&self) -> Nanos {
        Nanos(self.sum.min(u128::from(u64::MAX)) as u64)
    }

    fn mean(&self) -> Nanos {
        match self.count {
            0 => Nanos::ZERO,
            n => Nanos((self.sum / u128::from(n)) as u64),
        }
    }

    fn min(&self) -> Nanos {
        Nanos(if self.count == 0 { 0 } else { self.min })
    }

    fn max(&self) -> Nanos {
        Nanos(if self.count == 0 { 0 } else { self.max })
    }

    fn percentile(&self, q: f64) -> Nanos {
        if self.count == 0 {
            return Nanos::ZERO;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Nanos(Self::bucket_upper(i).min(self.max).max(self.min));
            }
        }
        Nanos(self.max)
    }
}

impl std::fmt::Debug for Dense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.percentile(0.5))
            .field("p99", &self.percentile(0.99))
            .field("max", &self.max())
            .finish()
    }
}

/// A sample from one of four bands: zero, the exact buckets 1–31,
/// device latencies of 4–20 µs, and values within 2^20 of `u64::MAX`.
/// `bands` limits the draw to the first few bands, so a histogram's
/// highest bucket jumps late in some runs.
fn sample(rng: &mut Rng, bands: u64) -> u64 {
    match rng.gen_range(bands) {
        0 => 0,
        1 => 1 + rng.gen_range(31),
        2 => 4_000 + rng.gen_range(16_001),
        _ => u64::MAX - rng.gen_range(1 << 20),
    }
}

fn assert_same(h: &Histogram, d: &Dense, what: &str) {
    assert_eq!(h.count(), d.count, "{what}: count");
    assert_eq!(h.sum(), d.sum(), "{what}: sum");
    assert_eq!(h.mean(), d.mean(), "{what}: mean");
    assert_eq!(h.min(), d.min(), "{what}: min");
    assert_eq!(h.max(), d.max(), "{what}: max");
    for q in QUANTILES {
        assert_eq!(h.percentile(q), d.percentile(q), "{what}: q = {q}");
    }
    assert_eq!(format!("{h:?}"), format!("{d:?}"), "{what}: Debug");
}

/// Records `n` samples into both, checking after every one.
fn fill(rng: &mut Rng, n: usize, bands: u64, what: &str) -> (Histogram, Dense) {
    let (mut h, mut d) = (Histogram::new(), Dense::new());
    assert_same(&h, &d, what);
    for step in 0..n {
        let v = sample(rng, bands);
        h.record(Nanos(v));
        d.record(v);
        assert_same(&h, &d, &format!("{what}, step {step}, value {v}"));
    }
    (h, d)
}

#[test]
fn sparse_histogram_matches_the_dense_reference_per_record() {
    let mut rng = Rng::new(29);
    for run in 0..40 {
        let bands = 1 + run % 4;
        let n = 1 + rng.gen_range(300) as usize;
        fill(&mut rng, n, bands, &format!("run {run}"));
    }
}

#[test]
fn sparse_histogram_merges_match_the_dense_reference_in_both_orders() {
    let mut rng = Rng::new(30);
    for run in 0..40 {
        // Empty with non-empty, then short with long; the short side
        // stops at a lower band so its buckets end sooner.
        let short_n = if run % 2 == 0 {
            0
        } else {
            1 + rng.gen_range(20) as usize
        };
        let short = fill(&mut rng, short_n, 1 + run % 3, "short");
        let long_n = 50 + rng.gen_range(200) as usize;
        let long = fill(&mut rng, long_n, 4, "long");
        for (a, b, order) in [
            (&short, &long, "short ← long"),
            (&long, &short, "long ← short"),
        ] {
            let (mut h, mut d) = (a.0.clone(), a.1.clone());
            h.merge(&b.0);
            d.merge(&b.1);
            assert_same(&h, &d, &format!("run {run}, {order}"));
            // The merged histogram keeps recording like the reference.
            for _ in 0..20 {
                let v = sample(&mut rng, 4);
                h.record(Nanos(v));
                d.record(v);
            }
            assert_same(&h, &d, &format!("run {run}, {order}, then recorded"));
        }
    }
}
