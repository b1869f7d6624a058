//! The shared log-bucketed latency histogram.
//!
//! One histogram type serves the whole workspace: benchmark harnesses,
//! the per-tenant QoS accounting (`bypassd_qos::stats`), and the trace
//! metrics registry all record into this HDR-style structure (2x range
//! per major bucket, 32 linear sub-buckets), giving ≤ ~3% relative
//! error on percentiles across nanoseconds to minutes with O(1) record
//! cost.
//!
//! A histogram starts with no buckets: one exists per QoS tenant, and
//! most record only a narrow band of latencies. Its bucket `Vec` grows
//! in whole majors (32 buckets) up to the highest bucket recorded, so at
//! most once per major in its life, and every reader takes a missing
//! bucket as zero. A tenant whose device latencies stay under 32 µs
//! holds 11 majors (2.75 KB), not a dense 64-major table (16 KB).

use bypassd_sim::time::Nanos;

const SUB_BITS: u32 = 5; // 32 sub-buckets per power of two
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// A log-bucketed latency histogram.
///
/// ```rust
/// use bypassd_trace::Histogram;
/// use bypassd_sim::time::Nanos;
/// let mut h = Histogram::new();
/// for us in [4, 5, 6, 100] {
///     h.record(Nanos::from_micros(us));
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(0.5) >= Nanos::from_micros(5));
/// ```
#[derive(Clone)]
pub struct Histogram {
    /// Counts up to the highest major recorded; the rest are zero.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram; it allocates nothing until it records.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
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
        let major = 63 - value.leading_zeros() as usize; // >= SUB_BITS
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
        let shift = major as u32 - 1;
        // The top bucket's bound is 2^64 - 1: its shift wraps to zero.
        ((SUB_COUNT + sub + 1) << shift).wrapping_sub(1)
    }

    /// Extends the buckets with zeroes through the major holding
    /// bucket `index`.
    fn grow_to(&mut self, index: usize) {
        let len = (index / SUB_COUNT as usize + 1) * SUB_COUNT as usize;
        if len > self.buckets.len() {
            self.buckets.reserve_exact(len - self.buckets.len());
            self.buckets.resize(len, 0);
        }
    }

    /// [`Histogram::record`]'s first sample in a major above the top.
    #[cold]
    #[inline(never)]
    fn grow_and_count(&mut self, index: usize) {
        self.grow_to(index);
        self.buckets[index] += 1;
    }

    /// Records one latency sample.
    pub fn record(&mut self, value: Nanos) {
        let v = value.as_nanos();
        let i = Self::index(v);
        match self.buckets.get_mut(i) {
            Some(c) => *c += 1,
            None => self.grow_and_count(i),
        }
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> Nanos {
        Nanos(self.sum.min(u64::MAX as u128) as u64)
    }

    /// Arithmetic mean, or zero if empty.
    pub fn mean(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            Nanos((self.sum / self.count as u128) as u64)
        }
    }

    /// Smallest recorded sample, or zero if empty.
    pub fn min(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            Nanos(self.min)
        }
    }

    /// Largest recorded sample, or zero if empty.
    pub fn max(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            Nanos(self.max)
        }
    }

    /// Value at quantile `q` in `[0, 1]` (upper bucket bound), or zero if
    /// empty.
    ///
    /// # Panics
    /// Panics if `q` is not in `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Nanos {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
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

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if let Some(top) = other.buckets.len().checked_sub(1) {
            self.grow_to(top);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl std::fmt::Debug for Histogram {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Nanos::ZERO);
        assert_eq!(h.min(), Nanos::ZERO);
        assert_eq!(h.max(), Nanos::ZERO);
        assert_eq!(h.percentile(0.99), Nanos::ZERO);
    }

    #[test]
    fn single_value_statistics() {
        let mut h = Histogram::new();
        h.record(Nanos(4_020));
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), Nanos(4_020));
        assert_eq!(h.min(), Nanos(4_020));
        assert_eq!(h.max(), Nanos(4_020));
        let p50 = h.percentile(0.5).as_nanos();
        assert!((4_020..=4_150).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn percentile_error_is_bounded() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(Nanos(i * 100));
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = (q * 10_000.0f64).ceil() as u64 * 100;
            let measured = h.percentile(q).as_nanos();
            let err = (measured as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.04, "q={q} exact={exact} measured={measured}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(Nanos(v));
        }
        assert_eq!(h.percentile(1.0 / 32.0), Nanos(0));
        assert_eq!(h.max(), Nanos(31));
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Nanos(100));
        b.record(Nanos(200));
        b.record(Nanos(300));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Nanos(100));
        assert_eq!(a.max(), Nanos(300));
        assert_eq!(a.mean(), Nanos(200));
    }

    #[test]
    fn buckets_grow_by_whole_majors_to_the_highest_sample() {
        let mut h = Histogram::new();
        assert_eq!(h.buckets.capacity(), 0, "a new histogram allocates nothing");
        h.record(Nanos(7));
        assert_eq!(h.buckets.len(), 32);
        // 20 µs lands in major 10 (16,384–32,767 ns): 11 majors.
        h.record(Nanos::from_micros(20));
        assert_eq!((h.buckets.len(), h.buckets.capacity()), (352, 352));
        // A lower sample never grows it; the top bucket takes 60 majors.
        h.record(Nanos(100));
        assert_eq!(h.buckets.len(), 352);
        h.record(Nanos(u64::MAX));
        assert_eq!(h.buckets.len(), Histogram::index(u64::MAX) + 1);
        assert_eq!(h.buckets.len(), 60 * 32);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn percentile_rejects_bad_quantile() {
        let h = Histogram::new();
        let _ = h.percentile(1.5);
    }

    #[test]
    fn index_monotone_and_invertible_bound() {
        let mut last = 0usize;
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            4_096,
            1 << 20,
            1 << 40,
            u64::MAX,
        ] {
            let i = Histogram::index(v);
            assert!(i >= last, "index not monotone at {v}");
            assert!(
                Histogram::bucket_upper(i) >= v,
                "upper bound below value {v}"
            );
            last = i;
        }
    }
}
