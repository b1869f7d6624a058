//! Exact order statistics over recorded samples, and ratios that keep
//! their base.
//!
//! Percentiles are taken from the samples themselves, never from a
//! log-bucketed histogram: `bypassd_trace::Histogram` puts 5.119 µs and
//! 5.247 µs in adjacent buckets, which would hide a virtual-time shift
//! of about 2%.

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `num/den` of `sorted` (ascending), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above the chosen rank.
/// Integer arithmetic keeps the rank exact (`0.99 * 1000` is not).
pub fn percentile(sorted: &[u64], num: u64, den: u64) -> Option<u64> {
    let n = sorted.len() as u64;
    if n == 0 || num == 0 || num > den {
        return None;
    }
    let rank = (num * n).div_ceil(den); // 1-based
    if n - rank < MIN_BEYOND as u64 {
        return None;
    }
    Some(sorted[(rank - 1) as usize])
}

/// Median of host-clock samples (mean of the two middle values for an
/// even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A ratio together with its base, so reports can print both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: impl Into<f64>, den: impl Into<f64>) -> Ratio {
        Ratio {
            num: num.into(),
            den: den.into(),
        }
    }

    /// The quotient; 0 for a zero base (the measured thing did not
    /// happen, so there is nothing to divide by).
    pub fn value(self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

/// Median and tail of one latency class, in nanoseconds, with the
/// sample count. An empty class reads as zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tail {
    pub n: usize,
    pub p50: u64,
    pub p99: u64,
}

/// Summarises `samples` (any order).
///
/// # Errors
/// When the class has samples but too few for the p99 rule: the
/// workload is mis-sized and its tail would be a guess.
pub fn tail(samples: &[u64]) -> Result<Tail, String> {
    if samples.is_empty() {
        return Ok(Tail::default());
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let too_few = || {
        format!(
            "{} samples leave fewer than {MIN_BEYOND} beyond p99",
            s.len()
        )
    };
    Ok(Tail {
        n: s.len(),
        p50: percentile(&s, 50, 100).ok_or_else(too_few)?,
        p99: percentile(&s, 99, 100).ok_or_else(too_few)?,
    })
}

/// Median of `samples`; 0 when empty.
///
/// # Errors
/// When fewer than [`MIN_BEYOND`] samples lie beyond the median.
pub fn p50(samples: &[u64]) -> Result<u64, String> {
    if samples.is_empty() {
        return Ok(0);
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    percentile(&s, 50, 100).ok_or_else(|| format!("{} samples are too few for a median", s.len()))
}

/// Mean of `samples`, 0 when empty.
pub fn mean(samples: &[u64]) -> f64 {
    let sum: f64 = samples.iter().map(|&v| v as f64).sum();
    Ratio::new(sum, samples.len() as f64).value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_an_exact_sample() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 50, 100), Some(500));
        assert_eq!(percentile(&s, 99, 100), Some(990));
        // 5.119 µs and 5.247 µs fall in adjacent histogram buckets; the
        // exact percentiles keep them apart.
        let mut close: Vec<u64> = vec![5119; 500];
        close.extend(vec![5247; 500]);
        assert_eq!(percentile(&close, 50, 100), Some(5119));
        assert_eq!(percentile(&close, 99, 100), Some(5247));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s: Vec<u64> = (0..1000).collect();
        assert!(
            percentile(&s, 99, 100).is_some(),
            "1000 samples leave 10 beyond p99"
        );
        let s: Vec<u64> = (0..999).collect();
        assert_eq!(percentile(&s, 99, 100), None, "999 samples leave 9");
        assert_eq!(percentile(&s[..19], 50, 100), None);
        assert!(percentile(&s[..20], 50, 100).is_some());
        assert_eq!(percentile(&[], 50, 100), None);
        assert!(tail(&s).is_err());
        assert!(p50(&s[..19]).is_err());
        assert_eq!(tail(&[]).unwrap(), Tail::default());
        assert_eq!(p50(&[]).unwrap(), 0);
    }

    #[test]
    fn ratio_keeps_base_and_handles_zero() {
        let r = Ratio::new(3u32, 4u32);
        assert_eq!((r.num, r.den, r.value()), (3.0, 4.0, 0.75));
        assert_eq!(Ratio::new(5u32, 0u32).value(), 0.0);
        assert_eq!(Ratio::new(0u32, 0u32).value(), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2, 4]), 3.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
