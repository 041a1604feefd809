//! Integer order statistics over per-iteration samples.
//!
//! Every sample is a `u64`: times in nanoseconds, sizes in bytes, counts,
//! and ratios in millionths. Medians and percentiles are computed without
//! floating point, so the same samples always give the same figure.

/// Ratios are stored as integers in these units (millionths).
pub const RATIO_SCALE: u64 = 1_000_000;

/// Median of `samples` (sorted in place). An even count gives the mean of
/// the two middle samples, rounded down, without overflow. `None` when
/// there are no samples.
pub fn median(samples: &mut [u64]) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let n = samples.len();
    if n % 2 == 1 {
        return Some(samples[n / 2]);
    }
    let (a, b) = (samples[n / 2 - 1], samples[n / 2]);
    Some(a / 2 + b / 2 + (a % 2 + b % 2) / 2)
}

/// Median of signed samples (sorted in place), by the same rule as
/// [`median`]: each sample is mapped to `u64` in an order-preserving way
/// (sign bit flipped), so the mean of the two middle samples is taken in
/// that space and mapped back.
pub fn median_signed(samples: &mut [i64]) -> Option<i64> {
    let mut shifted: Vec<u64> = samples.iter().map(|&v| (v as u64) ^ (1 << 63)).collect();
    samples.sort_unstable();
    median(&mut shifted).map(|m| (m ^ (1 << 63)) as i64)
}

/// Nearest-rank percentile `p` (0..=100) of `samples` (sorted in place):
/// the smallest sample with at least `p`% of the samples at or below it.
/// `None` when there are no samples or `p > 100`.
pub fn percentile(samples: &mut [u64], p: u32) -> Option<u64> {
    if samples.is_empty() || p > 100 {
        return None;
    }
    samples.sort_unstable();
    let n = samples.len() as u64;
    // rank = ceil(p * n / 100), at least 1.
    let rank = ((u64::from(p) * n).div_ceil(100)).max(1);
    Some(samples[(rank - 1) as usize])
}

/// The highest whole percentile that still has at least ten samples
/// above it, which is the highest one `n` samples can report with some
/// confidence. `None` below 20 samples, where only the median is worth
/// quoting.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    Some(((n - 10) * 100 / n) as u32)
}

/// `num / den` in millionths, rounded down (`None` when `den` is 0).
pub fn ratio(num: u64, den: u64) -> Option<u64> {
    if den == 0 {
        return None;
    }
    u64::try_from(u128::from(num) * u128::from(RATIO_SCALE) / u128::from(den)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_count_is_middle_sample() {
        assert_eq!(median(&mut [30, 10, 20]), Some(20));
        assert_eq!(median(&mut [7]), Some(7));
    }

    #[test]
    fn median_of_even_count_is_floor_of_middle_mean() {
        assert_eq!(median(&mut [4, 1, 3, 2]), Some(2));
        assert_eq!(median(&mut [1, 2]), Some(1));
        assert_eq!(median(&mut [3, 5]), Some(4));
    }

    #[test]
    fn median_does_not_overflow_near_u64_max() {
        assert_eq!(median(&mut [u64::MAX, u64::MAX - 2]), Some(u64::MAX - 1));
        assert_eq!(median(&mut [u64::MAX, u64::MAX]), Some(u64::MAX));
    }

    #[test]
    fn median_of_nothing_is_none() {
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn signed_median_matches_unsigned_rule_across_zero() {
        assert_eq!(median_signed(&mut [-5, 3, -1]), Some(-1));
        assert_eq!(median_signed(&mut [-4, 2]), Some(-1));
        assert_eq!(median_signed(&mut [-3, -2]), Some(-3));
        assert_eq!(median_signed(&mut [i64::MIN, i64::MAX]), Some(-1));
        assert_eq!(median_signed(&mut [10, 20, 30, 40]), Some(25));
        assert_eq!(median_signed(&mut []), None);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let mut s: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(percentile(&mut s, 0), Some(1));
        assert_eq!(percentile(&mut s, 10), Some(1));
        assert_eq!(percentile(&mut s, 11), Some(2));
        assert_eq!(percentile(&mut s, 50), Some(5));
        assert_eq!(percentile(&mut s, 90), Some(9));
        assert_eq!(percentile(&mut s, 100), Some(10));
        assert_eq!(percentile(&mut s, 101), None);
        assert_eq!(percentile(&mut [], 50), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_above() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        let mut s: Vec<u64> = (1..=100).collect();
        let p = tail_percentile(s.len()).unwrap();
        let v = percentile(&mut s, p).unwrap();
        assert_eq!(s.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn ratio_is_in_millionths() {
        assert_eq!(ratio(3, 2), Some(1_500_000));
        assert_eq!(ratio(1, 3), Some(333_333));
        assert_eq!(ratio(1, 0), None);
        assert_eq!(ratio(u64::MAX, 1), None);
    }
}
