//! Order statistics and output digests.

/// Percentiles a tail figure may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples a tail figure needs beyond its percentile before it is
/// trusted: fewer, and one slow sample moves it.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `pct` among `n` samples,
/// in exact integer arithmetic on tenths of a percent.
fn rank(n: usize, pct: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let per_mille = (pct.clamp(0.0, 100.0) * 10.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples that lie beyond the nearest-rank `pct` percentile of `n`.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, pct)
}

/// The highest percentile of the ladder with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when `n` is too small
/// for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&pct| beyond(n, pct) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending-sorted sample (0 when
/// empty).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 64-bit FNV-1a: the digest every pinned output is compared by.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds a word in (little-endian bytes).
    pub fn word(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// Folds a float in by its exact bit pattern.
    pub fn float(&mut self, value: f64) -> &mut Self {
        self.word(value.to_bits())
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Digest of a byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        Digest::default().bytes(bytes).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten beyond it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), Some(99.0));
        // One sample fewer and p99 has only nine beyond; p95 has 49.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles_and_median() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_separates_inputs() {
        assert_eq!(Digest::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(Digest::of(b"a"), Digest::of(b"b"));
        let a = Digest::default().float(0.5).finish();
        let b = Digest::default().float(-0.5).finish();
        assert_ne!(a, b);
    }
}
