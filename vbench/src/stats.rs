//! Small statistics helpers and the FNV-1a digest the correctness gate
//! compares event streams with.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it. `None`
/// for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = nearest_rank(sorted.len(), p);
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` in a sample of `n >= 1` values.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// Whether a sample of `n` values supports percentile `p`: at least ten
/// samples must lie beyond its nearest rank, or the tail is guesswork.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n > 0 && n - nearest_rank(n, p) >= 10
}

/// Median of a sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the "exclusive" method — the
/// default of Python's `statistics.quantiles(values, n=4)`, which is how
/// the spread of repeated runs is judged.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let (n, m) = (n as i64, n as i64 + 1);
            let mut q = [0.0; 3];
            for (i, slot) in (1..4i64).zip(q.iter_mut()) {
                let j = (i * m / 4).clamp(1, n - 1);
                // May be negative for tiny samples, as in Python.
                let delta = (i * m - j * 4) as f64;
                let (lo, hi) = (v[j as usize - 1], v[j as usize]);
                *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
            }
            Some(q)
        }
    }
}

/// 64-bit FNV-1a over a byte stream, fed incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The empty digest (the FNV offset basis).
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Digest of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.update(bytes);
        h.value()
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!percentile_supported(99, 90.0));
        assert!(percentile_supported(100, 90.0));
        assert!(!percentile_supported(999, 99.0));
        assert!(percentile_supported(1000, 99.0));
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(19, 50.0));
        assert!(!percentile_supported(0, 50.0));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
    }

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(Fnv::new().value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::of(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.value(), Fnv::of(b"foobar"));
    }
}
