//! Order statistics for latency samples.

/// Percentiles the tail picker may report, lowest first.
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile for it to count as a tail.
const TAIL_BEYOND: usize = 10;

/// A sorted set of latency samples (any unit).
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

/// A reported tail: which percentile, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. 99.9).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the distribution holds.
    pub n: usize,
}

impl Dist {
    /// Sort `samples` into a distribution.
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The samples, ascending.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// Nearest-rank percentile `pct` (0 with no samples).
    pub fn pct(&self, pct: f64) -> f64 {
        match rank(self.len(), pct) {
            Some(i) => self.sorted[i],
            None => 0.0,
        }
    }

    /// Median (nearest rank).
    pub fn p50(&self) -> f64 {
        self.pct(50.0)
    }

    /// The highest percentile of the ladder with at least ten samples
    /// beyond it. Below 20 samples no percentile qualifies, and the
    /// median is reported with its (small) count.
    pub fn tail(&self) -> Tail {
        let n = self.len();
        let pct = LADDER
            .iter()
            .rev()
            .copied()
            .find(|&p| rank(n, p).is_some_and(|i| n - (i + 1) >= TAIL_BEYOND))
            .unwrap_or(50.0);
        Tail {
            pct,
            value: self.pct(pct),
            n,
        }
    }
}

/// Zero-based nearest-rank index of percentile `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps decimal percentiles such as 99.9 from rounding
    // up one rank through binary representation error.
    let r = (pct * n as f64 / 100.0 - 1e-9).ceil() as usize;
    Some(r.clamp(1, n) - 1)
}

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(n: usize) -> Dist {
        Dist::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond (values 991..=1000),
        // p99.9 would leave 1.
        let t = dist(1000).tail();
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
        // 999 samples: p99 leaves 9 beyond, so p90 is reported.
        let t = dist(999).tail();
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.value, 900.0);
        // 10 000 samples reach p99.9.
        let t = dist(10_000).tail();
        assert_eq!((t.pct, t.value), (99.9, 9990.0));
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(dist(100).tail().pct, 90.0);
        // Too few samples for any tail: median, with its count.
        let t = dist(19).tail();
        assert_eq!((t.pct, t.n), (50.0, 19));
        assert_eq!(Dist::default().tail().value, 0.0);
    }

    #[test]
    fn percentiles_and_median() {
        let d = dist(10);
        assert_eq!(d.p50(), 5.0);
        assert_eq!(d.pct(100.0), 10.0);
        assert_eq!(d.pct(0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
