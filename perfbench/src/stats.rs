//! Percentiles from the benchmark's own raw samples.
//!
//! Every timing the benchmark reports is computed here from the full
//! sample vector, never read back from `saccs_obs` histograms (those
//! report bucket lower bounds). The tail percentile is the highest one
//! that still has at least [`TAIL_BEYOND`] samples above it, capped at
//! p99, so a short run cannot report a "p99" that is really its maximum.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A set of raw measurements in one unit.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank value at 1-based `rank`.
    fn at_rank(&mut self, rank: usize) -> f64 {
        self.sort();
        self.values[rank.clamp(1, self.values.len()) - 1]
    }

    /// Nearest-rank percentile `q` in `[0, 1]`; 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let n = self.values.len();
        self.at_rank((q * n as f64).ceil() as usize)
    }

    pub fn p50(&mut self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p90(&mut self) -> f64 {
        self.quantile(0.9)
    }

    /// The 1-based rank of the tail percentile: p99's rank, pulled
    /// down so that [`TAIL_BEYOND`] samples stay above it.
    fn tail_rank(&self) -> usize {
        let n = self.values.len();
        let p99 = (0.99 * n as f64).ceil() as usize;
        p99.min(n.saturating_sub(TAIL_BEYOND)).max(1)
    }

    /// The tail ("p99") value; 0 when empty.
    pub fn tail(&mut self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let rank = self.tail_rank();
        self.at_rank(rank)
    }

    /// The percentile the tail value actually sits at, e.g. `98.8`.
    pub fn tail_pct(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        100.0 * self.tail_rank() as f64 / self.values.len() as f64
    }
}

/// The median of a small set (the repeated set-up times).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.p50()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut s = Samples::new();
        for i in 1..=100 {
            s.push(i as f64);
        }
        // ceil(0.99 * 100) = 99 would leave one sample beyond; rank 90
        // leaves ten.
        assert_eq!(s.tail(), 90.0);
        assert_eq!(s.p50(), 50.0);
        let mut big = Samples::new();
        for i in 1..=2000 {
            big.push(i as f64);
        }
        assert_eq!(big.tail(), 1980.0);
    }

    #[test]
    fn empty_is_zero() {
        let mut s = Samples::new();
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.tail(), 0.0);
    }
}
