//! Fixed-bin histograms (used for the Figure 6 load-rate distributions).

/// A histogram over `[lo, hi)` with uniformly sized bins plus an overflow
/// bin.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    overflow: u64,
    underflow: u64,
    total: u64,
}

impl Histogram {
    /// Create a histogram over `[lo, hi)` with `bins` uniform bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0, "invalid histogram range");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            overflow: 0,
            underflow: 0,
            total: 0,
        }
    }

    /// Record one observation.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let nbins = self.counts.len();
            let w = (self.hi - self.lo) / nbins as f64;
            let idx = (((x - self.lo) / w) as usize).min(nbins - 1);
            self.counts[idx] += 1;
        }
    }

    /// Number of bins (excluding under/overflow).
    #[inline]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw count of bin `i`.
    #[inline]
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Total observations, including under/overflow.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of observations in bin `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// Fraction of observations strictly below `x` (approximated to bin
    /// resolution; used for statements like "network load remains under 5%
    /// of capacity for 92–99% of execution time").
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut c = self.underflow;
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        for (i, &n) in self.counts.iter().enumerate() {
            let bin_hi = self.lo + (i as f64 + 1.0) * w;
            if bin_hi <= x {
                c += n;
            } else {
                break;
            }
        }
        c as f64 / self.total as f64
    }

    /// Count of observations at or above the upper bound.
    #[inline]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}
