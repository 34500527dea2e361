//! Streaming quantile estimation (the P² algorithm of Jain & Chlamtac),
//! used for tail-latency reporting without storing samples.

/// A single-quantile P² estimator: maintains five markers whose heights
/// converge on the `q`-quantile of the stream.
///
/// ```
/// use mdd_stats::P2Quantile;
/// let mut q = P2Quantile::new(0.5);
/// for i in 0..1001 { q.add(f64::from(i)); }
/// assert!((q.estimate() - 500.0).abs() < 20.0);
/// ```
#[derive(Clone, Debug)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Marker positions (1-based counts).
    pos: [f64; 5],
    /// Desired marker positions.
    want: [f64; 5],
    /// Desired position increments per observation.
    inc: [f64; 5],
    /// Observations seen. The first five are buffered in `heights`
    /// (in arrival order) and sorted into the initial markers at the
    /// fifth.
    n: u64,
}

impl P2Quantile {
    /// Estimator for the `q`-quantile, `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            pos: [1.0, 2.0, 3.0, 4.0, 5.0],
            want: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            inc: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            n: 0,
        }
    }

    /// Observations seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The quantile this estimator tracks.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        if self.n <= 5 {
            self.heights[self.n as usize - 1] = x;
            if self.n == 5 {
                self.heights.sort_by(|a, b| a.partial_cmp(b).unwrap());
            }
            return;
        }
        // Find the cell containing x and bump marker positions.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            (0..4)
                .find(|&i| x < self.heights[i + 1])
                .expect("x within [h0, h4)")
        };
        for i in (k + 1)..5 {
            self.pos[i] += 1.0;
        }
        for i in 0..5 {
            self.want[i] += self.inc[i];
        }
        // Adjust interior markers with the piecewise-parabolic formula.
        for i in 1..4 {
            let d = self.want[i] - self.pos[i];
            let right = self.pos[i + 1] - self.pos[i];
            let left = self.pos[i - 1] - self.pos[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let s = d.signum();
                let cand = self.parabolic(i, s);
                let new_h = if self.heights[i - 1] < cand && cand < self.heights[i + 1] {
                    cand
                } else {
                    self.linear(i, s)
                };
                self.heights[i] = new_h;
                self.pos[i] += s;
            }
        }
    }

    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let p = &self.pos;
        let h = &self.heights;
        h[i] + s / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + s) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - s) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = (i as f64 + s) as usize;
        self.heights[i] + s * (self.heights[j] - self.heights[i]) / (self.pos[j] - self.pos[i])
    }

    /// Current estimate (exact for fewer than five observations).
    pub fn estimate(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        if self.n < 5 {
            let mut v = self.heights;
            let v = &mut v[..self.n as usize];
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let idx = ((self.q * (v.len() as f64 - 1.0)).round() as usize).min(v.len() - 1);
            return v[idx];
        }
        self.heights[2]
    }
}

/// Median / p95 / p99 latency tracker.
#[derive(Clone, Debug)]
pub struct LatencyQuantiles {
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
}

impl Default for LatencyQuantiles {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyQuantiles {
    /// Fresh tracker.
    pub fn new() -> Self {
        LatencyQuantiles {
            p50: P2Quantile::new(0.5),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
        }
    }

    /// Record one latency sample.
    pub fn add(&mut self, x: f64) {
        self.p50.add(x);
        self.p95.add(x);
        self.p99.add(x);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.p50.count()
    }

    /// `(p50, p95, p99)` estimates.
    pub fn estimates(&self) -> (f64, f64, f64) {
        (
            self.p50.estimate(),
            self.p95.estimate(),
            self.p99.estimate(),
        )
    }
}
