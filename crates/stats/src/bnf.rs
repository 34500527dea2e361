//! Burton Normal Form performance curves.
//!
//! Following the paper (and Duato/Yalamanchili/Ni): each point of a curve is
//! the (delivered throughput, average latency) pair measured at one applied
//! load; curves are plotted for increasing applied load up to just beyond
//! saturation.

/// One measured operating point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BnfPoint {
    /// Applied load, in flits/node/cycle.
    pub applied_load: f64,
    /// Delivered (accepted) traffic, normalized flits/node/cycle.
    pub throughput: f64,
    /// Average message latency in cycles, including queue waiting time.
    pub latency: f64,
    /// Messages delivered during the measurement window.
    pub messages_delivered: u64,
    /// Message-dependent deadlocks detected during the window.
    pub deadlocks: u64,
}

impl BnfPoint {
    /// Normalized number of deadlocks: deadlocks per delivered message
    /// (the paper's deadlock-frequency metric, Section 4.1).
    pub fn normalized_deadlocks(&self) -> f64 {
        if self.messages_delivered == 0 {
            0.0
        } else {
            self.deadlocks as f64 / self.messages_delivered as f64
        }
    }
}

/// A labelled Burton-Normal-Form curve (one scheme/pattern/VC-count line of
/// a paper figure).
#[derive(Clone, Debug)]
pub struct BnfCurve {
    /// Curve label (e.g. `"PR"`, `"DR"`, `"SA"`).
    pub label: String,
    /// Measured points in order of increasing applied load.
    pub points: Vec<BnfPoint>,
}

impl BnfCurve {
    /// Empty curve with a label.
    pub fn new(label: impl Into<String>) -> Self {
        BnfCurve {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point (points must be pushed in increasing applied load).
    pub fn push(&mut self, p: BnfPoint) {
        self.points.push(p);
    }

    /// Assemble a curve from an arbitrary point set: points are sorted by
    /// applied load and exact-duplicate loads collapse to the last one
    /// given. This is the entry point for *partial* result sets — a sweep
    /// in which some points failed, or a mix of freshly simulated and
    /// cache-served points arriving out of order — where the push-in-order
    /// contract of [`BnfCurve::push`] cannot be met.
    pub fn assemble(label: impl Into<String>, points: impl IntoIterator<Item = BnfPoint>) -> Self {
        let mut points: Vec<BnfPoint> = points.into_iter().collect();
        points.sort_by(|a, b| {
            a.applied_load
                .partial_cmp(&b.applied_load)
                .expect("applied loads are finite")
        });
        points.dedup_by(|later, earlier| {
            if later.applied_load == earlier.applied_load {
                *earlier = *later;
                true
            } else {
                false
            }
        });
        BnfCurve {
            label: label.into(),
            points,
        }
    }

    /// Peak delivered throughput over the curve — the saturation
    /// throughput, the paper's primary comparison metric.
    pub fn saturation_throughput(&self) -> f64 {
        self.points.iter().map(|p| p.throughput).fold(0.0, f64::max)
    }

    /// The lowest-load point whose latency exceeds `threshold` cycles, as a
    /// proxy for the saturation load.
    pub fn saturation_load(&self, threshold: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.latency > threshold)
            .map(|p| p.applied_load)
    }

    /// Average latency at the largest applied load not exceeding `load`
    /// (for comparing schemes at equal load below saturation).
    pub fn latency_at_load(&self, load: f64) -> Option<f64> {
        self.points
            .iter()
            .rfind(|p| p.applied_load <= load + 1e-12)
            .map(|p| p.latency)
    }

    /// Linearly interpolated latency at a given delivered throughput, if
    /// the curve reaches it.
    pub fn latency_at_throughput(&self, tput: f64) -> Option<f64> {
        let mut prev: Option<&BnfPoint> = None;
        for p in &self.points {
            if p.throughput >= tput {
                return Some(match prev {
                    None => p.latency,
                    Some(q) => {
                        let span = p.throughput - q.throughput;
                        if span <= 1e-12 {
                            p.latency
                        } else {
                            let t = (tput - q.throughput) / span;
                            q.latency + t * (p.latency - q.latency)
                        }
                    }
                });
            }
            prev = Some(p);
        }
        None
    }

    /// Total deadlocks observed across the curve.
    pub fn total_deadlocks(&self) -> u64 {
        self.points.iter().map(|p| p.deadlocks).sum()
    }
}
