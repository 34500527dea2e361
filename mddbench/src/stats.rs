//! Order statistics over repeated samples, and the metric record every
//! run prints.

/// One reported number: a median over `n` samples with its quartiles
/// (equal to the value when there is a single sample).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Metric {
    /// A single measured or derived value.
    pub fn one(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// The median of `samples`, with quartiles.
    pub fn over(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Self {
        let (q1, med, q3) = quartiles(samples);
        Metric {
            name: name.into(),
            unit,
            value: med,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(data, n=4)`, so spreads printed here match the
/// ones computed over repeated runs. A single sample is its own
/// quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.len() == 1 {
        return (s[0], s[0], s[0]);
    }
    let ld = s.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The `p`-th percentile (0..=100) by nearest rank.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The host time of repetitions of identical work, summed block by
/// block: each repetition holds the clock blocks of each of its
/// simulations by label, and every block contributes the time `pick`
/// chooses from its repetitions. `None` when the repetitions do not
/// split every simulation into the same blocks.
pub fn blockwise(reps: &[Vec<(String, Vec<f64>)>], pick: impl Fn(&[f64]) -> f64) -> Option<f64> {
    let first = reps.first()?;
    let mut total = 0.0;
    for (label, blocks) in first {
        let runs = reps
            .iter()
            .map(|rep| {
                rep.iter()
                    .find(|(l, b)| l == label && b.len() == blocks.len())
                    .map(|(_, b)| b)
            })
            .collect::<Option<Vec<_>>>()?;
        for i in 0..blocks.len() {
            let times: Vec<f64> = runs.iter().map(|b| b[i]).collect();
            total += pick(&times);
        }
    }
    Some(total)
}

/// The smallest of `samples`.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn blockwise_sums_the_picked_time_of_each_block() {
        let rep = |a: f64, b: f64, c: f64| {
            vec![("p".to_string(), vec![a, b]), ("q".to_string(), vec![c])]
        };
        let reps = [rep(1.0, 5.0, 2.0), rep(3.0, 4.0, 9.0)];
        assert_eq!(blockwise(&reps, fastest), Some(1.0 + 4.0 + 2.0));
        let short = vec![("p".to_string(), vec![1.0]), ("q".to_string(), vec![2.0])];
        assert_eq!(blockwise(&[rep(1.0, 1.0, 1.0), short], fastest), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut [7.0], 99.0), 7.0);
    }
}
