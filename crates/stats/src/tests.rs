//! Tests for the measurement substrate.

use crate::*;

#[test]
fn online_stats_basic() {
    let mut s = OnlineStats::new();
    for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
        s.add(x);
    }
    assert_eq!(s.count(), 8);
    assert!((s.mean() - 5.0).abs() < 1e-12);
    assert!((s.variance() - 4.0).abs() < 1e-12);
    assert_eq!(s.min(), Some(2.0));
    assert_eq!(s.max(), Some(9.0));
}

#[test]
fn online_stats_empty() {
    let s = OnlineStats::new();
    assert_eq!(s.count(), 0);
    assert_eq!(s.mean(), 0.0);
    assert_eq!(s.variance(), 0.0);
    assert_eq!(s.min(), None);
    assert_eq!(s.max(), None);
}

#[test]
fn online_stats_merge_matches_sequential() {
    let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
    let mut all = OnlineStats::new();
    for &x in &xs {
        all.add(x);
    }
    let mut a = OnlineStats::new();
    let mut b = OnlineStats::new();
    for &x in &xs[..37] {
        a.add(x);
    }
    for &x in &xs[37..] {
        b.add(x);
    }
    a.merge(&b);
    assert_eq!(a.count(), all.count());
    assert!((a.mean() - all.mean()).abs() < 1e-9);
    assert!((a.variance() - all.variance()).abs() < 1e-9);
    assert_eq!(a.min(), all.min());
    assert_eq!(a.max(), all.max());
}

#[test]
fn histogram_bins_and_fractions() {
    let mut h = Histogram::new(0.0, 1.0, 10);
    for i in 0..100 {
        h.add(i as f64 / 100.0);
    }
    h.add(1.5); // overflow
    h.add(-0.1); // underflow
    assert_eq!(h.total(), 102);
    assert_eq!(h.bins(), 10);
    assert_eq!(h.count(0), 10);
    assert_eq!(h.overflow(), 1);
    assert!((h.fraction(0) - 10.0 / 102.0).abs() < 1e-12);
    // fraction_below(0.5): underflow + 50 in-range observations.
    assert!((h.fraction_below(0.5) - 51.0 / 102.0).abs() < 1e-12);
}

#[test]
fn bnf_curve_metrics() {
    let mut c = BnfCurve::new("PR");
    for (l, t, lat) in [
        (0.1, 0.1, 50.0),
        (0.2, 0.2, 60.0),
        (0.3, 0.29, 90.0),
        (0.4, 0.33, 200.0),
        (0.5, 0.31, 400.0),
    ] {
        c.push(BnfPoint {
            applied_load: l,
            throughput: t,
            latency: lat,
            messages_delivered: 1000,
            deadlocks: if l > 0.35 { 2 } else { 0 },
        });
    }
    assert!((c.saturation_throughput() - 0.33).abs() < 1e-12);
}

#[test]
fn normalized_deadlocks() {
    let p = BnfPoint {
        applied_load: 0.4,
        throughput: 0.3,
        latency: 100.0,
        messages_delivered: 500,
        deadlocks: 5,
    };
    assert!((p.normalized_deadlocks() - 0.01).abs() < 1e-12);
    let empty = BnfPoint {
        messages_delivered: 0,
        ..p
    };
    assert_eq!(empty.normalized_deadlocks(), 0.0);
}

#[test]
fn table_render() {
    let mut t = Table::new(vec!["scheme", "load", "latency"]);
    t.row(vec!["PR", "0.10", "52.1"]);
    t.row(vec!["DR", "0.10", "61.9"]);
    let s = t.render();
    assert!(s.contains("scheme"));
    assert!(s.lines().count() == 4);
    // Columns right-aligned, separator present.
    assert!(s.lines().nth(1).unwrap().starts_with('-'));
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn welford_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s = OnlineStats::new();
            for &x in &xs { s.add(x); }
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            prop_assert!((s.variance() - var).abs() < 1e-4 * (1.0 + var));
        }

        #[test]
        fn histogram_conserves_observations(xs in proptest::collection::vec(-2.0f64..4.0, 0..500)) {
            let mut h = Histogram::new(0.0, 1.0, 7);
            for &x in &xs { h.add(x); }
            let binned: u64 = (0..h.bins()).map(|i| h.count(i)).sum();
            prop_assert_eq!(h.total() as usize, xs.len());
            prop_assert!(binned <= h.total());
            prop_assert!((h.fraction_below(2.0) - (h.total() - h.overflow()) as f64
                / h.total().max(1) as f64).abs() < 1e-9);
        }
    }
}

#[test]
fn bnf_plot_renders_axes_and_legend() {
    let mut c1 = BnfCurve::new("PR");
    let mut c2 = BnfCurve::new("DR");
    for (i, lat) in [(1, 30.0), (2, 40.0), (3, 90.0)] {
        c1.push(BnfPoint {
            applied_load: i as f64 * 0.1,
            throughput: i as f64 * 0.1,
            latency: lat,
            messages_delivered: 10,
            deadlocks: 0,
        });
        c2.push(BnfPoint {
            applied_load: i as f64 * 0.1,
            throughput: i as f64 * 0.08,
            latency: lat * 1.5,
            messages_delivered: 10,
            deadlocks: 0,
        });
    }
    let s = render_bnf(&[c1, c2], 40, 12);
    assert!(s.contains("* = PR"));
    assert!(s.contains("o = DR"));
    assert!(s.contains("latency"));
    assert!(s.lines().count() > 14);
    // Both glyphs appear in the grid.
    assert!(s.contains('*') && s.contains('o'));
}

#[test]
fn bnf_plot_empty_is_graceful() {
    assert_eq!(render_bnf(&[], 40, 12), "(no data)\n");
    let empty = BnfCurve::new("X");
    assert_eq!(render_bnf(&[empty], 40, 12), "(no data)\n");
}

#[test]
fn p2_quantile_tracks_uniform_stream() {
    // Deterministic LCG stream over [0, 1000).
    let mut x = 42u64;
    let mut q50 = P2Quantile::new(0.5);
    let mut q95 = P2Quantile::new(0.95);
    for _ in 0..50_000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = (x >> 33) as f64 % 1000.0;
        q50.add(v);
        q95.add(v);
    }
    assert!(
        (q50.estimate() - 500.0).abs() < 25.0,
        "p50 = {}",
        q50.estimate()
    );
    assert!(
        (q95.estimate() - 950.0).abs() < 25.0,
        "p95 = {}",
        q95.estimate()
    );
    assert_eq!(q50.count(), 50_000);
}

#[test]
fn p2_quantile_small_samples_exact() {
    let mut q = P2Quantile::new(0.5);
    assert_eq!(q.estimate(), 0.0);
    q.add(10.0);
    assert_eq!(q.estimate(), 10.0);
    q.add(20.0);
    q.add(30.0);
    assert_eq!(q.estimate(), 20.0, "exact median of 3");
    // Out of arrival order, up to the fifth sample, which seeds the
    // markers with the five sorted values.
    let mut q = P2Quantile::new(0.5);
    for x in [50.0, 10.0, 40.0, 20.0] {
        q.add(x);
    }
    assert_eq!(q.estimate(), 40.0, "exact upper median of 4");
    q.add(30.0);
    assert_eq!(q.estimate(), 30.0, "middle marker of the first five");
}

#[test]
fn latency_quantiles_are_ordered() {
    let mut lq = LatencyQuantiles::new();
    let mut x = 7u64;
    for _ in 0..20_000 {
        x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        // Skewed (quadratic) distribution, like real latency tails.
        let u = ((x >> 33) as f64 % 1000.0) / 1000.0;
        lq.add(20.0 + 500.0 * u * u);
    }
    let (p50, p95, p99) = lq.estimates();
    assert!(p50 < p95 && p95 < p99, "({p50:.1}, {p95:.1}, {p99:.1})");
    assert!(p50 > 20.0 && p99 < 520.0 + 1.0);
}

mod quantile_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// P2 estimates stay within the observed range and close to the
        /// exact quantile for moderately sized streams.
        #[test]
        fn p2_close_to_exact(mut xs in proptest::collection::vec(0.0f64..1e4, 100..2000),
                             qsel in 1usize..4) {
            let q = [0.25, 0.5, 0.9][qsel - 1];
            let mut est = P2Quantile::new(q);
            for &x in &xs { est.add(x); }
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let exact = xs[((q * (xs.len() as f64 - 1.0)) as usize).min(xs.len() - 1)];
            let lo = xs[0];
            let hi = xs[xs.len() - 1];
            let e = est.estimate();
            prop_assert!(e >= lo && e <= hi, "estimate out of range");
            // Tolerance: a band around the exact quantile (P2 is an
            // approximation; use rank-distance tolerance of 15%).
            let band = 0.15 * xs.len() as f64;
            let rank = xs.iter().filter(|&&v| v <= e).count() as f64;
            let exact_rank = q * xs.len() as f64;
            prop_assert!((rank - exact_rank).abs() <= band.max(10.0),
                "rank {rank} too far from {exact_rank} (exact value {exact})");
        }
    }
}
