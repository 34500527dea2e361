//! Integration tests of the experiment harness itself: every figure
//! driver runs at tiny scale, produces the expected panels/curves/rows
//! structure, and respects the feasibility gating the paper's figures
//! encode.

use mdd_bench::{characterize_app, figure, Figure, RunScale};
use mdd_engine::Engine;
use mdd_traffic::AppModel;

fn tiny(name: &str) -> Figure {
    let scale = RunScale {
        name: "tiny",
        warmup: 200,
        measure: 600,
        load_points: 2,
        horizon: 3_000,
        bristle_horizon: 3_000,
    };
    figure(name, &Engine::new(), scale).expect("a known figure")
}

#[test]
fn figure8_structure_and_gating() {
    let fig = tiny("fig8");
    assert_eq!(fig.name, "fig8");
    assert_eq!(fig.panels.len(), 5, "one panel per pattern");
    let by_name: std::collections::HashMap<_, _> =
        fig.panels.iter().map(|(n, c)| (n.as_str(), c)).collect();
    // PAT100: SA + PR (no DR); multi-type patterns: DR + PR (no SA at 4 VCs).
    let p100: Vec<&str> = by_name["PAT100"].iter().map(|c| c.label.as_str()).collect();
    assert_eq!(p100, vec!["SA", "PR"]);
    for pat in ["PAT721", "PAT451", "PAT271", "PAT280"] {
        let labels: Vec<&str> = by_name[pat].iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, vec!["DR", "PR"], "{pat}");
    }
    // Every curve has every load point and positive throughput somewhere.
    for (_, curves) in &fig.panels {
        for c in curves {
            assert_eq!(c.points.len(), 2);
            assert!(c.saturation_throughput() > 0.0);
        }
    }
    // Render paths.
    let table = fig.render();
    assert!(table.contains("PAT721"));
    assert_eq!(
        fig.rows.len(),
        5 * 2 * 2,
        "a row per pattern, scheme and load"
    );
    assert!(fig.render_plots().contains("latency"));
    assert!(fig.render_summary().contains("saturation"));
}

#[test]
fn figure11_has_qa_variants() {
    let fig = tiny("fig11");
    let labels: Vec<&str> = fig.panels[0].1.iter().map(|c| c.label.as_str()).collect();
    assert_eq!(labels, vec!["SA", "DR", "DR-QA", "PR", "PR-QA"]);
    assert!(figure("fig7", &Engine::new(), RunScale::smoke()).is_none());
}

#[test]
fn characterization_produces_consistent_rows() {
    let c = characterize_app(AppModel::fft(), &[4, 4], 1, 3_000, 1);
    let (d, i, f) = c.table1;
    assert!((d + i + f - 1.0).abs() < 1e-9 || d + i + f == 0.0);
    assert!(c.mean_load >= 0.0 && c.mean_load < 0.5);
    assert_eq!(c.app, "FFT");
    assert!(c.load_hist.total() > 0);
}
