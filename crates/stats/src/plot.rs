//! Terminal rendering of Burton-Normal-Form curves.
//!
//! The paper's figures plot delivered throughput (x) against average
//! latency (y); [`render_bnf`] draws the same axes as a character grid so
//! the experiment binaries give an immediate visual read without external
//! tooling.

use crate::bnf::BnfCurve;

/// Glyphs assigned to curves in order.
const GLYPHS: &[char] = &['*', 'o', '+', 'x', '#', '@', '%', '&'];

/// Render `curves` as an ASCII scatter plot of latency (y, log-ish
/// clamped) versus throughput (x), `width` x `height` characters.
pub fn render_bnf(curves: &[BnfCurve], width: usize, height: usize) -> String {
    let width = width.max(20);
    let height = height.max(8);
    let pts: Vec<(f64, f64, usize)> = curves
        .iter()
        .enumerate()
        .flat_map(|(ci, c)| c.points.iter().map(move |p| (p.throughput, p.latency, ci)))
        .collect();
    if pts.is_empty() {
        return String::from("(no data)\n");
    }
    let x_max = pts.iter().map(|p| p.0).fold(0.0, f64::max) * 1.05 + 1e-9;
    // Clamp the y axis at 4x the highest below-saturation latency so the
    // vertical blow-up at saturation doesn't flatten the readable region.
    let y_all_max = pts.iter().map(|p| p.1).fold(0.0, f64::max);
    let y_med = {
        let mut ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ys[ys.len() / 2]
    };
    let y_max = (y_med * 4.0).min(y_all_max).max(1e-9);

    let mut grid = vec![vec![' '; width]; height];
    let mut clipped = false;
    for &(x, y, ci) in &pts {
        let gx = ((x / x_max) * (width - 1) as f64).round() as usize;
        let gy = if y >= y_max {
            clipped = true;
            0
        } else {
            (height - 1) - ((y / y_max) * (height - 1) as f64).round() as usize
        };
        let glyph = GLYPHS[ci % GLYPHS.len()];
        let cell = &mut grid[gy.min(height - 1)][gx.min(width - 1)];
        // Overlapping curves show the later curve's glyph with a marker.
        *cell = if *cell == ' ' { glyph } else { '?' };
    }

    let mut out = String::new();
    out.push_str(&format!(
        "latency (cycles, clipped at {y_max:.0}{}) vs throughput (flits/node/cycle)\n",
        if clipped { ", ^ = off-scale" } else { "" }
    ));
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{y_max:>7.0} |")
        } else if i == height - 1 {
            format!("{:>7.0} |", 0.0)
        } else {
            String::from("        |")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str("        +");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "         0{:>w$.3}\n",
        x_max,
        w = width.saturating_sub(1)
    ));
    for (ci, c) in curves.iter().enumerate() {
        out.push_str(&format!(
            "         {} = {}  (saturation {:.4})\n",
            GLYPHS[ci % GLYPHS.len()],
            c.label,
            c.saturation_throughput()
        ));
    }
    out
}
