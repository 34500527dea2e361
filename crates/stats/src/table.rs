//! Plain-text table rendering for the experiment harness.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; it is padded or truncated to the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
    }

    /// Render with aligned columns, a header rule, and trailing newline.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:>w$}", c, w = width[i]);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = width.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}
