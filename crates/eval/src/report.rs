//! Plain-text table rendering for experiment output.

use std::fmt;

/// A fixed-layout results table (rendered as GitHub-flavoured Markdown so
/// output can be pasted into EXPERIMENTS.md verbatim).
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header width).
    ///
    /// # Panics
    /// Panics on column-count mismatch (programming error in an
    /// experiment).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Cell accessor (row, column).
    pub fn cell(&self, r: usize, c: usize) -> &str {
        &self.rows[r][c]
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths over headers and cells.
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "### {}", self.title)?;
        writeln!(f)?;
        write!(f, "|")?;
        for (h, w) in self.headers.iter().zip(&widths) {
            write!(f, " {h:<w$} |")?;
        }
        writeln!(f)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<1$}|", "", w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "|")?;
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Formats a probability as a percentage with no decimals (paper style).
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Formats seconds with millisecond resolution.
pub fn secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.1} ms", s * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown_with_aligned_columns() {
        let mut t = Table::new("Quality", &["Dist (km)", "P∞"]);
        t.push_row(vec!["[0, 1)".into(), "13%".into()]);
        t.push_row(vec!["[5, 10)".into(), "60%".into()]);
        let s = t.to_string();
        assert!(s.contains("### Quality"));
        assert!(s.contains("| Dist (km) | P∞"));
        assert!(s.contains("| [5, 10)"));
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.cell(0, 1), "13%");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_panic() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.131), "13%");
        assert_eq!(pct(0.6), "60%");
        assert_eq!(secs(9.731), "9.73 s");
        assert_eq!(secs(0.0621), "62.1 ms");
    }
}
