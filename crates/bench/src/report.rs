//! Plain-text table rendering and CSV output for experiment results.

use std::fmt::Write as _;
use std::path::Path;

/// A column of [`TextTable::of`]: its header and how an item renders in it.
pub type Column<T> = (&'static str, fn(&T) -> String);

/// A simple column-aligned text table.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// One row per item, one cell per column.
    pub fn of<T>(columns: &[Column<T>], items: &[T]) -> Self {
        let mut t = TextTable::new(&columns.iter().map(|c| c.0).collect::<Vec<_>>());
        t.rows = items
            .iter()
            .map(|it| columns.iter().map(|c| (c.1)(it)).collect())
            .collect();
        t
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}", c, w = widths[i] + 2);
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().map(|w| w + 2).sum::<usize>();
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Write as CSV, atomically: the bytes land in a sibling temp file
    /// that is renamed over `path`, so a crash mid-write never leaves a
    /// truncated CSV behind.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut s = String::new();
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            s.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            s.push('\n');
        }
        mqpi_ckpt::atomic_write(path, s.as_bytes())
    }
}

/// `prefix key=value…`, one pair per column: a served campaign's stdout row.
pub fn key_values<T>(prefix: &str, columns: &[Column<T>], item: &T) -> String {
    let pairs = columns.iter().map(|(k, f)| format!(" {k}={}", f(item)));
    std::iter::once(prefix.to_string()).chain(pairs).collect()
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a fraction as a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = TextTable::new(&["lambda", "single", "multi"]);
        t.row(vec!["0.00".into(), "35.1%".into(), "4.2%".into()]);
        t.row(vec!["0.05".into(), "30.0%".into(), "8.0%".into()]);
        let s = t.render();
        assert!(s.contains("lambda"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn csv_escapes_commas() {
        let dir = std::env::temp_dir().join("mqpi_report_test");
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["x,y".into(), "plain".into()]);
        let p = dir.join("t.csv");
        t.write_csv(&p).unwrap();
        let s = std::fs::read_to_string(&p).unwrap();
        assert!(s.contains("\"x,y\",plain"));
    }
}
