//! Plain-text and CSV table rendering for the figure/table binaries.
//!
//! Every experiment binary prints a human-readable table (the "figure") plus
//! an optional CSV block so results can be post-processed without adding a
//! serialization dependency.

use std::fmt;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned (labels).
    #[default]
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple monospace table builder.
///
/// # Example
///
/// ```
/// use sim_core::{Align, Table};
///
/// let mut t = Table::new(&["function", "cold (ms)"]);
/// t.align(1, Align::Right);
/// t.row(&["helloworld", "232"]);
/// let text = t.render();
/// assert!(text.contains("helloworld"));
/// assert!(text.contains("232"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Table {
            aligns: vec![Align::Left; headers.len()],
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Sets the alignment of column `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn align(&mut self, idx: usize, align: Align) -> &mut Self {
        assert!(idx < self.headers.len(), "column {idx} out of range");
        self.aligns[idx] = align;
        self
    }

    /// Right-aligns every column except the first (the common numeric shape).
    pub fn numeric(&mut self) -> &mut Self {
        for i in 1..self.aligns.len() {
            self.aligns[i] = Align::Right;
        }
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != table width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Appends a row of already-owned cells.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned monospace text.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], out: &mut String| {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                let pad = widths[c] - cell.chars().count();
                match self.aligns[c] {
                    Align::Left => {
                        out.push_str(cell);
                        if c + 1 < cols {
                            out.push_str(&" ".repeat(pad));
                        }
                    }
                    Align::Right => {
                        out.push_str(&" ".repeat(pad));
                        out.push_str(cell);
                    }
                }
            }
            out.push('\n');
        };
        render_row(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &mut out);
        }
        out
    }

    /// Renders the table as CSV (RFC-4180-style quoting where needed).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if cell.contains([',', '"', '\n']) {
                    out.push('"');
                    out.push_str(&cell.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        };
        write_row(&self.headers, &mut out);
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "ms"]);
        t.numeric();
        t.row(&["helloworld", "232"]);
        t.row(&["cnn_serving", "1424"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header + rule + 2 rows
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].ends_with("232"));
        assert!(lines[3].ends_with("1424"));
        // Numbers right-aligned: the shorter number is padded.
        assert!(lines[2].contains(" 232"));
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new(&["a"]);
        t.row(&["x"]);
        assert_eq!(format!("{t}"), t.render());
    }

    #[test]
    fn csv_quoting() {
        let mut t = Table::new(&["name", "note"]);
        t.row(&["a,b", "say \"hi\""]);
        t.row(&["plain", "ok"]);
        let csv = t.to_csv();
        assert_eq!(csv, "name,note\n\"a,b\",\"say \"\"hi\"\"\"\nplain,ok\n");
    }

    #[test]
    fn row_owned_and_len() {
        let mut t = Table::new(&["a", "b"]);
        assert!(t.is_empty());
        t.row_owned(vec!["1".into(), "2".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one"]);
    }

    #[test]
    fn unicode_width_by_chars() {
        let mut t = Table::new(&["α", "β"]);
        t.row(&["μs", "x"]);
        // Must not panic and must keep column count.
        let text = t.render();
        assert!(text.contains("μs"));
    }
}
