//! Structured experiment results.
//!
//! Experiments used to return pre-formatted `String`s; they now return a
//! [`Report`]: an ordered list of [`Block`]s, where a block is either a
//! verbatim prose paragraph or a named table of typed [`Cell`]s. The text
//! renderer ([`Report::render_text`]) reproduces the legacy output
//! byte-for-byte (tables right-align every column under a rule, as
//! [`TableBlock::render`] does); the JSON emitter
//! ([`Report::render_json`]) is hand-rolled — the build environment is
//! offline, so no serde.

/// One typed table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A string cell (policy names, config labels, …).
    Text(String),
    /// An unsigned integer (counts, sizes, ranks).
    Uint(u64),
    /// A signed integer.
    Int(i64),
    /// A float rendered with a fixed number of decimals, exactly as the
    /// string-based reports did.
    Float {
        /// The value.
        value: f64,
        /// Decimals shown in the text rendering.
        prec: usize,
    },
}

impl Cell {
    /// A text cell.
    #[must_use]
    pub fn text(s: impl Into<String>) -> Self {
        Cell::Text(s.into())
    }

    /// An unsigned-integer cell.
    #[must_use]
    pub fn uint(v: impl Into<u64>) -> Self {
        Cell::Uint(v.into())
    }

    /// An unsigned-integer cell from a `usize`.
    #[must_use]
    pub fn size(v: usize) -> Self {
        Cell::Uint(v as u64)
    }

    /// A fixed-precision float cell.
    #[must_use]
    pub fn float(value: f64, prec: usize) -> Self {
        Cell::Float { value, prec }
    }

    /// Renders the cell as it appears in the text table.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Uint(v) => v.to_string(),
            Cell::Int(v) => v.to_string(),
            Cell::Float { value, prec } => format!("{value:.prec$}"),
        }
    }

    /// Renders the cell as a JSON value.
    fn render_json(&self, out: &mut String) {
        match self {
            Cell::Text(s) => json_string(s, out),
            Cell::Uint(v) => out.push_str(&v.to_string()),
            Cell::Int(v) => out.push_str(&v.to_string()),
            Cell::Float { value, prec } => {
                if value.is_finite() {
                    out.push_str(&format!("{value:.prec$}"));
                } else {
                    // NaN/Inf are not JSON numbers.
                    out.push_str("null");
                }
            }
        }
    }
}

/// A named table: columns plus typed rows.
///
/// # Examples
///
/// ```
/// use guess_bench::report::{Cell, TableBlock};
///
/// let mut t = TableBlock::new("demo", vec!["x", "y"]);
/// t.row(vec![Cell::uint(1u64), Cell::float(2.5, 1)]);
/// assert_eq!(t.render(), "x    y\n------\n1  2.5\n");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TableBlock {
    /// Machine-readable series/table name (used in the JSON output).
    pub name: String,
    /// Column headers, including any paper-reference columns.
    pub columns: Vec<String>,
    /// Data rows; each row is as wide as `columns`.
    pub rows: Vec<Vec<Cell>>,
}

impl TableBlock {
    /// Creates an empty table with the given name and column headers.
    ///
    /// # Panics
    ///
    /// Panics if no columns are given.
    #[must_use]
    pub fn new(name: impl Into<String>, columns: Vec<&str>) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        TableBlock {
            name: name.into(),
            columns: columns.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// As [`TableBlock::new`] but with owned headers (for computed ones).
    #[must_use]
    pub fn with_columns(name: impl Into<String>, columns: Vec<String>) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        TableBlock {
            name: name.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match header"
        );
        self.rows.push(cells);
    }

    /// Renders the table as text: every column right-aligned to its
    /// widest cell, two spaces apart, with a rule of dashes under the
    /// header.
    #[must_use]
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = (self.rows.iter())
            .map(|row| row.iter().map(Cell::render).collect())
            .collect();
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let mut out = String::new();
        let mut line = |cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:>width$}", width = widths[i]));
            }
            out.push('\n');
        };
        line(&self.columns);
        let rule = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        line(&["-".repeat(rule)]);
        for row in &rows {
            line(row);
        }
        out
    }
}

/// One report block.
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// A verbatim prose fragment (headers, expected-shape notes,
    /// derived one-liners). Rendered exactly as stored.
    Text(String),
    /// A table of typed cells.
    Table(TableBlock),
}

/// A structured experiment result: an ordered sequence of blocks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// The blocks, in presentation order.
    pub blocks: Vec<Block>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends a verbatim text block (builder style).
    #[must_use]
    pub fn text(mut self, s: impl Into<String>) -> Self {
        self.push_text(s);
        self
    }

    /// Appends a table block (builder style).
    #[must_use]
    pub fn table(mut self, t: TableBlock) -> Self {
        self.push_table(t);
        self
    }

    /// Appends a verbatim text block.
    pub fn push_text(&mut self, s: impl Into<String>) {
        self.blocks.push(Block::Text(s.into()));
    }

    /// Appends a table block.
    pub fn push_table(&mut self, t: TableBlock) {
        self.blocks.push(Block::Table(t));
    }

    /// Renders the report as plain text — byte-for-byte what the legacy
    /// string-returning experiments produced: text blocks verbatim,
    /// tables through the shared alignment rules.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for b in &self.blocks {
            match b {
                Block::Text(s) => out.push_str(s),
                Block::Table(t) => out.push_str(&t.render()),
            }
        }
        out
    }

    /// Renders the report as a JSON document.
    ///
    /// Schema:
    ///
    /// ```json
    /// {
    ///   "name": "fig9",
    ///   "description": "…",
    ///   "scale": "Quick",
    ///   "blocks": [
    ///     {"type": "text", "text": "…"},
    ///     {"type": "table", "name": "…", "columns": ["…"],
    ///      "rows": [["Ran", 12, 3.4], …]}
    ///   ]
    /// }
    /// ```
    ///
    /// Strings are escaped per RFC 8259; non-finite floats become
    /// `null`. Emitted by hand — the offline build environment rules
    /// out serde.
    #[must_use]
    pub fn render_json(&self, name: &str, description: &str, scale: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"name\": ");
        json_string(name, &mut out);
        out.push_str(",\n  \"description\": ");
        json_string(description, &mut out);
        out.push_str(",\n  \"scale\": ");
        json_string(scale, &mut out);
        out.push_str(",\n  \"blocks\": [");
        for (i, b) in self.blocks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            match b {
                Block::Text(s) => {
                    out.push_str("{\"type\": \"text\", \"text\": ");
                    json_string(s, &mut out);
                    out.push('}');
                }
                Block::Table(t) => {
                    out.push_str("{\"type\": \"table\", \"name\": ");
                    json_string(&t.name, &mut out);
                    out.push_str(", \"columns\": [");
                    for (c, col) in t.columns.iter().enumerate() {
                        if c > 0 {
                            out.push_str(", ");
                        }
                        json_string(col, &mut out);
                    }
                    out.push_str("], \"rows\": [");
                    for (r, row) in t.rows.iter().enumerate() {
                        if r > 0 {
                            out.push(',');
                        }
                        out.push_str("\n      [");
                        for (c, cell) in row.iter().enumerate() {
                            if c > 0 {
                                out.push_str(", ");
                            }
                            cell.render_json(&mut out);
                        }
                        out.push(']');
                    }
                    if !t.rows.is_empty() {
                        out.push_str("\n    ");
                    }
                    out.push_str("]}");
                }
            }
        }
        if !self.blocks.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Appends `s` to `out` as a JSON string literal (RFC 8259 escaping).
/// Shared with the JSONL trace sink ([`crate::tracefile`]).
pub(crate) fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut t = TableBlock::new("probes", vec!["policy", "count", "mean"]);
        t.row(vec![
            Cell::text("Ran"),
            Cell::uint(12u64),
            Cell::float(3.456, 1),
        ]);
        t.row(vec![
            Cell::text("MFS"),
            Cell::uint(3u64),
            Cell::float(f64::NAN, 1),
        ]);
        Report::new().text("Header line\n\n").table(t)
    }

    #[test]
    fn text_render_matches_legacy_table() {
        let expected = "Header line\n\n\
                        policy  count  mean\n\
                        -------------------\n\
                        \x20  Ran     12   3.5\n\
                        \x20  MFS      3   NaN\n";
        assert_eq!(sample().render_text(), expected);
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = TableBlock::new("t", vec!["name", "value"]);
        t.row(vec![Cell::text("a"), Cell::uint(1u64)]);
        t.row(vec![Cell::text("long-name"), Cell::float(2.5, 2)]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-'));
        // All rows have equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn empty_table_renders_header_and_rule() {
        let t = TableBlock::new("t", vec!["a", "bb"]);
        assert!(t.rows.is_empty());
        assert_eq!(t.render(), "a  bb\n-----\n");
    }

    #[test]
    fn float_cells_render_like_fnum() {
        assert_eq!(Cell::float(1.23456, 2).render(), "1.23");
        assert_eq!(Cell::float(10.0, 0).render(), "10");
        assert_eq!(Cell::float(f64::NAN, 3).render(), "NaN");
    }

    #[test]
    fn json_is_escaped_and_typed() {
        let json = sample().render_json("demo", "has \"quotes\"\nand lines", "Quick");
        assert!(json.contains("\"name\": \"demo\""));
        assert!(json.contains("has \\\"quotes\\\"\\nand lines"));
        assert!(json.contains("\"scale\": \"Quick\""));
        // Uint cells are bare numbers; floats keep their precision.
        assert!(json.contains("[\"Ran\", 12, 3.5]"));
        // NaN must not leak into JSON.
        assert!(json.contains("[\"MFS\", 3, null]"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn json_of_empty_report_is_wellformed() {
        let json = Report::new().render_json("empty", "", "Full");
        assert!(json.contains("\"blocks\": []"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = TableBlock::new("t", vec!["a", "b"]);
        t.row(vec![Cell::uint(1u64)]);
    }

    #[test]
    fn control_chars_are_u_escaped() {
        let mut out = String::new();
        json_string("a\u{1}b", &mut out);
        assert_eq!(out, "\"a\\u0001b\"");
    }
}
