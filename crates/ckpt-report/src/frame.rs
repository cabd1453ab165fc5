//! The structured output frame: its CSV and JSON renderings go through
//! the shared row writers in [`crate::writer`], and its aligned text
//! table is rendered here.

use crate::value::{Cell, Value};
use crate::writer::{push_json_texts, reserve_hint, CsvWriter, JsonWriter, RowWriter};

/// A named table of results: columns, typed rows, and `(key, value)`
/// metadata. Frames are the unit of experiment output — one frame per
/// paper panel/series — and render deterministically to CSV, JSON, or an
/// aligned text table.
///
/// # Example
///
/// ```
/// use ckpt_report::{row, Frame};
///
/// let mut frame = Frame::new("wpr_by_policy", vec!["policy", "mean_wpr"])
///     .with_title("Mean WPR per policy")
///     .with_meta("seed", "20130217");
/// frame.push_row(row!["formula3", 0.945]);
/// frame.push_row(row!["young", 0.916]);
///
/// // Every rendering is deterministic; CSV is the most compact.
/// assert_eq!(
///     frame.to_csv(),
///     "policy,mean_wpr\nformula3,0.945\nyoung,0.916\n"
/// );
/// assert!(frame.to_table().contains("=== Mean WPR per policy ==="));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Machine name; used for output file names (`<name>.csv`).
    pub name: String,
    /// Human title; used as the table banner.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows; every row has exactly `columns.len()` cells.
    pub rows: Vec<Vec<Value>>,
    /// Ordered metadata (engine, seed, grid shape, paper reference, ...).
    pub metadata: Vec<(String, String)>,
}

impl Frame {
    /// Start a frame with the given name (also its initial title) and
    /// column headers.
    pub fn new<S: Into<String>>(name: &str, columns: Vec<S>) -> Self {
        Self {
            name: name.to_string(),
            title: name.to_string(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            metadata: Vec::new(),
        }
    }

    /// Set the human-readable title (table banner).
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    /// Append one metadata entry (insertion order is preserved in every
    /// rendering).
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.metadata.push((key.into(), value.into()));
        self
    }

    /// Append one data row. Panics if the arity does not match the header
    /// (a programming error in the experiment, not an input error).
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "frame {:?}: row arity {} != {} columns",
            self.name,
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// True when the frame has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as CSV: one header line, one line per row, full-precision
    /// floats, RFC-4180 quoting.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(reserve_hint(self.rows.len() + 1, self.columns.len()));
        let mut w = CsvWriter::new(&mut out);
        w.row(self.columns.iter().map(|c| Cell::Text(c)));
        for row in &self.rows {
            w.row(row.iter().map(Value::cell));
        }
        out
    }

    /// Render as a self-describing JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(reserve_hint(self.rows.len() + 1, self.columns.len()));
        self.write_json(&mut out, 0);
        out.push('\n');
        out
    }

    /// Write the frame's JSON object at the given indentation level
    /// (no trailing newline), so frames can nest inside an
    /// [`ExpOutput`] document.
    fn write_json(&self, out: &mut String, indent: usize) {
        let mut w = JsonWriter::begin(
            out,
            indent,
            &self.name,
            &self.title,
            self.metadata.iter().map(|(k, v)| (k.as_str(), v.as_str())),
            self.columns.iter().map(String::as_str),
        );
        for row in &self.rows {
            w.row(row.iter().map(Value::cell));
        }
        w.finish();
    }

    /// Render as an aligned text table with a title banner and any
    /// metadata as `key: value` lines.
    pub fn to_table(&self) -> String {
        let mut out = format!("\n=== {} ===\n", self.title);
        for (k, v) in &self.metadata {
            out.push_str(&format!("{k}: {v}\n"));
        }
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::render_cell).collect())
            .collect();
        let ncols = self.columns.len();
        let mut widths: Vec<usize> = self.columns.iter().map(|h| h.len()).collect();
        for row in &cells {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let w = widths.get(i).copied().unwrap_or(cell.len());
                line.push_str(&format!("{cell:<w$}"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.columns));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &cells {
            out.push_str(&fmt_row(row));
        }
        out
    }
}

/// What one experiment produces: structured frames plus free-text notes
/// (the prose observations printed under the paper's figures).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExpOutput {
    /// The experiment's frames, in presentation order.
    pub frames: Vec<Frame>,
    /// Free-text observations; rendered after the tables (table format)
    /// or as a JSON string array.
    pub notes: Vec<String>,
}

impl ExpOutput {
    /// An empty output.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a frame.
    pub fn push(&mut self, frame: Frame) {
        self.frames.push(frame);
    }

    /// Append a note line.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Render the whole output as one JSON document:
    /// `{"frames": [...], "notes": [...]}`.
    pub fn to_json(&self) -> String {
        let capacity = self
            .frames
            .iter()
            .map(|f| reserve_hint(f.rows.len() + 1, f.columns.len()))
            .sum();
        let mut out = String::with_capacity(capacity);
        out.push_str("{\n");
        if self.frames.is_empty() {
            out.push_str("  \"frames\": [],\n");
        } else {
            out.push_str("  \"frames\": [\n");
            for (i, f) in self.frames.iter().enumerate() {
                f.write_json(&mut out, 2);
                out.push_str(if i + 1 < self.frames.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("  ],\n");
        }
        out.push_str("  \"notes\": [");
        push_json_texts(&mut out, self.notes.iter().map(String::as_str));
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn sample() -> Frame {
        let mut f = Frame::new("t", vec!["a", "bb", "ccc"])
            .with_title("sample frame")
            .with_meta("seed", "7");
        f.push_row(row![1u32, 2u32, 3u32]);
        f.push_row(row![10u32, 20u32, 30u32]);
        f
    }

    #[test]
    fn table_renders_aligned() {
        let s = sample().to_table();
        assert!(s.contains("=== sample frame ==="));
        assert!(s.contains("seed: 7"));
        assert!(s.contains("a   bb  ccc"));
    }

    #[test]
    fn csv_roundtrips_shape() {
        let s = sample().to_csv();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines, vec!["a,bb,ccc", "1,2,3", "10,20,30"]);
    }

    #[test]
    fn json_is_structurally_sound() {
        let j = sample().to_json();
        assert!(j.contains("\"name\": \"t\""));
        assert!(j.contains("\"columns\": [\"a\", \"bb\", \"ccc\"]"));
        assert!(j.contains("[10, 20, 30]"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn output_json_nests_frames_and_notes() {
        let mut out = ExpOutput::new();
        out.push(sample());
        out.note("observation");
        let j = out.to_json();
        assert!(j.contains("\"frames\": ["));
        assert!(j.contains("\"notes\": [\"observation\"]"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut f = Frame::new("t", vec!["a", "b"]);
        f.push_row(row![1u32]);
    }
}
