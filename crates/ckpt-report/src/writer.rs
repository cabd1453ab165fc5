//! The row writers behind every frame and sweep export rendered as CSV
//! or JSON: [`CsvWriter`] and [`JsonWriter`] append borrowed [`Cell`]s
//! straight into one caller-owned `String`, so rendering allocates no
//! `String` per field or per row.
//!
//! Two kinds of caller feed them: [`crate::Frame`] and
//! [`crate::ExpOutput`] (rows of owned [`crate::Value`]s), and sweep
//! exports that stream rows borrowed from their results without building
//! a frame first. Both go through [`RowWriter`], so they render the same
//! bytes.

use crate::value::Cell;
use std::fmt::Write;

/// A `String` capacity for `rows` rows of `columns` cells. A rendered
/// cell with its separator rarely passes 16 bytes (a shortest round-trip
/// float is at most about 20), so a buffer sized by this seldom grows.
pub fn reserve_hint(rows: usize, columns: usize) -> usize {
    rows.saturating_mul(columns).saturating_mul(16)
}

/// A destination for rows of cells. A row is its cells, in column order,
/// followed by [`RowWriter::end_row`].
pub trait RowWriter {
    /// Append one cell to the current row.
    fn cell(&mut self, cell: Cell<'_>);

    /// Close the current row.
    fn end_row(&mut self);

    /// Append a whole row: every cell, then [`RowWriter::end_row`].
    fn row<'a>(&mut self, cells: impl IntoIterator<Item = Cell<'a>>)
    where
        Self: Sized,
    {
        for cell in cells {
            self.cell(cell);
        }
        self.end_row();
    }
}

/// The last finite float written in the current row and the byte range
/// of its text in the output. A bit-identical float later in the row (a
/// count-1 summary repeats one value five times) copies those bytes
/// instead of formatting the value again.
#[derive(Debug, Default)]
struct LastFloat(Option<(u64, usize, usize)>);

impl LastFloat {
    /// Append `v` (finite) in shortest round-trip form.
    fn push(&mut self, out: &mut String, v: f64) {
        let bits = v.to_bits();
        match self.0 {
            Some((b, start, end)) if b == bits => out.extend_from_within(start..end),
            _ => {
                let start = out.len();
                write!(out, "{v}").expect("writing to a String cannot fail");
                self.0 = Some((bits, start, out.len()));
            }
        }
    }
}

/// Append an integer.
fn push_int(out: &mut String, i: i64) {
    write!(out, "{i}").expect("writing to a String cannot fail");
}

/// Append `n` levels of two-space indentation.
fn push_pad(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

/// Append `s` as a CSV field with RFC-4180 quoting: a field containing
/// the delimiter, a quote or a line break (a path with a comma, say) is
/// wrapped in quotes with its quotes doubled, instead of silently
/// shifting columns.
fn push_csv_text(out: &mut String, s: &str) {
    if !s.bytes().any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r')) {
        out.push_str(s);
        return;
    }
    out.push('"');
    for (i, part) in s.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

/// Append `s` as a quoted JSON string. Only ASCII bytes need escaping,
/// so the unescaped runs between them are copied as whole slices.
fn push_json_text(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\t' => Some("\\t"),
            b'\r' => Some("\\r"),
            b if b < 0x20 => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match short {
            Some(escape) => out.push_str(escape),
            None => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append `items` as `, `-separated JSON strings (the body of an array).
pub(crate) fn push_json_texts<'a>(out: &mut String, items: impl IntoIterator<Item = &'a str>) {
    for (i, s) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_text(out, s);
    }
}

/// CSV rows appended to one `String`: `,`-separated cells, one `\n` per
/// row, RFC-4180 quoting, shortest round-trip floats with `NaN`, `inf`
/// and `-inf` spelled out. A header is a row of [`Cell::Text`] cells.
#[derive(Debug)]
pub struct CsvWriter<'o> {
    out: &'o mut String,
    in_row: bool,
    last: LastFloat,
}

impl<'o> CsvWriter<'o> {
    /// A writer appending to `out`.
    pub fn new(out: &'o mut String) -> Self {
        Self {
            out,
            in_row: false,
            last: LastFloat::default(),
        }
    }
}

impl RowWriter for CsvWriter<'_> {
    fn cell(&mut self, cell: Cell<'_>) {
        if self.in_row {
            self.out.push(',');
        }
        self.in_row = true;
        match cell {
            Cell::Text(s) => push_csv_text(self.out, s),
            Cell::Int(i) => push_int(self.out, i),
            Cell::Num(v) if v.is_nan() => self.out.push_str("NaN"),
            Cell::Num(v) if v.is_infinite() => {
                self.out.push_str(if v > 0.0 { "inf" } else { "-inf" })
            }
            Cell::Num(v) => self.last.push(self.out, v),
        }
    }

    fn end_row(&mut self) {
        self.out.push('\n');
        self.in_row = false;
        self.last = LastFloat::default();
    }
}

/// One frame as a self-describing JSON object appended to a `String`:
/// name, title, metadata, columns, then one array per row. Numbers stay
/// numbers, and non-finite floats (which JSON cannot spell) become
/// `null`. Objects nest at any indentation, so an
/// [`crate::ExpOutput`] document holds several.
#[derive(Debug)]
pub struct JsonWriter<'o> {
    out: &'o mut String,
    indent: usize,
    rows: usize,
    in_row: bool,
    last: LastFloat,
}

impl<'o> JsonWriter<'o> {
    /// Open a frame object at `indent` levels (two spaces each): write
    /// everything up to the opening of the rows array. Close it with
    /// [`JsonWriter::finish`].
    pub fn begin<'a>(
        out: &'o mut String,
        indent: usize,
        name: &str,
        title: &str,
        metadata: impl IntoIterator<Item = (&'a str, &'a str)>,
        columns: impl IntoIterator<Item = &'a str>,
    ) -> Self {
        // `{pad}  "key": ` opens each member line.
        let member = |out: &mut String, key: &str| {
            push_pad(out, indent + 1);
            out.push('"');
            out.push_str(key);
            out.push_str("\": ");
        };
        push_pad(out, indent);
        out.push_str("{\n");
        member(out, "name");
        push_json_text(out, name);
        out.push_str(",\n");
        member(out, "title");
        push_json_text(out, title);
        out.push_str(",\n");
        member(out, "metadata");
        out.push('{');
        for (i, (k, v)) in metadata.into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_json_text(out, k);
            out.push_str(": ");
            push_json_text(out, v);
        }
        out.push_str("},\n");
        member(out, "columns");
        out.push('[');
        push_json_texts(out, columns);
        out.push_str("],\n");
        member(out, "rows");
        out.push('[');
        Self {
            out,
            indent,
            rows: 0,
            in_row: false,
            last: LastFloat::default(),
        }
    }

    /// Start a row on its own line. The separator goes before every row
    /// but the first, so rows stream without knowing which is last.
    fn open_row(&mut self) {
        self.out.push_str(if self.rows == 0 { "\n" } else { ",\n" });
        push_pad(self.out, self.indent + 2);
        self.out.push('[');
        self.in_row = true;
    }

    /// Close the rows array and the frame object (no trailing newline).
    pub fn finish(self) {
        if self.rows > 0 {
            self.out.push('\n');
            push_pad(self.out, self.indent + 1);
        }
        self.out.push_str("]\n");
        push_pad(self.out, self.indent);
        self.out.push('}');
    }
}

impl RowWriter for JsonWriter<'_> {
    fn cell(&mut self, cell: Cell<'_>) {
        if self.in_row {
            self.out.push_str(", ");
        } else {
            self.open_row();
        }
        match cell {
            Cell::Text(s) => push_json_text(self.out, s),
            Cell::Int(i) => push_int(self.out, i),
            Cell::Num(v) if v.is_finite() => self.last.push(self.out, v),
            Cell::Num(_) => self.out.push_str("null"),
        }
    }

    fn end_row(&mut self) {
        if !self.in_row {
            self.open_row();
        }
        self.out.push(']');
        self.rows += 1;
        self.in_row = false;
        self.last = LastFloat::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn csv(cells: &[Cell<'_>]) -> String {
        let mut out = String::new();
        CsvWriter::new(&mut out).row(cells.iter().copied());
        out
    }

    fn json_row(cells: &[Cell<'_>]) -> String {
        let mut out = String::new();
        let mut w = JsonWriter::begin(&mut out, 0, "t", "t", [], []);
        w.row(cells.iter().copied());
        w.finish();
        let start = out.find("    [").expect("row line") + 4;
        out[start..out.find("]\n  ]").expect("row end") + 1].to_string()
    }

    #[test]
    fn csv_cells_are_typed() {
        assert_eq!(csv(&[Cell::Text("a,b")]), "\"a,b\"\n");
        assert_eq!(csv(&[Cell::Text("say \"hi\"")]), "\"say \"\"hi\"\"\"\n");
        assert_eq!(csv(&[Cell::Int(3), Cell::Num(0.1)]), "3,0.1\n");
        assert_eq!(
            csv(&[
                Cell::Num(f64::NAN),
                Cell::Num(f64::INFINITY),
                Cell::Num(f64::NEG_INFINITY)
            ]),
            "NaN,inf,-inf\n"
        );
    }

    #[test]
    fn json_cells_are_typed() {
        assert_eq!(
            json_row(&[Cell::Text("say \"hi\"")]),
            "[\"say \\\"hi\\\"\"]"
        );
        assert_eq!(json_row(&[Cell::Text("\u{1}\t")]), "[\"\\u0001\\t\"]");
        assert_eq!(
            json_row(&[Cell::Int(3), Cell::Num(f64::INFINITY)]),
            "[3, null]"
        );
    }

    #[test]
    fn repeated_floats_render_like_the_first() {
        assert_eq!(
            csv(&[
                Cell::Num(0.25),
                Cell::Num(0.25),
                Cell::Num(-0.0),
                Cell::Num(0.0)
            ]),
            "0.25,0.25,-0,0\n"
        );
        let mut out = String::new();
        let mut w = CsvWriter::new(&mut out);
        w.row([Cell::Num(1e21), Cell::Int(7), Cell::Num(1e21)]);
        w.row([Cell::Num(1e21)]);
        assert_eq!(
            out,
            "1000000000000000000000,7,1000000000000000000000\n1000000000000000000000\n"
        );
    }

    #[test]
    fn u64_past_i64_max_renders_exactly_as_text() {
        let v = Value::from(u64::MAX);
        assert_eq!(csv(&[v.cell()]), "18446744073709551615\n");
        assert_eq!(json_row(&[v.cell()]), "[\"18446744073709551615\"]");
    }
}
