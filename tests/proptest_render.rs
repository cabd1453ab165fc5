//! Differential test of the frame renderer: `Frame::to_csv`,
//! `Frame::to_json` and `ExpOutput::to_json` must stay byte-equal to a
//! frozen copy of the original `String`-per-field renderer on random
//! frames. The random frames reach every case the renderer treats
//! specially: CSV quoting, JSON escapes (control characters included),
//! non-ASCII text, extreme integers, non-finite and signed-zero floats,
//! subnormals, floats whose shortest form is very long, and runs of
//! bit-identical floats within one row.

use cloud_ckpt::report::{ExpOutput, Frame, Value};
use proptest::prelude::*;

/// The original renderer, kept verbatim as the reference.
mod reference {
    use cloud_ckpt::report::{ExpOutput, Frame, Value};

    fn fmt_f64(v: f64) -> String {
        if v.is_nan() {
            "NaN".to_string()
        } else if v.is_infinite() {
            if v > 0.0 {
                "inf".to_string()
            } else {
                "-inf".to_string()
            }
        } else {
            format!("{v}")
        }
    }

    fn json_num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    fn csv_field(s: &str) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }

    fn json_escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    fn render_csv(v: &Value) -> String {
        match v {
            Value::Text(s) => csv_field(s),
            Value::Int(i) => i.to_string(),
            Value::Num(v) => fmt_f64(*v),
        }
    }

    fn render_json(v: &Value) -> String {
        match v {
            Value::Text(s) => format!("\"{}\"", json_escape(s)),
            Value::Int(i) => i.to_string(),
            Value::Num(v) => json_num(*v),
        }
    }

    pub fn to_csv(f: &Frame) -> String {
        let mut out = String::new();
        let header: Vec<String> = f.columns.iter().map(|c| csv_field(c)).collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in &f.rows {
            let cells: Vec<String> = row.iter().map(render_csv).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    pub fn to_json(f: &Frame) -> String {
        let mut out = String::new();
        write_json(f, &mut out, 0);
        out.push('\n');
        out
    }

    fn write_json(f: &Frame, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        out.push_str(&format!("{pad}{{\n"));
        out.push_str(&format!("{pad}  \"name\": \"{}\",\n", json_escape(&f.name)));
        out.push_str(&format!(
            "{pad}  \"title\": \"{}\",\n",
            json_escape(&f.title)
        ));
        let meta: Vec<String> = f
            .metadata
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
            .collect();
        out.push_str(&format!("{pad}  \"metadata\": {{{}}},\n", meta.join(", ")));
        let cols: Vec<String> = f
            .columns
            .iter()
            .map(|c| format!("\"{}\"", json_escape(c)))
            .collect();
        out.push_str(&format!("{pad}  \"columns\": [{}],\n", cols.join(", ")));
        if f.rows.is_empty() {
            out.push_str(&format!("{pad}  \"rows\": []\n"));
        } else {
            out.push_str(&format!("{pad}  \"rows\": [\n"));
            for (i, row) in f.rows.iter().enumerate() {
                let cells: Vec<String> = row.iter().map(render_json).collect();
                out.push_str(&format!(
                    "{pad}    [{}]{}\n",
                    cells.join(", "),
                    if i + 1 < f.rows.len() { "," } else { "" }
                ));
            }
            out.push_str(&format!("{pad}  ]\n"));
        }
        out.push_str(&format!("{pad}}}"));
    }

    pub fn output_to_json(o: &ExpOutput) -> String {
        let mut out = String::from("{\n");
        if o.frames.is_empty() {
            out.push_str("  \"frames\": [],\n");
        } else {
            out.push_str("  \"frames\": [\n");
            for (i, f) in o.frames.iter().enumerate() {
                write_json(f, &mut out, 2);
                out.push_str(if i + 1 < o.frames.len() { ",\n" } else { "\n" });
            }
            out.push_str("  ],\n");
        }
        let notes: Vec<String> = o
            .notes
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect();
        out.push_str(&format!("  \"notes\": [{}]\n", notes.join(", ")));
        out.push_str("}\n");
        out
    }
}

/// SplitMix64: the frame generator's own deterministic stream.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Text from pieces that exercise quoting and escaping; empty strings
    /// are frequent.
    fn text(&mut self) -> String {
        const PIECES: [&str; 22] = [
            "a", "policy", "0.5", " ", ",", "\"", "\n", "\r", "\t", "\\", "\u{0}", "\u{1}",
            "\u{8}", "\u{c}", "\u{1f}", "\u{7f}", "é", "µs", "中", "🦀", "\"\"", "a,b\"c",
        ];
        let n = self.below(5);
        (0..n).map(|_| self.pick(&PIECES)).collect()
    }

    fn float(&mut self) -> f64 {
        const SPECIAL: [f64; 14] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            5e-324,
            1e21,
            1e-7,
            f64::MAX,
            f64::MIN,
            0.1,
            -2.5,
        ];
        match self.below(4) {
            0 => self.pick(&SPECIAL),
            // Any bit pattern: payload NaNs, subnormals, huge exponents.
            1 => f64::from_bits(self.next()),
            _ => (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 1e4 - 5e3,
        }
    }

    fn value(&mut self, prev: Option<&Value>) -> Value {
        // Runs of bit-identical floats within a row.
        if let Some(Value::Num(v)) = prev {
            if self.below(2) == 0 {
                return Value::Num(*v);
            }
        }
        match self.below(8) {
            0 => Value::from(self.text()),
            1 => Value::from(self.pick(&[i64::MIN, i64::MAX, 0, -1, 1])),
            2 => Value::from(self.next() as i64),
            3 => Value::from(self.pick(&[u64::MAX, 1u64 << 63, u64::MAX >> 1])),
            _ => Value::Num(self.float()),
        }
    }

    fn frame(&mut self) -> Frame {
        let ncols = self.below(6);
        let columns: Vec<String> = (0..ncols).map(|_| self.text()).collect();
        let mut frame = Frame::new(&self.text(), columns).with_title(self.text());
        for _ in 0..self.below(4) {
            frame = frame.with_meta(self.text(), self.text());
        }
        // No rows a quarter of the time.
        let nrows = if self.below(4) == 0 { 0 } else { self.below(6) };
        for _ in 0..nrows {
            let mut row: Vec<Value> = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let v = self.value(row.last());
                row.push(v);
            }
            frame.push_row(row);
        }
        frame
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One frame: CSV and JSON are byte-equal to the reference.
    #[test]
    fn frame_renders_match_the_reference(seed in 0u64..u64::MAX) {
        let frame = Gen(seed).frame();
        prop_assert_eq!(frame.to_csv(), reference::to_csv(&frame));
        prop_assert_eq!(frame.to_json(), reference::to_json(&frame));
    }

    /// A whole output: frames nested at indent 2 plus escaped notes.
    #[test]
    fn output_json_matches_the_reference(seed in 0u64..u64::MAX) {
        let mut gen = Gen(seed);
        let mut output = ExpOutput::new();
        for _ in 0..gen.below(4) {
            output.push(gen.frame());
        }
        for _ in 0..gen.below(3) {
            output.note(gen.text());
        }
        prop_assert_eq!(output.to_json(), reference::output_to_json(&output));
    }
}

/// The fixed edge cases, each in one row, so a regression names them
/// without relying on the random draw.
#[test]
fn edge_values_match_the_reference() {
    let mut frame = Frame::new("edge,\"case\"\n", vec!["a", "b,c", "d\"e", "", "é\t"])
        .with_title("title \\ \u{1} 中")
        .with_meta("k\"", "v\n");
    frame.push_row(vec![
        Value::Num(0.0),
        Value::Num(-0.0),
        Value::Num(f64::NAN),
        Value::Num(f64::INFINITY),
        Value::Num(f64::NEG_INFINITY),
    ]);
    frame.push_row(vec![
        Value::Num(5e-324),
        Value::Num(1e21),
        Value::Num(1e-7),
        Value::Num(f64::MAX),
        Value::Num(f64::MAX),
    ]);
    frame.push_row(vec![
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::from(u64::MAX),
        Value::from(""),
        Value::from("\r\n,\"\\\u{1f}\u{7f}"),
    ]);
    frame.push_row(vec![Value::Num(0.1); 5]);
    assert_eq!(frame.to_csv(), reference::to_csv(&frame));
    assert_eq!(frame.to_json(), reference::to_json(&frame));

    let empty = Frame::new("empty", Vec::<String>::new());
    assert_eq!(empty.to_csv(), reference::to_csv(&empty));
    assert_eq!(empty.to_json(), reference::to_json(&empty));

    let mut output = ExpOutput::new();
    assert_eq!(output.to_json(), reference::output_to_json(&output));
    output.push(frame);
    output.push(empty);
    output.note("note \"quoted\"\n");
    output.note("");
    assert_eq!(output.to_json(), reference::output_to_json(&output));
}
