//! Typed frame cells: the owned [`Value`] rows of a [`crate::Frame`],
//! the borrowed [`Cell`] the row writers take, and the compact float
//! rendering of aligned tables.

/// One cell of a [`crate::Frame`] row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Free text (labels, policy names, file paths).
    Text(String),
    /// An exact integer (counts, ids, priorities).
    Int(i64),
    /// A measurement. Rendered with shortest-roundtrip precision in CSV,
    /// as a JSON number (or `null` for non-finite values), and compactly
    /// in aligned tables.
    Num(f64),
}

/// One cell as the row writers ([`crate::CsvWriter`],
/// [`crate::JsonWriter`]) take it: a [`Value`] with its text borrowed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell<'a> {
    /// Free text.
    Text(&'a str),
    /// An exact integer.
    Int(i64),
    /// A measurement.
    Num(f64),
}

impl Value {
    /// Borrow this value as a row-writer cell.
    pub fn cell(&self) -> Cell<'_> {
        match self {
            Value::Text(s) => Cell::Text(s),
            Value::Int(i) => Cell::Int(*i),
            Value::Num(v) => Cell::Num(*v),
        }
    }

    /// Render for an aligned text table (compact float formatting).
    pub fn render_cell(&self) -> String {
        match self {
            Value::Text(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::Num(v) => compact_f64(*v),
        }
    }
}

impl From<Cell<'_>> for Value {
    fn from(cell: Cell<'_>) -> Self {
        match cell {
            Cell::Text(s) => Value::from(s),
            Cell::Int(i) => Value::Int(i),
            Cell::Num(v) => Value::Num(v),
        }
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u8> for Value {
    fn from(v: u8) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        // Values past i64::MAX (64-bit hashes, extreme seeds) must not
        // wrap negative; render them exactly as text instead.
        match i64::try_from(v) {
            Ok(i) => Value::Int(i),
            Err(_) => Value::Text(v.to_string()),
        }
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::from(v as u64)
    }
}

/// Build a frame row from mixed cell types: `row!["ST", 42, 0.945]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        vec![$($crate::Value::from($v)),*]
    };
}

/// Format a float compactly for aligned table cells.
pub fn compact_f64(v: f64) -> String {
    if v.is_nan() {
        return "-".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 { "inf" } else { "-inf" }.to_string();
    }
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_borrow_their_values() {
        assert_eq!(Value::from("a,b").cell(), Cell::Text("a,b"));
        assert_eq!(Value::from(3u32).cell(), Cell::Int(3));
        assert_eq!(Value::Num(0.1).cell(), Cell::Num(0.1));
        for v in [Value::from("x"), Value::Int(-4), Value::Num(2.5)] {
            assert_eq!(Value::from(v.cell()), v);
        }
    }

    #[test]
    fn compact_formatting() {
        assert_eq!(compact_f64(0.0), "0");
        assert_eq!(compact_f64(1234.0), "1234");
        assert_eq!(compact_f64(12.345), "12.35");
        assert_eq!(compact_f64(0.6321), "0.632");
        assert_eq!(compact_f64(f64::INFINITY), "inf");
        assert_eq!(compact_f64(f64::NEG_INFINITY), "-inf");
    }

    #[test]
    fn u64_past_i64_max_is_exact_text() {
        assert_eq!(Value::from(u64::MAX), Value::Text(u64::MAX.to_string()));
        assert_eq!(Value::from(3u64), Value::Int(3));
    }

    #[test]
    fn row_macro_mixes_types() {
        let r = row!["x", 1u64, 2.5];
        assert_eq!(
            r,
            vec![Value::Text("x".into()), Value::Int(1), Value::Num(2.5)]
        );
    }
}
