//! Presentation helpers for the experiment library: compact float
//! formatting for text cells and ASCII CDF plots. All tabular output goes
//! through the shared frame writer in [`ckpt_report`] — there is no
//! bespoke table/CSV code left here.

pub use ckpt_report::compact_f64 as f;

/// Render a compact ASCII CDF plot from `(x, F)` points (monotone in both).
pub fn ascii_cdf(points: &[(f64, f64)], width: usize, height: usize, label: &str) -> String {
    if points.is_empty() {
        return String::new();
    }
    let x_min = points.first().unwrap().0;
    let x_max = points.last().unwrap().0.max(x_min + f64::MIN_POSITIVE);
    let mut grid = vec![vec![b' '; width]; height];
    for &(x, p) in points {
        let col = (((x - x_min) / (x_max - x_min)) * (width - 1) as f64).round() as usize;
        let row = ((1.0 - p) * (height - 1) as f64).round() as usize;
        grid[row.min(height - 1)][col.min(width - 1)] = b'*';
    }
    let mut out = format!("{label}  (x: {x_min:.1} .. {x_max:.1}, y: 0..1)\n");
    for row in grid {
        out.push('|');
        out.push_str(std::str::from_utf8(&row).unwrap());
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(1234.0), "1234");
        assert_eq!(f(12.345), "12.35");
        assert_eq!(f(0.6321), "0.632");
        assert_eq!(f(f64::INFINITY), "inf");
    }

    #[test]
    fn ascii_cdf_shape() {
        let pts: Vec<(f64, f64)> = (1..=50).map(|i| (i as f64, i as f64 / 50.0)).collect();
        let s = ascii_cdf(&pts, 40, 10, "test");
        assert!(s.starts_with("test"));
        assert!(s.contains('*'));
    }
}
