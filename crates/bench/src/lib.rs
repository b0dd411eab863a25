//! Shared formatting helpers for the figure/table binaries.
//!
//! Each figure/table binary under `src/bin/` regenerates one artifact from
//! the paper's evaluation and prints it in a fixed-width layout.

#![forbid(unsafe_code)]

/// Render a row of fixed-width cells.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<w$}", w = w))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Render a horizontal rule matching the widths.
pub fn rule(widths: &[usize]) -> String {
    widths
        .iter()
        .map(|w| "-".repeat(*w))
        .collect::<Vec<_>>()
        .join("-+-")
}

/// `mean ± ci` cell.
pub fn pm(mean: f64, ci: f64) -> String {
    format!("{mean:.2} ± {ci:.2}")
}

/// Speedup series cell: "1.00 -> 3.41 -> 4.80".
pub fn series(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.2}"))
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Experiment scale: `STELLAR_SCALE` env var, default 1.0 (paper scale).
pub fn scale_from_env() -> f64 {
    // detlint::allow(D008): bench-harness knob only; the scale is echoed in
    // the bench JSON header, never into canonical run records
    std::env::var("STELLAR_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_alignment() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "a   | bb  ");
    }

    #[test]
    fn pm_format() {
        assert_eq!(pm(1.234, 0.056), "1.23 ± 0.06");
    }

    #[test]
    fn series_format() {
        assert_eq!(series(&[1.0, 2.5]), "1.00 -> 2.50");
    }
}
