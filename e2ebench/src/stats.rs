//! Summary helpers. Every helper returns 0.0 instead of NaN on empty or
//! degenerate input, so a result line never carries a non-number.

/// Median of `values` (mean of the middle pair for even counts); 0.0 when
/// empty. Sorted with `total_cmp`.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0.0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Geometric mean of positive values; 0.0 when empty or when any value is
/// not positive (the logarithm would be undefined).
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0.0 when the denominator is zero or the quotient is not
/// finite.
pub fn ratio(num: f64, den: f64) -> f64 {
    let q = num / den;
    if den == 0.0 || !q.is_finite() {
        0.0
    } else {
        q
    }
}

/// FNV-1a over `bytes`: the digest printed beside each result so a reader
/// can check that canonical output bytes did not change.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs_give_zero() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(gmean(&[]), 0.0);
    }

    #[test]
    fn zero_and_negative_inputs_never_give_nan() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(gmean(&[2.0, 0.0]), 0.0);
        assert_eq!(gmean(&[2.0, -1.0]), 0.0);
        assert_eq!(gmean(&[f64::NAN]), 0.0);
        assert_eq!(median(&[0.0, 0.0]), 0.0);
        assert!(!median(&[f64::NAN, 1.0, 2.0]).is_nan());
    }

    #[test]
    fn values_are_right() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
