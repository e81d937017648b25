//! Normalization of metric series for the paper's figures.

/// Normalizes values to `[0, 1]` by dividing by the maximum magnitude.
///
/// This is the normalization the paper uses for its figures ("normalized
/// RPS", "normalized variance"). Returns all-zero when the max is zero and
/// an empty vector for empty input.
pub fn normalize_by_max(values: &[f64]) -> Vec<f64> {
    let max = values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if max == 0.0 {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| v / max).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_by_max_scales_to_unit() {
        let normed = normalize_by_max(&[1.0, 2.0, 4.0]);
        assert_eq!(normed, vec![0.25, 0.5, 1.0]);
        assert_eq!(normalize_by_max(&[0.0, 0.0]), vec![0.0, 0.0]);
        assert!(normalize_by_max(&[]).is_empty());
    }
}
