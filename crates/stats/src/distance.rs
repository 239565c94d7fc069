//! Point-error metrics.
//!
//! The paper scores each characterization method by its average error in the mean and
//! standard deviation of delay / slew over the validation set (Eqs. 16–19).  This module
//! provides the relative error of one prediction and the mean absolute relative error, in
//! percent, over paired predictions.

/// Relative error `|predicted − reference| / |reference|`.
///
/// Falls back to the absolute error when the reference is exactly zero so the metric stays
/// finite.
pub fn relative_error(predicted: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        (predicted - reference).abs()
    } else {
        (predicted - reference).abs() / reference.abs()
    }
}

/// Mean absolute relative error over paired predictions and references, in **percent**
/// (matching the paper's "prediction error (%)" axes).
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mean_relative_error_percent(predicted: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(
        predicted.len(),
        reference.len(),
        "prediction/reference length mismatch"
    );
    assert!(!predicted.is_empty(), "error metric over empty set");
    100.0
        * predicted
            .iter()
            .zip(reference)
            .map(|(&p, &r)| relative_error(p, r))
            .sum::<f64>()
        / predicted.len() as f64
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn relative_error_basic() {
        assert!((relative_error(11.0, 10.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(9.0, 10.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(0.5, 0.0), 0.5);
        assert_eq!(relative_error(5.0, 5.0), 0.0);
    }

    #[test]
    fn mean_relative_error_is_percent() {
        let err = mean_relative_error_percent(&[11.0, 9.0], &[10.0, 10.0]);
        assert!((err - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = mean_relative_error_percent(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_error_set_rejected() {
        let _ = mean_relative_error_percent(&[], &[]);
    }

    proptest! {
        #[test]
        fn prop_relative_error_nonnegative(p in -1e3f64..1e3, r in -1e3f64..1e3) {
            prop_assert!(relative_error(p, r) >= 0.0);
        }

    }
}
