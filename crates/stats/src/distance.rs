//! Distribution- and point-error metrics.
//!
//! The paper scores each characterization method by its average absolute error in the mean
//! and standard deviation of delay / slew over the validation set (Eqs. 16–19), and Fig. 9
//! visually compares distributions.  This module adds the quantitative counterparts: mean
//! absolute relative error for scalar predictions and the Kolmogorov–Smirnov statistic for
//! whole distributions.

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

/// Mean absolute error over paired predictions and references (the literal form of
/// Eqs. 16–19, without normalization).
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mean_absolute_error(predicted: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(
        predicted.len(),
        reference.len(),
        "prediction/reference length mismatch"
    );
    assert!(!predicted.is_empty(), "error metric over empty set");
    predicted
        .iter()
        .zip(reference)
        .map(|(&p, &r)| (p - r).abs())
        .sum::<f64>()
        / predicted.len() as f64
}

/// Two-sample Kolmogorov–Smirnov statistic: the maximum absolute difference between the
/// empirical CDFs of `a` and `b`.
///
/// Returns a value in `[0, 1]`; `0` means identical empirical distributions.  Samples
/// are ordered by [`f64::total_cmp`], so a NaN sorts past every number instead of
/// panicking.
///
/// # Panics
///
/// Panics if either sample is empty.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "KS statistic of empty sample"
    );
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(f64::total_cmp);
    sb.sort_by(f64::total_cmp);
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let mut i = 0usize;
    let mut j = 0usize;
    let mut d: f64 = 0.0;
    while i < sa.len() && j < sb.len() {
        let x = if sa[i] <= sb[j] { sa[i] } else { sb[j] };
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        let fa = i as f64 / na;
        let fb = j as f64 / nb;
        d = d.max((fa - fb).abs());
    }
    d
}

/// Symmetric percentage difference `200·|a − b| / (|a| + |b|)`, useful for comparing two
/// characterizations where neither is the reference.  Returns `0` when both are zero.
pub fn symmetric_percent_difference(a: f64, b: f64) -> f64 {
    let denom = a.abs() + b.abs();
    if denom == 0.0 {
        0.0
    } else {
        200.0 * (a - b).abs() / denom
    }
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
    fn mean_absolute_error_basic() {
        let err = mean_absolute_error(&[1.0, 2.0, 3.0], &[1.0, 1.0, 1.0]);
        assert!((err - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = mean_absolute_error(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_error_set_rejected() {
        let _ = mean_relative_error_percent(&[], &[]);
    }

    #[test]
    fn ks_identical_samples_is_zero() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ks_statistic(&a, &a), 0.0);
    }

    #[test]
    fn ks_disjoint_samples_is_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0, 12.0];
        assert!((ks_statistic(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_shifted_samples_is_intermediate() {
        let a: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let b: Vec<f64> = (0..100).map(|i| i as f64 / 100.0 + 0.25).collect();
        let d = ks_statistic(&a, &b);
        assert!(d > 0.15 && d < 0.4, "d = {d}");
    }

    #[test]
    fn ks_is_symmetric() {
        let a = [1.0, 5.0, 2.0, 8.0];
        let b = [0.5, 3.0, 9.0];
        assert!((ks_statistic(&a, &b) - ks_statistic(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn symmetric_difference_basic() {
        assert_eq!(symmetric_percent_difference(0.0, 0.0), 0.0);
        assert!((symmetric_percent_difference(1.0, 1.0)).abs() < 1e-12);
        assert!((symmetric_percent_difference(2.0, 1.0) - 200.0 / 3.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_ks_in_unit_interval(a in proptest::collection::vec(-1e3f64..1e3, 1..64),
                                    b in proptest::collection::vec(-1e3f64..1e3, 1..64)) {
            let d = ks_statistic(&a, &b);
            prop_assert!((0.0..=1.0).contains(&d));
        }

        #[test]
        fn prop_relative_error_nonnegative(p in -1e3f64..1e3, r in -1e3f64..1e3) {
            prop_assert!(relative_error(p, r) >= 0.0);
        }

        #[test]
        fn prop_mae_zero_iff_equal(values in proptest::collection::vec(-1e3f64..1e3, 1..32)) {
            prop_assert_eq!(mean_absolute_error(&values, &values), 0.0);
        }
    }
}
