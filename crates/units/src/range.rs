//! Sweep-grid helpers used by every characterization grid in the workspace.
//!
//! Library characterization is built on sweeps: supply voltage sweeps for Fig. 2, load /
//! slew grids for the LUT baseline, training-sample-count sweeps for Figs. 6–8.  These
//! helpers generate the underlying 1-D point sets.

/// Returns `n` points linearly spaced over `[start, stop]`, inclusive of both ends.
///
/// Returns an empty vector for `n == 0` and `[start]` for `n == 1`.
///
/// # Examples
///
/// ```
/// let v = slic_units::range::linspace(0.0, 1.0, 5);
/// assert_eq!(v, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
/// ```
pub fn linspace(start: f64, stop: f64, n: usize) -> Vec<f64> {
    match n {
        0 => Vec::new(),
        1 => vec![start],
        _ => {
            let step = (stop - start) / (n - 1) as f64;
            (0..n).map(|i| start + step * i as f64).collect()
        }
    }
}

/// Returns `n` points spaced logarithmically over `[start, stop]`, inclusive of both ends.
///
/// Standard cell LUT axes for load and slew are conventionally log-spaced because delay
/// sensitivity is highest at small loads.
///
/// # Panics
///
/// Panics if `start <= 0`, `stop <= 0`, or either bound is not finite.
///
/// # Examples
///
/// ```
/// let v = slic_units::range::logspace(1.0, 100.0, 3);
/// assert!((v[1] - 10.0).abs() < 1e-9);
/// ```
pub fn logspace(start: f64, stop: f64, n: usize) -> Vec<f64> {
    assert!(
        start > 0.0 && stop > 0.0 && start.is_finite() && stop.is_finite(),
        "logspace bounds must be positive and finite (got {start}, {stop})"
    );
    linspace(start.ln(), stop.ln(), n)
        .into_iter()
        .map(f64::exp)
        .collect()
}

/// Returns `n` points forming a geometric progression from `start` to `stop`.
///
/// Alias of [`logspace`] kept for readability at call sites that think in terms of
/// geometric ratios (e.g. doubling load capacitance per LUT column).
///
/// # Panics
///
/// Panics under the same conditions as [`logspace`].
pub fn geomspace(start: f64, stop: f64, n: usize) -> Vec<f64> {
    logspace(start, stop, n)
}

/// Returns the midpoints of each consecutive pair in `points`.
///
/// Useful for building validation points that deliberately avoid the training grid.
///
/// # Examples
///
/// ```
/// let mids = slic_units::range::midpoints(&[0.0, 1.0, 3.0]);
/// assert_eq!(mids, vec![0.5, 2.0]);
/// ```
pub fn midpoints(points: &[f64]) -> Vec<f64> {
    points.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect()
}

/// Linearly rescales `x` from `[from_lo, from_hi]` into `[to_lo, to_hi]`.
///
/// Used to map unit-cube sampling plans (Latin hypercube, uniform random) onto physical
/// input ranges.
///
/// # Examples
///
/// ```
/// let y = slic_units::range::rescale(0.5, 0.0, 1.0, 0.65, 1.0);
/// assert!((y - 0.825).abs() < 1e-12);
/// ```
pub fn rescale(x: f64, from_lo: f64, from_hi: f64, to_lo: f64, to_hi: f64) -> f64 {
    #[expect(
        clippy::float_cmp,
        reason = "a degenerate source range maps everything to to_lo; any nonzero width, however small, rescales"
    )]
    if from_hi == from_lo {
        return to_lo;
    }
    to_lo + (x - from_lo) / (from_hi - from_lo) * (to_hi - to_lo)
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_and_count() {
        let v = linspace(0.65, 1.0, 8);
        assert_eq!(v.len(), 8);
        assert!((v[0] - 0.65).abs() < 1e-12);
        assert!((v[7] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linspace_degenerate_counts() {
        assert!(linspace(0.0, 1.0, 0).is_empty());
        assert_eq!(linspace(0.3, 1.0, 1), vec![0.3]);
        assert_eq!(linspace(1.0, 0.0, 2), vec![1.0, 0.0]);
    }

    #[test]
    fn linspace_is_monotone_when_ascending() {
        let v = linspace(-2.0, 5.0, 23);
        assert!(v.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn logspace_endpoints_and_ratio() {
        let v = logspace(1e-16, 1e-14, 3);
        assert!((v[0] - 1e-16).abs() / 1e-16 < 1e-9);
        assert!((v[2] - 1e-14).abs() / 1e-14 < 1e-9);
        let r1 = v[1] / v[0];
        let r2 = v[2] / v[1];
        assert!(
            (r1 - r2).abs() / r1 < 1e-9,
            "geometric ratio should be constant"
        );
    }

    #[test]
    #[should_panic(expected = "logspace bounds must be positive")]
    fn logspace_rejects_nonpositive_bounds() {
        let _ = logspace(0.0, 1.0, 4);
    }

    #[test]
    fn geomspace_matches_logspace() {
        assert_eq!(geomspace(1.0, 8.0, 4), logspace(1.0, 8.0, 4));
    }

    #[test]
    fn midpoints_of_grid() {
        let mids = midpoints(&linspace(0.0, 1.0, 3));
        assert_eq!(mids, vec![0.25, 0.75]);
        assert!(midpoints(&[1.0]).is_empty());
        assert!(midpoints(&[]).is_empty());
    }

    #[test]
    fn rescale_maps_unit_interval() {
        assert!((rescale(0.0, 0.0, 1.0, 0.65, 1.0) - 0.65).abs() < 1e-12);
        assert!((rescale(1.0, 0.0, 1.0, 0.65, 1.0) - 1.0).abs() < 1e-12);
        // Degenerate source interval falls back to the lower target bound.
        assert_eq!(rescale(0.3, 0.5, 0.5, 2.0, 3.0), 2.0);
    }
}
