//! Three-dimensional lookup tables with trilinear interpolation.

use serde::{Deserialize, Serialize};
use slic_spice::InputPoint;
use std::fmt;

/// A dense table of values over a `(Sin, Cload, Vdd)` grid.
///
/// Axes are strictly increasing; queries outside the grid are clamped to the edge (the
/// behaviour of production timing tools, which refuse to extrapolate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lut3d {
    sin_axis: Vec<f64>,
    cload_axis: Vec<f64>,
    vdd_axis: Vec<f64>,
    /// Row-major values indexed `[sin][cload][vdd]`, flattened.
    values: Vec<f64>,
}

impl Lut3d {
    /// Creates a table from its axes and a filler function evaluated at every grid point.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty or not strictly increasing.
    pub fn from_fn(
        sin_axis: Vec<f64>,
        cload_axis: Vec<f64>,
        vdd_axis: Vec<f64>,
        mut fill: impl FnMut(f64, f64, f64) -> f64,
    ) -> Self {
        validate_axis("sin", &sin_axis);
        validate_axis("cload", &cload_axis);
        validate_axis("vdd", &vdd_axis);
        let mut values = Vec::with_capacity(sin_axis.len() * cload_axis.len() * vdd_axis.len());
        for &s in &sin_axis {
            for &c in &cload_axis {
                for &v in &vdd_axis {
                    values.push(fill(s, c, v));
                }
            }
        }
        Self {
            sin_axis,
            cload_axis,
            vdd_axis,
            values,
        }
    }

    /// Creates a table from axes and pre-computed values in `[sin][cload][vdd]` order.
    ///
    /// # Panics
    ///
    /// Panics if the axes are invalid or `values.len()` does not match the grid size.
    pub fn from_values(
        sin_axis: Vec<f64>,
        cload_axis: Vec<f64>,
        vdd_axis: Vec<f64>,
        values: Vec<f64>,
    ) -> Self {
        validate_axis("sin", &sin_axis);
        validate_axis("cload", &cload_axis);
        validate_axis("vdd", &vdd_axis);
        assert_eq!(
            values.len(),
            sin_axis.len() * cload_axis.len() * vdd_axis.len(),
            "value count must match the grid size"
        );
        Self {
            sin_axis,
            cload_axis,
            vdd_axis,
            values,
        }
    }

    /// Number of grid points (`= simulations needed to fill the table`).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when the table holds no values (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Grid shape `(sin levels, cload levels, vdd levels)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (
            self.sin_axis.len(),
            self.cload_axis.len(),
            self.vdd_axis.len(),
        )
    }

    /// The slew axis.
    pub fn sin_axis(&self) -> &[f64] {
        &self.sin_axis
    }

    /// The load axis.
    pub fn cload_axis(&self) -> &[f64] {
        &self.cload_axis
    }

    /// The supply axis.
    pub fn vdd_axis(&self) -> &[f64] {
        &self.vdd_axis
    }

    fn index(&self, i: usize, j: usize, k: usize) -> f64 {
        self.values[(i * self.cload_axis.len() + j) * self.vdd_axis.len() + k]
    }

    /// Value stored at grid indices `(i, j, k)` = (slew, load, supply).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn at(&self, i: usize, j: usize, k: usize) -> f64 {
        assert!(
            i < self.sin_axis.len() && j < self.cload_axis.len() && k < self.vdd_axis.len(),
            "grid index out of range"
        );
        self.index(i, j, k)
    }

    /// Trilinear interpolation at an arbitrary input point, clamped to the grid boundary.
    pub fn interpolate(&self, point: &InputPoint) -> f64 {
        let (i0, i1, ti) = bracket(&self.sin_axis, point.sin.value());
        let (j0, j1, tj) = bracket(&self.cload_axis, point.cload.value());
        let (k0, k1, tk) = bracket(&self.vdd_axis, point.vdd.value());

        let mut acc = 0.0;
        for (i, wi) in [(i0, 1.0 - ti), (i1, ti)] {
            for (j, wj) in [(j0, 1.0 - tj), (j1, tj)] {
                for (k, wk) in [(k0, 1.0 - tk), (k1, tk)] {
                    let w = wi * wj * wk;
                    if w != 0.0 {
                        acc += w * self.index(i, j, k);
                    }
                }
            }
        }
        acc
    }
}

impl fmt::Display for Lut3d {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (a, b, c) = self.shape();
        write!(f, "Lut3d {a}x{b}x{c} ({} entries)", self.len())
    }
}

/// Finds the bracketing indices and interpolation fraction of `x` on `axis`.
///
/// Values outside the axis clamp to the end intervals with a fraction of 0 or 1.
fn bracket(axis: &[f64], x: f64) -> (usize, usize, f64) {
    if axis.len() == 1 || x <= axis[0] {
        return (0, 0, 0.0);
    }
    let last = axis.len() - 1;
    if x >= axis[last] {
        return (last, last, 0.0);
    }
    // Axis lengths are tiny (2–10 levels); a linear scan is the clearest correct choice.
    let mut hi = 1;
    while axis[hi] < x {
        hi += 1;
    }
    let lo = hi - 1;
    let t = (x - axis[lo]) / (axis[hi] - axis[lo]);
    (lo, hi, t)
}

fn validate_axis(name: &str, axis: &[f64]) {
    assert!(!axis.is_empty(), "{name} axis must not be empty");
    assert!(
        axis.windows(2).all(|w| w[1] > w[0]),
        "{name} axis must be strictly increasing"
    );
    assert!(
        axis.iter().all(|x| x.is_finite()),
        "{name} axis must contain only finite values"
    );
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slic_units::{Farads, Seconds, Volts};

    fn point(sin: f64, cload: f64, vdd: f64) -> InputPoint {
        InputPoint::new(Seconds(sin), Farads(cload), Volts(vdd))
    }

    /// A table filled with a trilinear-exact function: interpolation must be exact inside.
    fn linear_table() -> Lut3d {
        Lut3d::from_fn(
            vec![1.0, 5.0, 15.0],
            vec![0.5, 2.0, 6.0],
            vec![0.65, 0.85, 1.0],
            |s, c, v| 2.0 * s + 3.0 * c - 4.0 * v + 7.0,
        )
    }

    #[test]
    fn construction_and_shape() {
        let t = linear_table();
        assert_eq!(t.shape(), (3, 3, 3));
        assert_eq!(t.len(), 27);
        assert!(!t.is_empty());
        assert!(format!("{t}").contains("3x3x3"));
        assert_eq!(t.sin_axis().len(), 3);
        assert_eq!(t.cload_axis().len(), 3);
        assert_eq!(t.vdd_axis().len(), 3);
    }

    #[test]
    fn at_returns_grid_values() {
        let t = linear_table();
        let expected = 2.0 * 5.0 + 3.0 * 2.0 - 4.0 * 0.85 + 7.0;
        assert!((t.at(1, 1, 1) - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn at_rejects_out_of_range() {
        let _ = linear_table().at(3, 0, 0);
    }

    #[test]
    fn interpolation_is_exact_for_multilinear_functions() {
        let t = linear_table();
        for (s, c, v) in [(2.0, 1.0, 0.7), (7.5, 3.3, 0.9), (14.9, 5.9, 0.99)] {
            let expected = 2.0 * s + 3.0 * c - 4.0 * v + 7.0;
            let got = t.interpolate(&point(s, c, v));
            assert!(
                (got - expected).abs() < 1e-9,
                "({s},{c},{v}): {got} vs {expected}"
            );
        }
    }

    #[test]
    fn interpolation_matches_grid_at_nodes() {
        let t = linear_table();
        let got = t.interpolate(&point(5.0, 2.0, 0.85));
        assert!((got - t.at(1, 1, 1)).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_queries_clamp() {
        let t = linear_table();
        let below = t.interpolate(&point(0.1, 0.1, 0.1));
        assert!((below - t.at(0, 0, 0)).abs() < 1e-12);
        let above = t.interpolate(&point(100.0, 100.0, 2.0));
        assert!((above - t.at(2, 2, 2)).abs() < 1e-12);
    }

    #[test]
    fn single_level_axes_are_constant_in_that_dimension() {
        let t = Lut3d::from_fn(vec![5.0], vec![1.0, 2.0], vec![0.8], |_, c, _| c * 10.0);
        assert_eq!(t.shape(), (1, 2, 1));
        let a = t.interpolate(&point(1.0, 1.5, 0.9));
        let b = t.interpolate(&point(20.0, 1.5, 0.5));
        assert!(
            (a - b).abs() < 1e-12,
            "slew/vdd must not matter with one level"
        );
        assert!((a - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_axis_rejected() {
        let _ = Lut3d::from_fn(vec![1.0, 1.0], vec![1.0], vec![1.0], |_, _, _| 0.0);
    }

    #[test]
    #[should_panic(expected = "value count")]
    fn wrong_value_count_rejected() {
        let _ = Lut3d::from_values(vec![1.0, 2.0], vec![1.0], vec![1.0], vec![0.0; 3]);
    }

    #[test]
    fn from_values_round_trip() {
        let t = Lut3d::from_values(vec![1.0, 2.0], vec![3.0], vec![4.0], vec![10.0, 20.0]);
        assert_eq!(t.at(0, 0, 0), 10.0);
        assert_eq!(t.at(1, 0, 0), 20.0);
    }

    proptest! {
        #[test]
        fn prop_interpolation_within_value_range(s in 0.0f64..20.0, c in 0.0f64..8.0, v in 0.5f64..1.2) {
            let t = linear_table();
            let lo = (0..3).flat_map(|i| (0..3).flat_map(move |j| (0..3).map(move |k| (i, j, k))))
                .map(|(i, j, k)| t.at(i, j, k))
                .fold(f64::INFINITY, f64::min);
            let hi = (0..3).flat_map(|i| (0..3).flat_map(move |j| (0..3).map(move |k| (i, j, k))))
                .map(|(i, j, k)| t.at(i, j, k))
                .fold(f64::NEG_INFINITY, f64::max);
            let val = t.interpolate(&point(s, c, v));
            prop_assert!(val >= lo - 1e-9 && val <= hi + 1e-9);
        }

        #[test]
        fn prop_bracket_fraction_in_unit_interval(x in -5.0f64..25.0) {
            let axis = [1.0, 2.0, 4.0, 8.0, 16.0];
            let (lo, hi, t) = bracket(&axis, x);
            prop_assert!(lo <= hi && hi < axis.len());
            prop_assert!((0.0..=1.0).contains(&t));
        }
    }
}
