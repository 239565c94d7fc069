//! Sampling plans over multi-dimensional boxes.
//!
//! Two spaces get sampled in this project:
//!
//! * the **library input space** `ξ = (Sin, Cload, Vdd)` — the paper's baseline
//!   characterization draws 1000 uniformly random points in that box (Fig. 5), while the
//!   proposed method only needs a handful of carefully spread fitting points (we use a
//!   Latin hypercube for those);
//! * the **process-variation space** — Monte Carlo seeds for statistical characterization.
//!
//! All plans are expressed on the unit cube `[0, 1]^d` and mapped to physical ranges by the
//! caller (see [`scale_to_box`]).

use rand::seq::SliceRandom;
use rand::Rng;

/// Draws `n` points uniformly at random inside `bounds`.
///
/// # Panics
///
/// Panics if `bounds` is empty or any bound has `lo > hi`.
pub fn uniform_box<R: Rng + ?Sized>(rng: &mut R, bounds: &[(f64, f64)], n: usize) -> Vec<Vec<f64>> {
    validate_bounds(bounds);
    (0..n)
        .map(|_| {
            bounds
                .iter()
                .map(|&(lo, hi)| {
                    #[expect(
                        clippy::float_cmp,
                        reason = "a zero-width bound has one value; gen_range needs lo < hi"
                    )]
                    if lo == hi {
                        lo
                    } else {
                        rng.gen_range(lo..hi)
                    }
                })
                .collect()
        })
        .collect()
}

/// Draws an `n`-point Latin hypercube sample inside `bounds`.
///
/// Each dimension is divided into `n` equal slices and each slice is hit exactly once, which
/// gives far better space coverage than plain uniform sampling at the very small sample
/// counts (`k` = 2…10) the proposed method runs at.
///
/// # Panics
///
/// Panics if `bounds` is empty or any bound has `lo > hi`.
pub fn latin_hypercube<R: Rng + ?Sized>(
    rng: &mut R,
    bounds: &[(f64, f64)],
    n: usize,
) -> Vec<Vec<f64>> {
    validate_bounds(bounds);
    if n == 0 {
        return Vec::new();
    }
    let d = bounds.len();
    // One random permutation of the strata per dimension.
    let mut strata: Vec<Vec<usize>> = Vec::with_capacity(d);
    for _ in 0..d {
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(rng);
        strata.push(perm);
    }
    (0..n)
        .map(|i| {
            (0..d)
                .map(|j| {
                    let slice = strata[j][i] as f64;
                    let u: f64 = rng.gen();
                    let unit = (slice + u) / n as f64;
                    let (lo, hi) = bounds[j];
                    lo + unit * (hi - lo)
                })
                .collect()
        })
        .collect()
}

/// Builds the full-factorial grid with `levels[j]` levels per dimension, linearly spaced
/// inclusive of the bounds — the classical LUT corner grid.
///
/// # Panics
///
/// Panics if `bounds.len() != levels.len()`, `bounds` is empty, any bound has `lo > hi`, or
/// any level count is zero.
pub fn full_factorial(bounds: &[(f64, f64)], levels: &[usize]) -> Vec<Vec<f64>> {
    validate_bounds(bounds);
    assert_eq!(
        bounds.len(),
        levels.len(),
        "levels must be specified per dimension"
    );
    assert!(
        levels.iter().all(|&l| l > 0),
        "every dimension needs at least one level"
    );
    let axes: Vec<Vec<f64>> = bounds
        .iter()
        .zip(levels)
        .map(|(&(lo, hi), &l)| {
            if l == 1 {
                vec![0.5 * (lo + hi)]
            } else {
                (0..l)
                    .map(|i| lo + (hi - lo) * i as f64 / (l - 1) as f64)
                    .collect()
            }
        })
        .collect();
    let mut grid: Vec<Vec<f64>> = vec![Vec::new()];
    for axis in &axes {
        let mut next = Vec::with_capacity(grid.len() * axis.len());
        for point in &grid {
            for &value in axis {
                let mut p = point.clone();
                p.push(value);
                next.push(p);
            }
        }
        grid = next;
    }
    grid
}

/// Maps a point expressed on the unit cube into `bounds`.
///
/// # Panics
///
/// Panics if `point.len() != bounds.len()`.
pub fn scale_to_box(point: &[f64], bounds: &[(f64, f64)]) -> Vec<f64> {
    assert_eq!(point.len(), bounds.len(), "dimension mismatch");
    point
        .iter()
        .zip(bounds)
        .map(|(&u, &(lo, hi))| lo + u * (hi - lo))
        .collect()
}

fn validate_bounds(bounds: &[(f64, f64)]) {
    assert!(!bounds.is_empty(), "sampling bounds must not be empty");
    for &(lo, hi) in bounds {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid bound ({lo}, {hi})"
        );
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn box3() -> Vec<(f64, f64)> {
        vec![(1.0e-12, 15.0e-12), (0.1e-15, 6.0e-15), (0.65, 1.0)]
    }

    #[test]
    fn uniform_points_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = uniform_box(&mut rng, &box3(), 500);
        assert_eq!(pts.len(), 500);
        for p in &pts {
            for (x, &(lo, hi)) in p.iter().zip(&box3()) {
                assert!(*x >= lo && *x <= hi);
            }
        }
    }

    #[test]
    fn uniform_handles_degenerate_dimension() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = uniform_box(&mut rng, &[(2.0, 2.0), (0.0, 1.0)], 10);
        assert!(pts.iter().all(|p| p[0] == 2.0));
    }

    #[test]
    fn latin_hypercube_strata_are_each_hit_once() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 16;
        let bounds = vec![(0.0, 1.0), (0.0, 1.0)];
        let pts = latin_hypercube(&mut rng, &bounds, n);
        assert_eq!(pts.len(), n);
        for dim in 0..2 {
            let mut seen = vec![false; n];
            for p in &pts {
                let stratum = ((p[dim] * n as f64) as usize).min(n - 1);
                assert!(!seen[stratum], "stratum {stratum} hit twice in dim {dim}");
                seen[stratum] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn latin_hypercube_zero_points() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(latin_hypercube(&mut rng, &box3(), 0).is_empty());
    }

    #[test]
    fn full_factorial_size_and_corners() {
        let grid = full_factorial(&[(0.0, 1.0), (10.0, 20.0)], &[3, 2]);
        assert_eq!(grid.len(), 6);
        assert!(grid.contains(&vec![0.0, 10.0]));
        assert!(grid.contains(&vec![1.0, 20.0]));
        assert!(grid.contains(&vec![0.5, 10.0]));
    }

    #[test]
    fn full_factorial_single_level_uses_midpoint() {
        let grid = full_factorial(&[(0.0, 2.0)], &[1]);
        assert_eq!(grid, vec![vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn full_factorial_rejects_zero_levels() {
        let _ = full_factorial(&[(0.0, 1.0)], &[0]);
    }

    #[test]
    #[should_panic(expected = "invalid bound")]
    fn inverted_bounds_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = uniform_box(&mut rng, &[(1.0, 0.0)], 3);
    }

    #[test]
    fn scale_to_box_maps_corners() {
        let bounds = box3();
        let lo = scale_to_box(&[0.0, 0.0, 0.0], &bounds);
        let hi = scale_to_box(&[1.0, 1.0, 1.0], &bounds);
        for ((l, h), &(blo, bhi)) in lo.iter().zip(hi.iter()).zip(&bounds) {
            assert!((l - blo).abs() < 1e-18);
            assert!((h - bhi).abs() < 1e-18);
        }
    }

    proptest! {
        #[test]
        fn prop_lhs_points_in_bounds(seed in 0u64..1000, n in 1usize..32) {
            let mut rng = StdRng::seed_from_u64(seed);
            let bounds = box3();
            let pts = latin_hypercube(&mut rng, &bounds, n);
            prop_assert_eq!(pts.len(), n);
            for p in &pts {
                for (x, &(lo, hi)) in p.iter().zip(&bounds) {
                    prop_assert!(*x >= lo && *x <= hi);
                }
            }
        }

        #[test]
        fn prop_factorial_count(l1 in 1usize..5, l2 in 1usize..5, l3 in 1usize..5) {
            let grid = full_factorial(&box3(), &[l1, l2, l3]);
            prop_assert_eq!(grid.len(), l1 * l2 * l3);
        }
    }
}
