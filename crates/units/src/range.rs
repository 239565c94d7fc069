//! Linearly spaced sweep grids, such as the Liberty export axes.

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

#[cfg(test)]
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
}
