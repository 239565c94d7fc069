//! Owned dense vectors.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// An owned, dense, dynamically sized vector of `f64`.
///
/// The workspace only ever deals with small vectors (parameter vectors of length 4,
/// residual vectors of a few dozen entries), so all operations are straightforward
/// allocating implementations optimized for clarity.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        Self { data: vec![0.0; n] }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Self {
            data: vec![value; n],
        }
    }

    /// Creates a vector from a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        Self {
            data: values.to_vec(),
        }
    }

    /// Creates a vector by evaluating `f` at each index `0..n`.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> f64) -> Self {
        Self {
            data: (0..n).map(f).collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the entries as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the entries as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Dot product with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "dot product requires equal lengths"
        );
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Infinity norm (largest absolute entry); zero for the empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of the entries; zero for the empty vector.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f64
        }
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Vector {
        Vector {
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hadamard(&self, other: &Vector) -> Vector {
        assert_eq!(self.len(), other.len(), "hadamard requires equal lengths");
        Vector {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
        }
    }

    /// Returns `self + scale * other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&self, scale: f64, other: &Vector) -> Vector {
        assert_eq!(self.len(), other.len(), "axpy requires equal lengths");
        Vector {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + scale * b)
                .collect(),
        }
    }

    /// Returns `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Iterator over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6e}")?;
        }
        write!(f, "]")
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Self { data }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl Add for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(
            self.len(),
            rhs.len(),
            "vector addition requires equal lengths"
        );
        Vector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(
            self.len(),
            rhs.len(),
            "vector subtraction requires equal lengths"
        );
        Vector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(
            self.len(),
            rhs.len(),
            "vector addition requires equal lengths"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(
            self.len(),
            rhs.len(),
            "vector subtraction requires equal lengths"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.map(|x| x * rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.map(|x| -x)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_variants() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(Vector::filled(2, 1.5).as_slice(), &[1.5, 1.5]);
        assert_eq!(
            Vector::from_fn(3, |i| i as f64).as_slice(),
            &[0.0, 1.0, 2.0]
        );
        let v: Vector = vec![1.0, 2.0].into();
        assert_eq!(v.len(), 2);
        let w: Vector = (0..4).map(|i| i as f64).collect();
        assert_eq!(w[3], 3.0);
    }

    #[test]
    fn dot_norm_sum_mean() {
        let v = Vector::from_slice(&[3.0, 4.0]);
        assert_eq!(v.dot(&v), 25.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.sum(), 7.0);
        assert_eq!(v.mean(), 3.5);
        assert_eq!(v.norm_inf(), 4.0);
        assert_eq!(Vector::zeros(0).mean(), 0.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[3.0, 10.0]);
        assert_eq!(a.axpy(2.0, &b).as_slice(), &[7.0, 12.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_dot_panics() {
        let _ = Vector::zeros(2).dot(&Vector::zeros(3));
    }

    #[test]
    fn finiteness_and_display() {
        assert!(Vector::from_slice(&[1.0, 2.0]).is_finite());
        assert!(!Vector::from_slice(&[1.0, f64::NAN]).is_finite());
        let s = format!("{}", Vector::from_slice(&[1.0, -2.0]));
        assert!(s.starts_with('[') && s.ends_with(']'));
    }

    #[test]
    fn indexing_and_iteration() {
        let mut v = Vector::zeros(3);
        v[1] = 7.0;
        assert_eq!(v[1], 7.0);
        assert_eq!(v.iter().copied().sum::<f64>(), 7.0);
        assert_eq!((&v).into_iter().count(), 3);
        assert_eq!(v.clone().into_vec(), vec![0.0, 7.0, 0.0]);
    }

    proptest! {
        #[test]
        fn prop_triangle_inequality(a in proptest::collection::vec(-1e3f64..1e3, 1..16),
                                    b in proptest::collection::vec(-1e3f64..1e3, 1..16)) {
            let n = a.len().min(b.len());
            let va = Vector::from_slice(&a[..n]);
            let vb = Vector::from_slice(&b[..n]);
            let lhs = (&va + &vb).norm();
            let rhs = va.norm() + vb.norm();
            prop_assert!(lhs <= rhs + 1e-9 * (1.0 + rhs));
        }

        #[test]
        fn prop_cauchy_schwarz(a in proptest::collection::vec(-1e3f64..1e3, 1..16),
                               b in proptest::collection::vec(-1e3f64..1e3, 1..16)) {
            let n = a.len().min(b.len());
            let va = Vector::from_slice(&a[..n]);
            let vb = Vector::from_slice(&b[..n]);
            let lhs = va.dot(&vb).abs();
            let rhs = va.norm() * vb.norm();
            prop_assert!(lhs <= rhs + 1e-9 * (1.0 + rhs));
        }

        #[test]
        fn prop_axpy_matches_add_scale(a in proptest::collection::vec(-1e3f64..1e3, 1..8),
                                       s in -10.0f64..10.0) {
            let v = Vector::from_slice(&a);
            let direct = v.axpy(s, &v);
            let composed = &v + &(&v * s);
            for i in 0..v.len() {
                prop_assert!((direct[i] - composed[i]).abs() < 1e-9);
            }
        }
    }
}
