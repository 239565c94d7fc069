//! Engineering-notation formatting for physical quantities.
//!
//! Characterization reports read much better as `1.67 fF` / `5.09 ps` than as
//! `1.67e-15` / `5.09e-12`.  [`engineering`] renders a raw value with the appropriate SI
//! prefix.

/// SI prefixes from yocto (1e-24) to yotta (1e24), one per power of a thousand.
const PREFIXES: [(f64, &str); 17] = [
    (1e24, "Y"),
    (1e21, "Z"),
    (1e18, "E"),
    (1e15, "P"),
    (1e12, "T"),
    (1e9, "G"),
    (1e6, "M"),
    (1e3, "k"),
    (1e0, ""),
    (1e-3, "m"),
    (1e-6, "u"),
    (1e-9, "n"),
    (1e-12, "p"),
    (1e-15, "f"),
    (1e-18, "a"),
    (1e-21, "z"),
    (1e-24, "y"),
];

/// Formats `value` using engineering notation with an SI prefix.
///
/// Values whose magnitude falls outside the yocto–yotta range (or that are zero, NaN or
/// infinite) fall back to plain `{}` formatting.
///
/// # Examples
///
/// ```
/// assert_eq!(slic_units::format::engineering(1.67e-15), "1.670 f");
/// assert_eq!(slic_units::format::engineering(0.0), "0");
/// ```
pub fn engineering(value: f64) -> String {
    if value == 0.0 {
        return "0".to_string();
    }
    if !value.is_finite() {
        return format!("{value}");
    }
    let magnitude = value.abs();
    for (scale, prefix) in PREFIXES {
        if magnitude >= scale {
            let scaled = value / scale;
            return if prefix.is_empty() {
                format!("{scaled:.3}")
            } else {
                format!("{scaled:.3} {prefix}")
            };
        }
    }
    format!("{value:e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picoseconds_get_p_prefix() {
        assert_eq!(engineering(5.09e-12), "5.090 p");
    }

    #[test]
    fn femtofarads_get_f_prefix() {
        assert_eq!(engineering(1.67e-15), "1.670 f");
    }

    #[test]
    fn unit_scale_has_no_prefix() {
        assert_eq!(engineering(0.734), "734.000 m");
        assert_eq!(engineering(1.0), "1.000");
        assert_eq!(engineering(42.5), "42.500");
    }

    #[test]
    fn negative_values_keep_sign() {
        assert_eq!(engineering(-0.266), "-266.000 m");
    }

    #[test]
    fn zero_nan_inf_fall_back() {
        assert_eq!(engineering(0.0), "0");
        assert_eq!(engineering(f64::INFINITY), "inf");
        assert!(engineering(f64::NAN).contains("NaN"));
    }

    #[test]
    fn tiny_values_fall_back_to_scientific() {
        let s = engineering(1e-30);
        assert!(s.contains('e'), "expected scientific fallback, got {s}");
    }

    #[test]
    fn large_values_get_positive_prefixes() {
        assert_eq!(engineering(3.2e9), "3.200 G");
        assert_eq!(engineering(1.5e3), "1.500 k");
    }
}
