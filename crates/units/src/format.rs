//! Engineering-notation formatting for physical quantities.
//!
//! Characterization reports read much better as `1.67 fF` / `5.09 ps` than as
//! `1.67e-15` / `5.09e-12`.  [`scaled`] picks a raw value's SI prefix, which every
//! quantity's `Display` joins to its unit.

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

/// `value` in engineering notation, as a number and its SI prefix apart (the prefix is
/// empty when none applies), so a quantity can write the prefix joined to its unit:
/// `800.000 mV`, `1.500 V`.
///
/// Values whose magnitude falls outside the yocto–yotta range (or that are zero, NaN or
/// infinite) fall back to plain `{}` formatting.
pub(crate) fn scaled(value: f64) -> (String, &'static str) {
    if value == 0.0 {
        return ("0".to_string(), "");
    }
    if !value.is_finite() {
        return (format!("{value}"), "");
    }
    let magnitude = value.abs();
    for (scale, prefix) in PREFIXES {
        if magnitude >= scale {
            return (format!("{:.3}", value / scale), prefix);
        }
    }
    (format!("{value:e}"), "")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(number: &str, prefix: &'static str) -> (String, &'static str) {
        (number.to_string(), prefix)
    }

    #[test]
    fn picoseconds_get_p_prefix() {
        assert_eq!(scaled(5.09e-12), split("5.090", "p"));
    }

    #[test]
    fn femtofarads_get_f_prefix() {
        assert_eq!(scaled(1.67e-15), split("1.670", "f"));
    }

    #[test]
    fn unit_scale_has_no_prefix() {
        assert_eq!(scaled(0.734), split("734.000", "m"));
        assert_eq!(scaled(1.0), split("1.000", ""));
        assert_eq!(scaled(42.5), split("42.500", ""));
    }

    #[test]
    fn negative_values_keep_sign() {
        assert_eq!(scaled(-0.266), split("-266.000", "m"));
    }

    #[test]
    fn zero_nan_inf_fall_back() {
        assert_eq!(scaled(0.0), split("0", ""));
        assert_eq!(scaled(f64::INFINITY), split("inf", ""));
        let (number, prefix) = scaled(f64::NAN);
        assert!(number.contains("NaN") && prefix.is_empty(), "{number}");
    }

    #[test]
    fn tiny_values_fall_back_to_scientific() {
        let (number, prefix) = scaled(1e-30);
        assert!(
            number.contains('e') && prefix.is_empty(),
            "expected scientific fallback, got {number}"
        );
    }

    #[test]
    fn large_values_get_positive_prefixes() {
        assert_eq!(scaled(3.2e9), split("3.200", "G"));
        assert_eq!(scaled(1.5e3), split("1.500", "k"));
    }
}
