//! Branch-free four-lane vector math for the SIMD compiled model.
//!
//! The transient hot path spends most of its time in the transcendentals of
//! [`CompiledDevice::drain_current`](crate::CompiledDevice): per device evaluation it pays
//! one `ln`, two `exp` and two `ln_1p` through libm, and a libm call can neither inline nor
//! vectorize.  This module provides the same functions as plain-Rust `[f64; 4]` arithmetic
//! — range reduction by bit manipulation, fixed-degree polynomial kernels, `if`-free value
//! selection — so the autovectorizer can keep all four lanes in vector registers on the
//! baseline `x86-64` target (SSE2) with no unstable features and no `unsafe`.
//!
//! Accuracy: the polynomial degrees are sized to the SIMD mode's *end-to-end* budget, not
//! to ulp-exactness — every kernel stays within `1e-8` relative of libm over the domains
//! the device model produces, five orders of magnitude below the 0.5 % accuracy bound the
//! SIMD kernel is CI-gated on, while keeping the Horner chains short enough to beat libm.
//! The lanes are computed **element-wise**: lane `i` of every result depends only on lane
//! `i` of the inputs, so a lane's value is independent of what shares its quad — the
//! property that keeps batched SIMD results independent of batch composition.
//!
//! On targets with hardware FMA (the workspace compiles for `x86-64-v3`, see
//! `.cargo/config.toml`) the Horner recurrences use fused multiply-adds; elsewhere they
//! fall back to separate multiply and add.  SIMD-mode results therefore depend on the
//! build target — one more reason the mode is opt-in and accuracy-gated rather than
//! bitwise-guaranteed.

/// Four independent lanes of `f64`.
pub type F64x4 = [f64; 4];

/// Broadcasts one scalar into all four lanes.
#[inline(always)]
pub fn splat(x: f64) -> F64x4 {
    [x; 4]
}

/// `a·b + c`, fused when the target has hardware FMA, otherwise two rounded operations.
///
/// Without the gate, `f64::mul_add` on a non-FMA target would call libm's software
/// `fma()` — correctly rounded but far slower than the two-op form, which is accurate
/// enough for these kernels' error budget.
#[inline(always)]
fn mul_add(a: f64, b: f64, c: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

/// `log2(e)`, the exponent-reduction factor of [`exp4`].
const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// High part of `ln 2` for two-step argument reduction.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// Low part of `ln 2` (`LN2_HI + LN2_LO` is `ln 2` to ~107 bits).
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// `1.5 · 2^52`: adding and subtracting this rounds to the nearest integer in
/// round-to-nearest mode, and leaves the integer in the low mantissa bits.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Per-element `e^x`, branch-free.
///
/// Arguments above `708` clamp (the result is within rounding of `f64::MAX`'s scale);
/// arguments below `-708` underflow to **exactly zero**, like libm's `exp`.  The exact
/// zero matters twice: it reproduces the scalar kernel's `Fsat → r` limit for `r → 0`
/// bit for bit, and it keeps near-underflow magnitudes (≈`3e-308`) from flowing into
/// later passes as denormal operands — x86 handles denormals through microcode assists
/// costing hundreds of cycles *per lane per round*, which measurably dominated whole
/// transients whose pull-up device idles at `vds ≈ 0`.  Relative error stays below
/// `1e-9` (degree-8 Taylor kernel on `|r| ≤ ln2/2` after exact two-step reduction —
/// remainder `r⁹/9! ≈ 3e-10` relative, sized to the SIMD mode's accuracy budget, not to
/// the ulp).
#[inline(always)]
pub fn exp4(x: F64x4) -> F64x4 {
    let mut out = [0.0_f64; 4];
    for i in 0..4 {
        let x_raw = x[i];
        let x = x_raw.clamp(-708.0, 708.0);
        // k = round(x / ln2) via the magic-number trick (no float→int conversion, which
        // SSE2 only has for 32-bit lanes); t's low mantissa bits hold k as an integer.
        let t = mul_add(x, LOG2_E, ROUND_MAGIC);
        let k = t - ROUND_MAGIC;
        let r = mul_add(k, -LN2_LO, mul_add(k, -LN2_HI, x));
        // exp(r) on |r| ≤ 0.3466 by degree-8 Taylor.
        let p = 1.0 / 40_320.0;
        let p = mul_add(p, r, 1.0 / 5_040.0);
        let p = mul_add(p, r, 1.0 / 720.0);
        let p = mul_add(p, r, 1.0 / 120.0);
        let p = mul_add(p, r, 1.0 / 24.0);
        let p = mul_add(p, r, 1.0 / 6.0);
        let p = mul_add(p, r, 1.0 / 2.0);
        let p = mul_add(p, r, 1.0);
        let p = mul_add(p, r, 1.0);
        // 2^k assembled from t's low bits: (k + 1023) << 52 as an f64 bit pattern.
        let scale = f64::from_bits(t.to_bits().wrapping_shl(52).wrapping_add(1.0_f64.to_bits()));
        out[i] = if x_raw < -708.0 { 0.0 } else { p * scale };
    }
    out
}

/// Bit offset that centres the reduced mantissa on `[√½, √2)`: the bits of `√½`.
const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;

/// Per-element natural logarithm for strictly positive, normal arguments.
///
/// Arguments are clamped up to `f64::MIN_POSITIVE` (the device model never produces a
/// subnormal voltage ratio; the clamp only guards the bit decomposition).  Relative error
/// stays below `5e-9` (atanh series to `s⁹` on the reduced mantissa — remainder
/// `s¹⁰/11 ≈ 2e-9` relative, sized to the SIMD mode's accuracy budget).
#[inline(always)]
pub fn ln4(x: F64x4) -> F64x4 {
    let mut out = [0.0_f64; 4];
    for i in 0..4 {
        let x = x[i].max(f64::MIN_POSITIVE);
        // Decompose x = 2^k · m with m ∈ [√½, √2).
        let ix = x.to_bits().wrapping_sub(SQRT_HALF_BITS);
        let k = exponent_to_f64(ix);
        let m = f64::from_bits((ix & 0x000f_ffff_ffff_ffff).wrapping_add(SQRT_HALF_BITS));
        // ln m = 2·atanh(s) with s = (m−1)/(m+1), |s| ≤ 0.1716.
        let s = (m - 1.0) / (m + 1.0);
        let s2 = s * s;
        let p = 1.0 / 9.0;
        let p = mul_add(p, s2, 1.0 / 7.0);
        let p = mul_add(p, s2, 1.0 / 5.0);
        let p = mul_add(p, s2, 1.0 / 3.0);
        let p = mul_add(p, s2, 1.0);
        let ln_m = 2.0 * s * p;
        out[i] = mul_add(k, LN2_HI, mul_add(k, LN2_LO, ln_m));
    }
    out
}

/// Converts the small signed integer in the top bits of `ix` (an arithmetic-shift-by-52
/// exponent extraction) to `f64` without an `i64 → f64` conversion instruction, which
/// x86 has no packed form of below AVX-512 and which would therefore scalarize the lane
/// loop: the integer is planted in the low mantissa bits of the rounding magic constant
/// and recovered by one subtraction.
#[inline(always)]
fn exponent_to_f64(ix: u64) -> f64 {
    let k_int = ((ix as i64) >> 52) as u64;
    f64::from_bits(ROUND_MAGIC.to_bits().wrapping_add(k_int)) - ROUND_MAGIC
}

/// Streams [`exp4`] over a worklist: `out[k] = exp4(xs[k])`.
///
/// Outlined (`inline(never)`) on purpose: a loop whose body is exactly one polynomial
/// kernel is the shape the vectorizer compiles fully packed — the kernel's constants stay
/// hoisted in registers across items and successive independent items pipeline.  Inlining
/// these loops into a larger sweep function lets the compiler merge them into a body too
/// big to vectorize coherently, which measurably halves throughput.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline(never)]
pub fn exp4_batch(xs: &[F64x4], out: &mut [F64x4]) {
    assert_eq!(xs.len(), out.len());
    for (o, x) in out.iter_mut().zip(xs) {
        *o = exp4(*x);
    }
}

/// Streams [`ln4`] over a worklist: `out[k] = ln4(xs[k])`.  Outlined for the same
/// codegen reason as [`exp4_batch`].
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline(never)]
pub fn ln4_batch(xs: &[F64x4], out: &mut [F64x4]) {
    assert_eq!(xs.len(), out.len());
    for (o, x) in out.iter_mut().zip(xs) {
        *o = ln4(*x);
    }
}

/// Per-element `ln(1 + y)` for `y ≥ 0`, accurate for tiny `y`.
///
/// Uses the correction form `ln(u) · y / (u − 1)` with `u = 1 + y`, which repairs the
/// cancellation of forming `u` in one multiply; lanes where `u` rounds to exactly 1 return
/// `y` itself (the exact limit).
#[inline(always)]
pub fn ln1p4(y: F64x4) -> F64x4 {
    let mut u = [0.0_f64; 4];
    let mut d = [0.0_f64; 4];
    for i in 0..4 {
        u[i] = 1.0 + y[i];
        d[i] = u[i] - 1.0;
    }
    let ln_u = ln4(u);
    let mut out = [0.0_f64; 4];
    for i in 0..4 {
        // d == 0 ⇒ the ratio would be 0/0; select the exact small-y limit instead.
        let corrected = ln_u[i] * (y[i] / d[i]);
        out[i] = if d[i] == 0.0 { y[i] } else { corrected };
    }
    out
}

/// Per-element softplus `ln(1 + e^x)` with the same large-`x` cutoff as the scalar
/// compiled model: lanes with `x > 30` return `x` exactly (the neglected `ln(1 + e^−x)`
/// is below `1e-13`).
#[inline(always)]
pub fn softplus4(x: F64x4) -> F64x4 {
    let sp = ln1p4(exp4(x));
    let mut out = [0.0_f64; 4];
    for i in 0..4 {
        out[i] = if x[i] > 30.0 { x[i] } else { sp[i] };
    }
    out
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rel_err(approx: f64, exact: f64) -> f64 {
        (approx - exact).abs() / exact.abs().max(1e-300)
    }

    #[test]
    fn exp4_matches_libm_across_the_model_range() {
        let mut x = -60.0;
        while x <= 40.0 {
            let got = exp4(splat(x))[0];
            assert!(
                rel_err(got, x.exp()) < 1e-9,
                "exp({x}): got {got:e}, libm {:e}",
                x.exp()
            );
            x += 0.037;
        }
    }

    #[test]
    fn exp4_extremes_are_safe() {
        let out = exp4([-1000.0, 708.0, 0.0, -708.0]);
        assert_eq!(out[0], 0.0, "deep underflow is exactly zero, like libm");
        assert!(out[1].is_finite() && out[1] > 1e300);
        assert_eq!(out[2], 1.0);
        assert!(
            out[3] > 0.0 && out[3] < 1e-300,
            "−708 itself is still normal"
        );
    }

    #[test]
    fn ln4_matches_libm_across_the_model_range() {
        // Voltage ratios the model produces span tiny linear-region values to ~10.
        let mut x = 1e-12_f64;
        while x < 20.0 {
            let got = ln4(splat(x))[0];
            assert!(
                rel_err(got, x.ln()) < 5e-9,
                "ln({x:e}): got {got}, libm {}",
                x.ln()
            );
            x *= 1.11;
        }
        assert_eq!(ln4(splat(1.0))[0], 0.0);
    }

    #[test]
    fn ln1p4_handles_tiny_and_huge_arguments() {
        for y in [0.0, 1e-300, 1e-18, 1e-9, 0.5, 1.0, 1e3, 1e12] {
            let got = ln1p4(splat(y))[0];
            assert!(
                rel_err(got, y.ln_1p()) < 5e-9,
                "ln1p({y:e}): got {got:e}, libm {:e}",
                y.ln_1p()
            );
        }
        assert_eq!(ln1p4(splat(0.0))[0], 0.0);
    }

    #[test]
    fn softplus4_matches_the_scalar_cutoff_form() {
        let mut x = -50.0_f64;
        while x <= 50.0 {
            let scalar = if x > 30.0 { x } else { x.exp().ln_1p() };
            let got = softplus4(splat(x))[0];
            // Two polynomial kernels compose here, so their budgets add.
            assert!(
                rel_err(got, scalar) < 1e-8,
                "softplus({x}): got {got:e}, scalar {scalar:e}"
            );
            x += 0.173;
        }
    }

    #[test]
    fn lanes_are_independent() {
        // Lane i of a vector op must equal the same op with that lane alone — the
        // composition-independence the SIMD worklist relies on.
        let x = [-3.7, 0.42, 12.9, 29.99];
        let vec_exp = exp4(x);
        let vec_sp = softplus4(x);
        for i in 0..4 {
            assert_eq!(vec_exp[i].to_bits(), exp4(splat(x[i]))[i].to_bits());
            assert_eq!(vec_sp[i].to_bits(), softplus4(splat(x[i]))[i].to_bits());
        }
    }

    proptest! {
        #[test]
        fn prop_exp4_tracks_libm(x in -700.0_f64..700.0) {
            prop_assert!(rel_err(exp4(splat(x))[0], x.exp()) < 1e-9);
        }

        #[test]
        fn prop_ln4_tracks_libm(x in 1e-30_f64..1e3) {
            prop_assert!(rel_err(ln4(splat(x))[0], x.ln()) < 5e-9);
        }

        #[test]
        fn prop_softplus4_tracks_scalar(x in -700.0_f64..700.0) {
            let scalar = if x > 30.0 { x } else { x.exp().ln_1p() };
            prop_assert!(rel_err(softplus4(splat(x))[0], scalar) < 1e-8);
        }
    }
}
