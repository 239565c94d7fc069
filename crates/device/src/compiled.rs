//! Pre-compiled device models for the transient hot path.
//!
//! [`Mosfet::drain_current`](crate::mosfet::Mosfet::drain_current) is evaluated millions of
//! times per characterization campaign, and most of what it computes per call is constant
//! for the lifetime of one simulation: `n·φt` and its reciprocal, `1/Vdsat`, `β` and `1/β`,
//! and the current prefactor `W·Cinv·v_x0`.  A [`CompiledDevice`] hoists those constants out
//! of the inner loop once, evaluates on raw `f64` (no unit-wrapper round-trips), and
//! replaces the two `powf` calls of the saturation function with a single `ln`/`exp` pair:
//!
//! ```text
//! Fsat = r · (1 + r^β)^(−1/β)  with  r = Vds/Vdsat
//!      = r · exp(−ln(1 + exp(β·ln r)) / β)
//! ```
//!
//! computed stably for both `r → 0` (the inner `exp` underflows to 0 and `Fsat → r`) and
//! large `r` (for `β·ln r > 30` the log-sum collapses to `β·ln r` and `Fsat → 1`).  The
//! compiled form is the *definition* of the model: [`Mosfet::drain_current`] delegates here,
//! so DC evaluations and the transient solver agree bit for bit.
//!
//! [`CompiledInverter`] pairs the pull-up and pull-down compiled devices of an equivalent
//! inverter so the transient solver's derivative callback is a single call.

use crate::mosfet::{DeviceParams, Mosfet, THERMAL_VOLTAGE};
use crate::vmath;
use crate::vmath::{exp4, ln4, softplus4, F64x4};

/// A device model with all per-simulation constants hoisted, evaluated on raw `f64` volts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledDevice {
    /// Current prefactor `W·Cinv·v_x0` (A/V, multiplies the overdrive charge in volts).
    gain: f64,
    /// Threshold voltage at `Vds = 0` (V).
    vth0: f64,
    /// DIBL coefficient (V/V).
    dibl: f64,
    /// Subthreshold swing voltage `n·φt` (V).
    n_phit: f64,
    /// Reciprocal of `n·φt` (1/V).
    inv_n_phit: f64,
    /// Reciprocal of the saturation voltage (1/V).
    inv_vdsat: f64,
    /// Saturation sharpness exponent `β`.
    beta_sat: f64,
    /// Reciprocal of `β`.
    inv_beta_sat: f64,
}

impl CompiledDevice {
    /// Compiles raw device parameters.
    ///
    /// The parameters are assumed valid (see [`DeviceParams::validate`]); [`Mosfet`]
    /// guarantees this for any device it hands out.
    pub fn from_params(p: &DeviceParams) -> Self {
        let n_phit = p.ss_factor * THERMAL_VOLTAGE;
        Self {
            gain: p.width * p.cinv * p.vx0,
            vth0: p.vth0,
            dibl: p.dibl,
            n_phit,
            inv_n_phit: 1.0 / n_phit,
            inv_vdsat: 1.0 / p.vdsat,
            beta_sat: p.beta_sat,
            inv_beta_sat: 1.0 / p.beta_sat,
        }
    }

    /// Compiles a device (polarity is irrelevant: both polarities evaluate on terminal
    /// magnitudes).
    pub fn new(device: &Mosfet) -> Self {
        Self::from_params(device.params())
    }

    /// Drain current magnitude in amperes for terminal-magnitude voltages in volts.
    ///
    /// Semantics match [`Mosfet::drain_current`]: negative inputs clamp to zero (device in
    /// cut-off), `vds == 0` returns exactly zero.
    #[inline]
    pub fn drain_current(&self, vgs: f64, vds: f64) -> f64 {
        let vgs = vgs.max(0.0);
        let vds = vds.max(0.0);
        if vds == 0.0 {
            return 0.0;
        }
        // Smooth overdrive with DIBL: ln(1 + e^x) computed stably for large x.
        let vth_eff = self.vth0 - self.dibl * vds;
        let x = (vgs - vth_eff) * self.inv_n_phit;
        let q_ov = self.n_phit * if x > 30.0 { x } else { x.exp().ln_1p() };
        // Saturation function via one ln/exp pair; see the module docs for the stability
        // argument at both ends of the r range.
        let r = vds * self.inv_vdsat;
        let t = self.beta_sat * r.ln();
        let log_denom = if t > 30.0 { t } else { t.exp().ln_1p() };
        let fsat = r * (-log_denom * self.inv_beta_sat).exp();
        self.gain * q_ov * fsat
    }
}

/// Four [`CompiledDevice`]s packed structure-of-arrays, evaluated one lane per vector
/// element.
///
/// `drain_current4` performs exactly the arithmetic of the scalar
/// [`CompiledDevice::drain_current`] but routes every transcendental through the
/// fixed-polynomial kernels of [`crate::vmath`], so the four lanes vectorize.  The results
/// are *numerically equivalent* to the scalar path (relative error below `5e-8`), not
/// bitwise identical — which is why the SIMD kernel is opt-in and carries an accuracy gate
/// instead of the scalar path's bitwise guarantee.  Each output lane depends only on its
/// own input lane, so values are independent of quad composition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledDeviceX4 {
    gain: F64x4,
    vth0: F64x4,
    dibl: F64x4,
    n_phit: F64x4,
    inv_n_phit: F64x4,
    inv_vdsat: F64x4,
    beta_sat: F64x4,
    inv_beta_sat: F64x4,
}

impl CompiledDeviceX4 {
    /// Packs four compiled devices, lane `i` evaluating `devices[i]`.
    pub fn pack(devices: [&CompiledDevice; 4]) -> Self {
        Self {
            gain: devices.map(|d| d.gain),
            vth0: devices.map(|d| d.vth0),
            dibl: devices.map(|d| d.dibl),
            n_phit: devices.map(|d| d.n_phit),
            inv_n_phit: devices.map(|d| d.inv_n_phit),
            inv_vdsat: devices.map(|d| d.inv_vdsat),
            beta_sat: devices.map(|d| d.beta_sat),
            inv_beta_sat: devices.map(|d| d.inv_beta_sat),
        }
    }

    /// Four lanes of drain-current magnitude; lane `i` follows the semantics of
    /// [`CompiledDevice::drain_current`] for `(vgs[i], vds[i])`.
    ///
    /// The scalar path's `vds == 0` early return is subsumed by the arithmetic: the
    /// saturation function carries a factor `r = vds/Vdsat`, which is exactly zero there
    /// (the guarded `ln` of zero is clamped, stays finite, and is then multiplied away).
    #[inline(always)]
    pub fn drain_current4(&self, vgs: F64x4, vds: F64x4) -> F64x4 {
        let mut x = [0.0_f64; 4];
        let mut r = [0.0_f64; 4];
        for i in 0..4 {
            let vgs_i = vgs[i].max(0.0);
            let vds_i = vds[i].max(0.0);
            // Smooth overdrive argument with DIBL: (vgs − vth_eff) / nφt.
            x[i] = (vgs_i - self.vth0[i] + self.dibl[i] * vds_i) * self.inv_n_phit[i];
            r[i] = vds_i * self.inv_vdsat[i];
        }
        let q_ov = softplus4(x);
        let ln_r = ln4(r);
        let mut t = [0.0_f64; 4];
        for i in 0..4 {
            t[i] = self.beta_sat[i] * ln_r[i];
        }
        let log_denom = softplus4(t);
        let mut arg = [0.0_f64; 4];
        for i in 0..4 {
            arg[i] = -log_denom[i] * self.inv_beta_sat[i];
        }
        let fsat_over_r = exp4(arg);
        let mut out = [0.0_f64; 4];
        for i in 0..4 {
            out[i] = self.gain[i] * (self.n_phit[i] * q_ov[i]) * (r[i] * fsat_over_r[i]);
        }
        out
    }
}

/// The compiled pull-up/pull-down pair of an equivalent inverter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledInverter {
    pmos: CompiledDevice,
    nmos: CompiledDevice,
}

impl CompiledInverter {
    /// Compiles the two devices of an equivalent inverter.
    pub fn new(pmos: &Mosfet, nmos: &Mosfet) -> Self {
        Self {
            pmos: CompiledDevice::new(pmos),
            nmos: CompiledDevice::new(nmos),
        }
    }

    /// The compiled pull-up device.
    pub fn pmos(&self) -> &CompiledDevice {
        &self.pmos
    }

    /// The compiled pull-down device.
    pub fn nmos(&self) -> &CompiledDevice {
        &self.nmos
    }

    /// Net current charging the output node: `I_pmos − I_nmos` in amperes, for supply
    /// `vdd`, input voltage `vin` and output voltage `vout` (all in volts).
    #[inline]
    pub fn output_current(&self, vdd: f64, vin: f64, vout: f64) -> f64 {
        self.pmos.drain_current(vdd - vin, vdd - vout) - self.nmos.drain_current(vin, vout)
    }
}

/// Four [`CompiledInverter`]s packed structure-of-arrays — the SIMD quad's device model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledInverterX4 {
    pmos: CompiledDeviceX4,
    nmos: CompiledDeviceX4,
}

impl CompiledInverterX4 {
    /// Packs four compiled inverters, lane `i` evaluating `inverters[i]`.
    pub fn pack(inverters: [&CompiledInverter; 4]) -> Self {
        Self {
            pmos: CompiledDeviceX4::pack(inverters.map(|inv| &inv.pmos)),
            nmos: CompiledDeviceX4::pack(inverters.map(|inv| &inv.nmos)),
        }
    }

    /// The packed pull-up quad.
    pub fn pmos4(&self) -> &CompiledDeviceX4 {
        &self.pmos
    }

    /// The packed pull-down quad.
    pub fn nmos4(&self) -> &CompiledDeviceX4 {
        &self.nmos
    }
}

/// Reusable intermediate buffers for [`drain_current4_batch`].
///
/// The sweep streams the whole worklist through each stage of the device model in turn
/// (see [`drain_current4_batch`]), so it needs per-item staging arrays between passes.
/// Callers keep one `SweepScratch` alive across sweeps; the buffers are resized (never
/// shrunk below capacity) so steady-state sweeps allocate nothing.
#[derive(Debug, Default)]
pub struct SweepScratch {
    x: Vec<F64x4>,
    r: Vec<F64x4>,
    e: Vec<F64x4>,
    u: Vec<F64x4>,
    l: Vec<F64x4>,
    t: Vec<F64x4>,
}

/// Evaluates a gather of packed device quads at per-item operating points in one call:
/// `out[k] = devices[idx[k]].drain_current4(vgs[k], vds[k])`, bit for bit.
///
/// This is the SIMD worklist's hot primitive.  Instead of evaluating the model
/// item-by-item, it streams the *whole worklist* through the model one stage at a time —
/// operating-point glue, then [`vmath::exp4_batch`]/[`vmath::ln4_batch`] passes for each
/// transcendental, then the combine — with intermediates staged in `scratch`.  Each pass
/// is a tiny loop over contiguous `[f64; 4]` items, which is the shape the vectorizer
/// compiles fully packed; fusing the model into one loop body (the obvious structure)
/// exceeds the vectorizer's budget and silently degrades half the arithmetic to scalar
/// code.  Per lane the arithmetic is exactly [`CompiledDeviceX4::drain_current4`]'s ops
/// in dataflow order, so the results are bitwise identical to the per-item form.
///
/// # Panics
///
/// Panics if the slice lengths differ or an index is out of bounds.
pub fn drain_current4_batch(
    devices: &[CompiledDeviceX4],
    idx: &[u32],
    vgs: &[F64x4],
    vds: &[F64x4],
    scratch: &mut SweepScratch,
    out: &mut [F64x4],
) {
    let n = idx.len();
    assert_eq!(n, vgs.len());
    assert_eq!(n, vds.len());
    assert_eq!(n, out.len());
    let SweepScratch { x, r, e, u, l, t } = scratch;
    let zero = [0.0_f64; 4];
    x.resize(n, zero);
    r.resize(n, zero);
    e.resize(n, zero);
    u.resize(n, zero);
    l.resize(n, zero);
    t.resize(n, zero);
    let (x, r, e, u, l, t) = (
        &mut x[..n],
        &mut r[..n],
        &mut e[..n],
        &mut u[..n],
        &mut l[..n],
        &mut t[..n],
    );
    // Operating point: clamp terminals, overdrive argument x, saturation ratio r.
    for k in 0..n {
        let d = &devices[idx[k] as usize];
        for i in 0..4 {
            let vgs_i = vgs[k][i].max(0.0);
            let vds_i = vds[k][i].max(0.0);
            x[k][i] = (vgs_i - d.vth0[i] + d.dibl[i] * vds_i) * d.inv_n_phit[i];
            r[k][i] = vds_i * d.inv_vdsat[i];
        }
    }
    // q_ov/nφt = softplus(x), decomposed into vmath's exact ops: e = eˣ, u = 1 + e,
    // l = ln u, then the tiny-argument correction and the large-x cutoff.  x is
    // overwritten with the result once the cutoff no longer needs it.
    vmath::exp4_batch(x, e);
    for k in 0..n {
        for i in 0..4 {
            u[k][i] = 1.0 + e[k][i];
        }
    }
    vmath::ln4_batch(u, l);
    for k in 0..n {
        for i in 0..4 {
            let d = u[k][i] - 1.0;
            let corrected = l[k][i] * (e[k][i] / d);
            let sp = if d == 0.0 { e[k][i] } else { corrected };
            x[k][i] = if x[k][i] > 30.0 { x[k][i] } else { sp };
        }
    }
    // log_denom = softplus(β·ln r), same decomposition; t carries β·ln r for the cutoff
    // and is then overwritten with the exponential's argument −log_denom/β.
    vmath::ln4_batch(r, l);
    for k in 0..n {
        let d = &devices[idx[k] as usize];
        for i in 0..4 {
            t[k][i] = d.beta_sat[i] * l[k][i];
        }
    }
    vmath::exp4_batch(t, e);
    for k in 0..n {
        for i in 0..4 {
            u[k][i] = 1.0 + e[k][i];
        }
    }
    vmath::ln4_batch(u, l);
    for k in 0..n {
        let dv = &devices[idx[k] as usize];
        for i in 0..4 {
            let d = u[k][i] - 1.0;
            let corrected = l[k][i] * (e[k][i] / d);
            let sp = if d == 0.0 { e[k][i] } else { corrected };
            let log_denom = if t[k][i] > 30.0 { t[k][i] } else { sp };
            t[k][i] = -log_denom * dv.inv_beta_sat[i];
        }
    }
    vmath::exp4_batch(t, e);
    // Combine: I = gain · (nφt · q_ov) · (r · Fsat/r).
    for k in 0..n {
        let d = &devices[idx[k] as usize];
        for i in 0..4 {
            out[k][i] = d.gain[i] * (d.n_phit[i] * x[k][i]) * (r[k][i] * e[k][i]);
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;
    use crate::mosfet::Mosfet;
    use proptest::prelude::*;
    use slic_units::Volts;

    fn reference_params() -> DeviceParams {
        DeviceParams {
            vth0: 0.32,
            dibl: 0.08,
            ss_factor: 1.25,
            vx0: 8.5e4,
            cinv: 1.6e-2,
            width: 2.0e-7,
            vdsat: 0.22,
            beta_sat: 1.8,
            gate_cap: 0.35e-15,
            drain_cap: 0.22e-15,
        }
    }

    /// The original (pre-compilation) drain-current expression, kept verbatim as the
    /// numerical reference for the hoisted form.
    fn drain_current_reference(p: &DeviceParams, vgs: f64, vds: f64) -> f64 {
        let vgs = vgs.max(0.0);
        let vds = vds.max(0.0);
        if vds == 0.0 {
            return 0.0;
        }
        let n_phit = p.ss_factor * THERMAL_VOLTAGE;
        let vth_eff = p.vth0 - p.dibl * vds;
        let x = (vgs - vth_eff) / n_phit;
        let q_ov = n_phit * if x > 30.0 { x } else { x.exp().ln_1p() };
        let ratio = vds / p.vdsat;
        let fsat = ratio / (1.0 + ratio.powf(p.beta_sat)).powf(1.0 / p.beta_sat);
        p.width * p.cinv * q_ov * p.vx0 * fsat
    }

    #[test]
    fn compiled_matches_reference_expression_to_rounding() {
        let p = reference_params();
        let c = CompiledDevice::from_params(&p);
        for vgs in [0.0, 0.05, 0.2, 0.32, 0.5, 0.8, 1.2] {
            for vds in [1e-6, 1e-3, 0.05, 0.22, 0.5, 0.8, 1.2] {
                let reference = drain_current_reference(&p, vgs, vds);
                let compiled = c.drain_current(vgs, vds);
                let scale = reference.abs().max(1e-30);
                assert!(
                    (compiled - reference).abs() / scale < 1e-12,
                    "vgs={vgs} vds={vds}: compiled={compiled:e} reference={reference:e}"
                );
            }
        }
    }

    #[test]
    fn mosfet_api_delegates_to_compiled_form() {
        let m = Mosfet::nmos(reference_params());
        let c = CompiledDevice::new(&m);
        for (vgs, vds) in [(0.8, 0.8), (0.4, 0.1), (0.1, 0.9), (-0.2, 0.5)] {
            assert_eq!(
                m.drain_current(Volts(vgs), Volts(vds)).value(),
                c.drain_current(vgs, vds),
                "API and compiled paths must agree bit for bit at ({vgs}, {vds})"
            );
        }
    }

    #[test]
    fn cutoff_and_zero_vds_edges() {
        let c = CompiledDevice::from_params(&reference_params());
        assert_eq!(c.drain_current(0.8, 0.0), 0.0);
        assert_eq!(c.drain_current(-1.0, 0.0), 0.0);
        assert!(c.drain_current(-1.0, 0.8) < 1e-7);
        // Deep-linear region stays finite and ~proportional to vds.
        let tiny = c.drain_current(0.8, 1e-9);
        assert!(tiny.is_finite() && tiny > 0.0);
    }

    #[test]
    fn inverter_pair_is_pmos_minus_nmos() {
        let pm = Mosfet::pmos(reference_params());
        let nm = Mosfet::nmos(reference_params());
        let inv = CompiledInverter::new(&pm, &nm);
        let (vdd, vin, vout) = (0.8, 0.3, 0.5);
        let expected =
            inv.pmos().drain_current(vdd - vin, vdd - vout) - inv.nmos().drain_current(vin, vout);
        assert_eq!(inv.output_current(vdd, vin, vout), expected);
        // Input low: pull-up wins; input high: pull-down wins.
        assert!(inv.output_current(0.8, 0.0, 0.4) > 0.0);
        assert!(inv.output_current(0.8, 0.8, 0.4) < 0.0);
    }

    /// Tolerance of the SIMD lanes against the scalar compiled model: the polynomial
    /// kernels are sized to ~1e-9 relative (see `vmath`), and composition through the
    /// model stays within ~5e-8 — five orders below the SIMD mode's 0.5 % gate.
    const X4_TOLERANCE: f64 = 5e-8;

    fn x4_matches_scalar(c: &CompiledDevice, vgs: f64, vds: f64) {
        let packed = CompiledDeviceX4::pack([c; 4]);
        let got = packed.drain_current4([vgs; 4], [vds; 4]);
        let scalar = c.drain_current(vgs, vds);
        for (lane, value) in got.iter().enumerate() {
            let scale = scalar.abs().max(1e-30);
            assert!(
                (value - scalar).abs() / scale < X4_TOLERANCE,
                "lane {lane} at vgs={vgs} vds={vds}: simd={value:e} scalar={scalar:e}"
            );
        }
    }

    #[test]
    fn simd_device_tracks_scalar_across_the_operating_range() {
        let c = CompiledDevice::from_params(&reference_params());
        for vgs in [-0.2, 0.0, 0.05, 0.2, 0.32, 0.5, 0.8, 1.2] {
            for vds in [0.0, 1e-9, 1e-3, 0.05, 0.22, 0.5, 0.8, 1.2] {
                x4_matches_scalar(&c, vgs, vds);
            }
        }
    }

    #[test]
    fn simd_device_is_exactly_zero_at_zero_vds() {
        let c = CompiledDevice::from_params(&reference_params());
        let packed = CompiledDeviceX4::pack([&c; 4]);
        let out = packed.drain_current4([0.8; 4], [0.0, -0.3, 0.0, 0.0]);
        assert_eq!(out, [0.0; 4], "vds ≤ 0 lanes must be exactly zero");
    }

    #[test]
    fn simd_lanes_evaluate_distinct_devices_independently() {
        // Four different devices in one quad: each lane must match its own scalar model,
        // regardless of what shares the quad.
        let mut params = [
            reference_params(),
            reference_params(),
            reference_params(),
            reference_params(),
        ];
        params[1].vth0 = 0.25;
        params[2].width = 3.3e-7;
        params[3].beta_sat = 2.4;
        let devices = params.map(|p| CompiledDevice::from_params(&p));
        let packed = CompiledDeviceX4::pack([&devices[0], &devices[1], &devices[2], &devices[3]]);
        let vgs = [0.7, 0.4, 0.9, 0.55];
        let vds = [0.3, 0.8, 0.05, 0.6];
        let got = packed.drain_current4(vgs, vds);
        for i in 0..4 {
            let scalar = devices[i].drain_current(vgs[i], vds[i]);
            let scale = scalar.abs().max(1e-30);
            assert!(
                (got[i] - scalar).abs() / scale < X4_TOLERANCE,
                "lane {i}: simd={:e} scalar={scalar:e}",
                got[i]
            );
        }
    }

    #[test]
    fn simd_inverter_tracks_scalar_pair() {
        let pm = Mosfet::pmos(reference_params());
        let nm = Mosfet::nmos(reference_params());
        let inv = CompiledInverter::new(&pm, &nm);
        let packed = CompiledInverterX4::pack([&inv; 4]);
        for (vdd, vin, vout) in [(0.8, 0.3, 0.5), (1.0, 0.0, 0.9), (0.65, 0.65, 0.1)] {
            // The quad kernel's net current: pull-up minus pull-down, lane by lane.
            let up = packed
                .pmos4()
                .drain_current4([vdd - vin; 4], [vdd - vout; 4]);
            let down = packed.nmos4().drain_current4([vin; 4], [vout; 4]);
            let got: Vec<f64> = up.iter().zip(down).map(|(up, down)| up - down).collect();
            let scalar = inv.output_current(vdd, vin, vout);
            let scale = scalar.abs().max(1e-30);
            for value in got {
                assert!(
                    (value - scalar).abs() / scale < X4_TOLERANCE,
                    "({vdd}, {vin}, {vout}): simd={value:e} scalar={scalar:e}"
                );
            }
        }
    }

    #[test]
    fn batch_sweep_is_bitwise_identical_to_per_item_evaluation() {
        let mut params = [reference_params(), reference_params(), reference_params()];
        params[1].vth0 = 0.26;
        params[2].beta_sat = 2.2;
        let compiled = params.map(|p| CompiledDevice::from_params(&p));
        let devices: Vec<CompiledDeviceX4> = compiled
            .iter()
            .map(|c| CompiledDeviceX4::pack([c; 4]))
            .collect();
        // Varied operating points including the edge lanes (vds = 0, cut-off, deep linear).
        let idx: Vec<u32> = vec![0, 2, 1, 0, 2, 1, 0];
        let vgs: Vec<F64x4> = vec![
            [0.8, 0.4, -0.2, 1.2],
            [0.0, 0.7, 0.32, 0.9],
            [0.55, 0.05, 0.8, 0.65],
            [1.0, 0.2, 0.45, 0.3],
            [0.8, 0.8, 0.8, 0.8],
            [0.15, 0.95, 0.6, 0.75],
            [0.5, 0.5, 0.0, 1.1],
        ];
        let vds: Vec<F64x4> = vec![
            [0.3, 0.0, 0.5, 1.2],
            [0.8, 1e-9, 0.22, 0.4],
            [0.05, 0.6, 0.9, 0.1],
            [1e-3, 0.7, 0.0, 0.25],
            [0.2, 0.4, 0.6, 0.8],
            [0.45, 0.33, 1.0, 0.08],
            [0.6, 0.12, 0.7, 0.9],
        ];
        let mut scratch = SweepScratch::default();
        let mut out = vec![[0.0_f64; 4]; idx.len()];
        drain_current4_batch(&devices, &idx, &vgs, &vds, &mut scratch, &mut out);
        for k in 0..idx.len() {
            let direct = devices[idx[k] as usize].drain_current4(vgs[k], vds[k]);
            for i in 0..4 {
                assert_eq!(
                    out[k][i].to_bits(),
                    direct[i].to_bits(),
                    "item {k} lane {i}: sweep {:e} vs per-item {:e}",
                    out[k][i],
                    direct[i]
                );
            }
        }
        // A second sweep through the same scratch (now warm) must agree too.
        let mut out2 = vec![[0.0_f64; 4]; idx.len()];
        drain_current4_batch(&devices, &idx, &vgs, &vds, &mut scratch, &mut out2);
        assert_eq!(out, out2);
    }

    proptest! {
        #[test]
        fn prop_simd_device_tracks_scalar(vgs in -0.5f64..1.5, vds in 0.0f64..1.5) {
            let c = CompiledDevice::from_params(&reference_params());
            x4_matches_scalar(&c, vgs, vds);
        }

        #[test]
        fn prop_compiled_tracks_reference(vgs in -0.5f64..1.5, vds in 0.0f64..1.5) {
            let p = reference_params();
            let c = CompiledDevice::from_params(&p);
            let reference = drain_current_reference(&p, vgs, vds);
            let compiled = c.drain_current(vgs, vds);
            let scale = reference.abs().max(1e-30);
            prop_assert!((compiled - reference).abs() / scale < 1e-11);
        }

        #[test]
        fn prop_compiled_current_finite_and_nonnegative(vgs in -1.0f64..2.0, vds in -1.0f64..2.0) {
            let c = CompiledDevice::from_params(&reference_params());
            let id = c.drain_current(vgs, vds);
            prop_assert!(id.is_finite() && id >= 0.0);
        }
    }
}
