//! Simplified virtual-source MOSFET compact model.
//!
//! The model follows the structure of the MIT virtual-source (MVS) model that the paper
//! cites for its effective-current definition: the drain current is the product of the
//! channel charge at the virtual source, the injection velocity, and a saturation function
//! of the drain voltage,
//!
//! ```text
//! Id = W · Cinv · q_ov(Vgs, Vds) · v_x0 · Fsat(Vds)
//! q_ov  = n·φt · ln(1 + exp((Vgs − Vth0 + δ·Vds) / (n·φt)))     (smooth overdrive, DIBL)
//! Fsat  = (Vds/Vdsat) / (1 + (Vds/Vdsat)^β)^(1/β)               (linear → saturation)
//! ```
//!
//! This captures subthreshold conduction, DIBL, velocity saturation and the super-linear
//! growth of delay at low `Vdd` — the physics the characterization experiments rely on —
//! while remaining cheap enough to evaluate millions of times inside the transient solver.

use serde::{Deserialize, Serialize};
use slic_units::{Amperes, Volts};

/// Thermal voltage at room temperature (300 K), in volts.
pub const THERMAL_VOLTAGE: f64 = 0.02585;

/// Transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Polarity {
    /// N-channel device (pull-down network).
    Nmos,
    /// P-channel device (pull-up network).
    Pmos,
}

/// Physical parameters of a single (unit-width) device.
///
/// All values are in SI units.  A `DeviceParams` value describes the *nominal* device of a
/// technology node; process variation is applied by
/// [`ProcessSample::apply`](crate::variation::ProcessSample::apply).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceParams {
    /// Threshold voltage magnitude at `Vds = 0` (V).
    pub vth0: f64,
    /// Drain-induced barrier lowering coefficient (V of Vth shift per V of Vds).
    pub dibl: f64,
    /// Subthreshold slope ideality factor `n` (dimensionless, ≥ 1).
    pub ss_factor: f64,
    /// Virtual-source injection velocity (m/s).
    pub vx0: f64,
    /// Effective inversion-charge capacitance per unit gate area (F/m²).
    pub cinv: f64,
    /// Device width of the unit transistor (m).
    pub width: f64,
    /// Drain saturation voltage scale (V).
    pub vdsat: f64,
    /// Saturation-transition sharpness exponent `β` (dimensionless, ≈ 1.4–2).
    pub beta_sat: f64,
    /// Gate capacitance of the unit device (F) as seen by a driving stage.
    pub gate_cap: f64,
    /// Drain junction/parasitic capacitance of the unit device (F).
    pub drain_cap: f64,
}

impl DeviceParams {
    /// Validates that all parameters are physically meaningful.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let checks: [(bool, &str); 9] = [
            (
                self.vth0 > 0.0 && self.vth0 < 1.5,
                "vth0 must be in (0, 1.5) V",
            ),
            (
                self.dibl >= 0.0 && self.dibl < 0.5,
                "dibl must be in [0, 0.5)",
            ),
            (
                self.ss_factor >= 1.0 && self.ss_factor < 3.0,
                "ss_factor must be in [1, 3)",
            ),
            (self.vx0 > 0.0, "vx0 must be positive"),
            (self.cinv > 0.0, "cinv must be positive"),
            (self.width > 0.0, "width must be positive"),
            (self.vdsat > 0.0, "vdsat must be positive"),
            (self.beta_sat >= 1.0, "beta_sat must be >= 1"),
            (
                self.gate_cap >= 0.0 && self.drain_cap >= 0.0,
                "capacitances must be non-negative",
            ),
        ];
        for (ok, msg) in checks {
            if !ok {
                return Err(msg.to_string());
            }
        }
        Ok(())
    }

    /// Returns a copy with the width scaled by `factor` (gate and drain capacitance scale
    /// along with it).  Used to build the equivalent-inverter devices of multi-input cells.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn scaled_width(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "width scale factor must be positive");
        Self {
            width: self.width * factor,
            gate_cap: self.gate_cap * factor,
            drain_cap: self.drain_cap * factor,
            ..self.clone()
        }
    }
}

/// A transistor: polarity plus parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mosfet {
    polarity: Polarity,
    params: DeviceParams,
}

impl Mosfet {
    /// Creates an N-channel device.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`DeviceParams::validate`].
    pub fn nmos(params: DeviceParams) -> Self {
        Self::new(Polarity::Nmos, params)
    }

    /// Creates a P-channel device.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`DeviceParams::validate`].
    pub fn pmos(params: DeviceParams) -> Self {
        Self::new(Polarity::Pmos, params)
    }

    /// Creates a device of the given polarity.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`DeviceParams::validate`].
    pub fn new(polarity: Polarity, params: DeviceParams) -> Self {
        #[expect(
            clippy::panic,
            reason = "baselined: invalid device parameters are a caller bug, documented under Panics"
        )]
        if let Err(msg) = params.validate() {
            panic!("invalid device parameters: {msg}");
        }
        Self { polarity, params }
    }

    /// The device polarity.
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// The device parameters.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// Returns a copy with the width scaled by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn scaled_width(&self, factor: f64) -> Self {
        Self {
            polarity: self.polarity,
            params: self.params.scaled_width(factor),
        }
    }

    /// Compiles this device for repeated raw-`f64` evaluation (the transient hot path).
    pub fn compile(&self) -> crate::compiled::CompiledDevice {
        crate::compiled::CompiledDevice::from_params(&self.params)
    }

    /// Drain current magnitude for *terminal-magnitude* voltages.
    ///
    /// `vgs` and `vds` are interpreted as the magnitudes of the gate-source and drain-source
    /// voltages in the polarity's own reference frame (i.e. pass `|Vgs|` and `|Vds|`); the
    /// returned current is always non-negative.  Negative inputs are clamped to zero, which
    /// models the device being off / in cut-off for reverse bias within the accuracy needed
    /// by the switching simulator.
    ///
    /// Delegates to [`CompiledDevice`](crate::compiled::CompiledDevice) so one-off DC
    /// evaluations and the transient solver's hoisted inner loop agree bit for bit; callers
    /// evaluating in a loop should [`compile`](Self::compile) once instead.
    pub fn drain_current(&self, vgs: Volts, vds: Volts) -> Amperes {
        Amperes(self.compile().drain_current(vgs.value(), vds.value()))
    }

    /// Saturation drain current at `Vgs = Vds = Vdd`.
    pub fn idsat(&self, vdd: Volts) -> Amperes {
        self.drain_current(vdd, vdd)
    }

    /// Effective switching current per Eq. (4) of the paper:
    /// `Ieff = [ Id(Vgs=Vdd, Vds=Vdd/2) + Id(Vgs=Vdd/2, Vds=Vdd) ] / 2`.
    pub fn ieff(&self, vdd: Volts) -> Amperes {
        let half = Volts(vdd.value() * 0.5);
        let high = self.drain_current(vdd, half);
        let low = self.drain_current(half, vdd);
        Amperes(0.5 * (high.value() + low.value()))
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn validation_accepts_reference_and_rejects_bad_values() {
        assert!(reference_params().validate().is_ok());
        let mut p = reference_params();
        p.vth0 = -0.1;
        assert!(p.validate().is_err());
        let mut p = reference_params();
        p.ss_factor = 0.5;
        assert!(p.validate().is_err());
        let mut p = reference_params();
        p.beta_sat = 0.2;
        assert!(p.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid device parameters")]
    fn constructor_panics_on_invalid_params() {
        let mut p = reference_params();
        p.vx0 = -1.0;
        let _ = Mosfet::nmos(p);
    }

    #[test]
    fn current_is_positive_and_off_at_zero_vds() {
        let m = Mosfet::nmos(reference_params());
        assert_eq!(m.drain_current(Volts(0.8), Volts(0.0)).value(), 0.0);
        assert!(m.drain_current(Volts(0.8), Volts(0.8)).value() > 0.0);
        // Negative magnitudes are clamped (device off).
        assert!(m.drain_current(Volts(-0.5), Volts(0.8)).value() < 1e-7);
    }

    #[test]
    fn current_magnitude_is_in_microampere_range() {
        let m = Mosfet::nmos(reference_params());
        let id = m.idsat(Volts(0.8)).value();
        assert!(id > 1e-6 && id < 1e-3, "Idsat = {id}");
    }

    #[test]
    fn current_increases_with_vgs_and_vds() {
        let m = Mosfet::nmos(reference_params());
        let low = m.drain_current(Volts(0.5), Volts(0.8)).value();
        let high = m.drain_current(Volts(0.8), Volts(0.8)).value();
        assert!(high > low);
        let lin = m.drain_current(Volts(0.8), Volts(0.05)).value();
        let sat = m.drain_current(Volts(0.8), Volts(0.8)).value();
        assert!(sat > lin);
    }

    #[test]
    fn current_saturates_with_vds() {
        let m = Mosfet::nmos(reference_params());
        let at_sat = m.drain_current(Volts(0.8), Volts(0.7)).value();
        let beyond = m.drain_current(Volts(0.8), Volts(0.9)).value();
        // DIBL keeps a slight increase, but it must be much less than in the linear region.
        let linear_slope = m.drain_current(Volts(0.8), Volts(0.1)).value()
            - m.drain_current(Volts(0.8), Volts(0.05)).value();
        assert!((beyond - at_sat) < linear_slope);
    }

    #[test]
    fn subthreshold_conduction_is_exponential() {
        let m = Mosfet::nmos(reference_params());
        let i1 = m.drain_current(Volts(0.10), Volts(0.8)).value();
        let i2 = m.drain_current(Volts(0.20), Volts(0.8)).value();
        // 100 mV of gate drive deep in subthreshold should give well over 10x current.
        assert!(i2 / i1 > 10.0, "ratio = {}", i2 / i1);
    }

    #[test]
    fn ieff_is_between_half_and_full_saturation_current() {
        let m = Mosfet::nmos(reference_params());
        let vdd = Volts(0.8);
        let ieff = m.ieff(vdd).value();
        let idsat = m.idsat(vdd).value();
        assert!(ieff < idsat);
        assert!(ieff > 0.2 * idsat);
    }

    #[test]
    fn width_scaling_scales_current_and_caps_linearly() {
        let m = Mosfet::nmos(reference_params());
        let m2 = m.scaled_width(2.0);
        let vdd = Volts(0.8);
        let ratio = m2.idsat(vdd).value() / m.idsat(vdd).value();
        assert!((ratio - 2.0).abs() < 1e-9);
        assert!((m2.params().gate_cap - 2.0 * m.params().gate_cap).abs() < 1e-30);
        assert!((m2.params().drain_cap - 2.0 * m.params().drain_cap).abs() < 1e-30);
    }

    #[test]
    fn polarity_helpers() {
        let m = Mosfet::pmos(reference_params());
        assert_eq!(m.polarity(), Polarity::Pmos);
        assert_eq!(m.params().vth0, reference_params().vth0);
    }

    proptest! {
        #[test]
        fn prop_current_monotone_in_vgs(vgs1 in 0.0f64..1.0, vgs2 in 0.0f64..1.0,
                                        vds in 0.05f64..1.0) {
            let m = Mosfet::nmos(reference_params());
            let (lo, hi) = if vgs1 <= vgs2 { (vgs1, vgs2) } else { (vgs2, vgs1) };
            let i_lo = m.drain_current(Volts(lo), Volts(vds)).value();
            let i_hi = m.drain_current(Volts(hi), Volts(vds)).value();
            prop_assert!(i_hi >= i_lo - 1e-18);
        }

        #[test]
        fn prop_current_monotone_in_vds(vds1 in 0.0f64..1.0, vds2 in 0.0f64..1.0,
                                        vgs in 0.0f64..1.0) {
            let m = Mosfet::nmos(reference_params());
            let (lo, hi) = if vds1 <= vds2 { (vds1, vds2) } else { (vds2, vds1) };
            let i_lo = m.drain_current(Volts(vgs), Volts(lo)).value();
            let i_hi = m.drain_current(Volts(vgs), Volts(hi)).value();
            prop_assert!(i_hi >= i_lo - 1e-18);
        }

        #[test]
        fn prop_ieff_scales_with_width(factor in 0.25f64..8.0, vdd in 0.6f64..1.0) {
            let m = Mosfet::nmos(reference_params());
            let scaled = m.scaled_width(factor);
            let r = scaled.ieff(Volts(vdd)).value() / m.ieff(Volts(vdd)).value();
            prop_assert!((r - factor).abs() < 1e-6 * factor);
        }

        #[test]
        fn prop_current_finite(vgs in -0.5f64..1.5, vds in -0.5f64..1.5) {
            let m = Mosfet::nmos(reference_params());
            prop_assert!(m.drain_current(Volts(vgs), Volts(vds)).value().is_finite());
        }
    }
}
