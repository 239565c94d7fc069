//! Process-variation model and Monte Carlo seeds.
//!
//! Statistical library characterization needs an ensemble of "process seeds": each seed is
//! one realization of the manufacturing variation of a die, and simulating the same cell at
//! the same input condition across seeds yields the delay / slew distributions that the
//! paper's statistical flow reconstructs.
//!
//! The model used here separates, per polarity, a **global** (inter-die) component shared
//! by every device of that polarity and a **local** (mismatch) component drawn per device
//! family.  Four parameters are perturbed: threshold voltage (additive, the dominant term),
//! injection velocity, inversion capacitance and DIBL (all multiplicative).  This mirrors
//! the dominant variation sources of real FinFET/planar kits at the level of fidelity the
//! characterization experiments need.

use crate::mosfet::{DeviceParams, Polarity};
use rand::Rng;
use rand_distr::{Distribution, StandardNormal};
use serde::{Deserialize, Serialize};

/// Magnitudes (1σ) of the variation sources of a technology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessVariation {
    /// Global threshold-voltage variation (V, additive).
    pub vth_sigma_global: f64,
    /// Local (mismatch) threshold-voltage variation (V, additive).
    pub vth_sigma_local: f64,
    /// Relative injection-velocity variation (fraction, multiplicative).
    pub vx0_sigma_frac: f64,
    /// Relative inversion-capacitance variation (fraction, multiplicative).
    pub cinv_sigma_frac: f64,
    /// Relative DIBL variation (fraction, multiplicative).
    pub dibl_sigma_frac: f64,
}

impl ProcessVariation {
    /// Creates a variation description.
    ///
    /// # Panics
    ///
    /// Panics if any σ is negative or any relative σ is ≥ 1 (a full standard deviation must
    /// not be able to drive a multiplicative parameter negative in the linearized model).
    pub fn new(
        vth_sigma_global: f64,
        vth_sigma_local: f64,
        vx0_sigma_frac: f64,
        cinv_sigma_frac: f64,
        dibl_sigma_frac: f64,
    ) -> Self {
        assert!(
            vth_sigma_global >= 0.0 && vth_sigma_local >= 0.0,
            "vth sigmas must be non-negative"
        );
        assert!(
            (0.0..1.0).contains(&vx0_sigma_frac)
                && (0.0..1.0).contains(&cinv_sigma_frac)
                && (0.0..1.0).contains(&dibl_sigma_frac),
            "relative sigmas must be in [0, 1)"
        );
        Self {
            vth_sigma_global,
            vth_sigma_local,
            vx0_sigma_frac,
            cinv_sigma_frac,
            dibl_sigma_frac,
        }
    }

    /// A variation model with every σ set to zero (useful for nominal-only flows).
    pub fn none() -> Self {
        Self {
            vth_sigma_global: 0.0,
            vth_sigma_local: 0.0,
            vx0_sigma_frac: 0.0,
            cinv_sigma_frac: 0.0,
            dibl_sigma_frac: 0.0,
        }
    }

    /// Total threshold-voltage σ (global and local added in quadrature).
    pub fn vth_sigma_total(&self) -> f64 {
        (self.vth_sigma_global.powi(2) + self.vth_sigma_local.powi(2)).sqrt()
    }

    /// Draws one process seed.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> ProcessSample {
        let mut normal = || -> f64 { StandardNormal.sample(rng) };
        let global_vth = normal();
        let global_vx0 = normal();
        let global_cinv = normal();
        ProcessSample {
            delta_vth_n: global_vth * self.vth_sigma_global + normal() * self.vth_sigma_local,
            delta_vth_p: global_vth * self.vth_sigma_global + normal() * self.vth_sigma_local,
            vx0_scale_n: (1.0 + global_vx0 * self.vx0_sigma_frac).max(0.05),
            vx0_scale_p: (1.0 + (0.7 * global_vx0 + 0.3 * normal()) * self.vx0_sigma_frac)
                .max(0.05),
            cinv_scale: (1.0 + global_cinv * self.cinv_sigma_frac).max(0.05),
            dibl_scale_n: (1.0 + normal() * self.dibl_sigma_frac).max(0.0),
            dibl_scale_p: (1.0 + normal() * self.dibl_sigma_frac).max(0.0),
        }
    }

    /// Draws `n` process seeds.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<ProcessSample> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

impl Default for ProcessVariation {
    fn default() -> Self {
        // Representative of an advanced planar/FinFET node.
        Self::new(0.018, 0.012, 0.05, 0.02, 0.08)
    }
}

/// One realization of process variation — a "seed" of the Monte Carlo flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessSample {
    /// Additive NMOS threshold shift (V).
    pub delta_vth_n: f64,
    /// Additive PMOS threshold shift (V).
    pub delta_vth_p: f64,
    /// Multiplicative NMOS injection-velocity scale.
    pub vx0_scale_n: f64,
    /// Multiplicative PMOS injection-velocity scale.
    pub vx0_scale_p: f64,
    /// Multiplicative inversion-capacitance scale (shared by both polarities — it tracks
    /// gate-stack thickness which is common to NMOS and PMOS).
    pub cinv_scale: f64,
    /// Multiplicative NMOS DIBL scale.
    pub dibl_scale_n: f64,
    /// Multiplicative PMOS DIBL scale.
    pub dibl_scale_p: f64,
}

impl ProcessSample {
    /// The nominal (no-variation) sample.
    pub fn nominal() -> Self {
        Self {
            delta_vth_n: 0.0,
            delta_vth_p: 0.0,
            vx0_scale_n: 1.0,
            vx0_scale_p: 1.0,
            cinv_scale: 1.0,
            dibl_scale_n: 1.0,
            dibl_scale_p: 1.0,
        }
    }

    /// Applies the seed to nominal device parameters of the given polarity.
    ///
    /// The threshold floor of 1 mV keeps the perturbed device physically valid even for
    /// extreme (>5σ) draws.
    pub fn apply(&self, nominal: &DeviceParams, polarity: Polarity) -> DeviceParams {
        let (dvth, vx0_scale, dibl_scale) = match polarity {
            Polarity::Nmos => (self.delta_vth_n, self.vx0_scale_n, self.dibl_scale_n),
            Polarity::Pmos => (self.delta_vth_p, self.vx0_scale_p, self.dibl_scale_p),
        };
        DeviceParams {
            vth0: (nominal.vth0 + dvth).max(1e-3),
            dibl: (nominal.dibl * dibl_scale).clamp(0.0, 0.49),
            vx0: nominal.vx0 * vx0_scale,
            cinv: nominal.cinv * self.cinv_scale,
            ..nominal.clone()
        }
    }
}

impl Default for ProcessSample {
    fn default() -> Self {
        Self::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::Mosfet;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use slic_units::Volts;

    fn nominal_device() -> DeviceParams {
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
    fn nominal_sample_is_identity() {
        let seed = ProcessSample::nominal();
        let dev = seed.apply(&nominal_device(), Polarity::Nmos);
        assert_eq!(dev, nominal_device());
    }

    #[test]
    fn default_sample_is_nominal() {
        assert_eq!(ProcessSample::default(), ProcessSample::nominal());
    }

    #[test]
    fn sampled_seeds_have_expected_spread() {
        let var = ProcessVariation::default();
        let mut rng = StdRng::seed_from_u64(101);
        let seeds = var.sample_n(&mut rng, 4000);
        let dvth: Vec<f64> = seeds.iter().map(|s| s.delta_vth_n).collect();
        let mean = slic_mean(&dvth);
        let sd = slic_std(&dvth);
        assert!(mean.abs() < 2e-3, "mean = {mean}");
        let expected = var.vth_sigma_total();
        assert!((sd - expected).abs() / expected < 0.1, "sd = {sd}");
    }

    #[test]
    fn nmos_and_pmos_thresholds_are_correlated_but_not_identical() {
        let var = ProcessVariation::default();
        let mut rng = StdRng::seed_from_u64(5);
        let seeds = var.sample_n(&mut rng, 4000);
        let n: Vec<f64> = seeds.iter().map(|s| s.delta_vth_n).collect();
        let p: Vec<f64> = seeds.iter().map(|s| s.delta_vth_p).collect();
        let corr = slic_corr(&n, &p);
        assert!(corr > 0.3 && corr < 0.99, "corr = {corr}");
    }

    #[test]
    fn applying_positive_vth_shift_reduces_current() {
        let base = Mosfet::nmos(nominal_device());
        let mut seed = ProcessSample::nominal();
        seed.delta_vth_n = 0.05;
        let slow = Mosfet::nmos(seed.apply(&nominal_device(), Polarity::Nmos));
        assert!(slow.ieff(Volts(0.8)).value() < base.ieff(Volts(0.8)).value());
    }

    #[test]
    fn zero_variation_produces_nominal_seeds() {
        let var = ProcessVariation::none();
        let mut rng = StdRng::seed_from_u64(1);
        let seed = var.sample(&mut rng);
        assert!((seed.delta_vth_n).abs() < 1e-15);
        assert!((seed.vx0_scale_n - 1.0).abs() < 1e-15);
        assert!((seed.cinv_scale - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "relative sigmas")]
    fn invalid_relative_sigma_rejected() {
        let _ = ProcessVariation::new(0.01, 0.01, 1.5, 0.02, 0.05);
    }

    #[test]
    fn extreme_seed_still_produces_valid_device() {
        let mut seed = ProcessSample::nominal();
        seed.delta_vth_n = -0.5; // would push vth negative without the floor
        seed.dibl_scale_n = 10.0; // would exceed the dibl cap without the clamp
        let dev = seed.apply(&nominal_device(), Polarity::Nmos);
        assert!(dev.validate().is_ok());
    }

    fn slic_mean(v: &[f64]) -> f64 {
        v.iter().sum::<f64>() / v.len() as f64
    }

    fn slic_std(v: &[f64]) -> f64 {
        let m = slic_mean(v);
        (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (v.len() - 1) as f64).sqrt()
    }

    fn slic_corr(a: &[f64], b: &[f64]) -> f64 {
        let ma = slic_mean(a);
        let mb = slic_mean(b);
        let num: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let da: f64 = a.iter().map(|x| (x - ma).powi(2)).sum::<f64>().sqrt();
        let db: f64 = b.iter().map(|x| (x - mb).powi(2)).sum::<f64>().sqrt();
        num / (da * db)
    }

    proptest! {
        #[test]
        fn prop_applied_devices_always_validate(seed in 0u64..500) {
            let var = ProcessVariation::default();
            let mut rng = StdRng::seed_from_u64(seed);
            let s = var.sample(&mut rng);
            let n = s.apply(&nominal_device(), Polarity::Nmos);
            let p = s.apply(&nominal_device(), Polarity::Pmos);
            prop_assert!(n.validate().is_ok());
            prop_assert!(p.validate().is_ok());
        }

        #[test]
        fn prop_scales_stay_positive(seed in 0u64..500) {
            let var = ProcessVariation::new(0.05, 0.05, 0.3, 0.3, 0.3);
            let mut rng = StdRng::seed_from_u64(seed);
            let s = var.sample(&mut rng);
            prop_assert!(s.vx0_scale_n > 0.0);
            prop_assert!(s.vx0_scale_p > 0.0);
            prop_assert!(s.cinv_scale > 0.0);
            prop_assert!(s.dibl_scale_n >= 0.0);
        }
    }
}
