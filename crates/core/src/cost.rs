//! Simulation-count cost model.
//!
//! The paper's complexity argument (end of Section IV): conventional statistical LUT
//! characterization costs `O(NLUT · Nsample)` SPICE runs per arc, the proposed flow costs
//! `O(k · Nsample)`, and if the historical libraries still need to be characterized once the
//! amortized cost is `O(k · Nsample + NTech · NLUT)`.  This module provides those
//! formulas; the measured reductions are [`crate::nominal::Reduction`]s.

use serde::{Deserialize, Serialize};

/// Inputs of the cost model for one timing arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    /// Number of LUT grid conditions a conventional flow characterizes (`NLUT`).
    pub n_lut: usize,
    /// Number of training conditions the proposed flow needs (`k`).
    pub k: usize,
    /// Number of process-variation seeds (`Nsample`).
    pub n_sample: usize,
    /// Number of historical technologies that would need re-characterization (`NTech`).
    pub n_tech: usize,
}

impl CostModel {
    /// Creates a cost model.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn new(n_lut: usize, k: usize, n_sample: usize, n_tech: usize) -> Self {
        assert!(
            n_lut > 0 && k > 0 && n_sample > 0 && n_tech > 0,
            "all cost-model counts must be positive"
        );
        Self {
            n_lut,
            k,
            n_sample,
            n_tech,
        }
    }

    /// The paper's representative operating point: a 60-condition LUT, 4 training
    /// conditions, 1000 Monte Carlo seeds and 6 historical technologies.
    pub fn paper_defaults() -> Self {
        Self::new(60, 4, 1000, 6)
    }

    /// Simulations of the conventional statistical LUT flow: `NLUT · Nsample`.
    pub fn lut_cost(&self) -> u64 {
        (self.n_lut * self.n_sample) as u64
    }

    /// Simulations of the proposed flow when historical characterizations already exist:
    /// `k · Nsample`.
    pub fn proposed_cost(&self) -> u64 {
        (self.k * self.n_sample) as u64
    }

    /// Simulations of the proposed flow including one-time re-characterization of the
    /// historical libraries: `k · Nsample + NTech · NLUT`.
    pub fn proposed_cost_with_history(&self) -> u64 {
        self.proposed_cost() + (self.n_tech * self.n_lut) as u64
    }

    /// Speedup over the LUT flow when the historical data already exists.
    pub fn speedup(&self) -> f64 {
        self.lut_cost() as f64 / self.proposed_cost() as f64
    }

    /// Speedup over the LUT flow when the historical characterization cost is charged to
    /// this arc as well.
    pub fn speedup_with_history(&self) -> f64 {
        self.lut_cost() as f64 / self.proposed_cost_with_history() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_operating_point_reproduces_order_of_magnitude() {
        let cost = CostModel::paper_defaults();
        assert_eq!(cost.lut_cost(), 60_000);
        assert_eq!(cost.proposed_cost(), 4_000);
        assert_eq!(cost.proposed_cost_with_history(), 4_360);
        assert!((cost.speedup() - 15.0).abs() < 1e-12);
        assert!(cost.speedup_with_history() > 10.0 && cost.speedup_with_history() < 15.0);
    }

    #[test]
    fn speedup_scales_with_training_count() {
        let cheap = CostModel::new(60, 2, 1000, 6);
        let pricey = CostModel::new(60, 20, 1000, 6);
        assert!(cheap.speedup() > pricey.speedup());
        assert!((cheap.speedup() - 30.0).abs() < 1e-12);
        assert!((pricey.speedup() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_counts_rejected() {
        let _ = CostModel::new(0, 4, 1000, 6);
    }
}
