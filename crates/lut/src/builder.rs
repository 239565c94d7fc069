//! Filling nominal and statistical LUTs from the characterization engine.

use crate::table::Lut3d;
use serde::{Deserialize, Serialize};
use slic_cells::{Cell, TimingArc};
use slic_device::ProcessSample;
use slic_spice::{CharacterizationEngine, InputPoint, InputSpace, TimingMeasurement};
use slic_stats::moments;
use slic_units::{Farads, Seconds, Volts};

/// Every point of a `(sin, cload, vdd)` grid, in [`Lut3d`] value order (supply fastest).
fn grid_points(sin_axis: &[f64], cload_axis: &[f64], vdd_axis: &[f64]) -> Vec<InputPoint> {
    sin_axis
        .iter()
        .flat_map(|&s| {
            cload_axis.iter().flat_map(move |&c| {
                vdd_axis
                    .iter()
                    .map(move |&v| InputPoint::new(Seconds(s), Farads(c), Volts(v)))
            })
        })
        .collect()
}

/// Splits a simulation budget of `k` runs into grid levels `(sin, cload, vdd)` with
/// `sin·cload·vdd ≤ k`, keeping the factors as balanced as possible and prioritizing the
/// slew and load axes (delay is more sensitive to them than to `Vdd` over the paper's
/// ranges — the same priority a production LUT uses).
pub fn grid_levels_for_budget(k: usize) -> (usize, usize, usize) {
    assert!(k > 0, "LUT budget must be at least one simulation");
    let mut best = (1usize, 1usize, 1usize);
    let mut best_count = 1usize;
    let mut best_imbalance = 0usize;
    for a in 1..=k {
        for b in 1..=a {
            let c_max = k / (a * b);
            if c_max == 0 {
                continue;
            }
            let c = c_max.min(b);
            let count = a * b * c;
            let imbalance = a - c;
            let better = count > best_count || (count == best_count && imbalance < best_imbalance);
            if better {
                best = (a, b, c);
                best_count = count;
                best_imbalance = imbalance;
            }
        }
    }
    best
}

/// A nominal (no process variation) delay/slew table pair for one timing arc.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NominalLut {
    /// Delay table (seconds).
    pub delay: Lut3d,
    /// Output-slew table (seconds).
    pub slew: Lut3d,
    /// Number of transient simulations spent building the tables.
    pub simulation_cost: u64,
}

impl NominalLut {
    /// Interpolated delay and slew prediction at an arbitrary input point.
    pub fn predict(&self, point: &InputPoint) -> TimingMeasurement {
        TimingMeasurement::new(
            Seconds(self.delay.interpolate(point)),
            Seconds(self.slew.interpolate(point)),
        )
    }
}

/// A statistical table pair: mean and standard deviation of delay and slew per grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatisticalLut {
    /// Mean delay table (seconds).
    pub mean_delay: Lut3d,
    /// Delay standard-deviation table (seconds).
    pub std_delay: Lut3d,
    /// Mean output-slew table (seconds).
    pub mean_slew: Lut3d,
    /// Output-slew standard-deviation table (seconds).
    pub std_slew: Lut3d,
    /// Number of transient simulations spent building the tables.
    pub simulation_cost: u64,
}

impl StatisticalLut {
    /// Interpolated `(mean delay, σ delay, mean slew, σ slew)` at an arbitrary input point.
    pub fn predict(&self, point: &InputPoint) -> (f64, f64, f64, f64) {
        (
            self.mean_delay.interpolate(point),
            self.std_delay.interpolate(point),
            self.mean_slew.interpolate(point),
            self.std_slew.interpolate(point),
        )
    }
}

/// Builds LUTs by driving a [`CharacterizationEngine`].
#[derive(Debug, Clone)]
pub struct LutBuilder<'a> {
    engine: &'a CharacterizationEngine,
    space: InputSpace,
}

impl<'a> LutBuilder<'a> {
    /// Creates a builder over the engine's default input space.
    pub fn new(engine: &'a CharacterizationEngine) -> Self {
        Self {
            engine,
            space: engine.input_space(),
        }
    }

    fn axes(&self, levels: (usize, usize, usize)) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let axis = |lo: f64, hi: f64, n: usize| -> Vec<f64> {
            if n == 1 {
                vec![0.5 * (lo + hi)]
            } else {
                (0..n)
                    .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
                    .collect()
            }
        };
        let (slo, shi) = self.space.sin_range();
        let (clo, chi) = self.space.cload_range();
        let (vlo, vhi) = self.space.vdd_range();
        (
            axis(slo.value(), shi.value(), levels.0),
            axis(clo.value(), chi.value(), levels.1),
            axis(vlo.value(), vhi.value(), levels.2),
        )
    }

    /// Builds a nominal LUT for one arc with an explicit grid shape.
    pub fn build_nominal(
        &self,
        cell: Cell,
        arc: &TimingArc,
        levels: (usize, usize, usize),
    ) -> NominalLut {
        let before = self.engine.simulation_count();
        let (sin_axis, cload_axis, vdd_axis) = self.axes(levels);
        let points = grid_points(&sin_axis, &cload_axis, &vdd_axis);
        let measurements = self.engine.sweep_nominal(cell, arc, &points);
        let delays = measurements.iter().map(|m| m.delay.value()).collect();
        let slews = measurements.iter().map(|m| m.output_slew.value()).collect();
        NominalLut {
            delay: Lut3d::from_values(
                sin_axis.clone(),
                cload_axis.clone(),
                vdd_axis.clone(),
                delays,
            ),
            slew: Lut3d::from_values(sin_axis, cload_axis, vdd_axis, slews),
            simulation_cost: self.engine.simulation_count() - before,
        }
    }

    /// Builds a nominal LUT whose grid uses at most `budget` simulations.
    pub fn build_nominal_with_budget(
        &self,
        cell: Cell,
        arc: &TimingArc,
        budget: usize,
    ) -> NominalLut {
        self.build_nominal(cell, arc, grid_levels_for_budget(budget))
    }

    /// Builds a statistical LUT for one arc: every grid point is simulated under every
    /// process seed and the per-point mean / standard deviation are stored.
    pub fn build_statistical(
        &self,
        cell: Cell,
        arc: &TimingArc,
        levels: (usize, usize, usize),
        seeds: &[ProcessSample],
    ) -> StatisticalLut {
        assert!(
            !seeds.is_empty(),
            "statistical LUT needs at least one process seed"
        );
        let before = self.engine.simulation_count();
        let (sin_axis, cload_axis, vdd_axis) = self.axes(levels);
        let mut mean_d = Vec::new();
        let mut std_d = Vec::new();
        let mut mean_s = Vec::new();
        let mut std_s = Vec::new();
        let points = grid_points(&sin_axis, &cload_axis, &vdd_axis);
        for ensemble in self.engine.monte_carlo_sweep(cell, arc, &points, seeds) {
            let delays: Vec<f64> = ensemble.iter().map(|m| m.delay.value()).collect();
            let slews: Vec<f64> = ensemble.iter().map(|m| m.output_slew.value()).collect();
            mean_d.push(moments::mean(&delays));
            std_d.push(moments::std_dev(&delays));
            mean_s.push(moments::mean(&slews));
            std_s.push(moments::std_dev(&slews));
        }
        StatisticalLut {
            mean_delay: Lut3d::from_values(
                sin_axis.clone(),
                cload_axis.clone(),
                vdd_axis.clone(),
                mean_d,
            ),
            std_delay: Lut3d::from_values(
                sin_axis.clone(),
                cload_axis.clone(),
                vdd_axis.clone(),
                std_d,
            ),
            mean_slew: Lut3d::from_values(
                sin_axis.clone(),
                cload_axis.clone(),
                vdd_axis.clone(),
                mean_s,
            ),
            std_slew: Lut3d::from_values(sin_axis, cload_axis, vdd_axis, std_s),
            simulation_cost: self.engine.simulation_count() - before,
        }
    }

    /// Builds a statistical LUT whose grid uses at most `budget` input conditions (the total
    /// simulation cost is `grid size × seeds.len()`).
    pub fn build_statistical_with_budget(
        &self,
        cell: Cell,
        arc: &TimingArc,
        budget: usize,
        seeds: &[ProcessSample],
    ) -> StatisticalLut {
        self.build_statistical(cell, arc, grid_levels_for_budget(budget), seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use slic_cells::{CellKind, DriveStrength, Transition};
    use slic_device::TechnologyNode;
    use slic_spice::TransientConfig;

    fn engine() -> CharacterizationEngine {
        CharacterizationEngine::with_config(TechnologyNode::n14_finfet(), TransientConfig::fast())
            .expect("valid transient configuration")
    }

    fn inv_fall() -> (Cell, TimingArc) {
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        (cell, TimingArc::new(cell, 0, Transition::Fall))
    }

    #[test]
    fn budget_split_is_balanced_and_within_budget() {
        assert_eq!(grid_levels_for_budget(1), (1, 1, 1));
        assert_eq!(grid_levels_for_budget(2), (2, 1, 1));
        assert_eq!(grid_levels_for_budget(8), (2, 2, 2));
        assert_eq!(grid_levels_for_budget(12), (3, 2, 2));
        assert_eq!(grid_levels_for_budget(27), (3, 3, 3));
        for k in 1..=120 {
            let (a, b, c) = grid_levels_for_budget(k);
            assert!(a * b * c <= k, "budget {k} exceeded: {a}x{b}x{c}");
            assert!(a >= b && b >= c, "levels must be ordered: {a} {b} {c}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one simulation")]
    fn zero_budget_rejected() {
        let _ = grid_levels_for_budget(0);
    }

    #[test]
    fn nominal_lut_matches_direct_simulation_at_grid_nodes() {
        let eng = engine();
        let (cell, arc) = inv_fall();
        let lut = LutBuilder::new(&eng).build_nominal(cell, &arc, (3, 2, 2));
        assert_eq!(lut.simulation_cost, 12);
        assert_eq!(lut.delay.len(), 12);
        // The grid-node prediction equals the direct simulation.
        let node = InputPoint::new(
            Seconds(lut.delay.sin_axis()[0]),
            Farads(lut.delay.cload_axis()[1]),
            Volts(lut.delay.vdd_axis()[1]),
        );
        let direct = eng.simulate_nominal(cell, &arc, &node);
        let predicted = lut.predict(&node);
        assert!(
            (predicted.delay.value() - direct.delay.value()).abs() / direct.delay.value() < 1e-9
        );
        assert!(
            (predicted.output_slew.value() - direct.output_slew.value()).abs()
                / direct.output_slew.value()
                < 1e-9
        );
    }

    #[test]
    fn denser_nominal_lut_is_more_accurate() {
        let eng = engine();
        let (cell, arc) = inv_fall();
        let builder = LutBuilder::new(&eng);
        let coarse = builder.build_nominal_with_budget(cell, &arc, 4);
        let fine = builder.build_nominal_with_budget(cell, &arc, 60);
        // Validation points off the grid.
        let mut rng = StdRng::seed_from_u64(17);
        let validation = eng.input_space().sample_uniform(&mut rng, 40);
        let reference: Vec<TimingMeasurement> = validation
            .iter()
            .map(|p| eng.simulate_nominal(cell, &arc, p))
            .collect();
        let err = |lut: &NominalLut| -> f64 {
            validation
                .iter()
                .zip(&reference)
                .map(|(p, r)| {
                    let pred = lut.predict(p);
                    (pred.delay.value() - r.delay.value()).abs() / r.delay.value()
                })
                .sum::<f64>()
                / validation.len() as f64
        };
        assert!(
            err(&fine) < err(&coarse),
            "finer grid must interpolate better"
        );
        assert!(err(&fine) < 0.05, "60-point LUT should be within 5 %");
    }

    #[test]
    fn statistical_lut_reports_spread_and_cost() {
        let eng = engine();
        let (cell, arc) = inv_fall();
        let mut rng = StdRng::seed_from_u64(3);
        let seeds = eng.tech().variation().sample_n(&mut rng, 24);
        let lut = LutBuilder::new(&eng).build_statistical(cell, &arc, (2, 2, 1), &seeds);
        assert_eq!(lut.simulation_cost, 4 * 24);
        let probe = eng.input_space().center();
        let (md, sd, ms, ss) = lut.predict(&probe);
        assert!(md > 0.0 && ms > 0.0);
        assert!(
            sd > 0.0 && ss > 0.0,
            "process variation must produce spread"
        );
        assert!(
            sd < md && ss < ms,
            "spread should be a fraction of the mean"
        );
    }

    #[test]
    #[should_panic(expected = "at least one process seed")]
    fn statistical_lut_rejects_empty_seeds() {
        let eng = engine();
        let (cell, arc) = inv_fall();
        let _ = LutBuilder::new(&eng).build_statistical(cell, &arc, (1, 1, 1), &[]);
    }
}
