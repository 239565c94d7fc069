//! `slic-variation` — Monte Carlo process-variation characterization.
//!
//! The statistical study in `slic::statistical` answers a research question (how accurate
//! is moment reconstruction per method?); this crate provides the *production* workload:
//! given a timing arc and an index grid, simulate every grid point under every process
//! seed and reduce the per-seed measurements into a [`VariationTable`] of per-point
//! **mean / sigma / skewness** — the moment views a Liberty-Variation-Format consumer
//! expects next to the nominal `cell_rise`/`cell_fall` tables.
//!
//! Everything routes through an existing
//! [`CharacterizationEngine`], so the engine's
//! simulation counter, cache and pluggable
//! [`SimulationBackend`](slic_spice::SimulationBackend) (the local kernel or a
//! `slic-farm` fleet) all apply per `(seed, point)` coordinate: a delay table and a slew
//! table of one arc share their transients, shard workers against one disk cache pay each
//! coordinate once, and a farm run produces bit-identical tables to a local run.
//!
//! The seed set is a pure function of [`VariationConfig::seed`] and
//! [`VariationConfig::process_seeds`]: every extractor built from an equal configuration —
//! in any process, on any shard — simulates the *same* process samples, which is what
//! makes sharded variation runs mergeable and cache-coherent.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use slic_bayes::TimingMetric;
use slic_cells::TimingArc;
use slic_device::ProcessSample;
use slic_spice::{CharacterizationEngine, InputPoint};
use slic_stats::moments;
use slic_units::{Farads, Seconds};
use std::fmt;

/// An invalid [`VariationConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariationError {
    message: String,
}

impl VariationError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for VariationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid variation configuration: {}", self.message)
    }
}

impl std::error::Error for VariationError {}

/// Configuration of a Monte Carlo variation workload.
///
/// Two configurations compare equal exactly when they produce the same seed set and the
/// same reporting corners — the criterion under which shard artifacts of one variation
/// run may merge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationConfig {
    /// Number of Monte Carlo process seeds simulated per grid point.
    pub process_seeds: usize,
    /// Sigma multipliers for corner reporting (e.g. `[1.0, 3.0]` reports the ±1σ and ±3σ
    /// views); purely a reporting knob, the tables always carry the full moments.
    pub sigma_corners: Vec<f64>,
    /// RNG seed of the process-sample draw.
    pub seed: u64,
}

impl VariationConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`VariationError`] when fewer than three seeds are requested (skewness
    /// needs three samples), or when the sigma-corner list is empty or contains a
    /// non-finite or non-positive multiplier.
    pub fn validate(&self) -> Result<(), VariationError> {
        if self.process_seeds < 3 {
            return Err(VariationError::new(format!(
                "process_seeds must be at least 3 (skewness needs three samples), got {}",
                self.process_seeds
            )));
        }
        if self.sigma_corners.is_empty() {
            return Err(VariationError::new("sigma_corners must not be empty"));
        }
        for &corner in &self.sigma_corners {
            if !corner.is_finite() || corner <= 0.0 {
                return Err(VariationError::new(format!(
                    "sigma corner {corner} must be a finite positive multiplier"
                )));
            }
        }
        Ok(())
    }

    /// Draws the deterministic process-sample set of this configuration for `engine`'s
    /// technology.  Equal configurations always draw identical samples.
    pub fn sample_seeds(&self, engine: &CharacterizationEngine) -> Vec<ProcessSample> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        engine
            .tech()
            .variation()
            .sample_n(&mut rng, self.process_seeds)
    }
}

/// Per-arc, per-metric moment tables over a slew × load index grid — the variation
/// analogue of a nominal Liberty lookup table.
///
/// All rows are indexed `[slew][load]`; `mean` and `sigma` are in seconds, `skew` is the
/// dimensionless Fisher skewness (use [`skewness_time_rows`](Self::skewness_time_rows)
/// for the time-valued LVF rendering).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationTable {
    /// Arc identifier, e.g. `"NAND2_X1/A0/FALL"`.
    pub arc_id: String,
    /// The timing arc.
    pub arc: TimingArc,
    /// The reduced metric.
    pub metric: TimingMetric,
    /// Supply voltage the grid was simulated at (volts; the technology's nominal).
    pub vdd: f64,
    /// Input-slew axis (seconds) — identical to the nominal export table's `index_1`.
    pub slew_axis: Vec<f64>,
    /// Load-capacitance axis (farads) — identical to the nominal table's `index_2`.
    pub load_axis: Vec<f64>,
    /// Number of process seeds the moments were estimated from.
    pub process_seeds: usize,
    /// Per-point sample mean (seconds).
    pub mean: Vec<Vec<f64>>,
    /// Per-point unbiased sample standard deviation (seconds).
    pub sigma: Vec<Vec<f64>>,
    /// Per-point Fisher skewness (dimensionless).
    pub skew: Vec<Vec<f64>>,
}

impl VariationTable {
    /// Stable identity of the table — the merge/sort key of variation sections.
    pub fn table_id(&self) -> String {
        format!("{}#{}#mc", self.arc_id, self.metric)
    }

    /// `(slew levels, load levels)` of the grid.
    pub fn shape(&self) -> (usize, usize) {
        (self.slew_axis.len(), self.load_axis.len())
    }

    /// The `mean + k·sigma` corner view of the table (seconds), e.g. the +3σ late table.
    pub fn corner_rows(&self, k: f64) -> Vec<Vec<f64>> {
        self.mean
            .iter()
            .zip(&self.sigma)
            .map(|(m_row, s_row)| m_row.iter().zip(s_row).map(|(m, s)| m + k * s).collect())
            .collect()
    }

    /// Worst (largest) `mean + k·sigma` value over the grid, in seconds.
    pub fn worst_corner(&self, k: f64) -> f64 {
        self.corner_rows(k)
            .iter()
            .flatten()
            .fold(f64::NEG_INFINITY, |acc, v| acc.max(*v))
    }

    /// The time-valued skewness rows (seconds): the signed cube root of the third central
    /// moment `m₃ = γ·σ³`, which is how LVF `ocv_skewness_*` groups express asymmetry in
    /// the library's time unit.
    pub fn skewness_time_rows(&self) -> Vec<Vec<f64>> {
        self.skew
            .iter()
            .zip(&self.sigma)
            .map(|(g_row, s_row)| {
                g_row
                    .iter()
                    .zip(s_row)
                    .map(|(g, s)| (g * s.powi(3)).cbrt())
                    .collect()
            })
            .collect()
    }

    /// Mean coefficient of variation `σ/µ` over the grid, in percent — the one-number
    /// spread summary reported per Monte Carlo work unit.
    pub fn mean_cv_percent(&self) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for (m_row, s_row) in self.mean.iter().zip(&self.sigma) {
            for (m, s) in m_row.iter().zip(s_row) {
                // Exact-zero test guarding the division below; any nonzero mean, however
                // small, has a well-defined CV.
                if *m != 0.0 {
                    total += (s / m).abs() * 100.0;
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// Runs Monte Carlo grid sweeps through an engine and reduces them to moment tables.
pub struct VariationExtractor<'a> {
    engine: &'a CharacterizationEngine,
    config: VariationConfig,
    seeds: Vec<ProcessSample>,
}

impl<'a> VariationExtractor<'a> {
    /// Creates an extractor, validating the configuration and drawing the deterministic
    /// seed set.
    ///
    /// # Errors
    ///
    /// Returns a [`VariationError`] when the configuration fails
    /// [`VariationConfig::validate`].
    pub fn new(
        engine: &'a CharacterizationEngine,
        config: VariationConfig,
    ) -> Result<Self, VariationError> {
        config.validate()?;
        let seeds = config.sample_seeds(engine);
        Ok(Self {
            engine,
            config,
            seeds,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &VariationConfig {
        &self.config
    }

    /// The deterministic process-sample set.
    pub fn seeds(&self) -> &[ProcessSample] {
        &self.seeds
    }

    /// Transient simulations one table *requests* (the cache may answer most of them).
    pub fn requested_simulations(&self, slew_levels: usize, load_levels: usize) -> u64 {
        (slew_levels * load_levels * self.seeds.len()) as u64
    }

    /// Characterizes `metric` of `arc` over `slew_axis × load_axis` at the technology's
    /// nominal supply: every grid point is simulated under every process seed (through the
    /// engine's backend, counter and cache) and reduced to per-point mean/sigma/skew.
    ///
    /// # Panics
    ///
    /// Panics when either axis is empty — callers derive the axes from a validated export
    /// grid.
    pub fn extract(
        &self,
        arc: &TimingArc,
        metric: TimingMetric,
        slew_axis: &[f64],
        load_axis: &[f64],
    ) -> VariationTable {
        assert!(
            !slew_axis.is_empty() && !load_axis.is_empty(),
            "variation grid axes must not be empty"
        );
        let vdd = self.engine.tech().vdd_nominal();
        let points: Vec<InputPoint> = slew_axis
            .iter()
            .flat_map(|&sin| {
                load_axis
                    .iter()
                    .map(move |&cload| InputPoint::new(Seconds(sin), Farads(cload), vdd))
            })
            .collect();
        let grid = self.engine.monte_carlo_sweep(arc, &points, &self.seeds);

        let mut mean = Vec::with_capacity(slew_axis.len());
        let mut sigma = Vec::with_capacity(slew_axis.len());
        let mut skew = Vec::with_capacity(slew_axis.len());
        for point_rows in grid.chunks(load_axis.len()) {
            let mut mean_row = Vec::with_capacity(load_axis.len());
            let mut sigma_row = Vec::with_capacity(load_axis.len());
            let mut skew_row = Vec::with_capacity(load_axis.len());
            for seed_samples in point_rows {
                let values: Vec<f64> = seed_samples.iter().map(|m| metric.of(m).value()).collect();
                mean_row.push(moments::mean(&values));
                sigma_row.push(moments::std_dev(&values));
                skew_row.push(moments::skewness(&values));
            }
            mean.push(mean_row);
            sigma.push(sigma_row);
            skew.push(skew_row);
        }

        VariationTable {
            arc_id: arc.id(),
            arc: *arc,
            metric,
            vdd: vdd.value(),
            slew_axis: slew_axis.to_vec(),
            load_axis: load_axis.to_vec(),
            process_seeds: self.seeds.len(),
            mean,
            sigma,
            skew,
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;
    use slic_cells::{Cell, CellKind, DriveStrength, Transition};
    use slic_device::TechnologyNode;
    use slic_spice::{InMemorySimCache, SimulationCache, TransientConfig};
    use std::sync::Arc;

    fn engine() -> CharacterizationEngine {
        CharacterizationEngine::with_config(TechnologyNode::n14_finfet(), TransientConfig::fast())
            .expect("fast preset validates")
    }

    fn config(seeds: usize) -> VariationConfig {
        VariationConfig {
            process_seeds: seeds,
            sigma_corners: vec![1.0, 3.0],
            seed: 42,
        }
    }

    fn axes(engine: &CharacterizationEngine) -> (Vec<f64>, Vec<f64>) {
        let space = engine.input_space();
        let (sin_lo, sin_hi) = space.sin_range();
        let (cl_lo, cl_hi) = space.cload_range();
        (
            slic_units::range::linspace(sin_lo.value(), sin_hi.value(), 2),
            slic_units::range::linspace(cl_lo.value(), cl_hi.value(), 3),
        )
    }

    #[test]
    fn validation_rejects_degenerate_configurations() {
        assert!(config(8).validate().is_ok());
        assert!(config(2)
            .validate()
            .unwrap_err()
            .to_string()
            .contains("at least 3"));
        let mut empty = config(8);
        empty.sigma_corners.clear();
        assert!(empty
            .validate()
            .unwrap_err()
            .to_string()
            .contains("must not be empty"));
        let mut negative = config(8);
        negative.sigma_corners = vec![-1.0];
        assert!(negative
            .validate()
            .unwrap_err()
            .to_string()
            .contains("finite positive"));
    }

    #[test]
    fn equal_configs_draw_identical_seed_sets() {
        let eng = engine();
        let a = config(12).sample_seeds(&eng);
        let b = config(12).sample_seeds(&eng);
        assert_eq!(a, b, "the seed set is a pure function of the configuration");
        let other = VariationConfig {
            seed: 43,
            ..config(12)
        }
        .sample_seeds(&eng);
        assert_ne!(a, other);
    }

    #[test]
    fn extraction_produces_physical_moments_on_the_grid_shape() {
        let eng = engine();
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let (slew_axis, load_axis) = axes(&eng);
        let extractor = VariationExtractor::new(&eng, config(10)).expect("valid config");
        let table = extractor.extract(&arc, TimingMetric::Delay, &slew_axis, &load_axis);
        assert_eq!(table.shape(), (2, 3));
        assert_eq!(table.process_seeds, 10);
        assert_eq!(table.table_id(), format!("{}#delay#mc", arc.id()));
        for row in &table.mean {
            assert!(row.iter().all(|m| *m > 0.0), "delays are positive");
        }
        for row in &table.sigma {
            assert!(
                row.iter().all(|s| *s > 0.0),
                "process variation must spread every grid point"
            );
        }
        assert!(table.mean_cv_percent() > 0.0 && table.mean_cv_percent() < 50.0);
        // The +3σ corner sits above the mean everywhere; −1σ below.
        let late = table.corner_rows(3.0);
        let early = table.corner_rows(-1.0);
        for ((m_row, l_row), e_row) in table.mean.iter().zip(&late).zip(&early) {
            for ((m, l), e) in m_row.iter().zip(l_row).zip(e_row) {
                assert!(l > m && e < m);
            }
        }
        assert!(table.worst_corner(3.0) >= table.worst_corner(1.0));
        // Time-valued skewness has the same sign as the Fisher skewness.
        for (g_row, t_row) in table.skew.iter().zip(table.skewness_time_rows()) {
            for (g, t) in g_row.iter().zip(t_row) {
                assert_eq!(g.signum(), t.signum());
            }
        }
        // Cost accounting: points × seeds transients were paid.
        assert_eq!(eng.simulation_count(), 2 * 3 * 10);
    }

    #[test]
    fn delay_and_slew_tables_share_their_transients_through_the_cache() {
        let cache = Arc::new(InMemorySimCache::new());
        let eng = engine().with_cache(cache.clone());
        let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Rise);
        let (slew_axis, load_axis) = axes(&eng);
        let extractor = VariationExtractor::new(&eng, config(6)).expect("valid config");
        let _delay = extractor.extract(&arc, TimingMetric::Delay, &slew_axis, &load_axis);
        let paid = eng.simulation_count();
        assert_eq!(paid, 2 * 3 * 6);
        let _slew = extractor.extract(&arc, TimingMetric::OutputSlew, &slew_axis, &load_axis);
        assert_eq!(
            eng.simulation_count(),
            paid,
            "the slew table must be answered entirely from the delay table's transients"
        );
        assert_eq!(cache.hits(), paid);
    }

    #[test]
    fn tables_round_trip_through_json() {
        let eng = engine();
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Rise);
        let (slew_axis, load_axis) = axes(&eng);
        let extractor = VariationExtractor::new(&eng, config(5)).expect("valid config");
        let table = extractor.extract(&arc, TimingMetric::OutputSlew, &slew_axis, &load_axis);
        let text = serde_json::to_string(&table).expect("table serializes");
        let back: VariationTable = serde_json::from_str(&text).expect("table parses");
        assert_eq!(back, table);
    }
}
