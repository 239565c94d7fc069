//! Work-unit enumeration: from a library and a resolved config to a flat, parallelizable
//! list of `(arc, metric, method, kind)` units.

use crate::config::ResolvedConfig;
use crate::error::PipelineError;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use slic::nominal::MethodKind;
use slic_bayes::TimingMetric;
use slic_cells::TimingArc;
use std::fmt;

/// What a work unit characterizes: the nominal corner, or the Monte Carlo process
/// ensemble reduced to moment tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitKind {
    /// Nominal-corner extraction (the original workload).
    Nominal,
    /// Monte Carlo variation: every export-grid point under every process seed, reduced
    /// to a mean/sigma/skew [`VariationTable`](slic_variation::VariationTable).
    MonteCarlo,
}

impl fmt::Display for UnitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitKind::Nominal => f.write_str("nominal"),
            UnitKind::MonteCarlo => f.write_str("monte-carlo"),
        }
    }
}

// Hand-written (not derived) so `absent_field` can default to `Nominal`: plans and
// artifacts persisted before the kind dimension existed were nominal-only, and must keep
// loading.
impl Serialize for UnitKind {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for UnitKind {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        match value
            .as_str()
            .ok_or_else(|| SerdeError::expected("string", value))?
        {
            "nominal" => Ok(UnitKind::Nominal),
            "monte-carlo" => Ok(UnitKind::MonteCarlo),
            other => Err(SerdeError::custom(format!(
                "unknown unit kind `{other}` (expected `nominal` or `monte-carlo`)"
            ))),
        }
    }

    fn absent_field(_name: &str) -> Result<Self, SerdeError> {
        Ok(UnitKind::Nominal)
    }
}

/// The stable identity shared by a [`WorkUnit`] and its
/// [`UnitResult`](crate::artifact::UnitResult) — the shard-hash input, merge key and
/// canonical sort key.
///
/// Nominal units keep the pre-variation format (`"ARC#metric#Method"`) so shard
/// assignments of existing plans are unchanged; Monte Carlo units append a kind marker
/// (the extraction method does not apply to direct moment estimation).
pub fn unit_identity(
    arc_id: &str,
    metric: TimingMetric,
    method: MethodKind,
    kind: UnitKind,
) -> String {
    match kind {
        UnitKind::Nominal => format!("{arc_id}#{metric}#{method:?}"),
        UnitKind::MonteCarlo => format!("{arc_id}#{metric}#MonteCarlo"),
    }
}

/// One independently executable unit of characterization work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkUnit {
    /// The timing arc, which names the cell being characterized.
    pub arc: TimingArc,
    /// The timing quantity.
    pub metric: TimingMetric,
    /// The extraction method (for Monte Carlo units a placeholder; direct moment
    /// estimation has no extraction method).
    pub method: MethodKind,
    /// Nominal extraction or Monte Carlo variation.
    pub kind: UnitKind,
}

impl WorkUnit {
    /// Stable identifier, e.g. `"NAND2_X1/A0/FALL#delay#ProposedBayesian"` (nominal) or
    /// `"NAND2_X1/A0/FALL#delay#MonteCarlo"` (variation).
    pub fn id(&self) -> String {
        unit_identity(&self.arc.id(), self.metric, self.method, self.kind)
    }

    /// Deterministic sampling seed shared by every unit of the same arc.
    ///
    /// Sharing across metrics *and* methods is deliberate: all units of one arc then
    /// request identical training/validation sweeps, so the simulation cache serves every
    /// unit after the first for free (one transient yields both measurements), and the
    /// per-method errors in the artifact are measured on the same validation set and are
    /// directly comparable.
    pub fn sampling_seed(&self, run_seed: u64) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in self.arc.id().bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash ^ run_seed
    }

    /// The shard (out of `shards`) this unit belongs to.
    ///
    /// The assignment is a pure function of the unit's `(arc, metric, method)` identity —
    /// never of its position in a plan — so any worker that enumerates any plan containing
    /// this unit agrees on who owns it, and re-filtered or re-ordered plans still split
    /// into disjoint, stable shards.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn shard_of(&self, shards: usize) -> usize {
        assert!(shards > 0, "a plan cannot be split into zero shards");
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in self.id().bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Avalanche finalizer (splitmix64): FNV-1a's low bit is a plain parity of the
        // input bytes, so `hash % shards` alone can collapse whole plans onto one shard
        // (every unit id of a default plan has equal byte parity). Mixing spreads every
        // input bit over the low bits the modulo actually consumes.
        hash ^= hash >> 30;
        hash = hash.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        hash ^= hash >> 27;
        hash = hash.wrapping_mul(0x94d0_49bb_1331_11eb);
        hash ^= hash >> 31;
        (hash % shards as u64) as usize
    }
}

/// The full enumeration of work units for one run — or one shard of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizationPlan {
    library_name: String,
    /// Size of the *full* run this plan belongs to: `units.len()` for an enumerated plan,
    /// the parent's total for a shard.  Lets a merge detect missing shards.
    planned_units: usize,
    units: Vec<WorkUnit>,
}

impl CharacterizationPlan {
    /// Enumerates `cells × primary arcs × metrics × methods` from a resolved
    /// configuration — plus one [`UnitKind::MonteCarlo`] unit per `(arc, metric)` when
    /// the configuration enables variation.  Delay and slew variation units of one
    /// arc request identical `(seed, point)` sweeps, so — exactly like the nominal metric
    /// pairing — the simulation cache serves the second for free.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Config`] when the enumeration is empty.
    pub fn from_config(config: &ResolvedConfig) -> Result<Self, PipelineError> {
        let library = &config.library;
        let variation = config.variation.is_some();
        let mut units = Vec::new();
        for &cell in library.cells() {
            for arc in TimingArc::primary_arcs(cell) {
                for &metric in &config.metrics {
                    for &method in &config.methods {
                        units.push(WorkUnit {
                            arc,
                            metric,
                            method,
                            kind: UnitKind::Nominal,
                        });
                    }
                    if variation {
                        units.push(WorkUnit {
                            arc,
                            metric,
                            // Direct moment estimation has no extraction method; the
                            // placeholder never reaches the unit identity.
                            method: MethodKind::Lut,
                            kind: UnitKind::MonteCarlo,
                        });
                    }
                }
            }
        }
        if units.is_empty() {
            return Err(PipelineError::config(
                "characterization plan is empty (no cells, metrics or methods selected)",
            ));
        }
        Ok(Self {
            library_name: library.name().to_string(),
            planned_units: units.len(),
            units,
        })
    }

    /// Splits the plan into `shards` disjoint sub-plans for distributed execution.
    ///
    /// Every unit lands in exactly one shard, chosen by [`WorkUnit::shard_of`] — a stable
    /// hash of the unit's `(arc, metric, method)` identity — so shard membership survives
    /// re-enumeration and does not depend on unit order.  Shards may be empty when
    /// `shards` exceeds the number of units; running an empty shard is a no-op and merging
    /// it is harmless.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Config`] when `shards` is zero.
    pub fn split(&self, shards: usize) -> Result<Vec<CharacterizationPlan>, PipelineError> {
        if shards == 0 {
            return Err(PipelineError::config(
                "cannot split a plan into zero shards",
            ));
        }
        let mut parts: Vec<Vec<WorkUnit>> = vec![Vec::new(); shards];
        for unit in &self.units {
            parts[unit.shard_of(shards)].push(*unit);
        }
        Ok(parts
            .into_iter()
            .map(|units| Self {
                library_name: self.library_name.clone(),
                planned_units: self.planned_units,
                units,
            })
            .collect())
    }

    /// The units in execution order.
    pub fn units(&self) -> &[WorkUnit] {
        &self.units
    }

    /// Number of units in this plan (for a shard: in this shard).
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Number of units in the full run this plan belongs to: [`len`](Self::len) for an
    /// enumerated plan, the parent plan's total for a shard.  Shard artifacts carry this
    /// so [`RunArtifact::merge`](crate::artifact::RunArtifact::merge) can detect a
    /// missing shard.
    pub fn planned_units(&self) -> usize {
        self.planned_units
    }

    /// Returns `true` when the plan holds no units — possible only for a shard of a
    /// [`split`](Self::split) with more shards than units; enumeration rejects emptiness.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Name of the library the plan was enumerated from.
    pub fn library_name(&self) -> &str {
        &self.library_name
    }

    /// The distinct arcs covered by the plan, in first-appearance order.
    pub fn arcs(&self) -> Vec<TimingArc> {
        let mut arcs = Vec::new();
        for unit in &self.units {
            if !arcs.contains(&unit.arc) {
                arcs.push(unit.arc);
            }
        }
        arcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;

    #[test]
    fn default_plan_covers_trio_both_metrics() {
        let config = RunConfig::default().resolve().unwrap();
        let plan = CharacterizationPlan::from_config(&config).unwrap();
        // 3 cells x 2 primary arcs x 2 metrics x 1 method.
        assert_eq!(plan.len(), 12);
        assert_eq!(plan.arcs().len(), 6);
        assert_eq!(plan.library_name(), "paper-trio");
        assert!(!plan.is_empty());
    }

    #[test]
    fn filters_shrink_the_plan() {
        let config = RunConfig {
            library: Some("standard".into()),
            cell_pattern: Some("INV".into()),
            drives: Some(vec!["X1".into()]),
            metrics: Some(vec!["delay".into()]),
            methods: Some(vec!["bayesian".into(), "lse".into()]),
            ..Default::default()
        }
        .resolve()
        .unwrap();
        let plan = CharacterizationPlan::from_config(&config).unwrap();
        // 1 cell (INV_X1; the standard library also has INV_X2) x 2 arcs x 1 metric x 2 methods.
        assert_eq!(plan.len(), 4);
        assert!(plan
            .units()
            .iter()
            .all(|u| u.arc.cell().kind().name() == "INV"));
    }

    #[test]
    fn sampling_seeds_pair_metrics_and_separate_arcs() {
        let config = RunConfig::default().resolve().unwrap();
        let plan = CharacterizationPlan::from_config(&config).unwrap();
        let units = plan.units();
        let delay = units
            .iter()
            .find(|u| u.metric == TimingMetric::Delay)
            .unwrap();
        let slew = units
            .iter()
            .find(|u| u.arc == delay.arc && u.metric == TimingMetric::OutputSlew)
            .unwrap();
        assert_eq!(
            delay.sampling_seed(1),
            slew.sampling_seed(1),
            "metrics of one arc must share sampling points for cache reuse"
        );
        let lse_twin = WorkUnit {
            method: MethodKind::ProposedLse,
            ..*delay
        };
        assert_eq!(
            delay.sampling_seed(1),
            lse_twin.sampling_seed(1),
            "methods of one arc must share sampling points so their errors are comparable"
        );
        let other = units.iter().find(|u| u.arc != delay.arc).unwrap();
        assert_ne!(delay.sampling_seed(1), other.sampling_seed(1));
        assert_ne!(delay.sampling_seed(1), delay.sampling_seed(2));
    }

    #[test]
    fn split_covers_every_unit_exactly_once() {
        let config = RunConfig::default().resolve().unwrap();
        let plan = CharacterizationPlan::from_config(&config).unwrap();
        for shards in [1usize, 2, 3, 4, 7, 20] {
            let parts = plan.split(shards).unwrap();
            assert_eq!(parts.len(), shards);
            let mut ids: Vec<String> = parts
                .iter()
                .flat_map(|p| p.units().iter().map(WorkUnit::id))
                .collect();
            ids.sort();
            let mut expected: Vec<String> = plan.units().iter().map(WorkUnit::id).collect();
            expected.sort();
            assert_eq!(ids, expected, "split({shards}) must partition the plan");
            for (index, part) in parts.iter().enumerate() {
                assert_eq!(part.library_name(), plan.library_name());
                assert!(part.units().iter().all(|u| u.shard_of(shards) == index));
            }
        }
    }

    #[test]
    fn shard_assignment_is_stable_across_plans() {
        let full = RunConfig::default().resolve().unwrap();
        let filtered = RunConfig {
            cell_pattern: Some("INV".into()),
            ..Default::default()
        }
        .resolve()
        .unwrap();
        let full_plan = CharacterizationPlan::from_config(&full).unwrap();
        let inv_plan = CharacterizationPlan::from_config(&filtered).unwrap();
        for unit in inv_plan.units() {
            let twin = full_plan
                .units()
                .iter()
                .find(|u| u.id() == unit.id())
                .expect("filtered plan is a subset");
            assert_eq!(unit.shard_of(4), twin.shard_of(4));
        }
    }

    #[test]
    fn default_plan_actually_distributes() {
        // Guards the avalanche finalizer in `shard_of`: with a plain FNV hash the default
        // plan's unit ids all share byte parity and `split(2)` put all 12 units in one
        // shard. Every shard of the small splits must receive work.
        let config = RunConfig::default().resolve().unwrap();
        let plan = CharacterizationPlan::from_config(&config).unwrap();
        for shards in [2usize, 4] {
            let parts = plan.split(shards).unwrap();
            assert!(
                parts.iter().all(|p| !p.is_empty()),
                "split({shards}) sizes: {:?}",
                parts
                    .iter()
                    .map(CharacterizationPlan::len)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn variation_adds_one_monte_carlo_unit_per_arc_and_metric() {
        let config = RunConfig {
            variation: Some(crate::config::VariationKnobs::default()),
            ..RunConfig::default()
        }
        .resolve()
        .unwrap();
        let plan = CharacterizationPlan::from_config(&config).unwrap();
        // 12 nominal units + 3 cells x 2 arcs x 2 metrics Monte Carlo units.
        assert_eq!(plan.len(), 24);
        assert_eq!(plan.planned_units(), 24);
        let mc: Vec<&WorkUnit> = plan
            .units()
            .iter()
            .filter(|u| u.kind == UnitKind::MonteCarlo)
            .collect();
        assert_eq!(mc.len(), 12);
        for unit in &mc {
            assert!(unit.id().ends_with("#MonteCarlo"), "{}", unit.id());
        }
        // Nominal identities are untouched by the new dimension, so shard membership of
        // pre-variation plans is stable.
        let nominal_only = RunConfig::default().resolve().unwrap();
        let nominal_plan = CharacterizationPlan::from_config(&nominal_only).unwrap();
        for unit in nominal_plan.units() {
            let twin = plan
                .units()
                .iter()
                .find(|u| u.id() == unit.id())
                .expect("nominal units persist in a variation plan");
            assert_eq!(unit.shard_of(4), twin.shard_of(4));
            assert!(!unit.id().contains("MonteCarlo"));
        }
        // Monte Carlo units distribute across shards like any other unit.
        let parts = plan.split(4).unwrap();
        let mc_shards = parts
            .iter()
            .filter(|p| p.units().iter().any(|u| u.kind == UnitKind::MonteCarlo))
            .count();
        assert!(mc_shards >= 2, "MC units must spread over shards");
    }

    #[test]
    fn unit_kind_serializes_and_defaults_to_nominal_when_absent() {
        let config = RunConfig {
            variation: Some(crate::config::VariationKnobs::default()),
            ..RunConfig::default()
        }
        .resolve()
        .unwrap();
        let plan = CharacterizationPlan::from_config(&config).unwrap();
        let text = serde_json::to_string(&plan).unwrap();
        let back: CharacterizationPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(back, plan);
        // A unit persisted before the kind field existed deserializes as nominal.
        let nominal = plan
            .units()
            .iter()
            .find(|u| u.kind == UnitKind::Nominal)
            .unwrap();
        let unit_text = serde_json::to_string(nominal).unwrap();
        let legacy_text = unit_text.replace(",\"kind\":\"nominal\"", "");
        assert_ne!(legacy_text, unit_text, "the kind field is persisted");
        let legacy: WorkUnit = serde_json::from_str(&legacy_text).unwrap();
        assert_eq!(legacy, *nominal);
        assert!(
            serde_json::from_str::<WorkUnit>(&unit_text.replace("\"nominal\"", "\"warp\""))
                .is_err()
        );
    }

    #[test]
    fn zero_shards_is_rejected() {
        let config = RunConfig::default().resolve().unwrap();
        let plan = CharacterizationPlan::from_config(&config).unwrap();
        assert!(plan
            .split(0)
            .unwrap_err()
            .to_string()
            .contains("zero shards"));
    }

    #[test]
    fn plan_serializes() {
        let config = RunConfig::default().resolve().unwrap();
        let plan = CharacterizationPlan::from_config(&config).unwrap();
        let text = serde_json::to_string(&plan).unwrap();
        let back: CharacterizationPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(plan, back);
    }
}
