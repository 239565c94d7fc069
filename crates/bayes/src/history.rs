//! Archive of historical library characterizations.
//!
//! A [`HistoricalRecord`] is what survives of a past technology's characterization once the
//! expensive simulations are done: the extracted compact-model parameters for one
//! (cell, arc, metric) and the relative residuals of that fit at a set of reference input
//! conditions.  The prior learner consumes the parameters; the precision learner consumes
//! the residuals.

use serde::{Deserialize, Serialize};
use slic_spice::{InputPoint, TimingMeasurement};
use slic_timing_model::TimingParams;
use slic_units::Seconds;
use std::fmt;

/// Which timing quantity a record (or prior, or extraction) refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TimingMetric {
    /// Propagation delay `Td`.
    Delay,
    /// Output transition time `Sout`.
    OutputSlew,
}

impl TimingMetric {
    /// Both metrics, in the order they are characterized.
    pub const BOTH: [TimingMetric; 2] = [TimingMetric::Delay, TimingMetric::OutputSlew];

    /// This metric's value in a measurement (one transient yields both).
    pub fn of(self, measurement: &TimingMeasurement) -> Seconds {
        match self {
            TimingMetric::Delay => measurement.delay,
            TimingMetric::OutputSlew => measurement.output_slew,
        }
    }
}

impl fmt::Display for TimingMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingMetric::Delay => f.write_str("delay"),
            TimingMetric::OutputSlew => f.write_str("output-slew"),
        }
    }
}

/// The relative residual of a historical fit at one reference input condition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConditionResidual {
    /// The reference input condition.
    pub point: InputPoint,
    /// `(observed − predicted)/observed` of the historical fit at that condition.
    pub relative_residual: f64,
}

/// One archived fit from a historical technology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoricalRecord {
    /// Name of the technology the fit came from.
    pub tech_name: String,
    /// Feature size of that technology in nanometres.
    pub node_nm: u32,
    /// Cell name (e.g. `"NAND2_X1"`).
    pub cell_name: String,
    /// Timing-arc identifier (e.g. `"NAND2_X1/A0/FALL"`).
    pub arc_id: String,
    /// Which quantity the parameters model.
    pub metric: TimingMetric,
    /// The extracted compact-model parameters.
    pub params: TimingParams,
    /// Mean absolute relative fitting error of the historical extraction, in percent.
    pub fit_error_percent: f64,
    /// Relative residuals at the reference input conditions (used for precision learning).
    pub residuals: Vec<ConditionResidual>,
}

impl HistoricalRecord {
    /// Creates a record.
    #[expect(clippy::too_many_arguments, reason = "one argument per record field")]
    pub fn new(
        tech_name: impl Into<String>,
        node_nm: u32,
        cell_name: impl Into<String>,
        arc_id: impl Into<String>,
        metric: TimingMetric,
        params: TimingParams,
        fit_error_percent: f64,
        residuals: Vec<ConditionResidual>,
    ) -> Self {
        Self {
            tech_name: tech_name.into(),
            node_nm,
            cell_name: cell_name.into(),
            arc_id: arc_id.into(),
            metric,
            params,
            fit_error_percent,
            residuals,
        }
    }

    /// The cell kind prefix of the cell name (text before the drive suffix), e.g. `"NAND2"`.
    pub fn cell_kind_name(&self) -> &str {
        self.cell_name.split('_').next().unwrap_or(&self.cell_name)
    }
}

/// A collection of historical records with query helpers and JSON persistence.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistoricalDatabase {
    records: Vec<HistoricalRecord>,
}

impl HistoricalDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a record.
    pub fn push(&mut self, record: HistoricalRecord) {
        self.records.push(record);
    }

    /// All records.
    pub fn records(&self) -> &[HistoricalRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when the database holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Names of the distinct technologies represented, in first-appearance order.
    pub fn technology_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for r in &self.records {
            if !names.contains(&r.tech_name.as_str()) {
                names.push(&r.tech_name);
            }
        }
        names
    }

    /// Records for one metric, optionally restricted to one cell kind (matched on the cell
    /// name prefix, e.g. `"NAND2"`).
    pub fn select(&self, metric: TimingMetric, cell_kind: Option<&str>) -> Vec<&HistoricalRecord> {
        self.records
            .iter()
            .filter(|r| r.metric == metric)
            .filter(|r| cell_kind.is_none_or(|k| r.cell_kind_name() == k))
            .collect()
    }

    /// Records restricted to a subset of technologies (by name) — the "selection of a group
    /// of historical libraries" step of the paper's bias–variance discussion.
    pub fn select_technologies(&self, tech_names: &[&str]) -> Self {
        Self {
            records: self
                .records
                .iter()
                .filter(|r| tech_names.contains(&r.tech_name.as_str()))
                .cloned()
                .collect(),
        }
    }

    /// Merges another database into this one.
    pub fn merge(&mut self, other: HistoricalDatabase) {
        self.records.extend(other.records);
    }

    /// Serializes the database to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error if serialization fails (it cannot for this
    /// data model, but the signature is honest).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Restores a database from its JSON representation.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

impl FromIterator<HistoricalRecord> for HistoricalDatabase {
    fn from_iter<T: IntoIterator<Item = HistoricalRecord>>(iter: T) -> Self {
        Self {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<HistoricalRecord> for HistoricalDatabase {
    fn extend<T: IntoIterator<Item = HistoricalRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slic_units::{Farads, Seconds, Volts};

    fn record(tech: &str, cell: &str, metric: TimingMetric, kd: f64) -> HistoricalRecord {
        let point = InputPoint::new(
            Seconds::from_picoseconds(5.0),
            Farads::from_femtofarads(2.0),
            Volts(0.8),
        );
        HistoricalRecord::new(
            tech,
            28,
            cell,
            format!("{cell}/A0/FALL"),
            metric,
            TimingParams::new(kd, 1.0, -0.25, 0.08),
            1.5,
            vec![ConditionResidual {
                point,
                relative_residual: 0.01,
            }],
        )
    }

    #[test]
    fn metric_display_and_listing() {
        assert_eq!(format!("{}", TimingMetric::Delay), "delay");
        assert_eq!(TimingMetric::BOTH.len(), 2);
    }

    #[test]
    fn cell_kind_prefix_extraction() {
        let r = record("t", "NAND2_X1", TimingMetric::Delay, 0.4);
        assert_eq!(r.cell_kind_name(), "NAND2");
        let r = record("t", "INV", TimingMetric::Delay, 0.4);
        assert_eq!(r.cell_kind_name(), "INV");
    }

    #[test]
    fn database_push_select_and_names() {
        let mut db = HistoricalDatabase::new();
        assert!(db.is_empty());
        db.push(record("n45", "INV_X1", TimingMetric::Delay, 0.40));
        db.push(record("n45", "NAND2_X1", TimingMetric::Delay, 0.37));
        db.push(record("n28", "INV_X1", TimingMetric::Delay, 0.39));
        db.push(record("n28", "INV_X1", TimingMetric::OutputSlew, 1.1));
        assert_eq!(db.len(), 4);
        assert_eq!(db.technology_names(), vec!["n45", "n28"]);
        assert_eq!(db.select(TimingMetric::Delay, None).len(), 3);
        assert_eq!(db.select(TimingMetric::Delay, Some("INV")).len(), 2);
        assert_eq!(db.select(TimingMetric::OutputSlew, None).len(), 1);
        assert_eq!(db.select(TimingMetric::Delay, Some("NOR2")).len(), 0);
    }

    #[test]
    fn technology_subset_selection() {
        let db: HistoricalDatabase = [
            record("n45", "INV_X1", TimingMetric::Delay, 0.40),
            record("n28", "INV_X1", TimingMetric::Delay, 0.39),
            record("n14", "INV_X1", TimingMetric::Delay, 0.38),
        ]
        .into_iter()
        .collect();
        let subset = db.select_technologies(&["n45", "n14"]);
        assert_eq!(subset.len(), 2);
        assert_eq!(subset.technology_names(), vec!["n45", "n14"]);
    }

    #[test]
    fn merge_and_extend() {
        let mut a: HistoricalDatabase = [record("n45", "INV_X1", TimingMetric::Delay, 0.40)]
            .into_iter()
            .collect();
        let b: HistoricalDatabase = [record("n28", "INV_X1", TimingMetric::Delay, 0.39)]
            .into_iter()
            .collect();
        a.merge(b);
        assert_eq!(a.len(), 2);
        a.extend([record("n20", "INV_X1", TimingMetric::Delay, 0.38)]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn json_round_trip() {
        let db: HistoricalDatabase = [
            record("n45", "INV_X1", TimingMetric::Delay, 0.40),
            record("n28", "NOR2_X1", TimingMetric::OutputSlew, 1.05),
        ]
        .into_iter()
        .collect();
        let json = db.to_json().unwrap();
        assert!(json.contains("NOR2_X1"));
        let back = HistoricalDatabase::from_json(&json).unwrap();
        assert_eq!(db, back);
        assert!(HistoricalDatabase::from_json("not json").is_err());
    }
}
