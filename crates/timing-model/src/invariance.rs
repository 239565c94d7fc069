//! Collapse diagnostics behind Figs. 2 and 3 of the paper.
//!
//! The paper motivates the compact model by showing that, for a NOR2 cell in a 14-nm
//! technology,
//!
//! * `Td · Ieff / (Vdd + V')` is approximately constant across supply voltages for each
//!   fixed `(Cload, Sin)` group (Fig. 2), and
//! * `Td / (Cload + Cpar + α·Sin)` is approximately constant across load/slew combinations
//!   for each fixed `Vdd` (Fig. 3).
//!
//! The functions here compute exactly those collapsed quantities from measured samples and
//! report how constant they are (coefficient of variation per group), which is what the
//! Fig. 2 / Fig. 3 benches print.

use crate::model::{TimingParams, TimingSample};
use serde::{Deserialize, Serialize};

/// One collapsed series: a group label, the x-axis values, the collapsed y values, and the
/// coefficient of variation of the y values (σ/µ — lower is flatter).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollapseSeries {
    /// Human-readable group label (e.g. `"Cload=2.0fF, Sin=5.0ps"` or `"Vdd=0.85V"`).
    pub label: String,
    /// X-axis values of the series (supply voltage for Fig. 2, combination index for Fig. 3).
    pub x: Vec<f64>,
    /// Collapsed quantity per point.
    pub y: Vec<f64>,
    /// Coefficient of variation of `y` (0 means perfectly collapsed).
    pub coefficient_of_variation: f64,
}

impl CollapseSeries {
    fn new(label: String, x: Vec<f64>, y: Vec<f64>) -> Self {
        let cv = coefficient_of_variation(&y);
        Self {
            label,
            x,
            y,
            coefficient_of_variation: cv,
        }
    }
}

fn coefficient_of_variation(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt() / mean.abs()
}

/// Fig. 2 collapse: groups samples by `(Cload, Sin)` and returns `T·Ieff/(Vdd + V')` versus
/// `Vdd` for each group.
///
/// `v_prime` is the supply-correction parameter extracted for this arc (delay and slew use
/// different values, as in the paper).
pub fn vdd_collapse(samples: &[TimingSample], v_prime: f64) -> Vec<CollapseSeries> {
    // Quantized (load, slew) group key paired with the group's collapsed (x, y) points.
    type Group = ((i64, i64), Vec<(f64, f64)>);
    let mut groups: Vec<Group> = Vec::new();
    for s in samples {
        // Group key: load and slew quantized to 1 aF / 1 fs so float jitter does not split
        // groups.
        let key = (
            (s.point.cload.value() * 1e18).round() as i64,
            (s.point.sin.value() * 1e15).round() as i64,
        );
        let collapsed = s.observed.value() * s.ieff.value() / (s.point.vdd.value() + v_prime);
        let entry = groups.iter_mut().find(|(k, _)| *k == key);
        match entry {
            Some((_, points)) => points.push((s.point.vdd.value(), collapsed)),
            None => groups.push((key, vec![(s.point.vdd.value(), collapsed)])),
        }
    }
    groups
        .into_iter()
        .map(|((cload_af, sin_fs), mut points)| {
            points.sort_by(|a, b| a.0.total_cmp(&b.0));
            let label = format!(
                "Cload={:.2}fF, Sin={:.2}ps",
                cload_af as f64 / 1e3,
                sin_fs as f64 / 1e3
            );
            let (x, y): (Vec<f64>, Vec<f64>) = points.into_iter().unzip();
            CollapseSeries::new(label, x, y)
        })
        .collect()
}

/// Fig. 3 collapse: groups samples by `Vdd` and returns `T/(Cload + Cpar + α·Sin)` versus a
/// combination index for each group.
///
/// The `(Cpar, α)` pair comes from the extracted parameters for this arc; only those two
/// entries of `params` are used.
pub fn load_slew_collapse(samples: &[TimingSample], params: &TimingParams) -> Vec<CollapseSeries> {
    let mut groups: Vec<(i64, Vec<f64>)> = Vec::new();
    for s in samples {
        let key = (s.point.vdd.value() * 1e4).round() as i64; // 0.1 mV quantization
        let collapsed = s.observed.value() / params.effective_capacitance(&s.point).value();
        let entry = groups.iter_mut().find(|(k, _)| *k == key);
        match entry {
            Some((_, values)) => values.push(collapsed),
            None => groups.push((key, vec![collapsed])),
        }
    }
    groups.sort_by_key(|(k, _)| *k);
    groups
        .into_iter()
        .map(|(vdd_tenth_mv, y)| {
            let label = format!("Vdd={:.3}V", vdd_tenth_mv as f64 / 1e4);
            let x: Vec<f64> = (1..=y.len()).map(|i| i as f64).collect();
            CollapseSeries::new(label, x, y)
        })
        .collect()
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the tests assert bit-exact results")]
mod tests {
    use super::*;
    use slic_spice::InputPoint;
    use slic_units::{Amperes, Farads, Seconds, Volts};

    fn params() -> TimingParams {
        TimingParams::new(0.39, 1.0, -0.26, 0.09)
    }

    /// Samples generated exactly from the model: both collapses must then be perfect.
    fn model_samples() -> Vec<TimingSample> {
        let p = params();
        let mut out = Vec::new();
        for &vdd in &[0.65, 0.75, 0.85, 0.95] {
            for &(cload, sin) in &[(1.0, 2.0), (2.0, 5.0), (4.0, 10.0)] {
                let point = InputPoint::new(
                    Seconds::from_picoseconds(sin),
                    Farads::from_femtofarads(cload),
                    Volts(vdd),
                );
                // Ieff varies with Vdd; the collapse divides it back out.
                let ieff = Amperes(25e-6 + 50e-6 * (vdd - 0.6));
                let observed = p.evaluate(&point, ieff);
                out.push(TimingSample::new(point, ieff, observed));
            }
        }
        out
    }

    #[test]
    fn vdd_collapse_is_flat_for_model_generated_data() {
        let series = vdd_collapse(&model_samples(), params().v_prime);
        assert_eq!(series.len(), 3, "one series per (Cload, Sin) group");
        for s in &series {
            assert_eq!(s.x.len(), 4, "one point per Vdd");
            assert!(
                s.coefficient_of_variation < 1e-9,
                "{}: cv = {}",
                s.label,
                s.coefficient_of_variation
            );
            assert!(s.x.windows(2).all(|w| w[1] > w[0]), "x must be sorted");
        }
    }

    #[test]
    fn load_slew_collapse_is_flat_for_model_generated_data() {
        let series = load_slew_collapse(&model_samples(), &params());
        assert_eq!(series.len(), 4, "one series per Vdd");
        for s in &series {
            assert_eq!(s.y.len(), 3, "one point per (Cload, Sin) combination");
            assert!(
                s.coefficient_of_variation < 1e-9,
                "{}: cv = {}",
                s.label,
                s.coefficient_of_variation
            );
        }
    }

    #[test]
    fn wrong_v_prime_breaks_the_vdd_collapse() {
        let good = vdd_collapse(&model_samples(), params().v_prime);
        let bad = vdd_collapse(&model_samples(), 0.3);
        let good_cv: f64 = good.iter().map(|s| s.coefficient_of_variation).sum();
        let bad_cv: f64 = bad.iter().map(|s| s.coefficient_of_variation).sum();
        assert!(bad_cv > 10.0 * (good_cv + 1e-12));
    }

    #[test]
    fn labels_identify_the_groups() {
        let series = vdd_collapse(&model_samples(), params().v_prime);
        assert!(series.iter().any(|s| s.label.contains("Cload=1.00fF")));
        let series = load_slew_collapse(&model_samples(), &params());
        assert!(series.iter().any(|s| s.label.contains("Vdd=0.650V")));
    }

    #[test]
    fn degenerate_groups_have_zero_cv() {
        let one = &model_samples()[..1];
        let series = vdd_collapse(one, params().v_prime);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].coefficient_of_variation, 0.0);
    }
}
