//! End-to-end integration test of the statistical characterization flow (Figs. 7–9):
//! per-seed MAP extraction from a handful of conditions must reconstruct the delay / slew
//! statistics that the full Monte Carlo baseline measures.

use slic::historical::{HistoricalLearner, HistoricalLearningConfig};
use slic::nominal::{MethodKind, Reduction};
use slic::prelude::*;
use slic::statistical::{StatMetric, StatisticalStudy, StatisticalStudyConfig};

fn learned_database() -> HistoricalDatabase {
    let config = HistoricalLearningConfig {
        grid_levels: (3, 3, 2),
        transient: TransientConfig::fast(),
    };
    HistoricalLearner::new(config)
        .learn(
            &[TechnologyNode::n28_bulk(), TechnologyNode::n32_soi()],
            &Library::paper_trio(),
        )
        .expect("valid transient settings")
        .database
}

#[test]
fn statistical_moments_are_reconstructed_from_few_conditions() {
    let db = learned_database();
    let config = StatisticalStudyConfig {
        validation_points: 25,
        process_seeds: 40,
        training_counts: vec![3, 10],
        ..StatisticalStudyConfig::default()
    };
    let study =
        StatisticalStudy::new(TechnologyNode::target_28nm(), &db, config).expect("valid config");
    let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let result = study.run(cell, &arc).expect("prior");

    let bayes = result.curves_for(MethodKind::ProposedBayesian).unwrap();
    let lut = result.curves_for(MethodKind::Lut).unwrap();

    // Mean reconstruction is accurate already at 3 conditions per seed.
    assert!(
        bayes.mean_delay_error[0] < 10.0,
        "mean delay err = {}",
        bayes.mean_delay_error[0]
    );
    assert!(
        bayes.mean_slew_error[0] < 12.0,
        "mean slew err = {}",
        bayes.mean_slew_error[0]
    );
    // Sigma reconstruction is harder but must stay bounded and improve (or hold) with more
    // conditions.
    assert!(bayes.std_delay_error[0] < 60.0);
    assert!(bayes.std_delay_error[1] <= bayes.std_delay_error[0] + 10.0);
    // The proposed method beats a 3-condition statistical LUT on the mean metrics.
    assert!(bayes.mean_delay_error[0] < lut.mean_delay_error[0]);
    assert!(bayes.mean_slew_error[0] < lut.mean_slew_error[0]);
    // Cost accounting: per-k cost is k x seeds for the model methods.
    assert_eq!(bayes.simulations[0], 3 * 40);
    assert_eq!(result.baseline_simulations, 25 * 40);

    // Reduction at the statistical LUT's best mean-delay accuracy: the proposed method
    // reaches it with fewer simulations than the LUT.
    let bayes_mean = bayes.as_method_curve(StatMetric::MeanDelay);
    let lut_mean = lut.as_method_curve(StatMetric::MeanDelay);
    let target = lut_mean.best_error().expect("non-empty LUT curve");
    let factor = Reduction::at(target, &bayes_mean, &lut_mean)
        .factor()
        .expect("both methods reach the LUT's best mean-delay accuracy");
    assert!(factor > 1.0, "Bayesian reduction vs the LUT = {factor}");
}

#[test]
fn low_vdd_delay_pdf_is_right_skewed_and_reconstructed() {
    let db = learned_database();
    let config = StatisticalStudyConfig {
        validation_points: 10,
        process_seeds: 80,
        training_counts: vec![3],
        ..StatisticalStudyConfig::default()
    };
    let study =
        StatisticalStudy::new(TechnologyNode::target_28nm(), &db, config).expect("valid config");
    let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let corner = InputPoint::new(
        Seconds::from_picoseconds(5.09),
        Farads::from_femtofarads(1.67),
        Volts(0.734),
    );
    let pdf = study.delay_pdf(cell, &arc, corner, 7, 12).expect("prior");

    // Near-threshold operation skews the delay distribution to the right (slow tail), the
    // Fig. 9 effect: the low-Vdd distribution is clearly more skewed than the same arc at
    // nominal supply.
    let low_vdd_skew = pdf.baseline_skewness();
    assert!(
        low_vdd_skew > 0.1,
        "expected right skew at low Vdd, got {low_vdd_skew}"
    );
    // Deterministic check of the same mechanism, free of Monte Carlo noise: a +1σ threshold
    // shift slows the cell down by more than a −1σ shift speeds it up (convexity of delay in
    // Vth), and the asymmetry is stronger at the low-Vdd corner than at nominal supply.
    let engine = study.engine();
    let sigma = engine.tech().variation().vth_sigma_total();
    let asymmetry = |vdd: f64| -> f64 {
        let probe = InputPoint::new(
            Seconds::from_picoseconds(5.09),
            Farads::from_femtofarads(1.67),
            Volts(vdd),
        );
        let delay_at = |shift: f64| {
            let mut seed = ProcessSample::nominal();
            seed.delta_vth_n = shift;
            seed.delta_vth_p = shift;
            engine.simulate(cell, &arc, &probe, &seed).delay.value()
        };
        let slow = delay_at(sigma);
        let nominal = delay_at(0.0);
        let fast = delay_at(-sigma);
        (slow - nominal) - (nominal - fast)
    };
    let low_vdd_asymmetry = asymmetry(0.734);
    let nominal_vdd_asymmetry = asymmetry(1.05);
    assert!(
        low_vdd_asymmetry > 0.0,
        "delay must be convex in Vth near threshold"
    );
    assert!(
        low_vdd_asymmetry > nominal_vdd_asymmetry,
        "non-Gaussianity must grow as Vdd drops ({low_vdd_asymmetry} vs {nominal_vdd_asymmetry})"
    );
    // The proposed reconstruction tracks the baseline closely seed-by-seed and preserves the
    // skew sign.
    assert!(pdf.proposed_error_percent() < 15.0);
    let proposed_skew = Summary::from_samples(&pdf.proposed).skewness;
    assert!(proposed_skew > 0.0, "proposed skew = {proposed_skew}");
    // The spread of the reconstruction matches the baseline to within a third.
    let base = Summary::from_samples(&pdf.baseline);
    let prop = Summary::from_samples(&pdf.proposed);
    assert!((prop.std_dev - base.std_dev).abs() / base.std_dev < 0.35);
}
