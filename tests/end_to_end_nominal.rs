//! End-to-end integration test of the nominal characterization flow (the Fig. 6 pipeline):
//! historical learning → prior/precision learning → MAP extraction on the target node →
//! validation against direct simulation, compared with the LSE and LUT baselines.

use slic::historical::{HistoricalLearner, HistoricalLearningConfig};
use slic::nominal::{MethodKind, NominalStudy, NominalStudyConfig, Reduction};
use slic::prelude::*;

fn learned_database() -> HistoricalDatabase {
    let config = HistoricalLearningConfig {
        grid_levels: (3, 3, 2),
        transient: TransientConfig::fast(),
    };
    HistoricalLearner::new(config)
        .learn(
            &[TechnologyNode::n16_finfet(), TechnologyNode::n14_finfet()],
            &Library::paper_trio(),
        )
        .expect("valid transient settings")
        .database
}

#[test]
fn bayesian_flow_beats_lut_at_small_sample_counts() {
    let db = learned_database();
    let config = NominalStudyConfig {
        validation_points: 80,
        training_counts: vec![2, 5, 20],
        ..NominalStudyConfig::default()
    };
    let study =
        NominalStudy::new(TechnologyNode::target_14nm(), &db, config).expect("valid config");
    let cell = Cell::new(CellKind::Nor2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let result = study.run(cell, &arc, TimingMetric::Delay).expect("prior");

    let bayes = result.curve(MethodKind::ProposedBayesian).unwrap();
    let lse = result.curve(MethodKind::ProposedLse).unwrap();
    let lut = result.curve(MethodKind::Lut).unwrap();

    // At two training simulations the Bayesian method is already usable and far better than
    // a two-point LUT (the paper's central claim).
    assert!(
        bayes.errors_percent[0] < 10.0,
        "k=2 Bayesian error = {}",
        bayes.errors_percent[0]
    );
    assert!(
        bayes.errors_percent[0] < lut.errors_percent[0],
        "Bayesian ({}) must beat LUT ({}) at k=2",
        bayes.errors_percent[0],
        lut.errors_percent[0]
    );
    // With 20 simulations every method has converged to a few percent; the compact model
    // should still be at least as good as the LUT there.
    assert!(*bayes.errors_percent.last().unwrap() < 8.0);
    assert!(*lse.errors_percent.last().unwrap() < 10.0);

    // Reduction at the LUT's best accuracy: the Bayesian flow reaches it with fewer
    // simulations than the LUT itself spent.
    let target = lut.best_error().expect("non-empty LUT curve");
    let reduction = Reduction::at(target, bayes, lut);
    let factor = reduction
        .factor()
        .expect("both methods reach the LUT's best accuracy");
    assert!(factor > 1.0, "Bayesian reduction vs the LUT = {factor}");
}

#[test]
fn slew_characterization_works_through_the_same_pipeline() {
    let db = learned_database();
    let config = NominalStudyConfig {
        validation_points: 60,
        training_counts: vec![3, 10],
        ..NominalStudyConfig::default()
    };
    let study =
        NominalStudy::new(TechnologyNode::target_14nm(), &db, config).expect("valid config");
    let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Rise);
    let result = study
        .run(cell, &arc, TimingMetric::OutputSlew)
        .expect("prior");
    let bayes = result.curve(MethodKind::ProposedBayesian).unwrap();
    let final_error = *bayes.errors_percent.last().unwrap();
    assert!(
        final_error < 12.0,
        "slew error at k=10 should be moderate, got {final_error}"
    );
    assert!(bayes.errors_percent.iter().all(|e| e.is_finite()));
}

#[test]
fn database_survives_serialization_between_flow_stages() {
    let db = learned_database();
    let json = db.to_json().expect("serialize");
    let restored = HistoricalDatabase::from_json(&json).expect("deserialize");

    // The JSON float formatter is allowed one ULP of slack, so compare semantically rather
    // than bit-for-bit: same structure, and every numeric field equal to within 1e-12
    // relative.
    assert_eq!(db.len(), restored.len());
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1e-300);
    for (a, b) in db.records().iter().zip(restored.records()) {
        assert_eq!(a.tech_name, b.tech_name);
        assert_eq!(a.arc_id, b.arc_id);
        assert_eq!(a.metric, b.metric);
        assert!(close(a.params.kd, b.params.kd));
        assert!(close(a.params.cpar, b.params.cpar));
        assert!(close(a.params.v_prime, b.params.v_prime));
        assert!(close(a.params.alpha, b.params.alpha));
        assert_eq!(a.residuals.len(), b.residuals.len());
        for (ra, rb) in a.residuals.iter().zip(&b.residuals) {
            assert!(close(ra.relative_residual, rb.relative_residual));
            assert!(close(ra.point.vdd.value(), rb.point.vdd.value()));
        }
    }

    // A prior learned from the restored database matches one from the original to the same
    // tolerance.
    let a = PriorBuilder::new()
        .build(&db, TimingMetric::Delay, None)
        .unwrap();
    let b = PriorBuilder::new()
        .build(&restored, TimingMetric::Delay, None)
        .unwrap();
    assert!(close(a.mean_params().kd, b.mean_params().kd));
    assert!(close(a.mean_params().cpar, b.mean_params().cpar));
}
