//! Section V speedup decomposition and Section IV cost model:
//! `O(k·Nsample)` vs `O(NLUT·Nsample)` vs `O(k·Nsample + NTech·NLUT)`, and the split of the
//! measured nominal speedup into the compact-model contribution and the Bayesian-prior
//! contribution (paper: ≈6× and ≈2.5×, for ≈15× total).

use criterion::{criterion_group, criterion_main, Criterion};
use slic::cost::SpeedupDecomposition;
use slic::nominal::{MethodCurve, MethodKind, NominalStudy, NominalStudyConfig};
use slic::prelude::*;
use slic::report::markdown_table;
use slic::CostModel;
use slic_bench::{banner, bench_historical_db, finfet_history};

fn regenerate(db: &HistoricalDatabase) {
    banner(
        "Cost model + speedup decomposition (Section IV complexity claim, Section V text)",
        "simulation counts per arc for each flow, and where the measured speedup comes from",
    );

    // Analytic cost model at a few operating points.
    let headers: Vec<String> = [
        "NLUT",
        "k",
        "Nsample",
        "LUT cost",
        "proposed cost",
        "with history",
        "speedup",
        "speedup w/ history",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for (n_lut, k, n_sample) in [(60, 4, 1000), (60, 7, 1000), (100, 5, 1000), (60, 4, 300)] {
        let cost = CostModel::new(n_lut, k, n_sample, 6);
        rows.push(vec![
            n_lut.to_string(),
            k.to_string(),
            n_sample.to_string(),
            cost.lut_cost().to_string(),
            cost.proposed_cost().to_string(),
            cost.proposed_cost_with_history().to_string(),
            format!("{:.1}x", cost.speedup()),
            format!("{:.1}x", cost.speedup_with_history()),
        ]);
    }
    println!("{}", markdown_table(&headers, &rows));

    // Measured decomposition from a nominal study.
    let config = NominalStudyConfig {
        validation_points: 200,
        training_counts: vec![1, 2, 3, 5, 10, 20, 50],
        ..NominalStudyConfig::default()
    };
    let study = NominalStudy::new(TechnologyNode::target_14nm(), db, config)
        .expect("the study configuration is valid");
    let cell = Cell::new(CellKind::Nor2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let result = study
        .run(cell, &arc, TimingMetric::Delay)
        .expect("the database has delay records");
    let curve = |method| result.curve(method).expect("the study ran every method");
    let bayes = curve(MethodKind::ProposedBayesian);
    let lse = curve(MethodKind::ProposedLse);
    let lut = curve(MethodKind::Lut);
    let final_error = |c: &MethodCurve| c.final_error().expect("curves are non-empty");
    let target = final_error(bayes)
        .max(final_error(lse))
        .max(final_error(lut));
    if let (Some(b), Some(l), Some(t)) = (
        bayes.simulations_to_reach(target),
        lse.simulations_to_reach(target),
        lut.simulations_to_reach(target),
    ) {
        let decomposition = SpeedupDecomposition {
            lut_simulations: t,
            lse_simulations: l,
            bayesian_simulations: b,
        };
        println!(
            "measured at {target:.2}% accuracy for {}: LUT needs {t}, LSE needs {l}, Bayesian needs {b} simulations",
            arc.id()
        );
        println!(
            "  -> compact model alone: {:.1}x, Bayesian prior on top: {:.1}x, total: {:.1}x",
            decomposition.model_contribution(),
            decomposition.bayesian_contribution(),
            decomposition.total()
        );
    }
    println!("(paper: ~6x from the model, ~2.5x from the prior, ~15x total)");
}

fn bench(c: &mut Criterion) {
    let db = bench_historical_db(&finfet_history());
    regenerate(&db);
    c.bench_function("cost_model_evaluation", |b| {
        b.iter(|| {
            let cost = CostModel::new(60, 4, 1000, 6);
            (cost.speedup(), cost.speedup_with_history())
        })
    });
}

criterion_group! {
    name = benches;
    config = slic_bench::criterion_config();
    targets = bench
}
criterion_main!(benches);
