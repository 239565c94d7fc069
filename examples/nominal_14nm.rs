//! Fig. 6 reproduction at example scale: nominal delay characterization of a 14-nm library.
//!
//! Compares "Proposed Model + Bayesian Inference", "Proposed Model + LSE" and the lookup
//! table on the target 14-nm technology, as a function of the number of training
//! simulations, and reports the simulation-count speedup at matched accuracy.
//!
//! Run with `cargo run --release --example nominal_14nm`.

use slic::historical::{HistoricalLearner, HistoricalLearningConfig};
use slic::nominal::{MethodCurve, MethodKind, NominalStudy, NominalStudyConfig};
use slic::prelude::*;

fn main() {
    let library = Library::paper_trio();
    println!("learning priors from the historical technology suite...");
    let learning = HistoricalLearner::new(HistoricalLearningConfig::default())
        .learn(&TechnologyNode::historical_suite(), &library)
        .expect("valid transient configuration");
    println!(
        "  {} records, {} simulations spent on historical nodes\n",
        learning.database.len(),
        learning.simulation_cost
    );

    let config = NominalStudyConfig {
        validation_points: 300,
        training_counts: vec![1, 2, 3, 5, 10, 20, 50],
        ..NominalStudyConfig::default()
    };
    let study = NominalStudy::new(TechnologyNode::target_14nm(), &learning.database, config)
        .expect("valid transient configuration");

    for kind in [CellKind::Inv, CellKind::Nand2, CellKind::Nor2] {
        let cell = Cell::new(kind, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        println!("=== {} / delay (Fig. 6 analogue) ===", arc.id());
        let result = study
            .run(cell, &arc, TimingMetric::Delay)
            .expect("the historical suite has delay records");
        println!("{}", result.to_markdown());

        let final_error = |method| {
            result
                .curve(method)
                .and_then(MethodCurve::final_error)
                .expect("the study ran every method")
        };
        let target = final_error(MethodKind::ProposedBayesian).max(final_error(MethodKind::Lut));
        if let Some(speedup) =
            result.speedup_at(target, MethodKind::ProposedBayesian, MethodKind::Lut)
        {
            println!("speedup vs LUT at {target:.2}% accuracy: {speedup:.1}x");
        }
        if let Some(speedup) = result.speedup_at(target, MethodKind::ProposedLse, MethodKind::Lut) {
            println!("  of which the compact model alone contributes: {speedup:.1}x");
        }
        if let Some(speedup) = result.speedup_at(
            target,
            MethodKind::ProposedBayesian,
            MethodKind::ProposedLse,
        ) {
            println!("  and the Bayesian prior contributes another: {speedup:.1}x");
        }
        println!(
            "baseline cost for this arc: {} simulations\n",
            result.baseline_simulations
        );
    }
}
