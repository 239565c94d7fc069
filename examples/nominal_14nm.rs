//! Fig. 6 reproduction at example scale: nominal delay characterization of a 14-nm library.
//!
//! Compares "Proposed Model + Bayesian Inference", "Proposed Model + LSE" and the lookup
//! table on the target 14-nm technology, as a function of the number of training
//! simulations, and reports each model's reduction in simulations against the LUT at the
//! accuracy the paper quotes.
//!
//! Run with `cargo run --release --example nominal_14nm`.

use slic::historical::{HistoricalLearner, HistoricalLearningConfig};
use slic::nominal::{MethodKind, NominalStudy, NominalStudyConfig, Reduction, FIG6_TARGET_PERCENT};
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
            .run(&arc, TimingMetric::Delay)
            .expect("the historical suite has delay records");
        println!("{}", result.to_markdown());

        // The paper's reduction: the LUT's training conditions over the method's, both read
        // off the best-so-far error curve at the accuracy the paper quotes for Fig. 6.
        let curve = |method| result.curve(method).expect("the study ran every method");
        for method in [MethodKind::ProposedBayesian, MethodKind::ProposedLse] {
            let reduction =
                Reduction::at(FIG6_TARGET_PERCENT, curve(method), curve(MethodKind::Lut));
            let bound = if reduction.is_lower_bound() {
                ">= "
            } else {
                ""
            };
            match reduction.factor() {
                Some(factor) => println!(
                    "{method}: {bound}{factor:.1}x fewer simulations than the LUT at {FIG6_TARGET_PERCENT}% error"
                ),
                None => println!("{method}: no reduction (a curve never reaches {FIG6_TARGET_PERCENT}%)"),
            }
        }
        println!(
            "baseline cost for this arc: {} simulations\n",
            result.baseline_simulations
        );
    }
}
