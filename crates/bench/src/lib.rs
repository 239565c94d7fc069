//! Shared scaffolding for the experiment-regeneration benches.
//!
//! The `paper` bench regenerates every table and figure of the paper once, prints each as
//! Markdown and records them in the committed `BENCH_paper.json` ([`paper`]); the
//! `transient_kernel` bench times the transient solver and records `BENCH_transient.json`
//! ([`emit`]).  The experiment sizes are reduced relative to the paper (the paper's
//! baselines are 1000-point × 1000-seed HSPICE campaigns); the *shape* of every comparison
//! — who wins, by roughly what factor, where the crossovers sit — is what the harness
//! reproduces.

pub mod emit;
pub mod paper;

use slic::historical::{HistoricalLearner, HistoricalLearningConfig};
use slic::prelude::*;

/// Historical-learning configuration used by the benches (coarser than the paper's grids but
/// enough for stable priors).
pub fn bench_learning_config() -> HistoricalLearningConfig {
    HistoricalLearningConfig {
        grid_levels: (3, 3, 2),
        transient: TransientConfig::fast(),
    }
}

/// Learns a historical database from a subset of the suite sized for bench runtime.
pub fn bench_historical_db(technologies: &[TechnologyNode]) -> HistoricalDatabase {
    HistoricalLearner::new(bench_learning_config())
        .learn(technologies, &Library::paper_trio())
        .expect("the bench learning configuration is valid")
        .database
}

/// The two newest historical nodes — enough prior information for the 14-nm experiments.
pub fn finfet_history() -> Vec<TechnologyNode> {
    vec![TechnologyNode::n16_finfet(), TechnologyNode::n14_finfet()]
}

/// The planar nodes used as history for the 28-nm statistical experiments.
pub fn planar_history() -> Vec<TechnologyNode> {
    vec![
        TechnologyNode::n28_bulk(),
        TechnologyNode::n32_soi(),
        TechnologyNode::n20_bulk(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_history_helpers_produce_usable_databases() {
        let db = bench_historical_db(&finfet_history());
        assert!(!db.is_empty());
        assert_eq!(db.technology_names().len(), 2);
        assert_eq!(finfet_history().len(), 2);
        assert_eq!(planar_history().len(), 3);
    }
}
