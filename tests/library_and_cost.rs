//! Integration tests of the supporting deliverables: Liberty export, LUT baseline behaviour
//! through the public facade, and the simulation-cost accounting that underlies every
//! speedup number.

use slic::liberty::{export_library, ExportGrid};
use slic::prelude::*;
use slic::CostModel;

#[test]
fn liberty_export_is_complete_and_costed() {
    let engine =
        CharacterizationEngine::with_config(TechnologyNode::target_14nm(), TransientConfig::fast())
            .expect("valid transient configuration");
    let library = Library::new(
        "ship",
        [
            Cell::new(CellKind::Inv, DriveStrength::X1),
            Cell::new(CellKind::Nand2, DriveStrength::X1),
            Cell::new(CellKind::Nor2, DriveStrength::X1),
        ],
    );
    let grid = ExportGrid {
        slew_levels: 3,
        load_levels: 3,
    };
    let text = export_library(&engine, &library, grid).expect("export succeeds");

    // Structure: one library group, three cells, both transitions per cell.
    assert_eq!(text.matches("cell (").count(), 3);
    assert_eq!(text.matches("cell_rise").count(), 3);
    assert_eq!(text.matches("cell_fall").count(), 3);
    assert_eq!(text.matches("rise_transition").count(), 3);
    assert_eq!(text.matches('{').count(), text.matches('}').count());
    // Cost: 3 cells x 2 transitions x 9 grid points.
    assert_eq!(engine.simulation_count(), 54);
}

#[test]
fn lut_baseline_converges_through_public_facade() {
    let engine =
        CharacterizationEngine::with_config(TechnologyNode::n14_finfet(), TransientConfig::fast())
            .expect("valid transient configuration");
    let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let builder = LutBuilder::new(&engine);
    let coarse = builder.build_nominal_with_budget(cell, &arc, 8);
    let fine = builder.build_nominal_with_budget(cell, &arc, 48);

    let probe = InputPoint::new(
        Seconds::from_picoseconds(6.3),
        Farads::from_femtofarads(2.7),
        Volts(0.82),
    );
    let reference = engine.simulate_nominal(cell, &arc, &probe);
    let coarse_err = (coarse.predict(&probe).delay.value() - reference.delay.value()).abs()
        / reference.delay.value();
    let fine_err = (fine.predict(&probe).delay.value() - reference.delay.value()).abs()
        / reference.delay.value();
    assert!(
        fine_err < coarse_err,
        "finer LUT must be closer ({fine_err} vs {coarse_err})"
    );
    assert!(fine_err < 0.05);
    assert!(coarse.simulation_cost <= 8);
    assert!(fine.simulation_cost <= 48);
}

#[test]
fn cost_model_matches_the_papers_complexity_claims() {
    // The paper's representative numbers: k about 4 vs a 60-entry LUT at 1000 seeds gives
    // the 15x headline; charging the historical re-characterization leaves it above 10x.
    let cost = CostModel::paper_defaults();
    assert!((cost.speedup() - 15.0).abs() < 1e-9);
    assert!(cost.speedup_with_history() > 10.0);
    // Statistical case: 7 conditions vs a 60-entry statistical LUT is the Fig. 9 setup.
    let statistical = CostModel::new(60, 7, 1000, 6);
    assert!(statistical.speedup() > 8.0 && statistical.speedup() < 9.0);
}

#[test]
fn simulation_counters_isolate_per_engine_campaigns() {
    // Two engines over different technologies keep independent counts, so per-experiment
    // cost attribution in the studies is trustworthy.
    let a =
        CharacterizationEngine::with_config(TechnologyNode::n45_bulk(), TransientConfig::fast())
            .expect("valid transient configuration");
    let b =
        CharacterizationEngine::with_config(TechnologyNode::n14_finfet(), TransientConfig::fast())
            .expect("valid transient configuration");
    let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let point = InputPoint::new(
        Seconds::from_picoseconds(5.0),
        Farads::from_femtofarads(2.0),
        Volts(0.9),
    );
    let _ = a.simulate_nominal(cell, &arc, &point);
    let _ = a.simulate_nominal(cell, &arc, &point);
    let _ = b.simulate_nominal(cell, &arc, &point);
    assert_eq!(a.simulation_count(), 2);
    assert_eq!(b.simulation_count(), 1);
}

#[test]
fn public_prelude_covers_the_full_stack() {
    // A compile-time smoke test that the facade exposes every layer: units, device, cells,
    // simulator, LUT, model, Bayesian engine and statistics.
    let _v: Volts = Volts(0.8);
    let _tech: TechnologyNode = TechnologyNode::n28_bulk();
    let _cell: Cell = Cell::new(CellKind::Aoi21, DriveStrength::X2);
    let _params: TimingParams = TimingParams::initial_guess();
    let _prior_builder: PriorBuilder = PriorBuilder::new();
    let _summary: Summary = Summary::from_samples(&[1.0, 2.0]);
    let _cfg: TransientConfig = TransientConfig::fast();
    let _levels = grid_levels_for_budget(10);
}
