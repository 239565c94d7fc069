//! Golden-parity suite: the embedded-pair kernel and the [`LocalBackend`] batches that
//! run it against the seed RK4 reference, across a (cell × arc × slew × load × vdd) grid.
//!
//! Three invariants are asserted:
//!
//! 1. **Accuracy parity** — delay and output slew from the new integrator stay within
//!    0.5 % (relative) of the seed RK4 trajectory at both configuration presets;
//! 2. **Batch/scalar identity** — lane `i` of a [`LocalBackend`] batch is *bitwise* equal
//!    to [`simulate_switching`] of seed `i`;
//! 3. **Determinism** — repeating a simulation reproduces identical bits.

use rand::rngs::StdRng;
use rand::SeedableRng;
use slic_cells::{Cell, CellKind, DriveStrength, EquivalentInverter, TimingArc, Transition};
use slic_device::{ProcessSample, TechnologyNode};
use slic_spice::{
    simulate_switching, simulate_switching_rk4, InputPoint, LocalBackend, SimRequest,
    SimulationBackend, TransientConfig,
};
use slic_units::{Farads, Seconds, Volts};
use std::sync::Arc;

const PARITY_TOLERANCE: f64 = 0.005;

fn grid_points() -> Vec<InputPoint> {
    let mut points = Vec::new();
    for sin_ps in [1.0, 5.0, 15.0] {
        for cload_ff in [0.5, 2.0, 5.0] {
            for vdd in [0.65, 0.8, 1.0] {
                points.push(InputPoint::new(
                    Seconds::from_picoseconds(sin_ps),
                    Farads::from_femtofarads(cload_ff),
                    Volts(vdd),
                ));
            }
        }
    }
    points
}

fn grid_cells() -> Vec<Cell> {
    vec![
        Cell::new(CellKind::Inv, DriveStrength::X1),
        Cell::new(CellKind::Nand2, DriveStrength::X2),
        Cell::new(CellKind::Nor2, DriveStrength::X1),
    ]
}

/// One request per process seed: `arc` at `point`.
fn requests(
    tech: &Arc<TechnologyNode>,
    arc: TimingArc,
    point: InputPoint,
    seeds: &[ProcessSample],
    config: TransientConfig,
) -> Vec<SimRequest> {
    seeds
        .iter()
        .map(|&seed| SimRequest {
            tech: tech.clone(),
            cell: arc.cell(),
            arc,
            point,
            seed,
            config,
        })
        .collect()
}

#[test]
fn embedded_pair_stays_within_half_percent_of_seed_rk4() {
    // The golden reference is the seed RK4 at its *accurate* preset — the configuration the
    // seed itself designates for baseline ("golden") characterization.  Both presets of the
    // new kernel are held to it: the fast preset of the embedded pair must deliver
    // golden-baseline accuracy, not merely match the fast RK4's own discretization error
    // (which drifts ~1 % from a fine-step truth at the fastest corners).
    let tech = TechnologyNode::n14_finfet();
    let mut worst_delay = 0.0_f64;
    let mut worst_slew = 0.0_f64;
    for config in [TransientConfig::accurate(), TransientConfig::fast()] {
        for cell in grid_cells() {
            let eq = EquivalentInverter::nominal(&tech, cell);
            for transition in Transition::BOTH {
                let arc = TimingArc::new(cell, 0, transition);
                for point in grid_points() {
                    let new = simulate_switching(&eq, &arc, &point, &config).unwrap();
                    let (golden, _) =
                        simulate_switching_rk4(&eq, &arc, &point, &TransientConfig::accurate())
                            .unwrap();
                    let delay_err =
                        (new.delay.value() - golden.delay.value()).abs() / golden.delay.value();
                    let slew_err = (new.output_slew.value() - golden.output_slew.value()).abs()
                        / golden.output_slew.value();
                    assert!(
                        delay_err < PARITY_TOLERANCE,
                        "{cell} {transition} at {point}: delay parity {delay_err:.4}"
                    );
                    assert!(
                        slew_err < PARITY_TOLERANCE,
                        "{cell} {transition} at {point}: slew parity {slew_err:.4}"
                    );
                    worst_delay = worst_delay.max(delay_err);
                    worst_slew = worst_slew.max(slew_err);
                }
            }
        }
    }
    // The tolerance must not be sitting on the edge: the grid's worst case should clear it
    // with real margin, so small platform-to-platform rounding differences cannot flake.
    assert!(
        worst_delay < 0.8 * PARITY_TOLERANCE && worst_slew < 0.8 * PARITY_TOLERANCE,
        "parity margin too thin: worst delay {worst_delay:.4}, worst slew {worst_slew:.4}"
    );
}

#[test]
fn embedded_pair_cuts_steps_at_least_twofold_on_the_grid() {
    let tech = Arc::new(TechnologyNode::n14_finfet());
    let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
    let eq = EquivalentInverter::nominal(&tech, cell);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let nominal = [ProcessSample::nominal()];
    for config in [TransientConfig::accurate(), TransientConfig::fast()] {
        let backend = LocalBackend::new();
        let mut rk4_evals = 0u64;
        for point in grid_points() {
            let solved = backend.solve_batch(&requests(&tech, arc, point, &nominal, config));
            assert!(solved[0].is_ok());
            let (_, s) = simulate_switching_rk4(&eq, &arc, &point, &config).unwrap();
            rk4_evals += s.device_evals;
        }
        let new_evals = backend.kernel_stats().expect("local kernel").device_evals;
        assert!(
            2 * new_evals <= rk4_evals,
            "expected >= 2x fewer device evals ({new_evals} vs {rk4_evals})"
        );
    }
}

#[test]
fn batch_lane_is_bitwise_equal_to_scalar_across_the_grid() {
    let tech = Arc::new(TechnologyNode::n28_bulk());
    let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let mut rng = StdRng::seed_from_u64(2015);
    let seeds = tech.variation().sample_n(&mut rng, 16);
    let lanes: Vec<EquivalentInverter> = seeds
        .iter()
        .map(|s| EquivalentInverter::build(&tech, cell, s))
        .collect();
    let config = TransientConfig::fast();
    let backend = LocalBackend::new();
    for point in grid_points() {
        let batch = backend.solve_batch(&requests(&tech, arc, point, &seeds, config));
        assert_eq!(batch.len(), lanes.len());
        for (i, (eq, lane)) in lanes.iter().zip(batch).enumerate() {
            let scalar = simulate_switching(eq, &arc, &point, &config).unwrap();
            let lane = lane.unwrap();
            assert_eq!(
                lane.delay.value().to_bits(),
                scalar.delay.value().to_bits(),
                "lane {i} delay bits diverge at {point}"
            );
            assert_eq!(
                lane.output_slew.value().to_bits(),
                scalar.output_slew.value().to_bits(),
                "lane {i} slew bits diverge at {point}"
            );
        }
    }
}

#[test]
fn repeated_runs_are_bitwise_deterministic() {
    let tech = TechnologyNode::n14_finfet();
    let cell = Cell::new(CellKind::Nor2, DriveStrength::X2);
    let eq = EquivalentInverter::nominal(&tech, cell);
    let config = TransientConfig::accurate();
    for transition in Transition::BOTH {
        let arc = TimingArc::new(cell, 0, transition);
        for point in grid_points() {
            let a = simulate_switching(&eq, &arc, &point, &config).unwrap();
            let b = simulate_switching(&eq, &arc, &point, &config).unwrap();
            assert_eq!(a.delay.value().to_bits(), b.delay.value().to_bits());
            assert_eq!(
                a.output_slew.value().to_bits(),
                b.output_slew.value().to_bits()
            );
        }
    }
}
