//! SIMD-kernel parity suite: `LocalBackend::with_simd(true)` against the scalar kernel,
//! across the same (cell × arc × slew × load × vdd) grid as the golden-parity suite.
//!
//! Three invariants are asserted:
//!
//! 1. **Accuracy envelope** — every SIMD lane stays within 0.5 % (relative) of its scalar
//!    simulation for delay and output slew, at both configuration presets (the same bound
//!    the CI bench gate enforces against the RK4 golden);
//! 2. **Determinism** — repeating a SIMD batch reproduces identical bits;
//! 3. **Opt-in only** — with `simd = false` the backend is *bitwise* identical to the
//!    scalar solver, so default runs (and their cache keys and artifacts) never move.

#![expect(
    clippy::expect_used,
    reason = "helper functions abort the test on a setup failure"
)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use slic_cells::{Cell, CellKind, DriveStrength, EquivalentInverter, TimingArc, Transition};
use slic_device::{ProcessSample, TechnologyNode};
use slic_spice::{
    simulate_switching, CharacterizationEngine, InputPoint, LocalBackend, SimRequest,
    SimulationBackend, TimingMeasurement, TransientConfig,
};
use slic_units::{Farads, Seconds, Volts};
use std::sync::Arc;

const SIMD_TOLERANCE: f64 = 0.005;

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

fn relative_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs()
}

/// One SIMD batch: `arc` at `point` under every seed, through the quad kernel.
fn simd_batch(
    tech: &Arc<TechnologyNode>,
    arc: TimingArc,
    point: InputPoint,
    seeds: &[ProcessSample],
    config: TransientConfig,
) -> Vec<TimingMeasurement> {
    let requests: Vec<SimRequest> = seeds
        .iter()
        .map(|&seed| SimRequest {
            tech: tech.clone(),
            cell: arc.cell(),
            arc,
            point,
            seed,
            config,
        })
        .collect();
    LocalBackend::with_simd(true)
        .solve_batch(&requests)
        .into_iter()
        .map(|lane| lane.expect("lane completes"))
        .collect()
}

#[test]
fn simd_lanes_stay_within_half_percent_of_scalar_across_the_grid() {
    let tech = Arc::new(TechnologyNode::n14_finfet());
    let mut rng = StdRng::seed_from_u64(2015);
    let seeds = tech.variation().sample_n(&mut rng, 6);
    let mut worst = 0.0_f64;
    for config in [TransientConfig::accurate(), TransientConfig::fast()] {
        for cell in grid_cells() {
            // Six seeded lanes: one full quad plus a scalar tail of two.
            let lanes: Vec<EquivalentInverter> = seeds
                .iter()
                .map(|s| EquivalentInverter::build(&tech, cell, s))
                .collect();
            for transition in Transition::BOTH {
                let arc = TimingArc::new(cell, 0, transition);
                for point in grid_points() {
                    let batch = simd_batch(&tech, arc, point, &seeds, config);
                    for (i, (eq, simd)) in lanes.iter().zip(batch).enumerate() {
                        let scalar = simulate_switching(eq, &arc, &point, &config).unwrap();
                        let delay_err = relative_err(simd.delay.value(), scalar.delay.value());
                        let slew_err =
                            relative_err(simd.output_slew.value(), scalar.output_slew.value());
                        assert!(
                            delay_err < SIMD_TOLERANCE && slew_err < SIMD_TOLERANCE,
                            "{cell} {transition} lane {i} at {point}: delay err {delay_err:.5}, \
                             slew err {slew_err:.5}"
                        );
                        worst = worst.max(delay_err).max(slew_err);
                    }
                }
            }
        }
    }
    // The envelope must not be sitting on the edge; rounding differences across
    // platforms must not flake the suite.
    assert!(worst < 0.8 * SIMD_TOLERANCE, "margin too thin: {worst:.5}");
}

#[test]
fn simd_batches_are_bitwise_deterministic() {
    let tech = Arc::new(TechnologyNode::n28_bulk());
    let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let mut rng = StdRng::seed_from_u64(7);
    let seeds = tech.variation().sample_n(&mut rng, 5);
    let config = TransientConfig::fast();
    for point in grid_points() {
        let a = simd_batch(&tech, arc, point, &seeds, config);
        let b = simd_batch(&tech, arc, point, &seeds, config);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.delay.value().to_bits(), y.delay.value().to_bits());
            assert_eq!(
                x.output_slew.value().to_bits(),
                y.output_slew.value().to_bits()
            );
        }
    }
}

#[test]
fn simd_disabled_engine_is_bitwise_identical_to_the_scalar_engine() {
    let tech = TechnologyNode::n14_finfet();
    let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Rise);
    let mut rng = StdRng::seed_from_u64(11);
    let seeds = tech.variation().sample_n(&mut rng, 9);
    let point = InputPoint::new(
        Seconds::from_picoseconds(5.0),
        Farads::from_femtofarads(2.0),
        Volts(0.8),
    );
    let scalar_engine =
        CharacterizationEngine::with_config(tech.clone(), TransientConfig::fast()).unwrap();
    let simd_off_engine = CharacterizationEngine::with_config(tech, TransientConfig::fast())
        .unwrap()
        .with_backend(Arc::new(LocalBackend::with_simd(false)));
    let a = scalar_engine.monte_carlo(&arc, &point, &seeds);
    let b = simd_off_engine.monte_carlo(&arc, &point, &seeds);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.delay.value().to_bits(),
            y.delay.value().to_bits(),
            "simd = false must not perturb a single bit"
        );
        assert_eq!(
            x.output_slew.value().to_bits(),
            y.output_slew.value().to_bits()
        );
    }
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random input conditions and process seeds: every SIMD lane within the accuracy
    /// envelope of its scalar simulation, at whichever preset.
    #[test]
    fn simd_lane_tracks_scalar_within_envelope(
        sin_ps in 0.5f64..30.0,
        cload_ff in 0.2f64..8.0,
        vdd in 0.6f64..1.1,
        seed in 0u64..1000,
        fast in 0u32..2,
    ) {
        let tech = Arc::new(TechnologyNode::n14_finfet());
        let cell = Cell::new(CellKind::Nor2, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let mut rng = StdRng::seed_from_u64(seed);
        let seeds = tech.variation().sample_n(&mut rng, 4);
        let lanes: Vec<EquivalentInverter> = seeds
            .iter()
            .map(|s| EquivalentInverter::build(&tech, cell, s))
            .collect();
        let config = if fast == 1 { TransientConfig::fast() } else { TransientConfig::accurate() };
        let point = InputPoint::new(
            Seconds::from_picoseconds(sin_ps),
            Farads::from_femtofarads(cload_ff),
            Volts(vdd),
        );
        let batch = simd_batch(&tech, arc, point, &seeds, config);
        for (eq, simd) in lanes.iter().zip(batch) {
            let scalar = simulate_switching(eq, &arc, &point, &config).unwrap();
            prop_assert!(
                relative_err(simd.delay.value(), scalar.delay.value()) < SIMD_TOLERANCE
            );
            prop_assert!(
                relative_err(simd.output_slew.value(), scalar.output_slew.value())
                    < SIMD_TOLERANCE
            );
        }
    }
}
