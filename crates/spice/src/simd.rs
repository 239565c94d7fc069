//! SIMD quad worklist: four transient lanes per step attempt through the vector kernel.
//!
//! The scalar [`LocalBackend`](crate::backend::LocalBackend) integrates its lanes one at a
//! time, so every derivative evaluation pays scalar libm transcendentals.  This module,
//! which [`LocalBackend::with_simd`](crate::backend::LocalBackend::with_simd) runs, packs
//! lanes into **quads** and evaluates all four lanes' Bogacki–Shampine stages through the
//! [`CompiledInverterX4`] vector model, whose transcendentals are the fixed-polynomial
//! kernels of `slic_device::vmath` — arithmetic the autovectorizer keeps in vector
//! registers.
//!
//! Quad membership is fixed once per batch — lanes are chunked in input order, the last
//! (partial) quad padded by repeating its final lane — so the per-quad constant packing
//! happens once, off the hot loop.  Each quad with at least one unretired lane performs
//! **one step attempt** per round: rejected lanes shrink their proposal and retry on the
//! next round (which reproduces exactly the attempt sequence of the scalar reject loop,
//! because an attempt's outcome depends only on its own lane's state), retired lanes keep
//! their quad slot but are masked out of the write-back, and a quad leaves the worklist
//! when its last real lane retires.  The quad-occupancy statistic reports how many slots
//! carried real unretired lanes.  Accept/reject, the PI controller, crossing recording
//! and retirement run through the same [`LaneState::finish_attempt`] the scalar kernel
//! uses, so the two modes differ *only* in how the stage derivatives are computed.
//!
//! **Accuracy contract.**  Every vector-math kernel is element-wise (lane `i` of a result
//! depends only on lane `i` of the inputs), so a lane's trajectory is independent of quad
//! composition, batch size and retirement order — the SIMD result for a problem is a
//! deterministic function of that problem alone.  It is *not* bitwise identical to the
//! scalar libm kernel: the polynomial transcendentals differ from libm by ~1e-12 relative.
//! That is why the mode is opt-in (`kernel.simd = true`), keyed apart in the simulation
//! cache ([`SIMD_KERNEL_ID`](crate::cache::SIMD_KERNEL_ID)) and carried by a CI-gated
//! ≤0.5 % accuracy bound against the golden reference instead of the scalar path's
//! bitwise guarantee.

use crate::transient::{LaneResult, LaneState, TransientProblem};
use slic_device::vmath::F64x4;
use slic_device::{drain_current4_batch, CompiledDeviceX4, CompiledInverterX4, SweepScratch};

/// Work counters of one SIMD batch integration, which the backend folds into its
/// [`KernelStatsSnapshot`](crate::backend::KernelStatsSnapshot) (the quad occupancy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SimdBatchStats {
    /// Quad step attempts executed (each evaluates four lanes of stage derivatives).
    pub(crate) quad_rounds: u64,
    /// Real (non-padding) lanes those quad attempts advanced.
    pub(crate) active_lane_rounds: u64,
}

/// The per-quad constants of the vector derivative: four lanes' problem parameters packed
/// structure-of-arrays, built once per batch (quad membership is fixed).  The quad's two
/// packed devices live in the batch-wide dense device table, not here — the hot loop
/// evaluates them through [`drain_current4_batch`].
struct QuadConsts {
    vdd: F64x4,
    inv_ramp_time: F64x4,
    ramp_time: F64x4,
    ramp_slope: F64x4,
    /// Input voltage at ramp start (`0` for a rising input, `vdd` for a falling one).
    vin0: F64x4,
    /// Signed input swing across the ramp (`vin = vin0 + dvin · x`).
    dvin: F64x4,
    cm: F64x4,
    inv_c_total: F64x4,
}

impl QuadConsts {
    fn pack(problems: [&TransientProblem; 4]) -> Self {
        Self {
            vdd: problems.map(|p| p.vdd),
            inv_ramp_time: problems.map(|p| p.inv_ramp_time),
            ramp_time: problems.map(|p| p.ramp_time),
            ramp_slope: problems.map(|p| p.ramp_slope),
            vin0: problems.map(|p| if p.input_rising { 0.0 } else { p.vdd }),
            dvin: problems.map(|p| if p.input_rising { p.vdd } else { -p.vdd }),
            cm: problems.map(|p| p.cm),
            inv_c_total: problems.map(|p| p.inv_c_total),
        }
    }
}

/// One quad of the fixed worklist: its glue constants, the lanes it carries and how many
/// of its four slots are real (the tail quad repeats its last lane into unused slots).
struct Quad {
    consts: QuadConsts,
    idx: [usize; 4],
    width: usize,
}

/// Reusable per-round buffers of the stage-batched device sweep (plain data — nothing
/// here borrows the quads, so one allocation set serves every round).
#[derive(Default)]
struct StageScratch {
    /// Device-table indices of the items to evaluate (two per active quad).
    idx: Vec<u32>,
    /// Per-item gate and drain drive voltages.
    vgs: Vec<F64x4>,
    vds: Vec<F64x4>,
    /// Per-item drain currents out of [`drain_current4_batch`].
    cur: Vec<F64x4>,
    /// Per-quad input-ramp slope term of this stage's times.
    dvin_dt: Vec<F64x4>,
    /// The device sweep's own staging buffers.
    sweep: SweepScratch,
}

/// Evaluates one Bogacki–Shampine stage for every active quad in a single device sweep:
/// per-quad ramp glue, then all pull-up and pull-down drain currents of the whole round
/// through one [`drain_current4_batch`] call, then the per-quad derivative combine.
/// `st`/`sv` hold the stage times and output voltages per active quad; `k_out` receives
/// the four-lane derivatives, aligned with `active`.
fn eval_stage(
    quads: &[Quad],
    devices: &[CompiledDeviceX4],
    active: &[u32],
    st: &[F64x4],
    sv: &[F64x4],
    scratch: &mut StageScratch,
    k_out: &mut Vec<F64x4>,
) {
    scratch.idx.clear();
    scratch.vgs.clear();
    scratch.vds.clear();
    scratch.dvin_dt.clear();
    for (pos, &qi) in active.iter().enumerate() {
        let c = &quads[qi as usize].consts;
        let t = st[pos];
        let vout = sv[pos];
        let mut vin = [0.0_f64; 4];
        let mut dv = [0.0_f64; 4];
        let mut vgs_p = [0.0_f64; 4];
        let mut vds_p = [0.0_f64; 4];
        for i in 0..4 {
            let x = (t[i] * c.inv_ramp_time[i]).clamp(0.0, 1.0);
            vin[i] = c.vin0[i] + c.dvin[i] * x;
            dv[i] = if t[i] < 0.0 || t[i] > c.ramp_time[i] {
                0.0
            } else {
                c.ramp_slope[i]
            };
            vgs_p[i] = c.vdd[i] - vin[i];
            vds_p[i] = c.vdd[i] - vout[i];
        }
        scratch.dvin_dt.push(dv);
        // Pull-up drives on supply-referenced voltages, pull-down on ground-referenced.
        scratch.idx.push(2 * qi);
        scratch.vgs.push(vgs_p);
        scratch.vds.push(vds_p);
        scratch.idx.push(2 * qi + 1);
        scratch.vgs.push(vin);
        scratch.vds.push(vout);
    }
    scratch.cur.clear();
    scratch.cur.resize(scratch.idx.len(), [0.0; 4]);
    drain_current4_batch(
        devices,
        &scratch.idx,
        &scratch.vgs,
        &scratch.vds,
        &mut scratch.sweep,
        &mut scratch.cur,
    );
    k_out.clear();
    for (pos, &qi) in active.iter().enumerate() {
        let c = &quads[qi as usize].consts;
        let up = scratch.cur[2 * pos];
        let down = scratch.cur[2 * pos + 1];
        let dv = scratch.dvin_dt[pos];
        let mut out = [0.0_f64; 4];
        for i in 0..4 {
            out[i] = (up[i] - down[i] + c.cm[i] * dv[i]) * c.inv_c_total[i];
        }
        k_out.push(out);
    }
}

/// Integrates a set of pre-built problems through the SIMD quad worklist.
///
/// Result `i` corresponds to `problems[i]` regardless of the order lanes retire in, and
/// is independent of what other problems share the batch (element-wise vector math plus
/// per-lane state make each trajectory a function of its own problem alone).
pub(crate) fn integrate_batch_simd(
    problems: &[TransientProblem],
) -> (Vec<LaneResult>, SimdBatchStats) {
    let mut lanes: Vec<LaneState> = problems.iter().map(LaneState::new).collect();
    let mut stats = SimdBatchStats::default();

    // Fixed quad membership, constants packed once: chunk lane indices in input order and
    // pad the last partial quad by repeating its final lane.  Padded slots are evaluated
    // (element-wise arithmetic cannot disturb the real lanes) but never written back.
    // The quads' packed devices go into one dense table — items 2q (pull-up) and 2q + 1
    // (pull-down) of quad q — for the stage-batched sweeps.
    let mut quads: Vec<Quad> = Vec::with_capacity(problems.len().div_ceil(4));
    let mut devices: Vec<CompiledDeviceX4> = Vec::with_capacity(quads.capacity() * 2);
    for chunk in (0..problems.len()).collect::<Vec<usize>>().chunks(4) {
        let last = chunk[chunk.len() - 1];
        let mut idx = [last; 4];
        idx[..chunk.len()].copy_from_slice(chunk);
        let quad_problems = idx.map(|i| &problems[i]);
        let inv = CompiledInverterX4::pack(quad_problems.map(|p| &p.inv));
        devices.push(*inv.pmos4());
        devices.push(*inv.nmos4());
        quads.push(Quad {
            consts: QuadConsts::pack(quad_problems),
            idx,
            width: chunk.len(),
        });
    }

    // Round loop: keep an index list of quads that still carry an unretired real lane,
    // gather their states, run the three Bogacki–Shampine stages as whole-round device
    // sweeps, and scatter through the scalar controller.  Every buffer below is plain
    // data reused across rounds.  Batching a round's device evaluations into single
    // [`drain_current4_batch`] sweeps is what makes the mode pay: the quads of a round
    // are independent, so the sweep pipelines their long transcendental chains.
    let mut active: Vec<u32> = (0..quads.len() as u32).collect();
    let mut g_t: Vec<F64x4> = Vec::new();
    let mut g_v: Vec<F64x4> = Vec::new();
    let mut g_k1: Vec<F64x4> = Vec::new();
    let mut g_dt: Vec<F64x4> = Vec::new();
    let mut ts: Vec<F64x4> = Vec::new();
    let mut vs: Vec<F64x4> = Vec::new();
    let mut k2: Vec<F64x4> = Vec::new();
    let mut k3: Vec<F64x4> = Vec::new();
    let mut k4: Vec<F64x4> = Vec::new();
    let mut t_next: Vec<F64x4> = Vec::new();
    let mut v_next: Vec<F64x4> = Vec::new();
    let mut scratch = StageScratch::default();

    loop {
        active.retain(|&qi| {
            let q = &quads[qi as usize];
            q.idx[..q.width].iter().any(|&li| !lanes[li].finished())
        });
        if active.is_empty() {
            break;
        }

        // Gather lane state and per-lane step proposals.  Retired lanes are carried
        // along on their frozen state (computed, masked from write-back below).
        g_t.clear();
        g_v.clear();
        g_k1.clear();
        g_dt.clear();
        for &qi in &active {
            let q = &quads[qi as usize];
            let mut t = [0.0_f64; 4];
            let mut v = [0.0_f64; 4];
            let mut k1 = [0.0_f64; 4];
            let mut dt = [0.0_f64; 4];
            for j in 0..4 {
                let lane = &lanes[q.idx[j]];
                t[j] = lane.t;
                v[j] = lane.v;
                k1[j] = lane.k1;
                dt[j] = lane.propose_dt(&problems[q.idx[j]]);
            }
            g_t.push(t);
            g_v.push(v);
            g_k1.push(k1);
            g_dt.push(dt);
        }

        // Stage 2: k2 = f(t + dt/2, v + dt/2 · k1).
        ts.clear();
        vs.clear();
        for pos in 0..active.len() {
            let mut a = [0.0_f64; 4];
            let mut b = [0.0_f64; 4];
            for j in 0..4 {
                a[j] = g_t[pos][j] + 0.5 * g_dt[pos][j];
                b[j] = g_v[pos][j] + 0.5 * g_dt[pos][j] * g_k1[pos][j];
            }
            ts.push(a);
            vs.push(b);
        }
        eval_stage(&quads, &devices, &active, &ts, &vs, &mut scratch, &mut k2);

        // Stage 3: k3 = f(t + 3dt/4, v + 3dt/4 · k2).
        ts.clear();
        vs.clear();
        for pos in 0..active.len() {
            let mut a = [0.0_f64; 4];
            let mut b = [0.0_f64; 4];
            for j in 0..4 {
                a[j] = g_t[pos][j] + 0.75 * g_dt[pos][j];
                b[j] = g_v[pos][j] + 0.75 * g_dt[pos][j] * k2[pos][j];
            }
            ts.push(a);
            vs.push(b);
        }
        eval_stage(&quads, &devices, &active, &ts, &vs, &mut scratch, &mut k3);

        // Third-order solution and the FSAL stage k4 = f(t_next, v_next).
        t_next.clear();
        v_next.clear();
        for pos in 0..active.len() {
            let mut a = [0.0_f64; 4];
            let mut b = [0.0_f64; 4];
            for j in 0..4 {
                a[j] = g_t[pos][j] + g_dt[pos][j];
                b[j] = g_v[pos][j]
                    + g_dt[pos][j]
                        * ((2.0 / 9.0) * g_k1[pos][j]
                            + (1.0 / 3.0) * k2[pos][j]
                            + (4.0 / 9.0) * k3[pos][j]);
            }
            t_next.push(a);
            v_next.push(b);
        }
        eval_stage(
            &quads,
            &devices,
            &active,
            &t_next,
            &v_next,
            &mut scratch,
            &mut k4,
        );

        // Scatter: accept/reject, PI control, crossings and retirement are the scalar
        // kernel's own code, one real unretired lane at a time.
        for (pos, &qi) in active.iter().enumerate() {
            let q = &quads[qi as usize];
            let mut advanced = 0u64;
            for j in 0..q.width {
                let li = q.idx[j];
                if lanes[li].finished() {
                    continue;
                }
                advanced += 1;
                lanes[li].finish_attempt(
                    &problems[li],
                    g_dt[pos][j],
                    k2[pos][j],
                    k3[pos][j],
                    k4[pos][j],
                    v_next[pos][j],
                    t_next[pos][j],
                );
            }
            stats.quad_rounds += 1;
            stats.active_lane_rounds += advanced;
        }
    }

    (
        lanes
            .into_iter()
            .zip(problems)
            .map(|(lane, problem)| lane.into_result(problem))
            .collect(),
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::KernelStatsSnapshot;
    use crate::input::InputPoint;
    use crate::measure::TimingMeasurement;
    use crate::transient::{simulate_switching, TransientConfig, TransientError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use slic_cells::{Cell, CellKind, DriveStrength, EquivalentInverter, TimingArc, Transition};
    use slic_device::TechnologyNode;
    use slic_units::{Farads, Seconds, Volts};

    fn pt(sin_ps: f64, cload_ff: f64, vdd: f64) -> InputPoint {
        InputPoint::new(
            Seconds::from_picoseconds(sin_ps),
            Farads::from_femtofarads(cload_ff),
            Volts(vdd),
        )
    }

    fn mc_lanes(n: usize) -> (TimingArc, Vec<EquivalentInverter>) {
        let tech = TechnologyNode::n14_finfet();
        let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let mut rng = StdRng::seed_from_u64(42);
        let seeds = tech.variation().sample_n(&mut rng, n);
        let lanes = seeds
            .iter()
            .map(|s| EquivalentInverter::build(&tech, cell, s))
            .collect();
        (arc, lanes)
    }

    /// Runs `lanes` at one point through the quad worklist.
    fn simd_batch(
        lanes: &[EquivalentInverter],
        arc: &TimingArc,
        point: &InputPoint,
        cfg: &TransientConfig,
    ) -> (Vec<LaneResult>, SimdBatchStats) {
        let problems: Vec<TransientProblem> = lanes
            .iter()
            .map(|eq| TransientProblem::new(eq, arc, point, cfg))
            .collect();
        integrate_batch_simd(&problems)
    }

    fn measurement(result: &LaneResult) -> TimingMeasurement {
        result.as_ref().expect("lane completes").0
    }

    fn occupancy(stats: SimdBatchStats) -> Option<f64> {
        KernelStatsSnapshot {
            quad_rounds: stats.quad_rounds,
            active_lane_rounds: stats.active_lane_rounds,
            ..KernelStatsSnapshot::default()
        }
        .quad_occupancy()
    }

    #[test]
    fn simd_lanes_track_scalar_within_accuracy_bound() {
        let (arc, lanes) = mc_lanes(11);
        let point = pt(5.0, 2.0, 0.8);
        let cfg = TransientConfig::fast();
        let (batch, _) = simd_batch(&lanes, &arc, &point, &cfg);
        for (eq, result) in lanes.iter().zip(&batch) {
            let scalar = simulate_switching(eq, &arc, &point, &cfg).unwrap();
            let simd = measurement(result);
            let delay_err =
                (simd.delay.value() - scalar.delay.value()).abs() / scalar.delay.value();
            let slew_err = (simd.output_slew.value() - scalar.output_slew.value()).abs()
                / scalar.output_slew.value();
            assert!(delay_err < 0.005, "delay err {delay_err}");
            assert!(slew_err < 0.005, "slew err {slew_err}");
        }
    }

    #[test]
    fn simd_result_is_independent_of_batch_composition() {
        // Lane values must not depend on quad-mates, batch size or padding: the same
        // problem must yield identical bits alone, in a full quad and in a padded tail.
        let (arc, lanes) = mc_lanes(7);
        let point = pt(3.0, 1.5, 0.9);
        let cfg = TransientConfig::fast();
        let (full, _) = simd_batch(&lanes, &arc, &point, &cfg);
        for (i, eq) in lanes.iter().enumerate() {
            let (solo, _) = simd_batch(std::slice::from_ref(eq), &arc, &point, &cfg);
            let a = measurement(&full[i]);
            let b = measurement(&solo[0]);
            assert_eq!(a.delay.value().to_bits(), b.delay.value().to_bits());
            assert_eq!(
                a.output_slew.value().to_bits(),
                b.output_slew.value().to_bits()
            );
        }
    }

    #[test]
    fn simd_batches_are_deterministic() {
        let (arc, lanes) = mc_lanes(9);
        let point = pt(5.0, 2.0, 0.8);
        let cfg = TransientConfig::accurate();
        let (a, _) = simd_batch(&lanes, &arc, &point, &cfg);
        let (b, _) = simd_batch(&lanes, &arc, &point, &cfg);
        for (x, y) in a.iter().zip(&b) {
            let (x, y) = (measurement(x), measurement(y));
            assert_eq!(x.delay.value().to_bits(), y.delay.value().to_bits());
            assert_eq!(
                x.output_slew.value().to_bits(),
                y.output_slew.value().to_bits()
            );
        }
    }

    #[test]
    fn quad_occupancy_reflects_batch_shape() {
        let (arc, lanes) = mc_lanes(16);
        let point = pt(5.0, 2.0, 0.8);
        let cfg = TransientConfig::fast();
        let (_, stats) = simd_batch(&lanes, &arc, &point, &cfg);
        let occ = occupancy(stats).expect("quads ran");
        assert!(
            occ > 0.5 && occ <= 1.0,
            "16 cross-seed lanes should keep quads mostly full, got {occ}"
        );
        // A batch of one can never do better than a quarter-full quad.
        let (_, solo) = simd_batch(&lanes[..1], &arc, &point, &cfg);
        assert_eq!(solo.active_lane_rounds, solo.quad_rounds);
        assert!((occupancy(solo).expect("quads ran") - 0.25).abs() < 1e-12);
    }

    #[test]
    fn per_lane_failures_do_not_poison_the_simd_batch() {
        let tech = TechnologyNode::n14_finfet();
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let eq = EquivalentInverter::nominal(&tech, cell);
        let cfg = TransientConfig::fast();
        let problems: Vec<TransientProblem> = [
            pt(5.0, 2.0, 0.8),
            pt(5.0, 2.0, 0.02), // sub-threshold: never completes
            pt(5.0, 2.0, 0.9),
        ]
        .iter()
        .map(|p| TransientProblem::new(&eq, &arc, p, &cfg))
        .collect();
        let (results, _) = integrate_batch_simd(&problems);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(TransientError::IncompleteTransition { .. })
        ));
        assert!(results[2].is_ok());
    }

    #[test]
    fn empty_simd_batch_is_fine() {
        let (batch, stats) = integrate_batch_simd(&[]);
        assert!(batch.is_empty());
        assert_eq!(stats.quad_rounds, 0);
        assert_eq!(occupancy(stats), None);
    }
}
