//! Fig. 9: delay probability density at the low-supply corner `Vdd = 0.734 V`,
//! `Sin = 5.09 ps`, `Cload = 1.67 fF` — baseline Monte Carlo vs the proposed method with 7
//! fitting conditions vs LUT interpolation with 60 conditions.  The baseline distribution
//! is visibly non-Gaussian (right-skewed) and the proposed method reproduces it.

use criterion::{criterion_group, criterion_main, Criterion};
use slic::prelude::*;
use slic::statistical::{StatisticalStudy, StatisticalStudyConfig};
use slic_bench::{banner, bench_historical_db, planar_history};

fn regenerate(db: &HistoricalDatabase) {
    banner(
        "Fig. 9",
        "Delay PDF at Vdd=0.734V, Sin=5.09ps, Cload=1.67fF: baseline vs proposed (7 pts) vs LUT (60 pts)",
    );
    let config = StatisticalStudyConfig {
        validation_points: 10,
        process_seeds: 150,
        training_counts: vec![7],
        ..StatisticalStudyConfig::default()
    };
    let study = StatisticalStudy::new(TechnologyNode::target_28nm(), db, config)
        .expect("the study configuration is valid");
    let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let corner = InputPoint::new(
        Seconds::from_picoseconds(5.09),
        Farads::from_femtofarads(1.67),
        Volts(0.734),
    );
    let pdf = study
        .delay_pdf(cell, &arc, corner, 7, 60)
        .expect("the database has delay and slew records");

    let report = |label: &str, samples: &[f64]| {
        let s = Summary::from_samples(samples);
        println!(
            "  {label:<28} mean = {:>7.2} ps, sigma = {:>6.2} ps, skewness = {:>5.2}, p95 = {:>7.2} ps",
            s.mean * 1e12,
            s.std_dev * 1e12,
            s.skewness,
            slic_stats::moments::quantile(samples, 0.95) * 1e12
        );
    };
    println!("{} process seeds at {corner}:", pdf.baseline.len());
    report("baseline (SPICE MC)", &pdf.baseline);
    report(
        &format!("proposed ({} conditions)", pdf.proposed_training_conditions),
        &pdf.proposed,
    );
    report(
        &format!("LUT ({} conditions)", pdf.lut_training_conditions),
        &pdf.lut,
    );
    println!(
        "  per-seed tracking error: proposed = {:.2}%, LUT = {:.2}%",
        pdf.proposed_error_percent(),
        pdf.lut_error_percent()
    );

    // Density curves on a shared grid (the actual Fig. 9 curves).
    let kde_base = KernelDensity::from_samples(&pdf.baseline);
    let kde_prop = KernelDensity::from_samples(&pdf.proposed);
    let kde_lut = KernelDensity::from_samples(&pdf.lut);
    println!("\n  delay (ps) |   baseline |   proposed |        LUT");
    for (x, d_base) in kde_base.evaluate_grid(12) {
        println!(
            "  {:>10.2} | {:>10.3e} | {:>10.3e} | {:>10.3e}",
            x * 1e12,
            d_base,
            kde_prop.density(x),
            kde_lut.density(x)
        );
    }
    println!("\n(paper: the proposed method with 7 conditions tracks the non-Gaussian baseline; the LUT needs 60)");
}

fn bench(c: &mut Criterion) {
    let db = bench_historical_db(&planar_history());
    regenerate(&db);

    // Kernel: kernel-density evaluation over the reconstruction grid.
    let samples: Vec<f64> = (0..400)
        .map(|i| 1.0e-11 + (i % 37) as f64 * 2.0e-13)
        .collect();
    let kde = KernelDensity::from_samples(&samples);
    c.bench_function("fig9_kde_evaluation", |b| b.iter(|| kde.evaluate_grid(100)));
}

criterion_group! {
    name = benches;
    config = slic_bench::criterion_config();
    targets = bench
}
criterion_main!(benches);
