//! Figs. 7–9 reproduction at example scale: statistical characterization of a 28-nm library.
//!
//! Runs the statistical study (mean and standard deviation of delay and output slew across
//! process variation) for a NAND2 arc in the 28-nm bulk target technology, and then
//! reproduces the Fig. 9 delay-PDF comparison at the paper's low-supply corner
//! (`Vdd = 0.734 V`, `Sin = 5.09 ps`, `Cload = 1.67 fF`).
//!
//! Run with `cargo run --release --example statistical_28nm`.

use slic::historical::{HistoricalLearner, HistoricalLearningConfig};
use slic::nominal::{MethodKind, Reduction};
use slic::prelude::*;
use slic::statistical::{StatMetric, StatisticalStudy, StatisticalStudyConfig};

fn main() {
    let library = Library::paper_trio();
    println!("learning priors from the historical technology suite...");
    let learning = HistoricalLearner::new(HistoricalLearningConfig::default())
        .learn(&TechnologyNode::historical_suite(), &library)
        .expect("valid transient configuration");

    let config = StatisticalStudyConfig {
        validation_points: 60,
        process_seeds: 120,
        training_counts: vec![2, 3, 5, 10, 20],
        ..StatisticalStudyConfig::default()
    };
    let study = StatisticalStudy::new(TechnologyNode::target_28nm(), &learning.database, config)
        .expect("valid transient configuration");

    let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    println!("running the statistical study for {} ...\n", arc.id());
    let result = study
        .run(&arc)
        .expect("the historical suite has delay and slew records");

    for (metric, title) in [
        (StatMetric::MeanDelay, "E(mu_Td)  — Fig. 7 left"),
        (StatMetric::StdDelay, "E(sigma_Td) — Fig. 7 right"),
        (StatMetric::MeanSlew, "E(mu_Sout) — Fig. 8 left"),
        (StatMetric::StdSlew, "E(sigma_Sout) — Fig. 8 right"),
    ] {
        println!("--- {title} ---");
        println!("{}", result.to_markdown(metric));
        // The paper's reduction at the LUT's best error within its training grid.
        let curve = |method| {
            result
                .curves_for(method)
                .map(|c| c.as_method_curve(metric))
                .expect("the study ran every method")
        };
        let lut = curve(MethodKind::Lut);
        let target = lut.best_error().expect("the LUT curve is non-empty");
        let reduction = Reduction::at(target, &curve(MethodKind::ProposedBayesian), &lut);
        let bound = if reduction.is_lower_bound() {
            ">= "
        } else {
            ""
        };
        match reduction.factor() {
            Some(factor) => println!("reduction vs LUT at {target:.2}%: {bound}{factor:.1}x\n"),
            None => println!("no reduction: the Bayesian curve never reaches {target:.2}%\n"),
        }
    }
    println!(
        "baseline cost: {} simulations over {} process seeds\n",
        result.baseline_simulations, result.process_seeds
    );

    // Fig. 9: delay PDF at the low-Vdd corner.
    let corner = InputPoint::new(
        Seconds::from_picoseconds(5.09),
        Farads::from_femtofarads(1.67),
        Volts(0.734),
    );
    println!("reproducing the Fig. 9 delay PDF at {corner} ...");
    let pdf = study
        .delay_pdf(&arc, corner, 7, 60)
        .expect("the historical suite has delay and slew records");
    let baseline = Summary::from_samples(&pdf.baseline);
    let proposed = Summary::from_samples(&pdf.proposed);
    let lut = Summary::from_samples(&pdf.lut);
    println!(
        "  baseline : mean = {:.2} ps, sigma = {:.2} ps, skewness = {:.2}{}",
        baseline.mean * 1e12,
        baseline.std_dev * 1e12,
        baseline.skewness,
        if baseline.is_clearly_non_gaussian() {
            "  (non-Gaussian)"
        } else {
            ""
        }
    );
    println!(
        "  proposed ({} fitting conditions): mean = {:.2} ps, sigma = {:.2} ps, skewness = {:.2}, per-seed error = {:.2}%",
        pdf.proposed_training_conditions,
        proposed.mean * 1e12,
        proposed.std_dev * 1e12,
        proposed.skewness,
        pdf.proposed_error_percent()
    );
    println!(
        "  LUT ({} grid conditions): mean = {:.2} ps, sigma = {:.2} ps, skewness = {:.2}, per-seed error = {:.2}%",
        pdf.lut_training_conditions,
        lut.mean * 1e12,
        lut.std_dev * 1e12,
        lut.skewness,
        pdf.lut_error_percent()
    );

    // Density curves on a common grid, printable for plotting.
    let kde_baseline = KernelDensity::from_samples(&pdf.baseline);
    let grid: Vec<f64> = kde_baseline
        .evaluate_grid(9)
        .iter()
        .map(|&(x, _)| x)
        .collect();
    println!("\n  delay (ps) | baseline density | proposed density | LUT density");
    let kde_proposed = KernelDensity::from_samples(&pdf.proposed);
    let kde_lut = KernelDensity::from_samples(&pdf.lut);
    for x in grid {
        println!(
            "  {:>10.2} | {:>16.3e} | {:>16.3e} | {:>11.3e}",
            x * 1e12,
            kde_baseline.density(x),
            kde_proposed.density(x),
            kde_lut.density(x)
        );
    }
}
