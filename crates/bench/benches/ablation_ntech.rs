//! Ablation A3: how many historical technologies does the prior need?  Sweeps `Ntech` from
//! one to the full suite of six (the paper uses `Ntech = 6`) and reports the delay error of
//! a two-simulation MAP extraction on the 14-nm target.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use slic::prelude::*;
use slic::report::markdown_table;
use slic_bench::{banner, bench_historical_db};

fn k2_error(
    engine: &CharacterizationEngine,
    cell: Cell,
    arc: &TimingArc,
    db: &HistoricalDatabase,
    validation: &[(InputPoint, f64, Amperes)],
) -> f64 {
    let extractor = MapExtractor::learn(
        db,
        TimingMetric::Delay,
        cell.kind().name(),
        &engine.input_space(),
    )
    .expect("delay records");
    let nominal = ProcessSample::nominal();
    let mut rng = StdRng::seed_from_u64(55);
    let points = engine.input_space().sample_latin_hypercube(&mut rng, 2);
    let samples: Vec<TimingSample> = points
        .iter()
        .map(|p| {
            let m = engine.simulate_nominal(cell, arc, p);
            TimingSample::new(*p, engine.ieff(arc, p, &nominal), m.delay)
        })
        .collect();
    let fit = extractor.extract(&samples);
    let errors: Vec<f64> = validation
        .iter()
        .map(|(p, reference, ieff)| {
            100.0 * (fit.params.evaluate(p, *ieff).value() - reference).abs() / reference
        })
        .collect();
    errors.iter().sum::<f64>() / errors.len() as f64
}

fn regenerate(db: &HistoricalDatabase) {
    banner(
        "Ablation A3",
        "Growing the historical suite: prediction error at k = 2 as Ntech goes from 1 to 6",
    );
    let engine =
        CharacterizationEngine::with_config(TechnologyNode::target_14nm(), TransientConfig::fast())
            .expect("valid transient configuration");
    let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let nominal = ProcessSample::nominal();
    let mut rng = StdRng::seed_from_u64(23);
    let validation: Vec<(InputPoint, f64, Amperes)> = engine
        .input_space()
        .sample_uniform(&mut rng, 200)
        .into_iter()
        .map(|p| {
            let reference = engine.simulate_nominal(cell, &arc, &p).delay.value();
            (p, reference, engine.ieff(&arc, &p, &nominal))
        })
        .collect();

    // Newest-first ordering: each step adds the next-older node.
    let order = [
        "hist-14nm-finfet",
        "hist-16nm-finfet",
        "hist-20nm-bulk",
        "hist-28nm-bulk",
        "hist-32nm-soi",
        "hist-45nm-bulk",
    ];
    let headers: Vec<String> = [
        "Ntech",
        "newest .. oldest node included",
        "delay error @ k=2 (%)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for n in 1..=order.len() {
        let names: Vec<&str> = order[..n].to_vec();
        let subset = db.select_technologies(&names);
        let err = k2_error(&engine, cell, &arc, &subset, &validation);
        rows.push(vec![
            n.to_string(),
            format!("{} .. {}", names[0], names[n - 1]),
            format!("{err:.2}"),
        ]);
    }
    println!("{}", markdown_table(&headers, &rows));
    println!("(paper uses Ntech = 6; more history mostly helps until mismatched old nodes start to bias the prior)");
}

fn bench(c: &mut Criterion) {
    let db = bench_historical_db(&TechnologyNode::historical_suite());
    regenerate(&db);
    c.bench_function("ablation_precision_learning", |b| {
        let space = InputSpace::paper_space((Volts(0.65), Volts(1.0)));
        b.iter(|| {
            PrecisionModel::learn(&db, TimingMetric::Delay, &space, PrecisionConfig::default())
        })
    });
}

criterion_group! {
    name = benches;
    config = slic_bench::criterion_config();
    targets = bench
}
criterion_main!(benches);
