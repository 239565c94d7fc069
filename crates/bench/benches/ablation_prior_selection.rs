//! Ablation A2 (Section IV bias–variance discussion): which historical technologies should
//! contribute to the prior?  Matched-flavor nodes give a sharper, better-centred prior;
//! mismatched nodes bias it; pooling everything sits in between.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use slic::prelude::*;
use slic::report::markdown_table;
use slic_bench::{banner, bench_historical_db};

/// Validation error of a two-simulation MAP extraction with the given prior source.
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
    let mut rng = StdRng::seed_from_u64(77);
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

fn regenerate(db: &HistoricalDatabase) -> (CharacterizationEngine, HistoricalDatabase) {
    banner(
        "Ablation A2",
        "Prior source selection for the 14-nm target: matched FinFET vs mismatched planar vs pooled history",
    );
    let engine =
        CharacterizationEngine::with_config(TechnologyNode::target_14nm(), TransientConfig::fast())
            .expect("valid transient configuration");
    let cell = Cell::new(CellKind::Nor2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let nominal = ProcessSample::nominal();
    let mut rng = StdRng::seed_from_u64(13);
    let validation: Vec<(InputPoint, f64, Amperes)> = engine
        .input_space()
        .sample_uniform(&mut rng, 200)
        .into_iter()
        .map(|p| {
            let reference = engine.simulate_nominal(cell, &arc, &p).delay.value();
            (p, reference, engine.ieff(&arc, &p, &nominal))
        })
        .collect();

    let matched = db.select_technologies(&["hist-16nm-finfet", "hist-14nm-finfet"]);
    let mismatched = db.select_technologies(&["hist-45nm-bulk", "hist-32nm-soi"]);
    let headers: Vec<String> = [
        "prior source",
        "historical records",
        "delay error @ k=2 (%)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for (label, subset) in [
        ("matched FinFET nodes", &matched),
        ("mismatched planar nodes", &mismatched),
        ("all historical nodes", db),
    ] {
        let err = k2_error(&engine, cell, &arc, subset, &validation);
        rows.push(vec![
            label.to_string(),
            subset.len().to_string(),
            format!("{err:.2}"),
        ]);
    }
    println!("{}", markdown_table(&headers, &rows));
    println!("(paper: historical libraries sharing the target's process choices give the most useful prior)");
    (engine, matched)
}

fn bench(c: &mut Criterion) {
    let db = bench_historical_db(&TechnologyNode::historical_suite());
    let (_engine, matched) = regenerate(&db);
    c.bench_function("ablation_prior_learning", |b| {
        b.iter(|| {
            PriorBuilder::new()
                .build(&matched, TimingMetric::Delay, Some("NOR2"))
                .expect("records present")
        })
    });
}

criterion_group! {
    name = benches;
    config = slic_bench::criterion_config();
    targets = bench
}
criterion_main!(benches);
