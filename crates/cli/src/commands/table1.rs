//! `table1` — the paper's Table I: LU k = 20 (2 870 tasks),
//! pfail = 0.0001; normalized error *and* wall-clock per estimator.
//!
//! Ported to the scenario-sweep engine: the estimator panel is one
//! [`SweepSpec`] cell column, executed in parallel with
//! content-addressed caching (pass `--cache DIR` to persist results —
//! an immediate re-run then completes without recomputing anything).

use crate::args::Options;
use crate::report::{fmt_duration, fmt_rel, Table};
use std::sync::Arc;
use std::time::Duration;
use stochdag::prelude::*;
use stochdag_engine::{Campaign, DagSpec};

/// Table I's estimator panel, in the paper's presentation order.
const PANEL: &[&str] = &[
    "dodin",
    "normal-cov",
    "sculli",
    "corlca",
    "first-order",
    "second-order",
];

pub fn run(argv: &[String]) -> Result<(), String> {
    let opts = Options::parse(
        argv,
        &["k", "trials", "fast", "seed", "pfail", "jobs", "cache"],
    )?;
    let k: usize = opts.get_or("k", 20)?;
    let trials: usize = opts.get_or("trials", if opts.flag("fast") { 20_000 } else { 300_000 })?;
    let seed: u64 = opts.get_or("seed", 0)?;
    let pfail: f64 = opts.get_or("pfail", 0.0001)?;

    let spec = SweepSpec {
        name: format!("table1-lu-k{k}"),
        seed,
        pfails: vec![pfail],
        lambdas: Vec::new(),
        estimators: PANEL
            .iter()
            .map(|s| s.parse().expect("panel specs are registered"))
            .collect(),
        reference_trials: trials,
        reference_sampling: stochdag::core::SamplingModel::Geometric,
        jobs: opts
            .get("jobs")
            .map(str::parse)
            .transpose()
            .map_err(|_| "bad --jobs".to_string())?,
        scenarios: vec![],
        dags: vec![DagSpec::Factorization {
            class: FactorizationClass::Lu,
            ks: vec![k],
        }],
    };

    let cache = Arc::new(match opts.get("cache") {
        Some(dir) => ResultCache::on_disk(dir),
        None => ResultCache::in_memory(),
    });
    eprintln!("LU k={k}: running Monte Carlo reference ({trials} trials) + estimator panel...");
    let outcome = Campaign::builder(spec).cache(cache).build()?.run()?;

    let reference = outcome.rows.first().map(|r| r.reference).unwrap_or(0.0);
    let ref_se = outcome
        .rows
        .first()
        .map(|r| r.reference_std_error)
        .unwrap_or(0.0);
    let mut table = Table::new(&["estimator", "normalized_difference", "execution_time"]);
    table.row(vec![
        "MonteCarlo (ground truth)".into(),
        format!("0 (se {ref_se:.2e})"),
        "(reference)".into(),
    ]);
    for row in &outcome.rows {
        table.row(vec![
            row.estimator.clone(),
            fmt_rel(row.rel_error),
            fmt_duration(Duration::from_secs_f64(row.elapsed_s)),
        ]);
    }

    println!("\n# Table I: LU k={k}, pfail={pfail} (MC mean {reference:.6})");
    print!("{}", table.to_text());
    if outcome.fully_cached() {
        println!("(served entirely from cache)");
    }
    Ok(())
}
