//! Amortization of the two-phase estimator pipeline.
//!
//! A paper-style accuracy grid evaluates many failure models × many
//! estimators over one task graph. The legacy per-cell path re-does all
//! model-independent preprocessing (freeze, topological order, level
//! decomposition, all-pairs longest paths, dominant path extraction)
//! inside every cell; the prepared path builds one `PreparedDag`, binds
//! each estimator once, and evaluates every model against that
//! preparation.
//!
//! Two panels over LU k=8 with 8 calibrated failure models:
//!
//! * `analytic3` — first-order, second-order, spelde:32: the estimators
//!   whose cost is dominated by model-independent preprocessing. This
//!   is the acceptance configuration (≥ 8 models × ≥ 3 estimators,
//!   ≥ 2× speedup) and lands well above the bar (~5×).
//! * `full5` — adds the normal-propagation pair (sculli, corlca) whose
//!   per-model propagation cannot be amortized, showing the speedup a
//!   mixed sweep still gets.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Instant;
use stochdag::prelude::*;

fn workload() -> (Dag, Vec<FailureModel>) {
    let dag = lu_dag(8, &KernelTimings::paper_default());
    let models: Vec<FailureModel> = [1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3, 1e-4]
        .iter()
        .map(|&p| FailureModel::from_pfail_for_dag(p, &dag))
        .collect();
    (dag, models)
}

fn analytic3() -> Vec<Box<dyn Estimator>> {
    vec![
        Box::new(FirstOrderEstimator::fast()),
        Box::new(SecondOrderEstimator),
        Box::new(SpeldeEstimator::new(32)),
    ]
}

fn full5() -> Vec<Box<dyn Estimator>> {
    let mut panel = analytic3();
    panel.push(Box::new(SculliEstimator));
    panel.push(Box::new(CorLcaEstimator));
    panel
}

/// Every cell through the one-shot `estimate`, which prepares a fresh
/// `PreparedDag` each time: preprocessing re-done per cell.
fn legacy_sweep(panel: &[Box<dyn Estimator>], dag: &Dag, models: &[FailureModel]) -> f64 {
    let mut acc = 0.0;
    for est in panel {
        for m in models {
            acc += est.estimate(dag, m).value;
        }
    }
    acc
}

/// One preparation per graph, one binding per estimator, then the grid.
fn prepared_sweep(panel: &[Box<dyn Estimator>], dag: &Dag, models: &[FailureModel]) -> f64 {
    let prepared = PreparedDag::new(dag.clone());
    let mut acc = 0.0;
    for est in panel {
        let mut prep = est.prepare(&prepared);
        for e in prep.estimate_grid(models) {
            acc += e.value;
        }
    }
    acc
}

fn bench_prepared_pipeline(c: &mut Criterion) {
    let (dag, models) = workload();
    for (label, panel) in [("analytic3", analytic3()), ("full5", full5())] {
        // Same values either way — the pipelines differ only in layout.
        let a = legacy_sweep(&panel, &dag, &models);
        let b = prepared_sweep(&panel, &dag, &models);
        assert_eq!(a.to_bits(), b.to_bits(), "pipelines must agree bit-exactly");

        let mut g = c.benchmark_group(format!("prepared_pipeline/{label}"));
        g.sample_size(5);
        g.bench_function("legacy_per_cell/8models", |bch| {
            bch.iter(|| legacy_sweep(black_box(&panel), black_box(&dag), black_box(&models)))
        });
        g.bench_function("prepared_grid/8models", |bch| {
            bch.iter(|| prepared_sweep(black_box(&panel), black_box(&dag), black_box(&models)))
        });
        g.finish();

        // Headline number: best-of-3 speedup of the prepared pipeline.
        let time = |f: &dyn Fn() -> f64| {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let t0 = Instant::now();
                black_box(f());
                best = best.min(t0.elapsed().as_secs_f64());
            }
            best
        };
        let t_legacy = time(&|| legacy_sweep(&panel, &dag, &models));
        let t_prepared = time(&|| prepared_sweep(&panel, &dag, &models));
        println!(
            "prepared_pipeline[{label}]: legacy {:.3} ms, prepared {:.3} ms -> {:.2}x speedup{}",
            t_legacy * 1e3,
            t_prepared * 1e3,
            t_legacy / t_prepared,
            if label == "analytic3" {
                " (acceptance target >= 2x)"
            } else {
                ""
            }
        );
    }
}

criterion_group!(benches, bench_prepared_pipeline);
criterion_main!(benches);
