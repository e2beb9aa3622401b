//! Hot-kernel microbenches: the distribution ops and grid passes that
//! the sweep engine spends its time in, measured in isolation.
//!
//! Three panels:
//!
//! * `dist_ops/{n}` — convolve (the k-way merge over the operands'
//!   cross product), max (one linear merge of the two supports) and
//!   reduce_support at several support sizes.
//! * `grid_kernels/{family}` — `estimate_grid` against a per-model
//!   `estimate_for` loop, which it must match bit for bit. First- and
//!   second-order override `estimate_grid` with a batched pass; for
//!   `spelde32` and `dodin` the `grid_batched` label times the trait
//!   default, which does the per-model loop's work.
//! * `mc_reference/{graph}/pfail_{p}` — the Monte-Carlo reference
//!   kernel as a jobs-1 campaign runs it: 4000 sequential trials
//!   through `prepare(&PreparedDag)`, on cholesky and lu k=6 at the
//!   paper's failure probabilities and at 0.1, where nearly every
//!   trial fails early.
//!
//! These labels are pinned by the CI perf-regression gate
//! (`bench-report --gate`): a >25% median regression on any of them
//! fails the `bench-trajectory` job. Records flow into
//! `BENCH_sweep.json` via the criterion shim's `CRITERION_JSON` hook.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use stochdag::dist::DiscreteDist;
use stochdag::prelude::*;

/// Deterministic synthetic distribution with `n` strictly increasing
/// atoms and normalized probabilities (splitmix64-style jitter so the
/// support is irregular like a real makespan distribution).
fn synthetic_dist(n: usize, seed: u64) -> DiscreteDist {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut next = || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    let mut atoms: Vec<(f64, f64)> = Vec::with_capacity(n);
    let mut v = 0.0f64;
    let mut total = 0.0f64;
    for _ in 0..n {
        v += 0.25 + next();
        let p = 0.05 + next();
        total += p;
        atoms.push((v, p));
    }
    for a in &mut atoms {
        a.1 /= total;
    }
    DiscreteDist::from_sorted_atoms(atoms)
}

fn bench_dist_ops(c: &mut Criterion) {
    for n in [64usize, 256, 1024] {
        let x = synthetic_dist(n, 1);
        let y = synthetic_dist(n, 2);
        // Twice-over-budget support to coarsen back down to n atoms —
        // the capped series-parallel evaluator's steady state (the
        // kernel is quadratic in the overshoot, so a realistic small
        // overshoot is the representative load).
        let wide = synthetic_dist(2 * n, 3);

        let mut g = c.benchmark_group(format!("dist_ops/{n}"));
        g.sample_size(10);
        g.bench_function("convolve", |b| {
            b.iter(|| black_box(&x).convolve(black_box(&y)))
        });
        g.bench_function("max", |b| {
            b.iter(|| black_box(&x).max_independent(black_box(&y)))
        });
        g.bench_function("reduce_support", |b| {
            // The clone is part of the measured loop (the in-place
            // kernel consumes its input); it is the same constant on
            // both sides of a baseline comparison.
            b.iter(|| {
                let mut d = black_box(&wide).clone();
                d.reduce_support_in_place(black_box(n));
                d
            })
        });
        g.finish();
    }
}

fn bench_grid_kernels(c: &mut Criterion) {
    let dag = lu_dag(6, &KernelTimings::paper_default());
    let models: Vec<FailureModel> = [1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3, 1e-4]
        .iter()
        .map(|&p| FailureModel::from_pfail_for_dag(p, &dag))
        .collect();
    let prepared = PreparedDag::new(dag.clone());

    let families: Vec<(&str, Box<dyn Estimator>)> = vec![
        ("first_order", Box::new(FirstOrderEstimator::fast())),
        ("second_order", Box::new(SecondOrderEstimator)),
        ("spelde32", Box::new(SpeldeEstimator::new(32))),
        ("dodin", Box::new(DodinEstimator::scalable())),
    ];
    for (label, est) in families {
        // The grid pass must agree with the sequential loop bit for
        // bit — the same contract the grid_parity tests enforce.
        let mut prep = est.prepare(&prepared);
        let grid: Vec<f64> = prep
            .estimate_grid(&models)
            .iter()
            .map(|e| e.value)
            .collect();
        let seq: Vec<f64> = models.iter().map(|m| prep.estimate_for(m).value).collect();
        assert_eq!(
            grid.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            seq.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{label}: grid pass must be bit-identical"
        );

        let mut g = c.benchmark_group(format!("grid_kernels/{label}"));
        g.sample_size(10);
        g.bench_function("per_model/8models", |b| {
            b.iter(|| {
                models
                    .iter()
                    .map(|m| prep.estimate_for(black_box(m)).value)
                    .sum::<f64>()
            })
        });
        g.bench_function("grid_batched/8models", |b| {
            b.iter(|| {
                prep.estimate_grid(black_box(&models))
                    .iter()
                    .map(|e| e.value)
                    .sum::<f64>()
            })
        });
        g.finish();
    }
}

fn bench_mc_reference(c: &mut Criterion) {
    let timings = KernelTimings::paper_default();
    for (label, dag) in [
        ("cholesky_k6", cholesky_dag(6, &timings)),
        ("lu_k6", lu_dag(6, &timings)),
    ] {
        let prepared = PreparedDag::new(dag.clone());
        let mut prep = MonteCarloEstimator::new(4000)
            .sequential()
            .prepare(&prepared);
        let mut g = c.benchmark_group(format!("mc_reference/{label}"));
        g.sample_size(10);
        for pfail in [0.001, 0.01, 0.1] {
            let model = FailureModel::from_pfail_for_dag(pfail, &dag);
            g.bench_function(format!("pfail_{pfail}"), |b| {
                b.iter(|| prep.estimate_for(black_box(&model)).value)
            });
        }
        g.finish();
    }
}

criterion_group!(
    benches,
    bench_dist_ops,
    bench_grid_kernels,
    bench_mc_reference
);
criterion_main!(benches);
