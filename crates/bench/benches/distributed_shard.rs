//! Distributed-executor primitives: the wire-protocol encode/decode
//! round trip, the worker half (every planned lease served through
//! `Campaign::serve_leases`) vs the in-process campaign backend on the
//! same campaign (both cold — the worker half's overhead is lease
//! decoding plus event emission), and the overhead of the telemetry
//! layer (disabled vs enabled on an identical campaign; the disabled
//! case is the acceptance gate — it must be indistinguishable from a
//! build without telemetry).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::io::Cursor;
use std::sync::Arc;
use stochdag::prelude::*;
use stochdag_engine::{
    decode_event, encode_event, encode_lease, Campaign, CampaignEvent, CampaignPlan, DagSpec,
    EstimatorRegistry, EstimatorSpec, FnObserver, SweepRow, Telemetry,
};

fn campaign() -> SweepSpec {
    SweepSpec {
        name: "bench-dist".into(),
        seed: 1,
        pfails: vec![0.01, 0.001],
        lambdas: vec![],
        estimators: vec![
            EstimatorSpec::FirstOrder,
            EstimatorSpec::Sculli,
            EstimatorSpec::CorLca,
        ],
        reference_trials: 5_000,
        reference_sampling: stochdag::core::SamplingModel::Geometric,
        jobs: None,
        scenarios: vec![],
        dags: vec![DagSpec::Factorization {
            class: FactorizationClass::Cholesky,
            ks: vec![4, 6, 8],
        }],
    }
}

fn bench_protocol(c: &mut Criterion) {
    let event = CampaignEvent::Cell {
        index: 1234,
        cached: false,
        tier: None,
        row: SweepRow {
            dag: "cholesky:k=8".into(),
            tasks: 120,
            edges: 354,
            model: "pfail=0.01".into(),
            lambda: 0.00213,
            estimator: "first-order".into(),
            value: 412.75,
            reference: 411.9,
            reference_std_error: 0.11,
            rel_error: 0.00206,
            elapsed_s: 0.0031,
            seed: 991,
        },
    };
    let line = encode_event(&event);
    let mut group = c.benchmark_group("shard_protocol");
    group.bench_function("encode_cell_event", |b| {
        b.iter(|| encode_event(black_box(&event)))
    });
    group.bench_function("decode_cell_event", |b| {
        b.iter(|| decode_event(black_box(&line)).expect("round trip"))
    });
    group.finish();
}

fn bench_worker_vs_single(c: &mut Criterion) {
    let spec = campaign();
    let leases: String = CampaignPlan::new(&spec, &EstimatorRegistry::standard())
        .expect("valid campaign")
        .leases()
        .iter()
        .map(|l| encode_lease(l) + "\n")
        .collect();
    let mut group = c.benchmark_group("sweep_18cells_cold");
    group.sample_size(3);
    group.bench_function("single_process", |b| {
        b.iter(|| {
            Campaign::builder(spec.clone())
                .cache(Arc::new(ResultCache::in_memory()))
                .build()
                .expect("valid campaign")
                .run()
                .expect("sweep runs")
                .cells
        })
    });
    group.bench_function("leased_worker", |b| {
        b.iter(|| {
            Campaign::builder(spec.clone())
                .cache(Arc::new(ResultCache::in_memory()))
                .observer(FnObserver(|ev: &CampaignEvent| {
                    black_box(ev);
                }))
                .build()
                .expect("valid campaign")
                .serve_leases(0, Cursor::new(leases.as_bytes()))
                .expect("worker drains every lease")
        })
    });
    group.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let spec = campaign();
    let run = |telemetry: Telemetry| {
        Campaign::builder(spec.clone())
            .cache(Arc::new(ResultCache::in_memory()))
            .telemetry(telemetry)
            .build()
            .expect("valid campaign")
            .run()
            .expect("sweep runs")
            .cells
    };
    let mut group = c.benchmark_group("telemetry_overhead_18cells");
    group.sample_size(3);
    group.bench_function("disabled", |b| b.iter(|| run(Telemetry::disabled())));
    group.bench_function("enabled", |b| b.iter(|| run(Telemetry::enabled())));
    group.finish();
}

criterion_group!(
    benches,
    bench_protocol,
    bench_worker_vs_single,
    bench_telemetry_overhead
);
criterion_main!(benches);
