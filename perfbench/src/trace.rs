//! The traced run: per-layer metrics, timed from outside around calls
//! into each crate's public functions on the workload's own inputs,
//! plus the engine's own telemetry spans and an attribution check.

use crate::campaigns::{Backend, Finished, Scratch};
use crate::metrics::{Report, CORE_FAMILIES, TELEMETRY_SPANS};
use crate::run::Job;
use crate::serve::{self, ClientRun, Daemon, Pool};
use crate::stats::median;
use crate::workloads::{self, SpecText, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use stochdag_core::{Estimate, Estimator, FailureModel, MonteCarloEstimator};
use stochdag_dag::{structural_hash, Dag, PreparedDag};
use stochdag_dist::{two_state, DiscreteDist};
use stochdag_engine::{
    cell_key, decode_event, decode_lease, encode_event, encode_lease, CampaignEvent, CampaignPlan,
    CsvSink, EstimatorRegistry, JsonlSink, MetricsSnapshot, ResultCache, ResultSink, SweepRow,
    Telemetry, WorkLease,
};
use stochdag_taskgraphs::{FactorizationClass, KernelTimings};
use stochdag_workload::{load_dot, load_trace_json};

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Mean nanoseconds per call of `f`, repeated until at least `floor`
/// has elapsed.
fn per_call_ns<T>(floor: Duration, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < floor {
        black_box(f());
        calls += 1;
    }
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// Mean nanoseconds per item of `f` over `items`, in whole passes
/// until at least `floor` has elapsed.
fn per_item_ns<I>(items: &[I], floor: Duration, mut f: impl FnMut(&I)) -> f64 {
    let start = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || start.elapsed() < floor {
        items.iter().for_each(&mut f);
        calls += items.len();
    }
    start.elapsed().as_secs_f64() * 1e9 / calls.max(1) as f64
}

const FLOOR: Duration = Duration::from_millis(30);

/// The committed trace fixtures, relative to the repository root the
/// benchmark runs from.
const TRACE_FIXTURES: [&str; 2] = [
    "crates/workload/tests/fixtures/montage-sample.dot",
    "crates/workload/tests/fixtures/epigenomics-sample.json",
];

/// A support of `atoms` points, built the way the Dodin kernel builds
/// them: the two-state task durations (pfail 0.01) of panel-cold's
/// three k=8 instances, convolved along their task order and coarsened
/// back to the cap. The paper's kernel weights are whole multiples of
/// one unit, so one instance's sums fall on at most 513 (cholesky) or
/// about 1025 (lu, qr) lattice points; past that its support grows only
/// by rounding near-duplicates. Chained, the three span more than 2048
/// lattice points. Fails when the support falls short of `atoms`.
fn panel_operand(atoms: usize, reverse: bool) -> Result<DiscreteDist, String> {
    let timings = KernelTimings::paper_default();
    let mut durations = Vec::new();
    for class in [
        FactorizationClass::Cholesky,
        FactorizationClass::Lu,
        FactorizationClass::Qr,
    ] {
        let dag = class.generate(8, &timings);
        let model = FailureModel::from_pfail_for_dag(0.01, &dag);
        durations.extend(
            dag.weights()
                .into_iter()
                .map(|a| two_state(a, model.psuccess_of_weight(a))),
        );
    }
    if reverse {
        durations.reverse();
    }
    let mut d = DiscreteDist::point(0.0);
    for t in &durations {
        d = d.convolve(t);
        if d.len() > atoms {
            d = d.reduce_support(atoms);
        }
    }
    if d.len() < atoms {
        return Err(format!(
            "dist operand has {} atoms, short of {atoms}",
            d.len()
        ));
    }
    Ok(d)
}

fn dist_layer(report: &mut Report) -> Result<(), String> {
    for n in [128usize, 1024] {
        let x = panel_operand(n, false)?;
        let y = panel_operand(n, true)?;
        report.set(
            format!("dist.convolve.{n}.ns"),
            per_call_ns(FLOOR, || black_box(&x).convolve(black_box(&y))),
        );
        report.set(
            format!("dist.max_independent.{n}.ns"),
            per_call_ns(FLOOR, || black_box(&x).max_independent(black_box(&y))),
        );
    }
    for n in [256usize, 1024] {
        let wide = panel_operand(2 * n, false)?;
        report.set(
            format!("dist.reduce_support.{n}.ns"),
            per_call_ns(FLOOR, || black_box(&wide).reduce_support(black_box(n))),
        );
    }
    Ok(())
}

/// The DAG instances, models and estimators of one or more specs,
/// deduplicated by instance id.
struct Inputs {
    instances: Vec<(String, Dag)>,
    pfails: Vec<f64>,
    estimators: Vec<String>,
    reference_trials: usize,
}

/// Generation and ingestion, timed: `(inputs, generate µs, ingest µs)`.
fn build_inputs(specs: &[SpecText]) -> Result<(Inputs, f64, f64), String> {
    let timings = KernelTimings::paper_default();
    let mut inputs = Inputs {
        instances: Vec::new(),
        pfails: Vec::new(),
        estimators: Vec::new(),
        reference_trials: specs[0].reference_trials,
    };
    let mut generate = Duration::ZERO;
    for spec in specs {
        for (class, ks) in &spec.factorizations {
            let class = FactorizationClass::parse(class).ok_or("unknown class")?;
            for &k in ks {
                let id = format!("{}:k={k}", class.name());
                if inputs.instances.iter().any(|(i, _)| *i == id) {
                    continue;
                }
                let t0 = Instant::now();
                let dag = class.generate(k, &timings);
                generate += t0.elapsed();
                inputs.instances.push((id, dag));
            }
        }
        for p in &spec.pfails {
            if !inputs.pfails.contains(p) {
                inputs.pfails.push(*p);
            }
        }
        for e in &spec.estimators {
            if !inputs.estimators.iter().any(|x| x == e) {
                inputs.estimators.push(e.to_string());
            }
        }
    }
    // No benchmarked workload sweeps traces; ingestion is timed on the
    // repository's committed fixtures.
    let t0 = Instant::now();
    for path in TRACE_FIXTURES {
        let trace = if path.ends_with(".dot") {
            load_dot(Path::new(path))
        } else {
            load_trace_json(Path::new(path))
        };
        black_box(trace.map_err(|e| format!("ingesting {path}: {e}"))?);
    }
    let ingest = t0.elapsed();
    Ok((inputs, us(generate), us(ingest)))
}

/// Per-campaign costs of the layers below the engine, in µs.
struct LayerCosts {
    generate: f64,
    ingest: f64,
    freeze: f64,
    /// Per family label: prepare + grid.
    core: BTreeMap<String, f64>,
    mc_reference: f64,
}

fn dag_and_core_layers(
    report: &mut Report,
    inputs: &Inputs,
    generate: f64,
    ingest: f64,
) -> Result<LayerCosts, String> {
    report.set("taskgraphs.generate.us", generate);
    report.set("workload.ingest.us", ingest);
    let clones: Vec<Dag> = inputs.instances.iter().map(|(_, d)| d.clone()).collect();
    let t0 = Instant::now();
    let prepared: Vec<PreparedDag> = clones.into_iter().map(PreparedDag::new).collect();
    let freeze = us(t0.elapsed());
    report.set("dag.freeze.us", freeze);
    let t0 = Instant::now();
    for (_, dag) in &inputs.instances {
        black_box(structural_hash(dag));
    }
    report.set("dag.structural_hash.us", us(t0.elapsed()));

    let models: Vec<Vec<FailureModel>> = inputs
        .instances
        .iter()
        .map(|(_, dag)| {
            inputs
                .pfails
                .iter()
                .map(|&p| FailureModel::from_pfail_for_dag(p, dag))
                .collect()
        })
        .collect();
    let registry = EstimatorRegistry::standard();
    let mut core = BTreeMap::new();
    for (label, spelling) in CORE_FAMILIES {
        let spec = registry.parse(spelling).map_err(|e| e.to_string())?;
        let est = registry.build(&spec, 1).map_err(|e| e.to_string())?;
        // A family the workload sweeps is timed on every instance, as a
        // campaign computes it; any other only on the first instance,
        // which keeps the traced run's length independent of families
        // the workload never runs.
        let swept = inputs
            .estimators
            .iter()
            .any(|e| registry.parse(e).ok().map(|s| s.to_string()) == Some(spec.to_string()));
        let take = if swept { prepared.len() } else { 1 };
        let (mut prepare, mut grid) = (Duration::ZERO, Duration::ZERO);
        for (p, m) in prepared.iter().zip(&models).take(take) {
            let t0 = Instant::now();
            let mut prep = est.prepare(p);
            let t1 = Instant::now();
            black_box(prep.estimate_grid(m));
            grid += t1.elapsed();
            prepare += t1 - t0;
        }
        report.set(format!("core.{label}.prepare.us"), us(prepare));
        report.set(format!("core.{label}.grid.us"), us(grid));
        core.insert(spec.to_string(), us(prepare + grid));
    }
    let mc = MonteCarloEstimator::new(inputs.reference_trials)
        .with_seed(1)
        .sequential();
    let t0 = Instant::now();
    for (p, m) in prepared.iter().zip(&models) {
        black_box(mc.prepare(p).estimate_grid(m));
    }
    let mc_reference = us(t0.elapsed());
    report.set("core.mc_reference.us", mc_reference);
    Ok(LayerCosts {
        generate,
        ingest,
        freeze,
        core,
        mc_reference,
    })
}

/// Per-call cache costs in µs (the disk tier on a cache directory of
/// its own); returns (memory hit, miss).
fn cache_layer(report: &mut Report, inputs: &Inputs, dir: &Path) -> (f64, f64) {
    let mut keys = Vec::new();
    for (i, (_, dag)) in inputs.instances.iter().enumerate() {
        let hash = structural_hash(dag);
        for &p in &inputs.pfails {
            let lambda = FailureModel::from_pfail_for_dag(p, dag).lambda;
            for e in &inputs.estimators {
                keys.push(cell_key(hash, lambda, e, i as u64));
            }
        }
    }
    let est = Estimate {
        value: 123.456_789,
        elapsed: Duration::from_micros(42),
        name: "FirstOrder".into(),
        std_error: None,
    };
    let n = keys.len().max(1) as f64;
    let timed = |f: &mut dyn FnMut(&str)| {
        let t0 = Instant::now();
        keys.iter().for_each(|k| f(k));
        us(t0.elapsed()) / n
    };
    let cache = ResultCache::on_disk(dir);
    let miss = timed(&mut |k| {
        black_box(cache.lookup(k));
    });
    let store = timed(&mut |k| cache.store(k, &est));
    let memory = timed(&mut |k| {
        black_box(cache.lookup(k));
    });
    let reopened = ResultCache::on_disk(dir);
    let disk = timed(&mut |k| {
        black_box(reopened.lookup(k));
    });
    let _ = std::fs::remove_dir_all(dir);
    report.set("engine.cache.lookup_memory_hit.us", memory);
    report.set("engine.cache.lookup_disk_hit.us", disk);
    report.set("engine.cache.lookup_miss.us", miss);
    report.set("engine.cache.store_disk.us", store);
    (memory, miss)
}

/// Protocol, sink and plan layers; returns per-row sink ns and the
/// plan's µs.
fn engine_layers(
    report: &mut Report,
    rows: &[SweepRow],
    specs: &[SpecText],
) -> Result<(f64, f64), String> {
    let events: Vec<CampaignEvent> = rows
        .iter()
        .enumerate()
        .map(|(index, row)| CampaignEvent::Cell {
            index,
            cached: false,
            tier: None,
            row: row.clone(),
        })
        .collect();
    report.set(
        "engine.protocol.encode_cell.ns",
        per_item_ns(&events, FLOOR, |e| {
            black_box(encode_event(e));
        }),
    );
    let lines: Vec<String> = events.iter().map(encode_event).collect();
    report.set(
        "engine.protocol.decode_cell.ns",
        per_item_ns(&lines, FLOOR, |l| {
            black_box(decode_event(l).expect("own encoding decodes"));
        }),
    );
    let registry = EstimatorRegistry::standard();
    let mut leases: Vec<WorkLease> = Vec::new();
    let mut plan_us = 0.0;
    for spec in specs {
        let parsed = spec.parse().map_err(|e| e.to_string())?;
        let mut samples = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            let plan = CampaignPlan::new(&parsed, &registry).map_err(|e| e.to_string())?;
            samples.push(us(t0.elapsed()));
            leases = plan.leases().to_vec();
        }
        plan_us += median(&samples);
    }
    report.set("engine.plan.us", plan_us / specs.len() as f64);
    report.set(
        "engine.protocol.encode_lease.ns",
        per_item_ns(&leases, FLOOR, |l| {
            black_box(encode_lease(l));
        }),
    );
    let lease_lines: Vec<String> = leases.iter().map(encode_lease).collect();
    report.set(
        "engine.protocol.decode_lease.ns",
        per_item_ns(&lease_lines, FLOOR, |l| {
            black_box(decode_lease(l).expect("own encoding decodes"));
        }),
    );
    let mut csv = CsvSink::new(Vec::<u8>::new());
    let csv_ns = per_item_ns(rows, FLOOR, |r| {
        csv.row(r).expect("in-memory write");
    });
    let mut jsonl = JsonlSink::new(Vec::<u8>::new());
    let jsonl_ns = per_item_ns(rows, FLOOR, |r| {
        jsonl.row(r).expect("in-memory write");
    });
    report.set("engine.sink.csv_row.ns", csv_ns);
    report.set("engine.sink.jsonl_row.ns", jsonl_ns);
    Ok((csv_ns + jsonl_ns, plan_us / specs.len() as f64))
}

/// Spool layer on `job`'s spec: its campaigns over `SharedFs` against
/// its in-process twin, both from a cold cache. `spool` may carry
/// spool campaigns already run on this spec.
fn spool_layer(report: &mut Report, job: &Job, mut spool: Vec<Finished>) -> Result<f64, String> {
    while spool.len() < 3 {
        spool.push(job.campaign_on(Backend::Spool, None)?);
    }
    let mut twin = Vec::new();
    for _ in 0..3 {
        twin.push(
            job.campaign_on(Backend::InProcess, None)?
                .wall
                .as_secs_f64(),
        );
    }
    let spool_wall = median(
        &spool
            .iter()
            .map(|f| f.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let overhead = spool_wall - median(&twin);
    let gaps: Vec<f64> = spool
        .iter()
        .flat_map(|f| {
            f.lease_done
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
                .collect::<Vec<_>>()
        })
        .collect();
    report.set("engine.spool.overhead_s", overhead);
    report.set(
        "engine.spool.lease_gap_ms",
        if gaps.is_empty() { 0.0 } else { median(&gaps) },
    );
    report.set("engine.spool.leases", spool[0].lease_done.len() as f64);
    Ok(overhead)
}

/// Serve round-trip metrics from traced client runs; returns the
/// medians of the campaigns' round-trip sums (submit + subscribe to
/// first row + stream) and of their latencies, in seconds.
fn serve_metrics(report: &mut Report, runs: &[ClientRun], hit_rate: f64) -> (f64, f64) {
    let pick = |f: fn(&serve::Timing) -> f64| {
        let v: Vec<f64> = runs.iter().flat_map(|r| r.timings.iter().map(f)).collect();
        if v.is_empty() {
            f64::NAN
        } else {
            median(&v)
        }
    };
    report.set("serve.submit_rtt.ms", pick(|t| t.submit) * 1e3);
    report.set(
        "serve.status_rtt.ms",
        pick(|t| t.status.unwrap_or(f64::NAN)) * 1e3,
    );
    report.set(
        "serve.subscribe_to_first_event.ms",
        pick(|t| t.first_row) * 1e3,
    );
    report.set("serve.stream.ms", pick(|t| t.stream) * 1e3);
    report.set("serve.cache_hit_frac", hit_rate);
    (
        pick(|t| t.submit + t.first_row + t.stream),
        pick(|t| t.latency),
    )
}

/// A short serve session on `job`'s spec: a cold submission, then
/// cached ones.
fn serve_probe(report: &mut Report, job: &Job, scratch: &Scratch) -> Result<(), String> {
    let pool = Pool {
        specs: vec![job.spec.parse().map_err(|e| e.to_string())?],
        want: vec![job.want.clone()],
    };
    let daemon = Daemon::start()?;
    let dir = scratch.fresh("serve-probe");
    let run = serve::client_loop(&daemon.addr, &pool, &[0], Instant::now(), 4, true, &dir);
    let hit_rate = status_hit_rate(&daemon);
    daemon.stop()?;
    if let Some(why) = run.failures.first() {
        return Err(format!("serve probe: {why}"));
    }
    serve_metrics(report, &[run], hit_rate?);
    Ok(())
}

fn status_hit_rate(daemon: &Daemon) -> Result<f64, String> {
    stochdag_serve::ServeClient::connect_to(&daemon.addr)
        .status(None)
        .map(|s| s.server.cache_hit_rate())
        .map_err(|e| e.to_string())
}

/// Engine telemetry spans summed over `snapshots`, in ms per campaign.
fn telemetry_spans(report: &mut Report, snapshots: &[&MetricsSnapshot], campaigns: usize) {
    for span in TELEMETRY_SPANS {
        let ns: u64 = snapshots
            .iter()
            .filter_map(|s| s.spans.get(*span))
            .map(|s| s.total_ns)
            .sum();
        report.set(
            format!("engine.telemetry.{span}.ms"),
            ns as f64 / 1e6 / campaigns.max(1) as f64,
        );
    }
}

/// Run `f` repeatedly until `budget` is spent (at least `min` times).
fn repeat<T>(
    budget: Duration,
    min: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < budget {
        out.push(f()?);
    }
    Ok(out)
}

/// `job`'s campaigns with `Telemetry::enabled()` and without it, each
/// for `budget`, from the same cold cache; reports
/// `engine.telemetry.overhead_frac` and returns both sets with the
/// untraced median wall.
fn telemetry_pair(
    report: &mut Report,
    job: &Job,
    budget: Duration,
) -> Result<(Vec<Finished>, Vec<Finished>, f64), String> {
    let traced = repeat(budget, 3, || {
        report.attempted += 1;
        job.campaign(Some(Telemetry::enabled()))
    })?;
    let untraced = repeat(budget, 3, || {
        report.attempted += 1;
        job.campaign(None)
    })?;
    let wall = |v: &[Finished]| median(&v.iter().map(|f| f.wall.as_secs_f64()).collect::<Vec<_>>());
    let untraced_p50 = wall(&untraced);
    report.set(
        "engine.telemetry.overhead_frac",
        wall(&traced) / untraced_p50 - 1.0,
    );
    Ok((traced, untraced, untraced_p50))
}

/// Traced run of a sequential workload.
pub fn sequential(
    w: Workload,
    job: &Job,
    seconds: f64,
    scratch: &Scratch,
) -> Result<Report, String> {
    let start = Instant::now();
    let mut report = Report::default();
    dist_layer(&mut report)?;
    let (inputs, generate, ingest) = build_inputs(std::slice::from_ref(&job.spec))?;
    let costs = dag_and_core_layers(&mut report, &inputs, generate, ingest)?;
    let (memory_hit, miss) = cache_layer(&mut report, &inputs, &scratch.fresh("cache-probe"));
    let (sink_ns, plan_us) =
        engine_layers(&mut report, &job.want, std::slice::from_ref(&job.spec))?;

    let left = (seconds - start.elapsed().as_secs_f64()).max(1.0);
    let budget = Duration::from_secs_f64(left * 0.3);
    let (traced, untraced, untraced_p50) = telemetry_pair(&mut report, job, budget)?;

    // The spool and serve layers of workloads that do not exercise them
    // are probed on a one-instance slice of the workload's spec.
    let slice = Job::for_spec(job.spec.slice(), Backend::Spool, scratch)?;
    let spool_overhead = if w == Workload::SpoolFanout {
        spool_layer(&mut report, job, untraced)?
    } else {
        spool_layer(&mut report, &slice, Vec::new())?;
        0.0
    };
    serve_probe(&mut report, &slice, scratch)?;

    // Every sequential campaign starts from a cold cache and `verify`
    // requires every cell to be computed, so this is 0 by design; it is
    // reported so that every workload emits the whole catalogue.
    let (hits, lookups) = traced.iter().fold((0, 0), |a, f| {
        let o = &f.outcome;
        (a.0 + o.cache_hits, a.1 + o.cache_hits + o.cache_misses)
    });
    report.set("engine.cache.hit_frac", hits as f64 / lookups.max(1) as f64);
    let spans: Vec<&MetricsSnapshot> = traced.iter().filter_map(|f| f.spans.as_ref()).collect();
    telemetry_spans(&mut report, &spans, traced.len());

    // Attribution: what the outside-timed layer calls add up to for one
    // campaign, against the campaign's untraced wall.
    let f = &traced[0];
    let o = &f.outcome;
    let mut parts: BTreeMap<&str, f64> = BTreeMap::new();
    // The plan generates, ingests and hashes every instance; the lease
    // executor then freezes each one.
    parts.insert("plan", plan_us / 1e6);
    parts.insert("freeze", costs.freeze / 1e6);
    let core: f64 = costs
        .core
        .iter()
        .filter_map(|(id, cost)| {
            let (computed, cells) = f.computed.get(id)?;
            Some(cost * *computed as f64 / (*cells).max(1) as f64)
        })
        .sum();
    parts.insert("core", core / 1e6);
    parts.insert(
        "mc_reference",
        costs.mc_reference * f.references_computed as f64 / o.references.max(1) as f64 / 1e6,
    );
    // Every benchmark campaign caches in memory: hits are memory-tier
    // lookups, misses a failed lookup (the memory store is a map insert).
    parts.insert(
        "cache",
        (o.cache_hits as f64 * memory_hit + o.cache_misses as f64 * miss) / 1e6,
    );
    parts.insert("sink", o.rows.len() as f64 * sink_ns / 1e9);
    parts.insert("spool", spool_overhead);
    eprintln!(
        "perfbench: {} attribution per campaign (s): {parts:?}; generate {:.6}, ingest {:.6}; untraced wall {untraced_p50:.6}",
        w.name(),
        costs.generate / 1e6,
        costs.ingest / 1e6,
    );
    let attributed: f64 = parts.values().sum();
    report.set("engine.unattributed_frac", 1.0 - attributed / untraced_p50);
    Ok(report)
}

/// Traced run of serve-overlap: one session of traced clients on a
/// daemon of its own. The daemon always runs with telemetry enabled, so
/// `engine.telemetry.overhead_frac` is measured on in-process campaigns
/// of the pool's first spec, where telemetry can be switched off.
pub fn serve_overlap(seed: u64, seconds: f64, scratch: &Scratch) -> Result<Report, String> {
    let start = Instant::now();
    let mut report = Report::default();
    let texts = workloads::serve_pool(Workload::ServeOverlap.spec_seed(seed));
    let pool = Pool::prepare(seed)?;
    dist_layer(&mut report)?;
    let (inputs, generate, ingest) = build_inputs(&texts)?;
    dag_and_core_layers(&mut report, &inputs, generate, ingest)?;
    cache_layer(&mut report, &inputs, &scratch.fresh("cache-probe"));
    let rows: Vec<SweepRow> = pool.want.iter().flatten().cloned().collect();
    engine_layers(&mut report, &rows, &texts)?;
    let slice = Job::for_spec(texts[0].clone(), Backend::Spool, scratch)?;
    spool_layer(&mut report, &slice, Vec::new())?;
    let in_process = Job::for_spec(texts[0].clone(), Backend::InProcess, scratch)?;
    let left = (seconds - start.elapsed().as_secs_f64()).max(1.0);
    telemetry_pair(
        &mut report,
        &in_process,
        Duration::from_secs_f64(left * 0.1),
    )?;

    let left = (seconds - start.elapsed().as_secs_f64()).max(1.0);
    let daemon = Daemon::start()?;
    let (runs, _) = serve::session(&daemon, &pool, seed, left * 0.6, 10, true, scratch);
    let spans = daemon.metrics();
    let hit_rate = status_hit_rate(&daemon);
    daemon.stop()?;
    serve::tally(&mut report, &runs);

    let (round_trips, latency) = serve_metrics(&mut report, &runs, hit_rate?);
    let (computed, cells) = runs
        .iter()
        .fold((0, 0), |a, r| (a.0 + r.cells_computed, a.1 + r.cells));
    report.set(
        "engine.cache.hit_frac",
        1.0 - computed as f64 / cells.max(1) as f64,
    );
    let served: usize = runs.iter().map(|r| r.timings.len()).sum();
    telemetry_spans(&mut report, &[&spans], served);
    // The remainder is the client's own work after the last row: the
    // merge's completeness checks, the summary and the sink flushes.
    eprintln!(
        "perfbench: serve-overlap attribution per campaign (s): round trips {round_trips:.6}; latency {latency:.6}"
    );
    report.set("engine.unattributed_frac", 1.0 - round_trips / latency);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_operands_reach_the_size_in_their_name() {
        for reverse in [false, true] {
            let d = panel_operand(128, reverse).expect("128-atom operand");
            assert_eq!(d.len(), 128);
            assert!(d.atoms().windows(2).all(|w| w[0].0 < w[1].0));
        }
    }
}
