//! Campaign expansion and the shared cell-evaluation machinery.
//!
//! This module holds the *engine room* every execution path shares:
//!
//! * [`expand`] — validate a [`SweepSpec`] and expand it into DAG
//!   instances, per-instance failure models, and canonical estimator
//!   ids. Every entry point (campaign plans, resume reports, dry
//!   runs) derives the identical cell universe from this one
//!   function.
//! * [`SweepModel::identity`] / [`cell_index`] / [`evaluate_unit`] /
//!   [`make_row`] — the deterministic identities and cache-first
//!   evaluation shared by the in-process and multi-process backends;
//!   the distributed byte-identity guarantee depends on both paths
//!   computing cells through these exact definitions.
//! * [`resume_report_impl`] — diff a spec against the cache without
//!   computing anything.
//!
//! The public entry points live on [`Campaign`](crate::Campaign).

use crate::cache::{cell_key, CacheTier, ResultCache};
use crate::error::EngineError;
use crate::keys::{mix, StableHasher};
use crate::sink::{SummaryRow, SweepRow};
use crate::spec::{DagInstance, SweepSpec};
use crate::telemetry::Telemetry;
use std::time::{Duration, Instant};
use stochdag_core::{Estimate, EstimatorSpec, FailureModel, PreparedEstimator, ScenarioModel};
use stochdag_dag::{structural_hash, PreparedDag};

/// Outcome of a finished sweep.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Every cell row, in deterministic cell order.
    pub rows: Vec<SweepRow>,
    /// Per-estimator aggregates.
    pub summary: Vec<SummaryRow>,
    /// Number of estimator cells (excludes references).
    pub cells: usize,
    /// Number of Monte-Carlo reference scenarios.
    pub references: usize,
    /// Cache hits across references + cells.
    pub cache_hits: usize,
    /// Cache misses (computed fresh) across references + cells.
    pub cache_misses: usize,
    /// Cells computed fresh (no cache tier had them). Cell-only and
    /// deduplicated by global index, so — unlike `cache_hits`, which
    /// includes per-worker reference probes — this is invariant across
    /// backends and worker counts.
    pub cells_computed: usize,
    /// Cells served by the in-memory cache tier (deduplicated).
    pub cells_memory_hits: usize,
    /// Cells served by the on-disk cache tier (deduplicated).
    pub cells_disk_hits: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
}

impl SweepOutcome {
    /// Whether every unit of work was served from the cache.
    pub fn fully_cached(&self) -> bool {
        self.cache_misses == 0
    }
}

/// Derive the deterministic seed of a work unit from the spec seed and
/// the unit's content identity. Masked to 53 bits so seeds survive the
/// JSON number model (JSONL rows, cached payloads) exactly.
pub(crate) fn derive_seed(spec_seed: u64, dag_hash: u128, lambda: f64, unit: &str) -> u64 {
    let mut h = StableHasher::new("stochdag-seed");
    h.write_u64(spec_seed)
        .write_u128(dag_hash)
        .write_f64(lambda)
        .write_str(unit);
    mix(h.finish() as u64) & ((1u64 << 53) - 1)
}

/// One entry of a campaign's model axis: a base failure model crossed
/// with one (possibly i.i.d.) failure scenario.
///
/// `unit_suffix` is the cache/seed identity of the scenario axis: empty
/// for i.i.d. entries — so every pre-scenario cell key stays
/// byte-identical, and `scenarios = ["iid"]` equals an absent axis —
/// and `"|rack:4:0.05:2"`-style otherwise, appended to both the
/// estimator's and the reference's unit string by
/// [`SweepModel::identity`].
pub(crate) struct SweepModel {
    /// The base (marginal) failure model.
    pub(crate) model: FailureModel,
    /// Resolved correlation structure (i.i.d. when the axis is absent).
    pub(crate) scenario: ScenarioModel,
    /// Row label: `"pfail=0.01"`, or `"pfail=0.01|rack:4:0.05:2"`.
    pub(crate) label: String,
    /// `""` for i.i.d., `"|{scenario_id}"` otherwise.
    pub(crate) unit_suffix: String,
}

impl SweepModel {
    /// The seed and cache key of this entry's unit for estimator or
    /// reference id `base` — the one derivation the lease executor and
    /// the resume report share, so a report cannot disagree with a run.
    /// A non-zero `revision` ([`EstimatorSpec::kernel_revision`]; 0 for
    /// references) goes into the key only, so cells an older kernel
    /// cached are recomputed, never served.
    pub(crate) fn identity(
        &self,
        spec_seed: u64,
        dag_hash: u128,
        base: &str,
        revision: u32,
    ) -> (u64, String) {
        let (unit, lambda) = (format!("{base}{}", self.unit_suffix), self.model.lambda);
        let seed = derive_seed(spec_seed, dag_hash, lambda, &unit);
        let key = match revision {
            0 => cell_key(dag_hash, lambda, &unit, seed),
            r => cell_key(dag_hash, lambda, &format!("{unit}#kernel{r}"), seed),
        };
        (seed, key)
    }
}

/// A validated, fully-expanded campaign — the shared front half of
/// every execution and reporting path.
pub(crate) struct Expansion {
    /// `(typed spec, canonical id)` per estimator, in spec order.
    pub(crate) estimator_ids: Vec<(EstimatorSpec, String)>,
    /// Materialized DAG instances, in spec order.
    pub(crate) instances: Vec<DagInstance>,
    /// Per-instance model entries: base models (pfails first, then
    /// lambdas — the pfail calibration depends on the instance's mean
    /// task weight) crossed with the scenario axis, scenarios fastest.
    pub(crate) models: Vec<Vec<SweepModel>>,
    /// Canonical id of the Monte-Carlo reference configuration.
    pub(crate) reference_id: String,
}

/// Deterministic global index of a cell: scenario-major, estimator
/// fastest. The single source of truth shared by the campaign plan and
/// the lease executor — the coordinator's re-sequencing key.
pub(crate) fn cell_index(i: usize, m: usize, e: usize, m_count: usize, e_count: usize) -> usize {
    (i * m_count + m) * e_count + e
}

pub(crate) fn expand(spec: &SweepSpec) -> Result<Expansion, EngineError> {
    spec.validate()?;
    let estimator_ids: Vec<(EstimatorSpec, String)> = spec
        .estimators
        .iter()
        .map(|est| (est.clone(), est.to_string()))
        .collect();
    {
        let mut ids: Vec<&str> = estimator_ids.iter().map(|(_, id)| id.as_str()).collect();
        ids.sort_unstable();
        for pair in ids.windows(2) {
            if pair[0] == pair[1] {
                return Err(EngineError::spec(format!(
                    "duplicate estimator {:?} in spec (canonical ids must be unique)",
                    pair[0]
                )));
            }
        }
    }
    let mut instances: Vec<DagInstance> = Vec::new();
    for d in &spec.dags {
        instances.extend(d.materialize()?);
    }
    {
        let mut ids: Vec<&str> = instances.iter().map(|i| i.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != instances.len() {
            return Err(EngineError::spec("duplicate DAG instances in spec"));
        }
    }
    // Every cell's relative error divides by the instance's reference,
    // which is 0 when its failure-free makespan is — exactly when no
    // task has a positive weight (the makespan is at least the largest
    // weight) — and pfail calibration divides by the mean weight.
    // Reject such an instance before any cell launches.
    for inst in &instances {
        if !inst.dag.nodes().any(|v| inst.dag.weight(v) > 0.0) {
            return Err(EngineError::spec(format!(
                "{} has a failure-free makespan of 0 ({} tasks, none of positive weight), \
                 so no relative error is defined against its reference",
                inst.id,
                inst.dag.node_count()
            )));
        }
    }
    // The exhaustive oracle panics past its node cap; surface that as
    // a spec error before any cell launches.
    if estimator_ids
        .iter()
        .any(|(est, _)| matches!(est, EstimatorSpec::Exact))
    {
        for inst in &instances {
            if inst.dag.node_count() > stochdag_core::MAX_EXACT_NODES {
                return Err(EngineError::spec(format!(
                    "estimator \"exact\" needs <= {} tasks, but {} has {}",
                    stochdag_core::MAX_EXACT_NODES,
                    inst.id,
                    inst.dag.node_count()
                )));
            }
        }
    }
    // Resolve each scenario against each instance once (rack striping
    // and bursty windows depend on the graph), then cross the base
    // models with the scenario axis — base-model-major, scenarios
    // fastest. An absent axis is the single implicit i.i.d. entry with
    // an empty unit suffix, which keeps every pre-scenario cache key
    // byte-identical.
    let scenario_axis: Vec<(stochdag_workload::ScenarioSpec, String)> =
        spec.scenarios.iter().map(|s| (*s, s.to_string())).collect();
    let models: Vec<Vec<SweepModel>> = instances
        .iter()
        .map(|inst| {
            let resolved: Vec<(ScenarioModel, String)> = if scenario_axis.is_empty() {
                vec![(ScenarioModel::Iid, String::new())]
            } else {
                scenario_axis
                    .iter()
                    .map(|(s, id)| {
                        let model = s.resolve(&inst.dag).map_err(|e| {
                            EngineError::spec(format!("scenario {id} on {}: {e}", inst.id))
                        })?;
                        let suffix = if s.is_iid() {
                            String::new()
                        } else {
                            format!("|{id}")
                        };
                        Ok((model, suffix))
                    })
                    .collect::<Result<_, EngineError>>()?
            };
            let base: Vec<(FailureModel, String)> = spec
                .pfails
                .iter()
                .map(|&p| {
                    (
                        FailureModel::from_pfail_for_dag(p, &inst.dag),
                        format!("pfail={p}"),
                    )
                })
                .chain(
                    spec.lambdas
                        .iter()
                        .map(|&l| (FailureModel::new(l), format!("lambda={l}"))),
                )
                .collect();
            Ok(base
                .into_iter()
                .flat_map(|(model, label)| {
                    resolved.iter().map(move |(scenario, suffix)| SweepModel {
                        model,
                        scenario: scenario.clone(),
                        label: format!("{label}{suffix}"),
                        unit_suffix: suffix.clone(),
                    })
                })
                .collect())
        })
        .collect::<Result<_, EngineError>>()?;
    let reference_id = format!(
        "mc-reference:{}:{}",
        spec.reference_trials,
        match spec.reference_sampling {
            stochdag_core::SamplingModel::Geometric => "geometric",
            stochdag_core::SamplingModel::TwoState => "two-state",
        }
    );
    Ok(Expansion {
        estimator_ids,
        instances,
        models,
        reference_id,
    })
}

/// Cache-first evaluation of one work unit against a lazily-created
/// group preparation. On a miss, `on_miss` runs before any work, and
/// the first computed unit of the group carries the one-time
/// preparation cost, so the summary's total_time keeps the paper's
/// "full wall-clock per estimator" semantics. Returns the estimate and
/// the cache tier that served it (`None` when computed fresh).
///
/// A disk-tier hit does not raise `on_miss`: a re-run served from disk
/// measured no faster with the session's helpers than without (its
/// cells serialize on delivery), only costlier in CPU.
///
/// Single source of truth shared by the in-process and multi-process
/// backends: the distributed byte-identity guarantee depends on both
/// paths computing and caching cells identically. The `cache_probe`,
/// `prepare_estimator`, and compute telemetry spans are recorded here
/// for the same reason — every backend's phase timings come from the
/// same instrumentation points (all no-ops on a disabled handle). The
/// compute span is named by the caller: `estimate_cell` for estimator
/// cells, `reference_mc` for Monte-Carlo references.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_unit(
    tel: &Telemetry,
    span: &'static str,
    cache: &ResultCache,
    key: &str,
    seed: u64,
    model: &FailureModel,
    scenario: &ScenarioModel,
    prep: &mut Option<Box<dyn PreparedEstimator>>,
    on_miss: &dyn Fn(),
    prepare: impl FnOnce() -> Box<dyn PreparedEstimator>,
) -> Result<(Estimate, Option<CacheTier>), EngineError> {
    let found = {
        let _probe = tel.span("cache_probe");
        cache.lookup_tiered(key)
    };
    if let Some((est, tier)) = found {
        return Ok((est, Some(tier)));
    }
    on_miss();
    let prep_cost = if prep.is_none() {
        let _prepare = tel.span("prepare_estimator");
        let t0 = Instant::now();
        *prep = Some(prepare());
        t0.elapsed()
    } else {
        // Later cells of the same (instance × estimator) group reuse
        // the group's prepared estimator and the tables it holds.
        // Counted so telemetry reports can show the amortization rate
        // next to the `prepare_estimator` and compute spans.
        tel.count("prepared_reused", 1);
        Duration::ZERO
    };
    let p = prep.as_mut().expect("prepared above");
    p.reseed(seed);
    let mut est = {
        let _estimate = tel.span(span);
        // Spec validation already rejected unsupported (estimator,
        // scenario) pairs; this surfaces only for hand-built plans.
        p.estimate_scenario(model, scenario)
            .map_err(|e| EngineError::spec(e.to_string()))?
    };
    est.elapsed += prep_cost;
    // A concurrent campaign that stored the key first wins, so both
    // report its estimate (see `ResultCache::store_first`).
    let est = cache.store_first(key, &est).unwrap_or(est);
    Ok((est, None))
}

/// Build the result row of one finished cell — like [`evaluate_unit`],
/// the single definition both execution paths share.
#[allow(clippy::too_many_arguments)]
pub(crate) fn make_row(
    id: &str,
    pdag: &PreparedDag,
    label: &str,
    model: &FailureModel,
    canonical: &str,
    est: &Estimate,
    reference: &Estimate,
    seed: u64,
) -> SweepRow {
    SweepRow {
        dag: id.to_string(),
        tasks: pdag.node_count(),
        edges: pdag.edge_count(),
        model: label.to_string(),
        lambda: model.lambda,
        estimator: canonical.to_string(),
        value: est.value,
        reference: reference.value,
        reference_std_error: reference.std_error.unwrap_or(0.0),
        rel_error: (est.value - reference.value) / reference.value,
        elapsed_s: est.elapsed.as_secs_f64(),
        seed,
    }
}

/// Per-estimator cache coverage of a spec (see
/// [`Campaign::resume_report`](crate::Campaign::resume_report)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeEstimatorReport {
    /// Canonical estimator id.
    pub estimator: String,
    /// Cells already present in the cache.
    pub hits: usize,
    /// Cells that a run would have to compute.
    pub misses: usize,
}

/// Outcome of [`Campaign::resume_report`](crate::Campaign::resume_report): what a sweep would find in
/// the cache, without running anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeReport {
    /// Coverage per estimator, in spec order.
    pub estimators: Vec<ResumeEstimatorReport>,
    /// Monte-Carlo reference scenarios already cached.
    pub reference_hits: usize,
    /// Reference scenarios a run would have to compute.
    pub reference_misses: usize,
}

impl ResumeReport {
    /// Total cached work units (cells + references).
    pub fn total_hits(&self) -> usize {
        self.reference_hits + self.estimators.iter().map(|e| e.hits).sum::<usize>()
    }

    /// Total uncached work units (cells + references).
    pub fn total_misses(&self) -> usize {
        self.reference_misses + self.estimators.iter().map(|e| e.misses).sum::<usize>()
    }

    /// Whether a run would complete entirely from the cache.
    pub fn fully_cached(&self) -> bool {
        self.total_misses() == 0
    }
}

/// Diff a spec against the cache: for every cell and reference the
/// sweep would execute, probe whether its content key is already
/// present (memory or disk), **without computing anything** and without
/// touching the cache's counters or LRU recency.
pub(crate) fn resume_report_impl(
    spec: &SweepSpec,
    cache: &ResultCache,
) -> Result<ResumeReport, EngineError> {
    let Expansion {
        estimator_ids,
        instances,
        models,
        reference_id,
    } = expand(spec)?;
    let hashes: Vec<u128> = instances.iter().map(|i| structural_hash(&i.dag)).collect();
    let mut estimators: Vec<ResumeEstimatorReport> = estimator_ids
        .iter()
        .map(|(_, canonical)| ResumeEstimatorReport {
            estimator: canonical.clone(),
            hits: 0,
            misses: 0,
        })
        .collect();
    let mut reference_hits = 0;
    let mut reference_misses = 0;
    for (i, inst_models) in models.iter().enumerate() {
        for entry in inst_models {
            let probe = |base: &str, revision| {
                cache.probe(&entry.identity(spec.seed, hashes[i], base, revision).1)
            };
            if probe(&reference_id, 0) {
                reference_hits += 1;
            } else {
                reference_misses += 1;
            }
            for (e, (est, canonical)) in estimator_ids.iter().enumerate() {
                if probe(canonical, est.kernel_revision()) {
                    estimators[e].hits += 1;
                } else {
                    estimators[e].misses += 1;
                }
            }
        }
    }
    Ok(ResumeReport {
        estimators,
        reference_hits,
        reference_misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::sink::ResultSink;
    use crate::spec::DagSpec;
    use std::sync::{Arc, Mutex};
    use stochdag_core::{Estimator, FirstOrderEstimator};
    use stochdag_taskgraphs::FactorizationClass;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            name: "tiny".into(),
            seed: 1,
            pfails: vec![0.01, 0.001],
            lambdas: vec![],
            estimators: vec![EstimatorSpec::FirstOrder, EstimatorSpec::Sculli],
            reference_trials: 1500,
            reference_sampling: stochdag_core::SamplingModel::Geometric,
            jobs: None,
            scenarios: vec![],
            dags: vec![
                DagSpec::Factorization {
                    class: FactorizationClass::Cholesky,
                    ks: vec![2, 3],
                },
                DagSpec::ForkJoin {
                    width: 3,
                    depth: 2,
                    weight: 1.0,
                },
            ],
        }
    }

    /// Minimal sink that shares its collected rows with the test — the
    /// campaign consumes its sinks, so ownership cannot come back.
    struct ShareSink(Arc<Mutex<Vec<SweepRow>>>);

    impl ResultSink for ShareSink {
        fn begin(&mut self) -> std::io::Result<()> {
            Ok(())
        }
        fn row(&mut self, row: &SweepRow) -> std::io::Result<()> {
            self.0.lock().unwrap().push(row.clone());
            Ok(())
        }
        fn summary(&mut self, _rows: &[SummaryRow]) -> std::io::Result<()> {
            Ok(())
        }
        fn finish(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sweep_runs_all_cells_in_order() {
        let rows = Arc::new(Mutex::new(Vec::new()));
        let outcome = Campaign::builder(tiny_spec())
            .sink(ShareSink(rows.clone()))
            .build()
            .unwrap()
            .run()
            .unwrap();
        // 3 DAG instances × 2 pfails × 2 estimators.
        assert_eq!(outcome.cells, 12);
        assert_eq!(outcome.references, 6);
        assert_eq!(outcome.rows.len(), 12);
        assert_eq!(
            *rows.lock().unwrap(),
            outcome.rows,
            "sink saw the same ordered rows"
        );
        // Deterministic order: scenario-major.
        assert_eq!(outcome.rows[0].dag, "cholesky:k=2");
        assert_eq!(outcome.rows[0].estimator, "first-order");
        assert_eq!(outcome.rows[1].estimator, "sculli");
        // Estimates are sane.
        for r in &outcome.rows {
            assert!(r.value > 0.0 && r.reference > 0.0);
            assert!(r.rel_error.abs() < 0.5, "{r:?}");
        }
        assert_eq!(outcome.summary.len(), 2);
    }

    #[test]
    fn repeated_run_is_fully_cached_and_identical() {
        let spec = tiny_spec();
        let cache = Arc::new(ResultCache::in_memory());
        let run = || {
            Campaign::builder(spec.clone())
                .cache(cache.clone())
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let first = run();
        assert!(!first.fully_cached());
        let second = run();
        assert!(second.fully_cached(), "second run must be 100% cache hits");
        assert_eq!(second.cache_hits, first.cells + first.references);
        assert_eq!(second.rows, first.rows, "cached rows are bit-identical");
    }

    #[test]
    fn jobs_knob_does_not_change_results() {
        let mut spec = tiny_spec();
        let run = |spec: &SweepSpec| {
            Campaign::builder(spec.clone())
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let wide = run(&spec);
        spec.jobs = Some(1);
        let narrow = run(&spec);
        // Everything but the wall-clock timing must be identical.
        let values = |o: &SweepOutcome| {
            o.rows
                .iter()
                .map(|r| {
                    (
                        r.dag.clone(),
                        r.estimator.clone(),
                        r.value.to_bits(),
                        r.seed,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(values(&narrow), values(&wide), "worker cap changed rows");
        spec.jobs = Some(0);
        let err = Campaign::builder(spec).build().unwrap_err();
        assert!(err.to_string().contains("jobs"), "{err}");
    }

    #[test]
    fn concurrent_misses_of_one_key_all_report_the_first_store() {
        // Two campaigns sharing one cache both miss a cell: the barrier
        // holds both past the lookup, and their different preparation
        // sleeps make their elapsed times differ. Whichever stores
        // first wins, and both must report it, elapsed time included,
        // so their rows agree with each other and with the cache entry.
        let cache = ResultCache::in_memory();
        let key = cell_key(7, 0.01, "first-order", 1);
        let pdag = PreparedDag::new(stochdag_taskgraphs::fork_join_dag(3, 2, 1.0));
        let model = FailureModel::new(0.01);
        let barrier = std::sync::Barrier::new(2);
        let (cache, key, pdag, model, barrier) = (&cache, &key, &pdag, &model, &barrier);
        let results = std::thread::scope(|scope| {
            [5, 60]
                .map(|sleep_ms| {
                    scope.spawn(move || {
                        let (est, tier) = evaluate_unit(
                            &Telemetry::disabled(),
                            "estimate_cell",
                            cache,
                            key,
                            1,
                            model,
                            &ScenarioModel::Iid,
                            &mut None,
                            &|| {},
                            || {
                                barrier.wait();
                                std::thread::sleep(Duration::from_millis(sleep_ms));
                                FirstOrderEstimator::fast().prepare(pdag)
                            },
                        )
                        .unwrap();
                        assert_eq!(tier, None, "both threads computed the cell");
                        est
                    })
                })
                .map(|t| t.join().unwrap())
        });
        let stored = cache.lookup(key).expect("stored");
        for est in &results {
            assert_eq!(est.elapsed, stored.elapsed);
            assert_eq!(est.value.to_bits(), stored.value.to_bits());
            assert_eq!(est.name, stored.name);
            assert_eq!(est.std_error, stored.std_error);
        }
    }

    #[test]
    fn seeds_differ_across_cells_but_not_runs() {
        let a = derive_seed(1, 42, 0.01, "first-order");
        assert_eq!(a, derive_seed(1, 42, 0.01, "first-order"));
        assert_ne!(a, derive_seed(1, 42, 0.01, "sculli"));
        assert_ne!(a, derive_seed(1, 43, 0.01, "first-order"));
        assert_ne!(a, derive_seed(2, 42, 0.01, "first-order"));
    }

    #[test]
    fn bad_estimator_fails_before_work() {
        let mut spec = tiny_spec();
        spec.estimators.push(EstimatorSpec::Mc { trials: 0 });
        let cache = Arc::new(ResultCache::in_memory());
        let err = Campaign::builder(spec.clone())
            .cache(cache.clone())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("mc"), "{err}");
        assert_eq!(cache.hits() + cache.misses(), 0, "no work was attempted");

        spec.estimators.pop();
        spec.estimators.push(EstimatorSpec::Sculli);
        let err = Campaign::builder(spec)
            .cache(cache.clone())
            .build()
            .unwrap()
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate estimator"), "{err}");
        assert_eq!(cache.hits() + cache.misses(), 0, "no work was attempted");
    }

    #[test]
    fn resume_report_diffs_spec_against_cache() {
        let mut spec = tiny_spec();
        // Dodin's keys carry its kernel revision, which the report must derive too.
        spec.estimators.push(EstimatorSpec::Dodin { atoms: 16 });
        let cache = Arc::new(ResultCache::in_memory());
        let campaign = |spec: &SweepSpec| {
            Campaign::builder(spec.clone())
                .cache(cache.clone())
                .build()
                .unwrap()
        };
        let fresh = campaign(&spec).resume_report().unwrap();
        assert!(!fresh.fully_cached());
        assert_eq!(fresh.total_hits(), 0);
        assert_eq!(fresh.reference_misses, 6);
        assert_eq!(fresh.estimators.len(), 3);
        assert!(fresh
            .estimators
            .iter()
            .all(|e| e.misses == 6 && e.hits == 0));
        assert_eq!(
            cache.hits() + cache.misses(),
            0,
            "reporting must not perturb cache counters"
        );

        campaign(&spec).run().unwrap();
        let after = campaign(&spec).resume_report().unwrap();
        assert!(after.fully_cached());
        assert_eq!(after.reference_hits, 6);
        assert!(after
            .estimators
            .iter()
            .all(|e| e.hits == 6 && e.misses == 0));

        // A different seed shifts every statistical cell key; the
        // deterministic estimators' keys ignore the seed only through
        // derive_seed, so everything misses again.
        let mut reseeded = spec.clone();
        reseeded.seed = 99;
        let shifted = campaign(&reseeded).resume_report().unwrap();
        assert_eq!(shifted.total_hits(), 0, "new seed means new keys");
    }
}
