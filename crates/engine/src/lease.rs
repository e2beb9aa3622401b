//! Work leasing: the coordinator-side ready queue, the campaign plan,
//! and the shared lease executor behind every [`ExecBackend`].
//!
//! Cells differ wildly in cost (an `exact` cell costs orders of
//! magnitude more than an analytic one), so the coordinator owns a
//! [`LeaseQueue`] of [`WorkLease`] cell batches — one lease per
//! (instance × estimator) group, so the per-group estimator
//! preparation amortizes — and workers *pull* the next batch whenever
//! they finish one. A lease whose worker crashes is re-queued (bounded
//! by [`LeaseQueue::with_max_attempts`]) and any worker may pick it up:
//! results are deterministic and the campaign merge deduplicates by
//! cell index, so duplicated attempts are harmless.
//!
//! The three pieces:
//!
//! * [`CampaignPlan`] — the validated expansion plus the lease list
//!   every backend executes; its totals feed the
//!   [`Plan`](crate::CampaignEvent::Plan) event (under leasing, a
//!   worker cannot announce its share up front).
//! * [`LeaseQueue`] — the thread-safe ready queue: [`LeaseQueue::next`]
//!   / [`LeaseQueue::poll_next`] hand out batches,
//!   [`LeaseQueue::complete`] retires them, [`LeaseQueue::requeue`]
//!   returns a crashed worker's batch for another attempt.
//! * [`LeaseExecutor`] — the cache-first cell evaluator shared by every
//!   consumer (in-process threads, `sweep-worker --leases` processes,
//!   spool-directory workers) — which is what keeps lease
//!   interleavings byte-identical to a single-process run.
//!
//! Leases cross process boundaries as one JSON line each
//! ([`encode_lease`]/[`decode_lease`]), mirroring the event protocol.
//!
//! [`ExecBackend`]: crate::ExecBackend

use crate::cache::{cell_key, CacheTier, ResultCache};
use crate::campaign::BackendContext;
use crate::cancel::CancelToken;
use crate::error::EngineError;
use crate::protocol::CampaignEvent;
use crate::registry::EstimatorRegistry;
use crate::runner::{cell_index, derive_seed, evaluate_unit, expand, make_row, Expansion};
use crate::spec::SweepSpec;
use crate::telemetry::Telemetry;
use serde::{Deserialize, Serialize, Value};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;
use stochdag_core::{Estimate, Estimator, MonteCarloEstimator, PreparedEstimator};
use stochdag_dag::{structural_hash, PreparedDag};

/// One leased batch of work: a stable id plus the global indices of the
/// cells to execute. The id survives re-queued attempts, so the
/// coordinator can deduplicate [`LeaseDone`](CampaignEvent::LeaseDone)
/// totals and cap retries per lease rather than per worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkLease {
    /// Stable lease id (unique within a campaign).
    pub lease_id: usize,
    /// Global cell indices of the batch (see
    /// [`Campaign::dry_run`](crate::Campaign::dry_run) for the
    /// deterministic scenario-major numbering).
    pub cells: Vec<usize>,
}

impl Serialize for WorkLease {
    fn serialize(&self) -> Value {
        Value::obj([
            ("lease_id", self.lease_id.serialize()),
            ("cells", self.cells.serialize()),
        ])
    }
}

impl Deserialize for WorkLease {
    fn deserialize(v: &Value) -> Result<WorkLease, serde::Error> {
        Ok(WorkLease {
            lease_id: usize::deserialize(v.require("lease_id")?)?,
            cells: Vec::<usize>::deserialize(v.require("cells")?)?,
        })
    }
}

/// Encode a lease as one wire line (no trailing newline) — the
/// coordinator → worker half of the leasing protocol (worker →
/// coordinator traffic is the ordinary event stream).
pub fn encode_lease(lease: &WorkLease) -> String {
    serde::json::to_string(lease)
}

/// Decode one lease line, with the offending text in the error so a
/// torn stdin stream is diagnosable.
pub fn decode_lease(line: &str) -> Result<WorkLease, String> {
    serde::json::from_str::<WorkLease>(line.trim_end())
        .map_err(|e| format!("bad lease request {line:?}: {e}"))
}

/// What [`LeaseQueue::poll_next`] observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LeasePoll {
    /// A lease was granted; execute it and [`LeaseQueue::complete`] it.
    Ready(WorkLease),
    /// Nothing ready right now, but uncompleted leases are outstanding
    /// on other consumers — poll again (checking cancellation first).
    Pending,
    /// Every lease completed, or the queue was closed; stop consuming.
    Drained,
}

struct QueueInner {
    ready: VecDeque<usize>,
    by_id: HashMap<usize, WorkLease>,
    outstanding: HashSet<usize>,
    completed: HashSet<usize>,
    attempts: HashMap<usize, usize>,
    total: usize,
    max_attempts: usize,
    closed: bool,
}

impl QueueInner {
    fn grant(&mut self) -> Option<WorkLease> {
        let id = self.ready.pop_front()?;
        *self.attempts.entry(id).or_insert(0) += 1;
        self.outstanding.insert(id);
        Some(self.by_id[&id].clone())
    }

    fn drained(&self) -> bool {
        self.closed || self.completed.len() == self.total
    }
}

/// The coordinator's ready queue of [`WorkLease`] batches — the heart
/// of the engine's pull scheduling.
///
/// Consumers (in-process worker threads, the per-slot pipe pumps of
/// [`MultiProcess`](crate::MultiProcess), the
/// [`SharedFs`](crate::SharedFs) spool coordinator) call
/// [`next`](LeaseQueue::next) or [`poll_next`](LeaseQueue::poll_next)
/// to pull a batch, and [`complete`](LeaseQueue::complete) when its
/// `LeaseDone` arrives. When a consumer dies mid-lease,
/// [`requeue`](LeaseQueue::requeue) puts the batch back for any other
/// consumer — up to `max_attempts` grants per lease (default 2: the
/// initial attempt plus one retry), after which `requeue` refuses and
/// the campaign fails.
///
/// All methods take `&self`; the queue is fully thread-safe.
pub struct LeaseQueue {
    inner: Mutex<QueueInner>,
    cvar: Condvar,
}

impl LeaseQueue {
    /// Queue over `leases`, each grantable at most twice.
    pub fn new(leases: Vec<WorkLease>) -> LeaseQueue {
        let ready: VecDeque<usize> = leases.iter().map(|l| l.lease_id).collect();
        let by_id: HashMap<usize, WorkLease> =
            leases.into_iter().map(|l| (l.lease_id, l)).collect();
        debug_assert_eq!(ready.len(), by_id.len(), "lease ids must be unique");
        LeaseQueue {
            inner: Mutex::new(QueueInner {
                total: by_id.len(),
                ready,
                by_id,
                outstanding: HashSet::new(),
                completed: HashSet::new(),
                attempts: HashMap::new(),
                max_attempts: 2,
                closed: false,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Change the per-lease grant cap (minimum 1).
    pub fn with_max_attempts(self, max_attempts: usize) -> LeaseQueue {
        self.inner.lock().expect("lease queue").max_attempts = max_attempts.max(1);
        self
    }

    /// Grant the next ready lease, or `None` when nothing is ready
    /// *right now* (other consumers may still fail and re-queue; use
    /// [`poll_next`](LeaseQueue::poll_next) to distinguish).
    pub fn next(&self) -> Option<WorkLease> {
        self.inner.lock().expect("lease queue").grant()
    }

    /// Grant the next ready lease, waiting up to `wait` for one to
    /// appear. Returns [`LeasePoll::Pending`] after the wait so callers
    /// can check cancellation between polls, and
    /// [`LeasePoll::Drained`] once every lease completed (or the queue
    /// was [`close`](LeaseQueue::close)d).
    pub fn poll_next(&self, wait: Duration) -> LeasePoll {
        let mut inner = self.inner.lock().expect("lease queue");
        if let Some(l) = inner.grant() {
            return LeasePoll::Ready(l);
        }
        if inner.drained() {
            return LeasePoll::Drained;
        }
        if !wait.is_zero() {
            let (mut inner, _timeout) = self.cvar.wait_timeout(inner, wait).expect("lease queue");
            if let Some(l) = inner.grant() {
                return LeasePoll::Ready(l);
            }
            if inner.drained() {
                return LeasePoll::Drained;
            }
        }
        LeasePoll::Pending
    }

    /// Retire a finished lease (its `LeaseDone` arrived).
    pub fn complete(&self, lease_id: usize) {
        let mut inner = self.inner.lock().expect("lease queue");
        inner.outstanding.remove(&lease_id);
        inner.completed.insert(lease_id);
        self.cvar.notify_all();
    }

    /// Return a crashed consumer's lease for another attempt. `true`
    /// when the lease is back in the queue (or already completed by a
    /// duplicate attempt — a stale spool reclaim, for instance);
    /// `false` when the lease has exhausted its grant cap and the
    /// campaign must fail.
    pub fn requeue(&self, lease_id: usize) -> bool {
        let mut inner = self.inner.lock().expect("lease queue");
        if inner.completed.contains(&lease_id) || !inner.by_id.contains_key(&lease_id) {
            return true;
        }
        if inner.attempts.get(&lease_id).copied().unwrap_or(0) >= inner.max_attempts {
            return false;
        }
        inner.outstanding.remove(&lease_id);
        if !inner.ready.contains(&lease_id) {
            inner.ready.push_back(lease_id);
        }
        self.cvar.notify_all();
        true
    }

    /// Stop handing out leases: every subsequent poll observes
    /// [`LeasePoll::Drained`]. Used by a fatally-failed consumer so its
    /// peers wind down instead of waiting forever.
    pub fn close(&self) {
        self.inner.lock().expect("lease queue").closed = true;
        self.cvar.notify_all();
    }

    /// Whether this lease's `LeaseDone` was recorded.
    pub fn is_completed(&self, lease_id: usize) -> bool {
        self.inner
            .lock()
            .expect("lease queue")
            .completed
            .contains(&lease_id)
    }

    /// Whether every lease completed.
    pub fn is_drained(&self) -> bool {
        let inner = self.inner.lock().expect("lease queue");
        inner.completed.len() == inner.total
    }

    /// How often this lease has been granted so far.
    pub fn attempts(&self, lease_id: usize) -> usize {
        self.inner
            .lock()
            .expect("lease queue")
            .attempts
            .get(&lease_id)
            .copied()
            .unwrap_or(0)
    }

    /// Total number of leases in the campaign.
    pub fn total(&self) -> usize {
        self.inner.lock().expect("lease queue").total
    }

    /// Leases granted but neither completed nor re-queued.
    pub fn outstanding_count(&self) -> usize {
        self.inner.lock().expect("lease queue").outstanding.len()
    }

    /// Leases completed so far.
    pub fn completed_count(&self) -> usize {
        self.inner.lock().expect("lease queue").completed.len()
    }
}

/// The validated, fully-expanded campaign plus its lease list — what
/// the coordinator plans before any backend starts, handed to
/// backends through [`BackendContext::plan`].
///
/// One lease per (instance × estimator) group, cells in ascending
/// scenario order, so each group prepares its estimator once and the
/// preparation cost is attributed to the group's first computed cell.
pub struct CampaignPlan {
    pub(crate) expansion: Expansion,
    pub(crate) hashes: Vec<u128>,
    pub(crate) m_count: usize,
    pub(crate) e_count: usize,
    leases: Vec<WorkLease>,
}

impl std::fmt::Debug for CampaignPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignPlan")
            .field("cells", &self.cells())
            .field("references", &self.references())
            .field("leases", &self.leases.len())
            .finish()
    }
}

impl CampaignPlan {
    /// Expand and validate `spec` into the plan every v2 backend
    /// executes.
    pub fn new(
        spec: &SweepSpec,
        registry: &EstimatorRegistry,
    ) -> Result<CampaignPlan, EngineError> {
        let expansion = expand(spec, registry)?;
        let hashes: Vec<u128> = expansion
            .instances
            .iter()
            .map(|i| structural_hash(&i.dag))
            .collect();
        let m_count = spec.model_count();
        let e_count = expansion.estimator_ids.len();
        let mut leases = Vec::with_capacity(expansion.instances.len() * e_count);
        for i in 0..expansion.instances.len() {
            for e in 0..e_count {
                leases.push(WorkLease {
                    lease_id: leases.len(),
                    cells: (0..m_count)
                        .map(|m| cell_index(i, m, e, m_count, e_count))
                        .collect(),
                });
            }
        }
        Ok(CampaignPlan {
            expansion,
            hashes,
            m_count,
            e_count,
            leases,
        })
    }

    /// Total estimator cells of the campaign.
    pub fn cells(&self) -> usize {
        self.expansion.instances.len() * self.m_count * self.e_count
    }

    /// Total Monte-Carlo reference scenarios.
    pub fn references(&self) -> usize {
        self.expansion.instances.len() * self.m_count
    }

    /// The planned lease list, in deterministic order.
    pub fn leases(&self) -> &[WorkLease] {
        &self.leases
    }
}

/// The cache-first cell evaluator every lease consumer shares.
///
/// One executor serves a whole campaign session: DAG instances freeze
/// lazily (at most once each, whichever lease touches them first) and
/// reference scenarios resolve exactly once per session — the first
/// lease needing a scenario probes/computes it and emits its
/// [`Reference`](CampaignEvent::Reference) event (tagged with the
/// global scenario index so the coordinator deduplicates across
/// *sessions*); later leases reuse the in-memory estimate without
/// another cache probe.
///
/// [`run`](LeaseExecutor::run) is safe to call from many threads at
/// once over one shared executor — that is precisely how the
/// [`InProcess`](crate::InProcess) backend executes a campaign.
pub struct LeaseExecutor<'a> {
    spec: &'a SweepSpec,
    registry: &'a EstimatorRegistry,
    cache: &'a ResultCache,
    tel: Telemetry,
    cancel: &'a CancelToken,
    plan: &'a CampaignPlan,
    prepared: Vec<OnceLock<PreparedDag>>,
    refs: Vec<Mutex<Option<Estimate>>>,
}

impl<'a> LeaseExecutor<'a> {
    /// Executor over the context's plan. Telemetry goes to a child
    /// collector of the campaign's (see
    /// [`telemetry`](LeaseExecutor::telemetry)).
    pub fn new(ctx: &BackendContext<'a>) -> LeaseExecutor<'a> {
        let plan = ctx.plan;
        LeaseExecutor {
            spec: ctx.spec,
            registry: ctx.registry,
            cache: ctx.cache,
            tel: ctx.telemetry.child(),
            cancel: ctx.cancel,
            plan,
            prepared: (0..plan.expansion.instances.len())
                .map(|_| OnceLock::new())
                .collect(),
            refs: (0..plan.references()).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// The executor's session-local telemetry collector (a
    /// [`Telemetry::child`] of the campaign's): snapshot it into a
    /// [`Telemetry`](CampaignEvent::Telemetry) event when the session
    /// ends, as the shipped backends do.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    fn prepared_dag(&self, i: usize) -> &PreparedDag {
        self.prepared[i].get_or_init(|| {
            let _freeze = self.tel.span("prepare_dag");
            PreparedDag::new(self.plan.expansion.instances[i].dag.clone())
        })
    }

    /// Execute one lease, emitting `LeaseStart`, one event per
    /// reference/cell, and `LeaseDone` with the attempt's cache
    /// totals. Cancellation is polled between cells; an `emit` error
    /// aborts the lease (already-computed cells are in the cache, so a
    /// re-queued attempt resumes cheaply).
    pub fn run(
        &self,
        lease: &WorkLease,
        emit: &dyn Fn(CampaignEvent) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        let Expansion {
            estimator_ids,
            instances,
            models,
            reference_id,
        } = &self.plan.expansion;
        let (m_count, e_count) = (self.plan.m_count, self.plan.e_count);
        let total = self.plan.cells();
        emit(CampaignEvent::LeaseStart {
            lease_id: lease.lease_id,
            cells: lease.cells.len(),
        })?;
        let mut hits = 0usize;
        let mut misses = 0usize;
        let mut count = |tier: Option<CacheTier>| {
            if tier.is_some() {
                hits += 1;
            } else {
                misses += 1;
            }
        };
        // Lazy one-preparation-per-(instance × estimator) group, reset
        // when the lease crosses a group boundary — planned leases
        // never do.
        let mut prep: Option<Box<dyn PreparedEstimator>> = None;
        let mut prep_group: Option<(usize, usize)> = None;
        for &idx in &lease.cells {
            if self.cancel.is_cancelled() {
                return Err(EngineError::cancelled());
            }
            if idx >= total {
                return Err(EngineError::spec(format!(
                    "lease {} cell {idx} out of range (campaign has {total} cells)",
                    lease.lease_id
                )));
            }
            let e = idx % e_count;
            let m = (idx / e_count) % m_count;
            let i = idx / (e_count * m_count);
            let pdag = self.prepared_dag(i);
            let entry = &models[i][m];
            let (model, label) = (&entry.model, &entry.label);
            let scenario = i * m_count + m;
            let reference = {
                let mut slot = self.refs[scenario].lock().expect("reference slot");
                match slot.as_ref() {
                    Some(est) => est.clone(),
                    None => {
                        let ref_unit = entry.unit(reference_id);
                        let seed = derive_seed(
                            self.spec.seed,
                            self.plan.hashes[i],
                            model.lambda,
                            &ref_unit,
                        );
                        let key = cell_key(self.plan.hashes[i], model.lambda, &ref_unit, seed);
                        let trials = self.spec.reference_trials;
                        let sampling = self.spec.reference_sampling;
                        let mut ref_prep: Option<Box<dyn PreparedEstimator>> = None;
                        let (est, tier) = evaluate_unit(
                            &self.tel,
                            self.cache,
                            &key,
                            seed,
                            model,
                            &entry.scenario,
                            &mut ref_prep,
                            || {
                                MonteCarloEstimator::new(trials)
                                    .with_sampling(sampling)
                                    .prepare(pdag)
                            },
                        )?;
                        self.tel.count_lookup("references", tier);
                        count(tier);
                        emit(CampaignEvent::Reference {
                            cached: tier.is_some(),
                            scenario: Some(scenario),
                        })?;
                        *slot = Some(est.clone());
                        est
                    }
                }
            };
            let (est_spec, canonical) = &estimator_ids[e];
            let unit = entry.unit(canonical);
            let seed = derive_seed(self.spec.seed, self.plan.hashes[i], model.lambda, &unit);
            let key = cell_key(self.plan.hashes[i], model.lambda, &unit, seed);
            if prep_group != Some((i, e)) {
                prep = None;
                prep_group = Some((i, e));
            }
            let (est, tier) = evaluate_unit(
                &self.tel,
                self.cache,
                &key,
                seed,
                model,
                &entry.scenario,
                &mut prep,
                || {
                    self.registry
                        .build(est_spec, seed)
                        .expect("estimator specs validated before launch")
                        .prepare(pdag)
                },
            )?;
            self.tel.count_lookup("cells", tier);
            count(tier);
            let row = make_row(
                &instances[i].id,
                pdag,
                label,
                model,
                canonical,
                &est,
                &reference,
                seed,
            );
            emit(CampaignEvent::Cell {
                index: idx,
                cached: tier.is_some(),
                tier,
                row,
            })?;
        }
        emit(CampaignEvent::LeaseDone {
            lease_id: lease.lease_id,
            cells: lease.cells.len(),
            hits,
            misses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lease(id: usize) -> WorkLease {
        WorkLease {
            lease_id: id,
            cells: vec![id * 2, id * 2 + 1],
        }
    }

    #[test]
    fn lease_lines_round_trip_and_reject_garbage() {
        let l = WorkLease {
            lease_id: 7,
            cells: vec![14, 15, 16],
        };
        let line = encode_lease(&l);
        assert!(!line.contains('\n'));
        assert_eq!(decode_lease(&line).unwrap(), l);
        assert!(decode_lease("").is_err());
        assert!(decode_lease("{\"lease_id\":1}").is_err());
        assert!(decode_lease("{not json").is_err());
    }

    #[test]
    fn queue_grants_completes_and_drains() {
        let q = LeaseQueue::new((0..3).map(lease).collect());
        assert_eq!(q.total(), 3);
        let a = q.next().unwrap();
        let b = q.next().unwrap();
        assert_eq!((a.lease_id, b.lease_id), (0, 1));
        assert_eq!(q.outstanding_count(), 2);
        q.complete(a.lease_id);
        q.complete(b.lease_id);
        assert!(!q.is_drained());
        match q.poll_next(Duration::ZERO) {
            LeasePoll::Ready(c) => {
                assert_eq!(c.lease_id, 2);
                q.complete(2);
            }
            other => panic!("expected a grant, got {other:?}"),
        }
        assert!(q.is_drained());
        assert_eq!(q.poll_next(Duration::ZERO), LeasePoll::Drained);
        assert_eq!(q.next(), None);
    }

    #[test]
    fn poll_reports_pending_while_leases_are_outstanding() {
        let q = LeaseQueue::new(vec![lease(0)]);
        let granted = q.next().unwrap();
        assert_eq!(
            q.poll_next(Duration::from_millis(1)),
            LeasePoll::Pending,
            "incomplete outstanding lease must not read as drained"
        );
        q.complete(granted.lease_id);
        assert_eq!(q.poll_next(Duration::ZERO), LeasePoll::Drained);
    }

    #[test]
    fn requeue_caps_attempts_and_tolerates_completed_leases() {
        let q = LeaseQueue::new(vec![lease(0), lease(1)]);
        let first = q.next().unwrap();
        assert_eq!(q.attempts(first.lease_id), 1);
        assert!(q.requeue(first.lease_id), "first retry is allowed");
        let again = q.next().unwrap();
        assert_eq!(again.lease_id, 1, "requeued lease goes to the back");
        let retried = q.next().unwrap();
        assert_eq!(retried.lease_id, first.lease_id);
        assert_eq!(q.attempts(first.lease_id), 2);
        assert!(
            !q.requeue(first.lease_id),
            "second failure exhausts the default cap"
        );
        // A completed lease's stale requeue (e.g. a spool reclaim that
        // raced a slow worker) is a harmless no-op.
        q.complete(again.lease_id);
        assert!(q.requeue(again.lease_id));
        assert_eq!(q.completed_count(), 1);
    }

    #[test]
    fn close_drains_waiting_consumers() {
        let q = LeaseQueue::new(vec![lease(0)]);
        let _granted = q.next().unwrap();
        q.close();
        assert_eq!(q.poll_next(Duration::from_millis(50)), LeasePoll::Drained);
        assert!(!q.is_drained(), "close() is not completion");
    }

    #[test]
    fn plan_leases_cover_every_cell_exactly_once_per_group() {
        use crate::spec::DagSpec;
        use stochdag_core::EstimatorSpec;
        use stochdag_taskgraphs::FactorizationClass;

        let spec = SweepSpec {
            name: "plan".into(),
            seed: 3,
            pfails: vec![0.01, 0.001],
            lambdas: vec![],
            estimators: vec![EstimatorSpec::FirstOrder, EstimatorSpec::Sculli],
            reference_trials: 100,
            reference_sampling: stochdag_core::SamplingModel::Geometric,
            jobs: None,
            scenarios: vec![],
            dags: vec![DagSpec::Factorization {
                class: FactorizationClass::Cholesky,
                ks: vec![2, 3, 4],
            }],
        };
        let plan = CampaignPlan::new(&spec, &EstimatorRegistry::standard()).unwrap();
        // 3 instances × 2 models × 2 estimators.
        assert_eq!(plan.cells(), 12);
        assert_eq!(plan.references(), 6);
        assert_eq!(plan.leases().len(), 6, "one lease per instance × estimator");
        let mut seen: Vec<usize> = Vec::new();
        for (n, l) in plan.leases().iter().enumerate() {
            assert_eq!(l.lease_id, n, "sequential lease ids");
            assert!(
                l.cells.windows(2).all(|w| w[0] < w[1]),
                "cells ascend within a lease"
            );
            seen.extend(&l.cells);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..12).collect::<Vec<_>>(), "full disjoint cover");
    }
}
