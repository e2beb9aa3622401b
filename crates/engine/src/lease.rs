//! Work leasing: the coordinator-side ready queue, the campaign plan,
//! and the one worker session behind every lease consumer.
//!
//! Cells differ wildly in cost (an `exact` cell costs orders of
//! magnitude more than an analytic one), so the coordinator owns a
//! [`LeaseQueue`] of [`WorkLease`] cell batches — one lease per
//! (instance × estimator) group, so the per-group estimator
//! preparation amortizes — and workers *pull* the next batch whenever
//! they finish one. A lease whose worker crashes is re-queued (each
//! lease is granted at most twice) and any worker may pick it up:
//! results are deterministic and the campaign merge deduplicates by
//! cell index, so duplicated attempts are harmless.
//!
//! The pieces:
//!
//! * [`CampaignPlan`] — the validated expansion plus the lease list
//!   every backend executes; its totals feed the
//!   [`Plan`](crate::CampaignEvent::Plan) event (under leasing, a
//!   worker cannot announce its share up front).
//! * [`LeaseQueue`] — the thread-safe ready queue: [`LeaseQueue::next`]
//!   / [`LeaseQueue::poll_next`] hand out batches,
//!   [`LeaseQueue::complete`] retires them, [`LeaseQueue::requeue`]
//!   returns a crashed worker's batch for another attempt or fails the
//!   campaign.
//! * [`LeaseExecutor`] — the cache-first cell evaluator shared by every
//!   consumer, which is what keeps lease interleavings byte-identical
//!   to a single-process run. It prepares each group's estimator from
//!   its spec ([`EstimatorSpec::build`](stochdag_core::EstimatorSpec::build)
//!   with the cell's seed) at the group's first cache miss.
//! * `drain` — the one lease loop: leases from a source run on the
//!   calling thread plus scoped helpers, each under a rayon pool capped
//!   at the session's `--jobs`. In-process campaigns (source: the
//!   queue), `sweep-worker --leases` (source: stdin lines) and spool
//!   workers (source: spool claims) all run it; the first two open it
//!   with the executor's `hello`.
//!   The cap is a value of the session, not of the process, so capped
//!   campaigns in one process run side by side. The helpers start at
//!   the session's first cache miss, before it is computed: a session
//!   whose every cell and reference is a cache hit (a served cached
//!   campaign, a warm worker) runs on the calling thread alone.
//!
//! Leases cross process boundaries as one JSON line each
//! ([`encode_lease`]/[`decode_lease`]), mirroring the event protocol.

use crate::cache::{CacheTier, ResultCache};
use crate::campaign::BackendContext;
use crate::cancel::CancelToken;
use crate::error::EngineError;
use crate::protocol::CampaignEvent;
use crate::registry::EstimatorRegistry;
use crate::runner::{cell_index, evaluate_unit, expand, make_row, Expansion};
use crate::spec::SweepSpec;
use crate::telemetry::Telemetry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;
use stochdag_core::{Estimate, Estimator, MonteCarloEstimator, PreparedEstimator};
use stochdag_dag::{structural_hash, PreparedDag};

serde::codec! {
    lenient;
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

/// Grants per lease: the initial attempt plus one retry.
const MAX_ATTEMPTS: usize = 2;

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
    completed: HashSet<usize>,
    attempts: HashMap<usize, usize>,
    total: usize,
    closed: bool,
}

impl QueueInner {
    fn grant(&mut self) -> Option<WorkLease> {
        let id = self.ready.pop_front()?;
        *self.attempts.entry(id).or_insert(0) += 1;
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
/// consumer — up to two grants per lease (the initial attempt plus one
/// retry), after which `requeue` fails the campaign.
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
                completed: HashSet::new(),
                attempts: HashMap::new(),
                closed: false,
            }),
            cvar: Condvar::new(),
        }
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
        inner.completed.insert(lease_id);
        self.cvar.notify_all();
    }

    /// Return a failed attempt's lease for another attempt: `Ok` when
    /// the lease is back in the queue (or already completed by a
    /// duplicate attempt — a stale spool reclaim, for instance). Once
    /// the lease has used both its grants, the queue closes and the
    /// campaign's error is returned: `lease N failed after K attempts
    /// (last: why)`.
    pub fn requeue(&self, lease_id: usize, why: impl std::fmt::Display) -> Result<(), EngineError> {
        let mut inner = self.inner.lock().expect("lease queue");
        if inner.completed.contains(&lease_id) || !inner.by_id.contains_key(&lease_id) {
            return Ok(());
        }
        let attempts = inner.attempts.get(&lease_id).copied().unwrap_or(0);
        if attempts >= MAX_ATTEMPTS {
            inner.closed = true;
            self.cvar.notify_all();
            return Err(EngineError::worker(
                None,
                format!("lease {lease_id} failed after {attempts} attempts (last: {why})"),
            ));
        }
        if !inner.ready.contains(&lease_id) {
            inner.ready.push_back(lease_id);
        }
        self.cvar.notify_all();
        Ok(())
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
    /// Expand and validate `spec` into the plan every backend executes.
    /// The registry is not read (each estimator is built from its
    /// [`EstimatorSpec`](stochdag_core::EstimatorSpec)); the parameter
    /// stays so that existing callers keep compiling.
    pub fn new(
        spec: &SweepSpec,
        _registry: &EstimatorRegistry,
    ) -> Result<CampaignPlan, EngineError> {
        let expansion = expand(spec)?;
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

/// This host's core count: the thread cap of a session without
/// `jobs`. Probed once per process, as rayon sizes its pool once:
/// every `available_parallelism` call re-reads the affinity mask and
/// the cgroup quota files, and a session starts once per campaign.
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Threads of a worker session capped at `jobs` over a plan of
/// `leases`: never more than this host's cores or the leases, however
/// large a spec's `jobs`.
fn session_threads(jobs: usize, leases: usize) -> usize {
    jobs.min(cores()).min(leases).max(1)
}

/// Run the items `next` hands out through `run` on the calling thread
/// plus up to `threads − 1` scoped helpers until `next` runs dry.
/// `run` gets each item with the session's start signal: the first
/// call starts the helpers, later calls do nothing. A lease raises it
/// before it computes a cache miss, so a session that only hits its
/// cache starts no thread, and one that computes gets its helpers
/// before its first computation. Every thread runs under a rayon pool
/// of `cap` threads, so the parallel Monte-Carlo trials of a lease use
/// at most that many. The first error stops every thread before its
/// next item and is returned; `next` sees it as its raised flag, so a
/// source that waits for work can give up.
pub(crate) fn drain<T>(
    threads: usize,
    cap: usize,
    next: impl Fn(&AtomicBool) -> Result<Option<T>, EngineError> + Sync,
    run: impl Fn(T, &(dyn Fn() + Sync)) -> Result<(), EngineError> + Sync,
) -> Result<(), EngineError> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cap)
        .build()
        .map_err(|e| EngineError::spec(format!("configuring {cap} worker thread(s): {e}")))?;
    let failed = AtomicBool::new(false);
    let first_error: Mutex<Option<EngineError>> = Mutex::new(None);
    let work = |start_helpers: &(dyn Fn() + Sync)| {
        pool.install(|| {
            while !failed.load(Ordering::SeqCst) {
                let Some(item) = next(&failed).transpose() else {
                    return;
                };
                if let Err(e) = item.and_then(|item| run(item, start_helpers)) {
                    first_error
                        .lock()
                        .expect("first error slot")
                        .get_or_insert(e);
                    failed.store(true, Ordering::SeqCst);
                }
            }
        })
    };
    std::thread::scope(|scope| {
        let started = AtomicBool::new(threads <= 1);
        let start_helpers = || {
            if !started.swap(true, Ordering::SeqCst) {
                for _ in 1..threads {
                    scope.spawn(|| work(&|| {}));
                }
            }
        };
        work(&start_helpers);
    });
    first_error
        .into_inner()
        .expect("first error slot")
        .map_or(Ok(()), Err)
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
/// once over one shared executor — that is precisely how a worker
/// session (an [`InProcess`](crate::InProcess) campaign, a
/// `sweep-worker --leases` process) drains its leases.
pub struct LeaseExecutor<'a> {
    spec: &'a SweepSpec,
    cache: &'a ResultCache,
    telemetry: &'a Telemetry,
    cancel: &'a CancelToken,
    plan: &'a CampaignPlan,
    prepared: Vec<OnceLock<PreparedDag>>,
    refs: Vec<Mutex<Option<Estimate>>>,
}

impl<'a> LeaseExecutor<'a> {
    /// Executor over the context's plan. Each lease collects into its
    /// own [`Telemetry::child`] of the campaign's collector and reports
    /// it on its `lease_done`.
    pub fn new(ctx: &BackendContext<'a>) -> LeaseExecutor<'a> {
        let plan = ctx.plan;
        LeaseExecutor {
            spec: ctx.spec,
            cache: ctx.cache,
            telemetry: ctx.telemetry,
            cancel: ctx.cancel,
            plan,
            prepared: (0..plan.expansion.instances.len())
                .map(|_| OnceLock::new())
                .collect(),
            refs: (0..plan.references()).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// One worker session: `hello` (worker slot `shard`, thread cap
    /// `jobs`: the spec's, else this host's cores), then the leases
    /// `next` hands out on [`session_threads`] threads under that cap
    /// ([`drain`]), each passed to `complete` once its `lease_done` is
    /// emitted.
    pub(crate) fn session(
        &self,
        shard: usize,
        next: impl Fn(&AtomicBool) -> Result<Option<WorkLease>, EngineError> + Sync,
        complete: impl Fn(usize) + Sync,
        emit: &(dyn Fn(CampaignEvent) -> Result<(), EngineError> + Sync),
    ) -> Result<(), EngineError> {
        let jobs = self.spec.jobs.unwrap_or_else(cores);
        emit(CampaignEvent::Hello { shard, jobs })?;
        let threads = session_threads(jobs, self.plan.leases().len());
        drain(threads, jobs, next, |lease, start_helpers| {
            self.execute(&lease, emit, start_helpers)?;
            complete(lease.lease_id);
            Ok(())
        })
    }

    fn prepared_dag(&self, i: usize, tel: &Telemetry) -> &PreparedDag {
        self.prepared[i].get_or_init(|| {
            let _freeze = tel.span("prepare_dag");
            PreparedDag::new(self.plan.expansion.instances[i].dag.clone())
        })
    }

    /// Execute one lease, emitting one event per reference/cell and
    /// `LeaseDone` with the attempt's cache totals and, when the
    /// campaign collects telemetry, the lease's own spans and counters.
    /// Cancellation is polled between cells; an `emit` error aborts the
    /// lease (already-computed cells are in the cache, so a re-queued
    /// attempt resumes cheaply).
    pub fn run(
        &self,
        lease: &WorkLease,
        emit: &dyn Fn(CampaignEvent) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        self.execute(lease, emit, &|| {})
    }

    /// [`run`](LeaseExecutor::run) inside a session: `on_miss` is
    /// called before each cache miss is computed ([`drain`]'s start
    /// signal).
    pub(crate) fn execute(
        &self,
        lease: &WorkLease,
        emit: &dyn Fn(CampaignEvent) -> Result<(), EngineError>,
        on_miss: &dyn Fn(),
    ) -> Result<(), EngineError> {
        let Expansion {
            estimator_ids,
            instances,
            models,
            reference_id,
        } = &self.plan.expansion;
        let (m_count, e_count) = (self.plan.m_count, self.plan.e_count);
        let total = self.plan.cells();
        let tel = self.telemetry.child();
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
            let pdag = self.prepared_dag(i, &tel);
            let entry = &models[i][m];
            let (model, label) = (&entry.model, &entry.label);
            let scenario = i * m_count + m;
            let reference = {
                let mut slot = self.refs[scenario].lock().expect("reference slot");
                match slot.as_ref() {
                    Some(est) => est.clone(),
                    None => {
                        let (seed, key) =
                            entry.identity(self.spec.seed, self.plan.hashes[i], reference_id, 0);
                        let mut ref_prep: Option<Box<dyn PreparedEstimator>> = None;
                        let (est, tier) = evaluate_unit(
                            &tel,
                            "reference_mc",
                            self.cache,
                            &key,
                            seed,
                            model,
                            &entry.scenario,
                            &mut ref_prep,
                            on_miss,
                            || {
                                MonteCarloEstimator::new(self.spec.reference_trials)
                                    .with_sampling(self.spec.reference_sampling)
                                    .prepare(pdag)
                            },
                        )?;
                        tel.count_lookup("references", tier);
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
            let revision = est_spec.kernel_revision();
            let (seed, key) =
                entry.identity(self.spec.seed, self.plan.hashes[i], canonical, revision);
            if prep_group != Some((i, e)) {
                prep = None;
                prep_group = Some((i, e));
            }
            let (est, tier) = evaluate_unit(
                &tel,
                "estimate_cell",
                self.cache,
                &key,
                seed,
                model,
                &entry.scenario,
                &mut prep,
                on_miss,
                || est_spec.build(seed).prepare(pdag),
            )?;
            tel.count_lookup("cells", tier);
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
            telemetry: tel.is_enabled().then(|| tel.snapshot()),
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
        q.requeue(first.lease_id, "crashed")
            .expect("first retry is allowed");
        let again = q.next().unwrap();
        assert_eq!(again.lease_id, 1, "requeued lease goes to the back");
        let retried = q.next().unwrap();
        assert_eq!(retried.lease_id, first.lease_id);
        assert_eq!(q.attempts(first.lease_id), 2);
        // A completed lease's stale requeue (e.g. a spool reclaim that
        // raced a slow worker) is a harmless no-op.
        q.complete(again.lease_id);
        q.requeue(again.lease_id, "stale").unwrap();
        assert_eq!(q.completed_count(), 1);
        // The second failure exhausts the cap: the campaign's error
        // names the last failure, and the queue hands out nothing more.
        let err = q.requeue(first.lease_id, "crashed again").unwrap_err();
        assert_eq!(
            err.to_string(),
            "lease 0 failed after 2 attempts (last: crashed again)"
        );
        assert_eq!(q.poll_next(Duration::ZERO), LeasePoll::Drained);
        assert!(!q.is_drained(), "a failed campaign is not drained");
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
    fn drain_caps_every_thread_and_lifts_the_cap_after() {
        // Three items, each held until all three are taken, so every
        // thread (the caller included) runs exactly one. Each raises
        // the start signal, as a lease does before its first miss.
        let handed = std::sync::atomic::AtomicUsize::new(0);
        let all_taken = std::sync::Barrier::new(3);
        let seen = Mutex::new(HashMap::new());
        let next = |_: &AtomicBool| Ok((handed.fetch_add(1, Ordering::SeqCst) < 3).then_some(()));
        let run = |(), start_helpers: &(dyn Fn() + Sync)| {
            start_helpers();
            let me = std::thread::current().id();
            seen.lock()
                .unwrap()
                .insert(me, rayon::current_num_threads());
            all_taken.wait();
            Ok(())
        };
        drain(3, 2, next, run).unwrap();
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 3, "{seen:?}");
        assert!(seen.contains_key(&std::thread::current().id()));
        assert!(seen.values().all(|&n| n == 2.min(cores())), "{seen:?}");
        assert_eq!(rayon::current_num_threads(), cores(), "cap outlived drain");
    }

    #[test]
    fn a_session_runs_no_more_threads_than_cores_or_leases() {
        assert_eq!(session_threads(usize::MAX, usize::MAX), cores());
        assert_eq!(session_threads(1_000_000, 3), 3.min(cores()));
        assert_eq!(session_threads(1, 50), 1);
        assert_eq!(session_threads(4, 0), 1);
    }

    #[test]
    fn drain_stops_every_thread_at_the_first_error() {
        // One thread fails its item once the other waits in its source
        // for work, which must see the failure and give up. The item
        // raises the start signal first, so the helper exists.
        let handed = std::sync::atomic::AtomicUsize::new(0);
        let wait_for = |done: &dyn Fn() -> bool| {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(std::time::Instant::now() < deadline, "waited 10 s");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let next = |failed: &AtomicBool| {
            if handed.fetch_add(1, Ordering::SeqCst) > 0 {
                wait_for(&|| failed.load(Ordering::SeqCst));
                return Ok(None);
            }
            Ok(Some(()))
        };
        let run = |(), start_helpers: &(dyn Fn() + Sync)| {
            start_helpers();
            wait_for(&|| handed.load(Ordering::SeqCst) == 2);
            Err(EngineError::spec("lease failed"))
        };
        let err = drain(2, 1, next, run).unwrap_err();
        assert!(err.to_string().contains("lease failed"), "{err}");
        assert_eq!(handed.load(Ordering::SeqCst), 2, "no item after the error");
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
