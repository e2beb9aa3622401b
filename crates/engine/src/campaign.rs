//! The [`Campaign`] facade: one typed, embeddable entry point for the
//! whole engine.
//!
//! A campaign is the paper's evaluation unit — a grid of
//! (DAG × failure model × estimator) cells compared against Monte-Carlo
//! references — and this module gives it a single lifecycle:
//!
//! ```text
//! Campaign::builder(spec)      // typed SweepSpec, typed EstimatorSpecs
//!     .cache(...)              // shared content-addressed ResultCache
//!     .sink(...)               // ordered row consumers (CSV/JSONL/…)
//!     .observer(...)           // completion-order event subscribers
//!     .backend(...)            // how cells execute (see ExecBackend)
//!     .build()?                // validates everything up front
//!     .run()?                  // or .resume_report() / .dry_run()
//! ```
//!
//! Execution is **pull-scheduled**: the coordinator expands the spec
//! into a [`CampaignPlan`], loads its [`WorkLease`] batches into a
//! [`LeaseQueue`], and the backend's workers drain batches as they
//! finish — a slow (or remote, or heterogeneous) worker simply wins
//! fewer leases instead of dragging a statically-partitioned tail.
//! Every backend reports work through the same [`CampaignEvent`]
//! stream; the campaign core merges that stream once — re-sequencing
//! rows for the sinks, feeding observers, enforcing completeness — so
//! output bytes are identical no matter which backend produced the
//! events or how the leases interleaved.

use crate::cache::ResultCache;
use crate::cancel::CancelToken;
use crate::error::EngineError;
use crate::lease::{
    cores, decode_lease, encode_lease, CampaignPlan, LeaseExecutor, LeasePoll, LeaseQueue,
    WorkLease,
};
use crate::observer::CampaignObserver;
use crate::progress::{ProgressMode, ProgressReporter};
use crate::protocol::{decode_event, CampaignEvent};
use crate::registry::EstimatorRegistry;
use crate::runner::{expand, resume_report_impl, Expansion, ResumeReport, SweepOutcome};
use crate::sink::{summarize, Reorderer, ResultSink, SweepRow};
use crate::spec::SweepSpec;
use crate::telemetry::Telemetry;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a backend needs to execute a campaign: the validated spec, the
/// shared result cache, and the expanded plan. Estimators are built
/// from the spec's [`EstimatorSpec`](stochdag_core::EstimatorSpec)s.
pub struct BackendContext<'a> {
    /// The validated campaign spec.
    pub spec: &'a SweepSpec,
    /// Shared result cache (multi-process backends hand its
    /// [`ResultCache::disk_dir`] to worker processes).
    pub cache: &'a ResultCache,
    /// The campaign's telemetry collector (disabled by default).
    /// Backends pass it to lease executors; process-spawning backends
    /// additionally check [`Telemetry::is_enabled`] to decide whether
    /// workers should collect and report per-lease deltas.
    pub telemetry: &'a Telemetry,
    /// Cooperative stop flag. In-process backends hand it to the lease
    /// executor (checked between cells); process-spawning backends
    /// should poll it at their own convenient boundaries (e.g. between
    /// lease grants) and stop early with [`EngineError::cancelled`]
    /// when set.
    pub cancel: &'a CancelToken,
    /// The expanded campaign plan the lease queue was built from —
    /// what a [`LeaseExecutor`] executes against.
    pub plan: &'a CampaignPlan,
}

/// Event delivery callback handed to backends.
///
/// Callable from any backend thread. The campaign merges the event,
/// runs its observers and writes any rows it completes to the sinks on
/// the calling thread before `deliver` returns, one event at a time
/// under one lock; concurrent callers wait for it. So an observer that
/// flips the campaign's [`CancelToken`] has run before the executor
/// checks the token again.
pub type Deliver<'a> = dyn Fn(CampaignEvent) -> Result<(), EngineError> + Sync + 'a;

/// An execution strategy for a campaign's cells (**work-leasing**).
///
/// This trait is the **extension seam of the engine**: a backend owns
/// *where and how* cells run. The coordinator owns the schedule — a
/// [`LeaseQueue`] of [`WorkLease`] cell batches — and the backend's
/// workers *pull* batches as they finish, so heterogeneous cell costs
/// balance themselves: a worker stuck on an expensive `exact` batch
/// simply wins fewer leases. A batch whose worker crashes is re-queued
/// ([`LeaseQueue::requeue`], bounded per lease) for any surviving
/// worker. Everything a backend does is reported through the one
/// [`CampaignEvent`] vocabulary, and the campaign core merges events,
/// re-orders rows, and checks completeness identically for every
/// implementation — which is what makes backend outputs byte-identical
/// regardless of lease interleaving.
///
/// [`execute`](ExecBackend::execute) runs on the thread that called
/// [`Campaign::run`], and [`Deliver`] merges each event on the thread
/// that delivers it: observers and sinks run one at a time on whatever
/// thread the backend delivers from, which may be one of its own.
///
/// Shipped backends:
///
/// * [`InProcess`] — the calling thread plus up to `--jobs − 1` helper
///   threads (started at the first cache miss) draining the queue
///   through one shared [`LeaseExecutor`] session.
/// * [`MultiProcess`] — N `sweep-worker` processes on this machine
///   sharing the on-disk cache, leases streamed over stdin pipes.
/// * [`SharedFs`](crate::SharedFs) — remote `sweep-worker` processes
///   on other hosts, coordinated through a shared-filesystem spool
///   directory.
pub trait ExecBackend: Send + Sync {
    /// Human-readable backend name (diagnostics, dry runs).
    fn name(&self) -> String;

    /// How many worker slots the backend drives (a sizing hint for
    /// dry-run reports and resume reports — *not* a partition count;
    /// the lease queue is the only work assignment).
    fn workers(&self) -> usize {
        1
    }

    /// Drain `leases`, delivering each event as it happens. Grant
    /// batches with [`LeaseQueue::next`]/[`LeaseQueue::poll_next`],
    /// retire them with [`LeaseQueue::complete`] when their `LeaseDone`
    /// arrives, and [`LeaseQueue::requeue`] the batches of a crashed
    /// worker.
    fn execute(
        &self,
        ctx: &BackendContext<'_>,
        leases: &LeaseQueue,
        deliver: &Deliver<'_>,
    ) -> Result<(), EngineError>;
}

/// Execute the campaign on worker threads in this process: up to
/// `--jobs` (default: every core) threads — the calling thread and
/// `jobs − 1` scoped helpers, started at the first cache miss — drain
/// the lease queue through one shared [`LeaseExecutor`], so a fully
/// cached campaign starts no thread, each DAG instance freezes once and
/// each (instance × estimator) group prepares once. The cap belongs to
/// the campaign: capped campaigns in one process run side by side.
pub struct InProcess;

impl ExecBackend for InProcess {
    fn name(&self) -> String {
        "in-process".into()
    }

    fn execute(
        &self,
        ctx: &BackendContext<'_>,
        leases: &LeaseQueue,
        deliver: &Deliver<'_>,
    ) -> Result<(), EngineError> {
        if ctx.cancel.is_cancelled() {
            return Err(EngineError::cancelled());
        }
        // In-process failures (cancellation, a sink/observer error
        // surfaced through delivery) are fatal: there is no crashed
        // process to retry around.
        let executor = LeaseExecutor::new(ctx);
        executor.session(0, |_| Ok(leases.next()), |id| leases.complete(id), deliver)
    }
}

/// How one worker slot's session ended.
enum SlotEnd {
    /// The lease queue drained and the worker exited cleanly.
    Drained,
    /// The worker died (crash, torn stream, reported error); `lost`
    /// holds the leases it was granted but never completed.
    Failed { why: String, lost: Vec<WorkLease> },
}

/// One read off a worker's event stream.
enum EventRead {
    Event(CampaignEvent),
    Failed(String),
    Eof,
}

/// Distribute the campaign over N worker **processes** on this machine.
///
/// Each worker runs `sweep-worker --leases`: the coordinator streams
/// [`WorkLease`] lines over the worker's stdin (a pipeline window of
/// `--jobs` batches keeps the worker's threads saturated), the worker
/// executes them cache-first against the shared on-disk cache and
/// streams line-delimited JSON [`CampaignEvent`]s back over its stdout
/// pipe. A worker that dies — non-zero exit, torn or corrupt stream,
/// reported error — is **re-spawned once** and its unfinished leases
/// are re-queued for any surviving worker (each lease is granted at
/// most twice); the retry runs cache-first, so cells the crashed
/// worker already finished are served from the shared cache and only
/// the remainder recomputes. Events the failed attempt already
/// delivered are deduplicated by the campaign core (they are
/// deterministic, so the retry's copies are identical).
///
/// The worker-thread cap is a `--jobs` handshake: an explicit spec
/// `jobs` is passed through per worker; otherwise this machine's cores
/// are split across the local worker processes. (Workers never derive
/// `cores / N` themselves — they don't know the peer count, and on a
/// remote host the coordinator's core count is meaningless.)
///
/// Workers default to `current_exe()` + `sweep-worker` (correct when
/// the embedding binary is the `stochdag` CLI); embedders point
/// [`MultiProcess::launcher`] at a `stochdag` binary instead.
pub struct MultiProcess {
    workers: usize,
    launcher: Option<(PathBuf, Vec<String>)>,
}

impl MultiProcess {
    /// Backend spawning `workers` processes.
    pub fn new(workers: usize) -> MultiProcess {
        MultiProcess {
            workers,
            launcher: None,
        }
    }

    /// Use `program args…` as the worker command instead of
    /// `current_exe() sweep-worker`. The backend appends
    /// `--spec-json PATH --leases --worker I --jobs J` plus
    /// `--cache DIR` / `--no-cache`, and `--telemetry` when the
    /// campaign runs with an enabled [`Telemetry`] collector (the
    /// worker then sends each lease's delta on its `lease_done`).
    pub fn launcher(mut self, program: impl Into<PathBuf>, args: Vec<String>) -> MultiProcess {
        self.launcher = Some((program.into(), args));
        self
    }

    fn spawn_worker(
        &self,
        ctx: &BackendContext<'_>,
        spec_path: &std::path::Path,
        slot: usize,
        jobs: usize,
    ) -> Result<Child, EngineError> {
        let (program, base_args) = match &self.launcher {
            Some((p, a)) => (p.clone(), a.clone()),
            None => (
                std::env::current_exe().map_err(|e| EngineError::io("locating own binary", e))?,
                vec!["sweep-worker".to_string()],
            ),
        };
        let mut cmd = Command::new(program);
        cmd.args(base_args)
            .arg("--spec-json")
            .arg(spec_path)
            .arg("--leases")
            .arg("--worker")
            .arg(slot.to_string())
            .arg("--jobs")
            .arg(jobs.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        match ctx.cache.disk_dir() {
            Some(dir) => {
                cmd.arg("--cache").arg(dir);
            }
            None => {
                cmd.arg("--no-cache");
            }
        }
        if ctx.telemetry.is_enabled() {
            cmd.arg("--telemetry");
        }
        ctx.telemetry.count("worker_spawns", 1);
        cmd.spawn()
            .map_err(|e| EngineError::worker(slot, format!("spawning sweep worker: {e}")))
    }

    /// Read the next event off a worker's stream. A worker `Error`
    /// event is tallied by kind and surfaced as a failure (not
    /// delivered), so a re-queued lease does not abort the merge.
    fn next_event(
        lines: &mut std::io::Lines<BufReader<ChildStdout>>,
        telemetry: &Telemetry,
    ) -> EventRead {
        match lines.next() {
            None => EventRead::Eof,
            Some(Err(_)) => EventRead::Failed("stream broke mid-read".into()),
            Some(Ok(line)) => match decode_event(&line) {
                Err(e) => EventRead::Failed(e),
                Ok(CampaignEvent::Error { message, kind }) => {
                    // Tally every worker failure by kind — including
                    // attempts whose leases a re-queue later completes,
                    // which never surface as a campaign error.
                    let kind = kind.as_deref().unwrap_or("unknown");
                    telemetry.count(&format!("errors_{kind}"), 1);
                    EventRead::Failed(message)
                }
                Ok(ev) => EventRead::Event(ev),
            },
        }
    }

    /// Drive one worker process: feed it leases over stdin (keeping a
    /// window of `jobs` in flight), pump its event stream, retire
    /// completed leases. Returns how the session ended; `Err` is
    /// reserved for campaign-fatal conditions (cancellation, a failed
    /// delivery).
    fn pump_worker(
        slot: usize,
        jobs: usize,
        child: &mut Child,
        ctx: &BackendContext<'_>,
        leases: &LeaseQueue,
        deliver: &Deliver<'_>,
    ) -> Result<SlotEnd, EngineError> {
        let mut stdin = child.stdin.take().expect("stdin piped");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let mut held: HashMap<usize, WorkLease> = HashMap::new();
        fn lost(held: &mut HashMap<usize, WorkLease>) -> Vec<WorkLease> {
            let mut v: Vec<WorkLease> = held.drain().map(|(_, l)| l).collect();
            v.sort_by_key(|l| l.lease_id);
            v
        }
        // Handshake: the worker validates the spec and says hello
        // before the first lease is written.
        match Self::next_event(&mut lines, ctx.telemetry) {
            EventRead::Event(ev @ CampaignEvent::Hello { .. }) => deliver(ev)?,
            EventRead::Event(_) => {
                return Ok(SlotEnd::Failed {
                    why: "protocol violation: first event was not hello".into(),
                    lost: Vec::new(),
                })
            }
            EventRead::Failed(why) => {
                return Ok(SlotEnd::Failed {
                    why,
                    lost: Vec::new(),
                })
            }
            EventRead::Eof => {
                return Ok(SlotEnd::Failed {
                    why: "stream ended before its hello event".into(),
                    lost: Vec::new(),
                })
            }
        }
        loop {
            // Keep a pipeline window of `jobs` leases in flight so the
            // worker's threads never idle waiting on the pipe. When the
            // slot holds nothing, wait on the queue (another slot may
            // crash and re-queue) instead of spinning.
            let mut drained = false;
            while held.len() < jobs {
                let wait = if held.is_empty() {
                    Duration::from_millis(50)
                } else {
                    Duration::ZERO
                };
                match leases.poll_next(wait) {
                    LeasePoll::Ready(lease) => {
                        let line = encode_lease(&lease);
                        held.insert(lease.lease_id, lease);
                        if let Err(e) = writeln!(stdin, "{line}") {
                            return Ok(SlotEnd::Failed {
                                why: format!("writing lease request: {e}"),
                                lost: lost(&mut held),
                            });
                        }
                    }
                    LeasePoll::Pending => break,
                    LeasePoll::Drained => {
                        drained = true;
                        break;
                    }
                }
            }
            if held.is_empty() {
                if drained {
                    break;
                }
                if ctx.cancel.is_cancelled() {
                    return Err(EngineError::cancelled());
                }
                continue;
            }
            match Self::next_event(&mut lines, ctx.telemetry) {
                EventRead::Event(ev @ CampaignEvent::LeaseDone { lease_id, .. }) => {
                    held.remove(&lease_id);
                    deliver(ev)?;
                    leases.complete(lease_id);
                    if ctx.cancel.is_cancelled() {
                        return Err(EngineError::cancelled());
                    }
                }
                EventRead::Event(ev) => deliver(ev)?,
                EventRead::Failed(why) => {
                    return Ok(SlotEnd::Failed {
                        why,
                        lost: lost(&mut held),
                    })
                }
                EventRead::Eof => {
                    return Ok(SlotEnd::Failed {
                        why: "stream ended mid-lease".into(),
                        lost: lost(&mut held),
                    })
                }
            }
        }
        // Queue drained and every lease this worker held is merged:
        // close its stdin so it exits, and read its stream to EOF.
        drop(stdin);
        lines.for_each(drop);
        match child.wait() {
            Ok(status) if status.success() => {}
            // Every lease is completed and merged; a worker that
            // botches its own exit is not worth failing the campaign.
            Ok(status) => eprintln!("sweep worker {slot} exited with {status} after draining"),
            Err(e) => eprintln!("sweep worker {slot}: wait failed: {e}"),
        }
        Ok(SlotEnd::Drained)
    }

    /// Run one worker slot to queue drain, re-spawning once on worker
    /// death. Lease-level retries are additionally capped by the
    /// queue's per-lease grant budget, whoever retries them.
    fn run_slot(
        &self,
        ctx: &BackendContext<'_>,
        leases: &LeaseQueue,
        deliver: &Deliver<'_>,
        spec_path: &std::path::Path,
        slot: usize,
        jobs: usize,
    ) -> Result<(), EngineError> {
        let mut budget = 1usize;
        loop {
            let mut child = match self.spawn_worker(ctx, spec_path, slot, jobs) {
                Ok(c) => c,
                Err(e) => {
                    // Don't leave peers waiting on leases this slot
                    // will never take.
                    leases.close();
                    return Err(e);
                }
            };
            match Self::pump_worker(slot, jobs, &mut child, ctx, leases, deliver) {
                Ok(SlotEnd::Drained) => return Ok(()),
                Ok(SlotEnd::Failed { why, lost }) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    for lease in &lost {
                        leases.requeue(lease.lease_id, format_args!("worker {slot}: {why}"))?;
                    }
                    if budget == 0 {
                        // Re-queued leases go to surviving slots; if
                        // every slot retires, execute() reports the
                        // undrained queue.
                        eprintln!("sweep worker {slot}: retry budget exhausted; slot retired");
                        return Ok(());
                    }
                    budget -= 1;
                    ctx.telemetry.count("worker_retries", 1);
                    if lost.is_empty() {
                        eprintln!("sweep worker {slot} failed ({why}); respawning");
                    } else {
                        eprintln!(
                            "sweep worker {slot} failed ({why}); re-queueing {} lease(s)",
                            lost.len()
                        );
                    }
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    leases.close();
                    return Err(e);
                }
            }
        }
    }
}

impl ExecBackend for MultiProcess {
    fn name(&self) -> String {
        format!("multi-process ({} workers)", self.workers)
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn execute(
        &self,
        ctx: &BackendContext<'_>,
        leases: &LeaseQueue,
        deliver: &Deliver<'_>,
    ) -> Result<(), EngineError> {
        if self.workers == 0 {
            return Err(EngineError::spec("worker count must be positive"));
        }
        if ctx.cancel.is_cancelled() {
            return Err(EngineError::cancelled());
        }
        // The --jobs handshake: an explicit spec cap applies per
        // worker; otherwise split this machine's cores across the
        // local worker processes (an uncapped worker would build a
        // full-size thread pool, oversubscribing the host N-fold).
        // Either way results are identical — the thread count cannot
        // change any value.
        let jobs = ctx
            .spec
            .jobs
            .unwrap_or_else(|| (cores() / self.workers).max(1));
        // Hand the spec to the workers as a temp JSON file. Named by
        // (pid, campaign counter) — not spec.name, which is
        // user-controlled and may contain path separators. The counter
        // matters for embedders: two concurrent `Campaign::run()`s in
        // one process must not clobber (or delete) each other's spec.
        static SPEC_SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let spec_path = std::env::temp_dir().join(format!(
            "stochdag-spec-{}-{}.json",
            std::process::id(),
            SPEC_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::write(&spec_path, serde::json::to_string(ctx.spec)).map_err(|e| {
            EngineError::io(format!("writing worker spec {}", spec_path.display()), e)
        })?;
        let result = std::thread::scope(|scope| {
            let spec_path = &spec_path;
            let handles: Vec<_> = (0..self.workers)
                .map(|slot| {
                    scope.spawn(move || self.run_slot(ctx, leases, deliver, spec_path, slot, jobs))
                })
                .collect();
            let mut first: Option<EngineError> = None;
            for h in handles {
                if let Err(e) = h.join().expect("worker slot thread panicked") {
                    first.get_or_insert(e);
                }
            }
            match first {
                Some(e) => Err(e),
                None => Ok(()),
            }
        });
        let _ = std::fs::remove_file(&spec_path);
        result?;
        if ctx.cancel.is_cancelled() {
            return Err(EngineError::cancelled());
        }
        if !leases.is_drained() {
            return Err(EngineError::worker(
                None,
                "workers exhausted their retry budget before the lease queue drained",
            ));
        }
        Ok(())
    }
}

/// Merges a campaign's event stream: row re-sequencing into the sinks,
/// cache tallies, first-error capture, and the completeness check that
/// makes backend outputs interchangeable.
///
/// Totals come only from the coordinator's [`Plan`](CampaignEvent::Plan)
/// event, so a stream without one fails [`finish`](Merge::finish), and
/// a cell delivered twice is an error. The live [`Campaign`] core drops
/// a re-queued lease's re-deliveries with
/// [`is_duplicate`](Merge::is_duplicate) before observers see them;
/// [`merge_event_streams`] replays a log without that gate.
#[derive(Default)]
pub(crate) struct Merge {
    /// `(cells, references)` announced by the plan.
    plan: Option<(usize, usize)>,
    reorder: Reorderer,
    rows: Vec<SweepRow>,
    seen_cells: HashSet<usize>,
    lease_done: HashSet<usize>,
    /// Other events [`is_duplicate`](Merge::is_duplicate) let through,
    /// keyed by event tag and id.
    delivered: HashSet<(&'static str, usize)>,
    cache_hits: usize,
    cache_misses: usize,
    cells_computed: usize,
    cells_memory_hits: usize,
    cells_disk_hits: usize,
    first_error: Option<EngineError>,
}

impl Merge {
    /// Begin every sink and start an empty merge.
    pub(crate) fn begin(sinks: &mut [&mut dyn ResultSink]) -> Result<Merge, EngineError> {
        for sink in sinks.iter_mut() {
            sink.begin()
                .map_err(|e| EngineError::sink(None, format!("sink begin: {e}")))?;
        }
        Ok(Merge::default())
    }

    pub(crate) fn record_error(&mut self, e: EngineError) {
        self.first_error.get_or_insert(e);
    }

    pub(crate) fn has_error(&self) -> bool {
        self.first_error.is_some()
    }

    /// Returns `true` when this event re-delivers something already
    /// merged — a re-queued lease's duplicate, a re-spawned worker's
    /// `hello` — so neither observers (progress counters!) nor the row
    /// pipeline see it twice.
    pub(crate) fn is_duplicate(&mut self, event: &CampaignEvent) -> bool {
        let key = match event {
            CampaignEvent::Cell { index, .. } => return self.seen_cells.contains(index),
            CampaignEvent::LeaseDone { lease_id, .. } => return self.lease_done.contains(lease_id),
            CampaignEvent::Plan { .. } => ("plan", 0),
            CampaignEvent::Hello { shard, .. } => ("hello", *shard),
            CampaignEvent::Reference {
                scenario: Some(g), ..
            } => ("reference", *g),
            CampaignEvent::Reference { scenario: None, .. }
            | CampaignEvent::Error { .. }
            | CampaignEvent::Unknown { .. } => return false,
        };
        !self.delivered.insert(key)
    }

    pub(crate) fn observe(&mut self, event: CampaignEvent, sinks: &mut [&mut dyn ResultSink]) {
        match event {
            CampaignEvent::Plan {
                cells, references, ..
            } => self.plan = Some((cells, references)),
            CampaignEvent::Cell {
                index, tier, row, ..
            } => {
                if !self.seen_cells.insert(index) {
                    self.record_error(EngineError::worker(
                        None,
                        format!("cell {index} delivered twice"),
                    ));
                    return;
                }
                match tier {
                    None => self.cells_computed += 1,
                    Some(crate::cache::CacheTier::Memory) => self.cells_memory_hits += 1,
                    Some(crate::cache::CacheTier::Disk) => self.cells_disk_hits += 1,
                }
                let rows = &mut self.rows;
                let mut failed_cell: Option<String> = None;
                let emit_result = self.reorder.push(index, row, |r| {
                    // Collect first: a sink failure aborts the sweep
                    // with an error, but the row set stays complete.
                    rows.push(r.clone());
                    for sink in sinks.iter_mut() {
                        if let Err(e) = sink.row(r) {
                            failed_cell =
                                Some(format!("{} / {} / {}", r.dag, r.model, r.estimator));
                            return Err(e);
                        }
                    }
                    Ok(())
                });
                if let Err(e) = emit_result {
                    self.first_error
                        .get_or_insert(EngineError::sink(failed_cell, format!("sink row: {e}")));
                }
            }
            CampaignEvent::LeaseDone {
                lease_id,
                hits,
                misses,
                ..
            } => {
                // Per-attempt cache totals, deduplicated by lease id:
                // a re-queued lease's totals count once.
                if self.lease_done.insert(lease_id) {
                    self.cache_hits += hits;
                    self.cache_misses += misses;
                }
            }
            CampaignEvent::Error { message, .. } => {
                self.record_error(EngineError::worker(None, message));
            }
            // Unknown events are another build's vocabulary — none of
            // these affect row bookkeeping.
            CampaignEvent::Hello { .. }
            | CampaignEvent::Reference { .. }
            | CampaignEvent::Unknown { .. } => {}
        }
    }

    /// Check the merged rows against the plan, write the summary into
    /// every sink, and return the campaign outcome (`wall` measured
    /// from `start`).
    pub(crate) fn finish(
        mut self,
        sinks: &mut [&mut dyn ResultSink],
        telemetry: &Telemetry,
        start: Instant,
    ) -> Result<SweepOutcome, EngineError> {
        if let Some(e) = self.first_error.take() {
            return Err(e);
        }
        let Some((cells, references)) = self.plan else {
            return Err(EngineError::worker(
                None,
                "event stream has no plan event, so its cells cannot be checked",
            ));
        };
        if self.reorder.pending() != 0 || self.rows.len() != cells {
            return Err(EngineError::worker(
                None,
                format!(
                    "merged {} of {cells} planned cells ({} out-of-sequence) — \
                     the stream dropped cells",
                    self.rows.len(),
                    self.reorder.pending()
                ),
            ));
        }
        let summary = summarize(&self.rows);
        {
            let _flush = telemetry.span("sink_flush");
            for sink in sinks.iter_mut() {
                sink.summary(&summary)
                    .and_then(|()| sink.finish())
                    .map_err(|e| EngineError::sink(None, format!("sink summary: {e}")))?;
            }
        }
        Ok(SweepOutcome {
            cells,
            references,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            cells_computed: self.cells_computed,
            cells_memory_hits: self.cells_memory_hits,
            cells_disk_hits: self.cells_disk_hits,
            wall: start.elapsed(),
            rows: self.rows,
            summary,
        })
    }
}

/// Replay a logged campaign event stream into ordered sink output.
///
/// A [`Campaign`] merges its backend's events itself; this entry point
/// exists for *logged* streams: a served campaign's `events`
/// subscription, an archived log, a spliced protocol fixture. The log
/// is a whole campaign's stream, as a
/// [`WireObserver`](crate::WireObserver) on [`Campaign::run`] writes
/// it, and opens with the coordinator's [`Plan`](CampaignEvent::Plan),
/// whose totals completeness is checked against. Rows arrive tagged
/// with their global cell index and are re-sequenced, so the sinks
/// write the exact same bytes as an in-process run over the same
/// cache. Events feed `progress` as they arrive.
///
/// Fails if the log has no plan, reports [`CampaignEvent::Error`], is
/// malformed, repeats a cell, or misses a planned cell.
pub fn merge_event_streams<R: BufRead>(
    log: R,
    sinks: &mut [&mut dyn ResultSink],
    progress: &mut ProgressReporter,
) -> Result<SweepOutcome, EngineError> {
    let start = Instant::now();
    let mut merge = Merge::begin(sinks)?;
    for line in log.lines() {
        let event = line
            .map_err(|e| format!("event stream broke mid-read: {e}"))
            .and_then(|line| decode_event(&line));
        match event {
            Ok(ev) => {
                progress.observe(&ev);
                merge.observe(ev, sinks);
            }
            Err(e) => {
                merge.record_error(EngineError::worker(None, e));
                break;
            }
        }
    }
    progress.finish();
    merge.finish(sinks, &Telemetry::disabled(), start)
}

/// One concrete DAG instance in a [`DryRun`] report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DryRunInstance {
    /// Instance id (e.g. `"lu:k=8"`).
    pub id: String,
    /// Task count.
    pub tasks: usize,
    /// Edge count.
    pub edges: usize,
}

/// What a campaign *would* execute — the full expansion, without
/// running (or probing) anything. See [`Campaign::dry_run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DryRun {
    /// Campaign name.
    pub name: String,
    /// Backend description.
    pub backend: String,
    /// Canonical estimator ids, in spec order.
    pub estimators: Vec<String>,
    /// Materialized DAG instances, in spec order.
    pub instances: Vec<DryRunInstance>,
    /// Failure models per instance.
    pub models: usize,
    /// Total estimator cells.
    pub cells: usize,
    /// Monte-Carlo reference scenarios.
    pub references: usize,
}

/// A fully-configured campaign: the one handle behind `sweep`-style
/// executions, resume reports, and dry runs (see the
/// crate docs and [`Campaign::builder`]).
pub struct Campaign {
    spec: SweepSpec,
    cache: Arc<ResultCache>,
    backend: Box<dyn ExecBackend>,
    sinks: Vec<Box<dyn ResultSink>>,
    observers: Vec<Box<dyn CampaignObserver>>,
    telemetry: Telemetry,
    cancel: CancelToken,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("spec", &self.spec.name)
            .field("backend", &self.backend.name())
            .field("sinks", &self.sinks.len())
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl Campaign {
    /// Start configuring a campaign for `spec`. Defaults: an in-memory
    /// cache, the [`InProcess`] backend, no sinks, no observers.
    pub fn builder(spec: SweepSpec) -> CampaignBuilder {
        CampaignBuilder {
            spec,
            cache: Arc::new(ResultCache::in_memory()),
            backend: Box::new(InProcess),
            sinks: Vec::new(),
            observers: Vec::new(),
            jobs: None,
            telemetry: Telemetry::disabled(),
            cancel: CancelToken::new(),
        }
    }

    /// The campaign's validated spec.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// The campaign's result cache (e.g. for a post-run
    /// [`ResultCache::gc_disk`]).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Execute every cell on the configured backend, streaming ordered
    /// rows into the sinks and raw events into the observers.
    pub fn run(self) -> Result<SweepOutcome, EngineError> {
        let Campaign {
            spec,
            cache,
            backend,
            mut sinks,
            mut observers,
            telemetry,
            cancel,
        } = self;
        let mut sink_refs: Vec<&mut dyn ResultSink> = sinks
            .iter_mut()
            .map(|b| &mut **b as &mut dyn ResultSink)
            .collect();
        Campaign::run_core(
            &spec,
            &cache,
            backend.as_ref(),
            &mut observers,
            &mut sink_refs,
            &telemetry,
            &cancel,
        )
    }

    /// Diff the spec against the cache — per-estimator hit/miss counts
    /// — without computing anything or perturbing the cache.
    pub fn resume_report(&self) -> Result<ResumeReport, EngineError> {
        resume_report_impl(&self.spec, &self.cache)
    }

    /// Expand the campaign — instances, models, estimators, cell and
    /// reference counts — without executing or probing anything.
    pub fn dry_run(&self) -> Result<DryRun, EngineError> {
        let Expansion {
            estimator_ids,
            instances,
            ..
        } = expand(&self.spec)?;
        let m_count = self.spec.model_count();
        Ok(DryRun {
            name: self.spec.name.clone(),
            backend: self.backend.name(),
            cells: instances.len() * m_count * estimator_ids.len(),
            references: instances.len() * m_count,
            estimators: estimator_ids.into_iter().map(|(_, id)| id).collect(),
            instances: instances
                .iter()
                .map(|i| DryRunInstance {
                    id: i.id.clone(),
                    tasks: i.dag.node_count(),
                    edges: i.dag.edge_count(),
                })
                .collect(),
            models: m_count,
        })
    }

    /// Serve work leases from `input` — the worker half of a
    /// distributed run (`sweep-worker --leases`, spawned by
    /// [`MultiProcess`] or launched by hand against a
    /// [`SharedFs`](crate::SharedFs) spool's coordinator pipe).
    ///
    /// Decodes one [`WorkLease`] per line and executes each against
    /// the shared cache under a cap of `jobs` threads (the
    /// coordinator's `--jobs` handshake; defaulting to this machine's
    /// cores — a leased worker never derives `cores / N`, it does not
    /// know the peer count). The session runs on no more threads than
    /// the cap, the cores and the plan's leases; they take turns
    /// reading `input`. Events go to the configured observers — a
    /// worker process attaches a
    /// [`WireObserver`](crate::WireObserver) on stdout. Returns when
    /// `input` reaches EOF (the coordinator closed the pipe after the
    /// queue drained). `worker` tags this worker's `Hello`.
    pub fn serve_leases(
        mut self,
        worker: usize,
        input: impl BufRead + Send,
    ) -> Result<(), EngineError> {
        if self.cancel.is_cancelled() {
            return Err(EngineError::cancelled());
        }
        let observers = Mutex::new(std::mem::take(&mut self.observers));
        let emit = |ev: CampaignEvent| -> Result<(), EngineError> {
            let mut observers = observers.lock().expect("observer list");
            for o in observers.iter_mut() {
                o.on_event(&ev)?;
            }
            Ok(())
        };
        let lines = Mutex::new(input.lines());
        // One lease per line until the coordinator closes the pipe
        // (blank lines are keep-alives).
        let next_lease = |_: &AtomicBool| loop {
            match lines.lock().expect("lease stream").next() {
                None => return Ok(None),
                Some(Err(e)) => return Err(EngineError::io("reading lease stream", e)),
                Some(Ok(line)) if line.trim().is_empty() => {}
                Some(Ok(line)) => {
                    return decode_lease(&line)
                        .map(Some)
                        .map_err(|e| EngineError::worker(worker, e))
                }
            }
        };
        let result = CampaignPlan::new(&self.spec, &EstimatorRegistry).and_then(|plan| {
            let ctx = BackendContext {
                spec: &self.spec,
                cache: &self.cache,
                telemetry: &self.telemetry,
                cancel: &self.cancel,
                plan: &plan,
            };
            LeaseExecutor::new(&ctx).session(worker, next_lease, |_| {}, &emit)
        });
        for o in observers.into_inner().expect("observer list").iter_mut() {
            let _ = o.on_finish();
        }
        result
    }

    /// The engine room shared by every full-campaign execution path:
    /// plans the campaign, announces the plan, runs the backend over
    /// the lease queue on the calling thread, merges its event stream
    /// (dedup, re-sequencing, completeness) as it is delivered, feeds
    /// observers and sinks, and folds each lease's telemetry delta into
    /// the campaign's collector.
    pub(crate) fn run_core(
        spec: &SweepSpec,
        cache: &ResultCache,
        backend: &dyn ExecBackend,
        observers: &mut [Box<dyn CampaignObserver>],
        sinks: &mut [&mut dyn ResultSink],
        telemetry: &Telemetry,
        cancel: &CancelToken,
    ) -> Result<SweepOutcome, EngineError> {
        let start = Instant::now();
        let plan = CampaignPlan::new(spec, &EstimatorRegistry)?;
        let leases = LeaseQueue::new(plan.leases().to_vec());
        let core = Mutex::new(Delivery {
            merge: Merge::begin(sinks)?,
            observers,
            sinks,
        });
        let deliver = |event: CampaignEvent| -> Result<(), EngineError> {
            // Only time the lock when telemetry is on: the disabled
            // path stays clock-free.
            let mut core = if telemetry.is_enabled() {
                let t0 = Instant::now();
                let core = core.lock().expect("campaign merge");
                telemetry.record_span_duration("queue_wait", t0.elapsed());
                core
            } else {
                core.lock().expect("campaign merge")
            };
            core.dispatch(event, telemetry);
            Ok(())
        };
        // The coordinator announces the authoritative totals before
        // any worker starts — under leasing no worker can (it does not
        // know how many leases it will win).
        deliver(CampaignEvent::Plan {
            cells: plan.cells(),
            references: plan.references(),
            leases: leases.total(),
        })?;
        let ctx = BackendContext {
            spec,
            cache,
            telemetry,
            cancel,
            plan: &plan,
        };
        let backend_result = backend.execute(&ctx, &leases, &deliver);
        let Delivery {
            mut merge,
            observers,
            sinks,
        } = core.into_inner().expect("campaign merge");
        for obs in observers.iter_mut() {
            if let Err(e) = obs.on_finish() {
                merge.record_error(e);
            }
        }
        backend_result?;
        let outcome = merge.finish(sinks, telemetry, start)?;
        telemetry.record_span_duration("campaign", outcome.wall);
        Ok(outcome)
    }
}

/// What [`Campaign::run_core`]'s `deliver` locks: the merge plus the
/// observers and sinks it feeds, so events are merged one at a time
/// on whichever thread delivers them.
struct Delivery<'o, 's, 'r> {
    merge: Merge,
    observers: &'o mut [Box<dyn CampaignObserver>],
    sinks: &'s mut [&'r mut dyn ResultSink],
}

impl Delivery<'_, '_, '_> {
    fn dispatch(&mut self, mut event: CampaignEvent, collector: &Telemetry) {
        // After the first error (a sink or observer failure) the
        // campaign's fate is sealed: stop dispatching to observers and
        // sinks and just drain. The backend cannot be cancelled
        // mid-cell — completed cells still land in the shared cache —
        // but no further downstream work happens.
        if self.merge.has_error() {
            return;
        }
        // A re-queued lease re-delivers events its crashed attempt
        // already sent; drop them before observers so progress
        // counters and custom monitors stay exact.
        if self.merge.is_duplicate(&event) {
            return;
        }
        // Fold each lease's delta into the campaign's collector, once
        // per lease id like its cache totals — the same path whether it
        // came from an in-process lease, a worker pipe or a spool
        // stream. Observers get the event without it.
        if let CampaignEvent::LeaseDone { telemetry, .. } = &mut event {
            if let Some(delta) = telemetry.take() {
                collector.merge(&delta);
            }
        }
        for obs in self.observers.iter_mut() {
            if let Err(e) = obs.on_event(&event) {
                self.merge.record_error(e);
            }
        }
        self.merge.observe(event, self.sinks);
    }
}

/// Configures a [`Campaign`] (see [`Campaign::builder`]).
pub struct CampaignBuilder {
    spec: SweepSpec,
    cache: Arc<ResultCache>,
    backend: Box<dyn ExecBackend>,
    sinks: Vec<Box<dyn ResultSink>>,
    observers: Vec<Box<dyn CampaignObserver>>,
    jobs: Option<usize>,
    telemetry: Telemetry,
    cancel: CancelToken,
}

impl CampaignBuilder {
    /// Use this result cache (an owned [`ResultCache`] or a shared
    /// `Arc<ResultCache>` — pass a clone of the `Arc` to keep a handle
    /// for post-run maintenance like [`ResultCache::gc_disk`]).
    pub fn cache(mut self, cache: impl Into<Arc<ResultCache>>) -> Self {
        self.cache = cache.into();
        self
    }

    /// Select the execution backend (default: [`InProcess`]).
    pub fn backend(mut self, backend: impl ExecBackend + 'static) -> Self {
        self.backend = Box::new(backend);
        self
    }

    /// Cap the campaign's worker threads (overrides the spec's `jobs`;
    /// results are identical at any setting).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Attach an ordered row consumer (every sink receives every row,
    /// in deterministic cell order).
    pub fn sink(mut self, sink: impl ResultSink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Subscribe a completion-order event observer.
    pub fn observer(mut self, observer: impl CampaignObserver + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Render progress (counters, throughput, cache-hit rate, ETA) to
    /// stderr in the given mode — shorthand for subscribing a
    /// [`ProgressReporter`]. [`ProgressMode::Live`] falls back to
    /// plain line output when stderr is not a terminal (see
    /// [`ProgressReporter::stderr`]).
    pub fn progress(self, mode: ProgressMode) -> Self {
        self.observer(ProgressReporter::stderr(mode))
    }

    /// Attach a telemetry collector (default:
    /// [`Telemetry::disabled`]). Pass a clone of an enabled handle and
    /// keep the original: after [`Campaign::run`] it holds the merged
    /// spans and counters of every worker, ready for
    /// [`Telemetry::report`]. With an enabled collector,
    /// [`MultiProcess`] workers are spawned with `--telemetry`, spool
    /// workers read the same from `meta.json`, and every lease's delta
    /// merges in from its `lease_done`.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Share a cooperative stop flag with the campaign (default: a
    /// private token nobody cancels). Keep a clone and call
    /// [`CancelToken::cancel`] from another thread to stop the run
    /// between cells; the run then fails with
    /// [`EngineError::Cancelled`]. Finished cells are already in the
    /// cache, so re-running the same spec over the same cache resumes
    /// from where the cancelled run stopped.
    pub fn cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Validate the configuration and produce the campaign handle.
    /// Spec problems (empty axes, bad estimator knobs, `jobs = 0`)
    /// fail here, before any filesystem or process work.
    pub fn build(self) -> Result<Campaign, EngineError> {
        let CampaignBuilder {
            mut spec,
            cache,
            backend,
            sinks,
            observers,
            jobs,
            telemetry,
            cancel,
        } = self;
        if let Some(jobs) = jobs {
            spec.jobs = Some(jobs);
        }
        spec.validate()?;
        if backend.workers() == 0 {
            return Err(EngineError::spec("backend needs at least one worker"));
        }
        Ok(Campaign {
            spec,
            cache,
            backend,
            sinks,
            observers,
            telemetry,
            cancel,
        })
    }
}
