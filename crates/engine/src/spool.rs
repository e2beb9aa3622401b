//! Cross-host campaigns over a shared-filesystem spool directory: the
//! [`SharedFs`] backend (coordinator side) and the [`SpoolWorker`]
//! session (remote side, behind `sweep-worker --spool`).
//!
//! The transport is the filesystem every host already shares (NFS,
//! Lustre, a bind mount): no sockets, no ssh, no new dependencies.
//! All handoff is by **atomic rename** — the same tmp-then-rename
//! discipline [`ResultCache`](crate::ResultCache) uses for cell
//! payloads — so a reader never observes a half-written file:
//!
//! ```text
//! spool/
//!   spec.json                    campaign spec (coordinator, at start)
//!   meta.json                    campaign name + shared cache dir
//!   workers/{name}.json          worker registration {name, jobs, pid}
//!   stats/{name}.json            cumulative worker progress {name, leases, cells}
//!   leases/open/
//!     lease-000007-a1.json       grantable lease, attempt 1
//!   leases/claimed/
//!     lease-000007-a1.json       renamed here by the claiming worker
//!   events/
//!     lease-000007-a1.jsonl      the attempt's CampaignEvent stream
//!   stop                         "done" or "abort"; workers exit
//! ```
//!
//! Lifecycle: the coordinator writes `spec.json`/`meta.json`, drops
//! every planned [`WorkLease`] into `leases/open/`, and polls. Every
//! poll loop here (the coordinator's, and a worker's wait for
//! `spec.json` and for open leases) backs off: it sleeps 1 ms at first,
//! doubles up to 50 ms, and starts over at 1 ms after progress, so a
//! busy spool hands work over within milliseconds while an idle one
//! costs at most one directory scan per 50 ms per loop. Workers
//! (launched by hand, a job scheduler, anything) register themselves,
//! claim leases by renaming `open/ → claimed/` (the rename race picks
//! exactly one winner), execute them against the shared cache with the
//! standard [`LeaseExecutor`], and publish each attempt's event stream
//! to `events/` — ending in
//! [`LeaseDone`](crate::CampaignEvent::LeaseDone) on success or an
//! [`Error`](crate::CampaignEvent::Error) tail on failure. The
//! coordinator merges complete streams and **re-queues** failed or
//! stale attempts (a claim older than the lease timeout with no event
//! file is a dead worker) under the campaign's per-lease attempt cap,
//! exactly like a local [`MultiProcess`](crate::MultiProcess) crash.
//! Output stays byte-identical to a single-process run because every
//! consumer shares the [`LeaseExecutor`] definitions and the campaign
//! merge re-sequences rows by global cell index.
//!
//! Spool workers run with telemetry disabled (snapshots would need
//! another spool channel for little insight — worker timings are in
//! the event streams' wake); the coordinator's own spans and counters
//! (`worker_retries`, per-event progress) work as usual. Workers do
//! publish cumulative progress to `stats/{name}.json` after every
//! completed lease; the coordinator folds the deltas into
//! `spool_leases_{name}` / `spool_cells_{name}` telemetry counters and
//! counts stale-claim reclaims as `spool_reclaims`, so `--metrics-out`
//! shows who did the work and how often leases had to be re-granted.

use crate::campaign::{BackendContext, Deliver, ExecBackend, COORDINATOR_SOURCE};
use crate::error::EngineError;
use crate::lease::{
    decode_lease, encode_lease, CampaignPlan, LeaseExecutor, LeaseQueue, WorkLease,
};
use crate::protocol::{decode_event, encode_event, CampaignEvent};
use crate::registry::EstimatorRegistry;
use crate::runner::apply_jobs_cap;
use crate::spec::SweepSpec;
use crate::telemetry::Telemetry;
use serde::Value;
use std::collections::{BTreeMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Longest sleep of a spool poll loop.
const POLL: Duration = Duration::from_millis(50);
/// First sleep of a spool poll loop, and its sleep after progress.
const FIRST_POLL: Duration = Duration::from_millis(1);

/// Capped exponential backoff for the spool's poll loops: sleeps
/// [`FIRST_POLL`] first, doubles each time up to [`POLL`], and
/// [`reset`](Backoff::reset) after progress starts over.
struct Backoff {
    next: Duration,
}

impl Backoff {
    fn new() -> Backoff {
        Backoff { next: FIRST_POLL }
    }

    fn reset(&mut self) {
        self.next = FIRST_POLL;
    }

    /// The delay to sleep now; the one after it doubles.
    fn next_delay(&mut self) -> Duration {
        let delay = self.next;
        self.next = (delay * 2).min(POLL);
        delay
    }

    fn sleep(&mut self) {
        std::thread::sleep(self.next_delay());
    }
}

/// Write `payload` to `path` atomically (tmp in the same directory,
/// then rename) so spool readers never observe a torn file.
fn write_atomic(path: &Path, payload: &str) -> Result<(), EngineError> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, payload)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| EngineError::io(format!("writing spool file {}", path.display()), e))
}

fn lease_file_name(lease_id: usize, attempt: usize) -> String {
    format!("lease-{lease_id:06}-a{attempt}")
}

/// Parse `(lease_id, attempt)` back out of a spool file stem
/// (`lease-000007-a2`).
fn parse_lease_stem(stem: &str) -> Option<(usize, usize)> {
    let rest = stem.strip_prefix("lease-")?;
    let (id, attempt) = rest.split_once("-a")?;
    Some((id.parse().ok()?, attempt.parse().ok()?))
}

/// Sorted directory listing (deterministic scan order across hosts and
/// filesystems); a missing directory reads as empty.
fn sorted_dir(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Err(_) => return Vec::new(),
        Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).collect(),
    };
    entries.sort();
    entries
}

/// Drive a campaign through a shared-filesystem spool directory —
/// the cross-host [`ExecBackend`]. The module-level docs above cover
/// the spool layout and failure semantics; see
/// [`SpoolWorker`] for the remote half.
///
/// The spool directory must be empty (or absent) — one spool hosts one
/// campaign. Workers can join at any time; the campaign fails if none
/// registers within [`worker_timeout`](SharedFs::worker_timeout), or
/// if all progress stalls longer than the lease and worker timeouts
/// combined.
pub struct SharedFs {
    spool: PathBuf,
    lease_timeout: Duration,
    worker_timeout: Duration,
}

impl SharedFs {
    /// Backend coordinating through `spool` (created if absent).
    pub fn new(spool: impl Into<PathBuf>) -> SharedFs {
        SharedFs {
            spool: spool.into(),
            lease_timeout: Duration::from_secs(300),
            worker_timeout: Duration::from_secs(120),
        }
    }

    /// How long a claimed lease may sit without its event stream
    /// appearing before the claim is presumed dead and the lease
    /// re-queued (default 300 s). Set this well above the cost of the
    /// campaign's most expensive batch: a reclaim of a *live* slow
    /// worker is harmless (results are deterministic and deduplicated)
    /// but wastes its work.
    pub fn lease_timeout(mut self, timeout: Duration) -> SharedFs {
        self.lease_timeout = timeout.max(Duration::from_secs(1));
        self
    }

    /// How long to wait for the first worker registration before
    /// failing the campaign (default 120 s).
    pub fn worker_timeout(mut self, timeout: Duration) -> SharedFs {
        self.worker_timeout = timeout.max(Duration::from_secs(1));
        self
    }

    /// Re-grant every ready lease into `leases/open/` files.
    fn publish_ready(&self, leases: &LeaseQueue) -> Result<(), EngineError> {
        while let Some(lease) = leases.next() {
            let attempt = leases.attempts(lease.lease_id);
            let path = self
                .spool
                .join("leases/open")
                .join(format!("{}.json", lease_file_name(lease.lease_id, attempt)));
            write_atomic(&path, &encode_lease(&lease))?;
        }
        Ok(())
    }

    fn stop(&self, verdict: &str) {
        let _ = write_atomic(&self.spool.join("stop"), verdict);
    }

    /// Fold the workers' cumulative `stats/{name}.json` files into
    /// per-worker telemetry counters, counting only the delta since
    /// the previous harvest (the files are cumulative; counters are
    /// monotonic sums).
    fn harvest_worker_stats(&self, telemetry: &Telemetry, seen: &mut BTreeMap<String, (u64, u64)>) {
        for path in sorted_dir(&self.spool.join("stats")) {
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Some(v) = std::fs::read_to_string(&path)
                .ok()
                .and_then(|s| serde::json::parse(&s).ok())
            else {
                continue; // torn or vanished file; next poll re-reads
            };
            let leases = v.get("leases").and_then(Value::as_u64).unwrap_or(0);
            let cells = v.get("cells").and_then(Value::as_u64).unwrap_or(0);
            let last = seen.entry(name.to_string()).or_insert((0, 0));
            if leases > last.0 {
                telemetry.count(&format!("spool_leases_{name}"), leases - last.0);
            }
            if cells > last.1 {
                telemetry.count(&format!("spool_cells_{name}"), cells - last.1);
            }
            *last = (leases.max(last.0), cells.max(last.1));
        }
    }
}

impl ExecBackend for SharedFs {
    fn name(&self) -> String {
        format!("shared-fs ({})", self.spool.display())
    }

    fn execute(
        &self,
        ctx: &BackendContext<'_>,
        leases: &LeaseQueue,
        deliver: &Deliver<'_>,
    ) -> Result<(), EngineError> {
        let start = Instant::now();
        if ctx.cancel.is_cancelled() {
            return Err(EngineError::cancelled());
        }
        for sub in [
            "leases/open",
            "leases/claimed",
            "events",
            "workers",
            "stats",
        ] {
            std::fs::create_dir_all(self.spool.join(sub)).map_err(|e| {
                EngineError::io(
                    format!("creating spool directory {}", self.spool.display()),
                    e,
                )
            })?;
        }
        let spec_path = self.spool.join("spec.json");
        if spec_path.exists() {
            return Err(EngineError::spec(format!(
                "spool {} already hosts a campaign (found spec.json); \
                 use a fresh directory per campaign",
                self.spool.display()
            )));
        }
        let meta = Value::obj([
            ("name", serde::Serialize::serialize(&ctx.spec.name)),
            (
                "cache",
                match ctx.cache.disk_dir() {
                    Some(dir) => serde::Serialize::serialize(&dir.display().to_string()),
                    None => Value::Null,
                },
            ),
        ]);
        let mut meta_text = String::new();
        serde::json::write_value(&meta, &mut meta_text);
        write_atomic(&self.spool.join("meta.json"), &meta_text)?;
        // spec.json lands last: its appearance is the signal workers
        // wait on, so meta must already be readable.
        write_atomic(&spec_path, &serde::json::to_string(ctx.spec))?;
        self.publish_ready(leases)?;

        let mut worker_stats: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let result = (|| {
            let mut worker_slots: BTreeMap<String, usize> = BTreeMap::new();
            let mut processed_events: HashSet<PathBuf> = HashSet::new();
            let mut last_progress = Instant::now();
            let mut backoff = Backoff::new();
            let stall_after = self.lease_timeout + self.worker_timeout;
            loop {
                if ctx.cancel.is_cancelled() {
                    return Err(EngineError::cancelled());
                }
                // New worker registrations → one Hello per worker, slot
                // indices in registration-name order of first sighting.
                for reg in sorted_dir(&self.spool.join("workers")) {
                    let Some(name) = reg.file_stem().and_then(|s| s.to_str()) else {
                        continue;
                    };
                    if worker_slots.contains_key(name) {
                        continue;
                    }
                    let jobs = std::fs::read_to_string(&reg)
                        .ok()
                        .and_then(|s| serde::json::parse(&s).ok())
                        .and_then(|v| v.get("jobs").and_then(Value::as_u64))
                        .map(|j| j as usize);
                    let slot = worker_slots.len();
                    worker_slots.insert(name.to_string(), slot);
                    last_progress = Instant::now();
                    backoff.reset();
                    deliver(
                        slot,
                        CampaignEvent::Hello {
                            shard: slot,
                            shard_count: 0,
                            cells: 0,
                            references: 0,
                            version: Some(2),
                            jobs,
                        },
                    )?;
                }
                // Completed (or failed) attempt streams.
                for ev_path in sorted_dir(&self.spool.join("events")) {
                    if ev_path.extension().and_then(|e| e.to_str()) != Some("jsonl")
                        || processed_events.contains(&ev_path)
                    {
                        continue;
                    }
                    let Some((lease_id, _attempt)) = ev_path
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .and_then(parse_lease_stem)
                    else {
                        continue;
                    };
                    processed_events.insert(ev_path.clone());
                    last_progress = Instant::now();
                    backoff.reset();
                    if leases.is_completed(lease_id) {
                        continue; // duplicate attempt (reclaimed slow worker)
                    }
                    let text = std::fs::read_to_string(&ev_path).map_err(|e| {
                        EngineError::io(format!("reading event stream {}", ev_path.display()), e)
                    })?;
                    let mut events = Vec::new();
                    let mut why: Option<String> = None;
                    for line in text.lines().filter(|l| !l.trim().is_empty()) {
                        match decode_event(line) {
                            Ok(CampaignEvent::Error { message, kind }) => {
                                let kind = kind.as_deref().unwrap_or("unknown");
                                ctx.telemetry.count(&format!("errors_{kind}"), 1);
                                why = Some(message);
                                break;
                            }
                            Ok(ev) => events.push(ev),
                            Err(e) => {
                                why = Some(e);
                                break;
                            }
                        }
                    }
                    let complete = why.is_none()
                        && matches!(
                            events.last(),
                            Some(CampaignEvent::LeaseDone { lease_id: id, .. }) if *id == lease_id
                        );
                    if complete {
                        for ev in events {
                            deliver(0, ev)?;
                        }
                        leases.complete(lease_id);
                    } else {
                        // Failed attempt: merge nothing (its finished
                        // cells are in the shared cache, so the retry
                        // is cache-first) and re-queue under the
                        // per-lease attempt cap.
                        let why = why.unwrap_or_else(|| "attempt ended without lease_done".into());
                        if !leases.requeue(lease_id) {
                            return Err(EngineError::worker(
                                None,
                                format!(
                                    "lease {lease_id} failed after {} attempts (last: {why})",
                                    leases.attempts(lease_id)
                                ),
                            ));
                        }
                        eprintln!("spool lease {lease_id} failed ({why}); re-queueing");
                        ctx.telemetry.count("worker_retries", 1);
                        self.publish_ready(leases)?;
                    }
                }
                // Stale claims: a claim whose event stream never
                // appeared within the lease timeout is a dead worker.
                for claim in sorted_dir(&self.spool.join("leases/claimed")) {
                    let Some((lease_id, _)) = claim
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .and_then(parse_lease_stem)
                    else {
                        continue;
                    };
                    if leases.is_completed(lease_id) {
                        continue;
                    }
                    let age = claim
                        .metadata()
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok());
                    if age.is_some_and(|a| a > self.lease_timeout) {
                        // Removing the claim is the reclaim lock: only
                        // one coordinator pass can win the remove.
                        if std::fs::remove_file(&claim).is_err() {
                            continue;
                        }
                        if !leases.requeue(lease_id) {
                            return Err(EngineError::worker(
                                None,
                                format!(
                                    "lease {lease_id} failed after {} attempts \
                                     (last: worker lost; claim went stale)",
                                    leases.attempts(lease_id)
                                ),
                            ));
                        }
                        eprintln!("spool lease {lease_id}: claim went stale; re-queueing");
                        ctx.telemetry.count("worker_retries", 1);
                        ctx.telemetry.count("spool_reclaims", 1);
                        self.publish_ready(leases)?;
                        last_progress = Instant::now();
                        backoff.reset();
                    }
                }
                self.harvest_worker_stats(ctx.telemetry, &mut worker_stats);
                if leases.is_drained() {
                    // One last harvest after the final drain poll would
                    // still race the workers' post-lease stats write;
                    // the grace pass below (after `stop`) settles it.
                    return Ok(());
                }
                if worker_slots.is_empty() && start.elapsed() > self.worker_timeout {
                    return Err(EngineError::worker(
                        None,
                        format!(
                            "no spool worker registered in {} within {:.0?} — \
                             launch `sweep-worker --spool` on a host sharing the filesystem",
                            self.spool.display(),
                            self.worker_timeout
                        ),
                    ));
                }
                if last_progress.elapsed() > stall_after {
                    return Err(EngineError::worker(
                        None,
                        format!(
                            "spool campaign stalled: no lease progress for {stall_after:.0?} \
                             ({} of {} leases completed)",
                            leases.completed_count(),
                            leases.total()
                        ),
                    ));
                }
                backoff.sleep();
            }
        })();
        match &result {
            Ok(()) => self.stop("done"),
            Err(_) => self.stop("abort"),
        }
        if result.is_ok() {
            // Grace pass: a worker writes its stats file just *after*
            // publishing the event stream that drained the queue, so
            // give the last cumulative writes a moment to land before
            // the final fold into the counters.
            let total = leases.completed_count() as u64;
            let grace = Instant::now();
            let mut backoff = Backoff::new();
            loop {
                self.harvest_worker_stats(ctx.telemetry, &mut worker_stats);
                let harvested: u64 = worker_stats.values().map(|(l, _)| *l).sum();
                if harvested >= total || grace.elapsed() > Duration::from_secs(2) {
                    break;
                }
                backoff.sleep();
            }
        }
        result?;
        deliver(
            COORDINATOR_SOURCE,
            CampaignEvent::Done {
                hits: 0,
                misses: 0,
                wall_s: start.elapsed().as_secs_f64(),
            },
        )
    }
}

/// What a [`SpoolWorker`] session accomplished.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpoolSummary {
    /// Lease attempts this worker completed successfully.
    pub leases: usize,
    /// Cells across those attempts.
    pub cells: usize,
}

/// The remote half of a [`SharedFs`] campaign: one worker process on
/// any host sharing the spool filesystem (the engine behind
/// `sweep-worker --spool DIR`).
///
/// [`run`](SpoolWorker::run) waits for the coordinator's `spec.json`,
/// registers under [`name`](SpoolWorker::name), then claims and
/// executes leases with `jobs` threads until the coordinator writes
/// the `stop` file. Results go to the shared cache named in
/// `meta.json` (override with [`cache_dir`](SpoolWorker::cache_dir) /
/// [`no_cache`](SpoolWorker::no_cache)); each attempt's event stream
/// is published atomically to `events/`. A worker may join or die at
/// any point — the coordinator re-queues whatever it abandoned.
pub struct SpoolWorker {
    spool: PathBuf,
    name: String,
    jobs: Option<usize>,
    cache_dir: Option<PathBuf>,
    no_cache: bool,
    max_wait: Duration,
}

impl SpoolWorker {
    /// Worker session over `spool`. Default name `worker-{pid}`,
    /// thread count = this host's cores (each host caps itself — peer
    /// count is unknown and irrelevant under leasing).
    pub fn new(spool: impl Into<PathBuf>) -> SpoolWorker {
        SpoolWorker {
            spool: spool.into(),
            name: format!("worker-{}", std::process::id()),
            jobs: None,
            cache_dir: None,
            no_cache: false,
            max_wait: Duration::from_secs(60),
        }
    }

    /// Registration name (must be unique across the campaign's
    /// workers; the default embeds the pid, so collisions only happen
    /// across hosts with colliding pids — pass hostnames there).
    pub fn name(mut self, name: impl Into<String>) -> SpoolWorker {
        self.name = name.into();
        self
    }

    /// Cap this worker's threads (default: every core of this host).
    pub fn jobs(mut self, jobs: usize) -> SpoolWorker {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Use this result-cache directory instead of the one `meta.json`
    /// names (e.g. when the shared cache mounts at a different path on
    /// this host).
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> SpoolWorker {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Run without a disk cache (correct but recomputes everything the
    /// cache would have shared).
    pub fn no_cache(mut self) -> SpoolWorker {
        self.no_cache = true;
        self
    }

    /// How long to wait for the coordinator's `spec.json` before
    /// giving up (default 60 s).
    pub fn max_wait(mut self, wait: Duration) -> SpoolWorker {
        self.max_wait = wait;
        self
    }

    fn stopped(&self) -> bool {
        self.spool.join("stop").exists()
    }

    /// Serve the spool until the coordinator stops the campaign.
    pub fn run(self) -> Result<SpoolSummary, EngineError> {
        // Wait for the campaign to appear (spec.json is written last,
        // so meta.json is readable once it exists).
        let spec_path = self.spool.join("spec.json");
        let waited = Instant::now();
        let mut backoff = Backoff::new();
        while !spec_path.exists() {
            if self.stopped() {
                return Ok(SpoolSummary {
                    leases: 0,
                    cells: 0,
                });
            }
            if waited.elapsed() > self.max_wait {
                return Err(EngineError::worker(
                    None,
                    format!(
                        "no campaign appeared in spool {} within {:.0?}",
                        self.spool.display(),
                        self.max_wait
                    ),
                ));
            }
            backoff.sleep();
        }
        let spec_text = std::fs::read_to_string(&spec_path)
            .map_err(|e| EngineError::io(format!("reading {}", spec_path.display()), e))?;
        let spec: SweepSpec = serde::json::from_str(&spec_text)
            .map_err(|e| EngineError::spec(format!("bad spool spec.json: {e}")))?;
        spec.validate()?;
        let meta = std::fs::read_to_string(self.spool.join("meta.json"))
            .ok()
            .and_then(|s| serde::json::parse(&s).ok());
        let cache = if self.no_cache {
            crate::cache::ResultCache::in_memory()
        } else if let Some(dir) = &self.cache_dir {
            crate::cache::ResultCache::on_disk(dir)
        } else {
            match meta
                .as_ref()
                .and_then(|m| m.get("cache"))
                .and_then(Value::as_str)
            {
                Some(dir) => crate::cache::ResultCache::on_disk(dir),
                None => crate::cache::ResultCache::in_memory(),
            }
        };
        let jobs = self
            .jobs
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let _jobs_cap = apply_jobs_cap(Some(jobs))?;
        let registry = EstimatorRegistry::standard();
        let plan = CampaignPlan::new(&spec, &registry)?;
        let telemetry = Telemetry::disabled();
        let cancel = crate::cancel::CancelToken::new();
        let ctx = BackendContext {
            spec: &spec,
            registry: &registry,
            cache: &cache,
            telemetry: &telemetry,
            cancel: &cancel,
            plan: &plan,
        };
        let executor = LeaseExecutor::new(&ctx);
        let registration = Value::obj([
            ("name", serde::Serialize::serialize(&self.name)),
            ("jobs", serde::Serialize::serialize(&jobs)),
            (
                "pid",
                serde::Serialize::serialize(&(std::process::id() as u64)),
            ),
        ]);
        let mut registration_text = String::new();
        serde::json::write_value(&registration, &mut registration_text);
        write_atomic(
            &self
                .spool
                .join("workers")
                .join(format!("{}.json", self.name)),
            &registration_text,
        )?;
        let done_leases = AtomicUsize::new(0);
        let done_cells = AtomicUsize::new(0);
        let stats_lock: Mutex<()> = Mutex::new(());
        let abort: Mutex<Option<EngineError>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(plan.leases().len()).max(1) {
                let this = &self;
                let executor = &executor;
                let abort = &abort;
                let done_leases = &done_leases;
                let done_cells = &done_cells;
                let stats_lock = &stats_lock;
                scope.spawn(move || {
                    let mut backoff = Backoff::new();
                    while !this.stopped() && abort.lock().expect("abort slot").is_none() {
                        let Some((lease, attempt_stem)) = this.claim_next() else {
                            backoff.sleep();
                            continue;
                        };
                        backoff.reset();
                        match this.run_claim(executor, &lease, &attempt_stem) {
                            Ok(()) => {
                                done_leases.fetch_add(1, Ordering::Relaxed);
                                done_cells.fetch_add(lease.cells.len(), Ordering::Relaxed);
                                this.publish_stats(done_leases, done_cells, stats_lock);
                            }
                            Err(e) => {
                                abort.lock().expect("abort slot").get_or_insert(e);
                                return;
                            }
                        }
                    }
                });
            }
        });
        if let Some(e) = abort.into_inner().expect("abort slot") {
            return Err(e);
        }
        Ok(SpoolSummary {
            leases: done_leases.load(Ordering::Relaxed),
            cells: done_cells.load(Ordering::Relaxed),
        })
    }

    /// Publish this worker's cumulative progress to
    /// `stats/{name}.json`. The counters are re-read under the lock so
    /// concurrent completions always publish monotonically
    /// non-decreasing totals; failures are ignored (stats are
    /// observability, never correctness).
    fn publish_stats(&self, done_leases: &AtomicUsize, done_cells: &AtomicUsize, lock: &Mutex<()>) {
        let _guard = lock.lock().expect("stats lock");
        let payload = Value::obj([
            ("name", serde::Serialize::serialize(&self.name)),
            (
                "leases",
                serde::Serialize::serialize(&(done_leases.load(Ordering::Relaxed) as u64)),
            ),
            (
                "cells",
                serde::Serialize::serialize(&(done_cells.load(Ordering::Relaxed) as u64)),
            ),
        ]);
        let mut text = String::new();
        serde::json::write_value(&payload, &mut text);
        let stats_dir = self.spool.join("stats");
        let _ = std::fs::create_dir_all(&stats_dir);
        let _ = write_atomic(&stats_dir.join(format!("{}.json", self.name)), &text);
    }

    /// Claim the first open lease by renaming it into `claimed/`; the
    /// rename race picks exactly one winner per file.
    fn claim_next(&self) -> Option<(WorkLease, String)> {
        for open in sorted_dir(&self.spool.join("leases/open")) {
            if open.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let Some(stem) = open.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let claimed = self
                .spool
                .join("leases/claimed")
                .join(open.file_name().expect("lease file name"));
            if std::fs::rename(&open, &claimed).is_err() {
                continue; // another worker won this one
            }
            let Ok(text) = std::fs::read_to_string(&claimed) else {
                continue;
            };
            match decode_lease(&text) {
                Ok(lease) => return Some((lease, stem.to_string())),
                Err(_) => continue, // torn file; the coordinator re-queues it
            }
        }
        None
    }

    /// Execute one claimed lease, streaming its events to a tmp file
    /// published atomically at the end — with an `Error` tail when the
    /// attempt failed, so the coordinator re-queues promptly instead of
    /// waiting out the stale-claim timeout.
    fn run_claim(
        &self,
        executor: &LeaseExecutor<'_>,
        lease: &WorkLease,
        stem: &str,
    ) -> Result<(), EngineError> {
        let final_path = self.spool.join("events").join(format!("{stem}.jsonl"));
        let tmp = final_path.with_extension(format!("jsonl.tmp.{}", std::process::id()));
        let file = std::fs::File::create(&tmp)
            .map_err(|e| EngineError::io(format!("creating {}", tmp.display()), e))?;
        let out = Mutex::new(std::io::BufWriter::new(file));
        let emit = |ev: CampaignEvent| -> Result<(), EngineError> {
            let mut out = out.lock().expect("event stream");
            writeln!(out, "{}", encode_event(&ev))
                .map_err(|e| EngineError::io("writing spool event stream", e))
        };
        let run = executor.run(lease, &emit);
        if let Err(e) = &run {
            let _ = emit(CampaignEvent::Error {
                message: e.to_string(),
                kind: Some(e.kind().to_string()),
            });
        }
        {
            let mut out = out.lock().expect("event stream");
            out.flush()
                .map_err(|e| EngineError::io("flushing spool event stream", e))?;
        }
        std::fs::rename(&tmp, &final_path)
            .map_err(|e| EngineError::io(format!("publishing {}", final_path.display()), e))?;
        let _ = std::fs::remove_file(
            self.spool
                .join("leases/claimed")
                .join(format!("{stem}.json")),
        );
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_one_ms_up_to_the_poll_cap_and_resets() {
        let mut backoff = Backoff::new();
        let delays: Vec<u128> = (0..8).map(|_| backoff.next_delay().as_millis()).collect();
        assert_eq!(delays, [1, 2, 4, 8, 16, 32, 50, 50]);
        backoff.reset();
        assert_eq!(backoff.next_delay(), FIRST_POLL);
        assert_eq!(backoff.next_delay(), Duration::from_millis(2));
    }
}
