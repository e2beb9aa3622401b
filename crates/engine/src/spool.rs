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
//!   meta.json                    campaign name, shared cache dir, spool layout, telemetry
//!   workers/{name}.json          worker registration {name, jobs, pid}
//!   leases/open/
//!     lease-000007-a1.json       grantable lease, attempt 1
//!   leases/claimed/
//!     lease-000007-a1.json       renamed here by the claiming worker
//!   events/
//!     lease-000007-a1.w1.jsonl   attempt 1's CampaignEvent stream, from worker w1
//!   stop                         "done" or "abort"; workers exit
//! ```
//!
//! Lifecycle: the coordinator writes `meta.json`/`spec.json`, drops
//! every planned [`WorkLease`] into `leases/open/`, and polls. Workers
//! (launched by hand, a job scheduler, anything) check that `meta.json`
//! names the spool layout they speak, register themselves, claim leases
//! by renaming `open/ → claimed/` (the rename race picks exactly one
//! winner), execute them against the shared cache with the standard
//! [`LeaseExecutor`], and publish each attempt's event stream as
//! `events/{lease stem}.{worker name}.jsonl` — ending in
//! [`LeaseDone`](crate::CampaignEvent::LeaseDone) on success or an
//! [`Error`](crate::CampaignEvent::Error) tail on failure. That stream
//! is the only file a worker writes per lease. The coordinator removes
//! the attempt's claim as soon as it processes the stream, then merges
//! a complete stream, skips a duplicate (a reclaimed slow worker's late
//! attempt) and **re-queues** a failed one. A claim older than the
//! lease timeout with no stream behind it is a dead worker: removing
//! that claim (the reclaim lock) re-queues its lease. Re-queues run
//! under the campaign's per-lease attempt cap, exactly like a local
//! [`MultiProcess`](crate::MultiProcess) crash. Output stays
//! byte-identical to a single-process run because every consumer
//! shares the [`LeaseExecutor`] definitions and the campaign merge
//! re-sequences rows by global cell index.
//!
//! Every poll loop here (the coordinator's, and a worker's wait for
//! `spec.json` and for open leases) backs off: it sleeps 1 ms at first,
//! makes each sleep a quarter longer than the last up to 50 ms, and
//! starts over at 1 ms after progress. A sleep is never longer than a
//! quarter of the time already slept plus 1 ms, so a loop that has
//! waited W notices progress within W/4 + 1 ms, while an idle spool
//! costs each loop at most one directory scan per 50 ms.
//!
//! `meta.json`'s `telemetry` says whether the campaign collects
//! telemetry; a worker then collects each lease's spans and counters
//! and sends them on the lease's `lease_done`, so a spool report
//! carries worker spans exactly as an in-process one does. Besides its
//! own spans and counters (`worker_retries`, per-event progress), the
//! coordinator counts the streams it merges as `spool_leases_{name}` /
//! `spool_cells_{name}`, the name being everything after the stream's
//! first `.` (lease stems contain none), so they sum to the campaign's
//! leases and cells; a skipped duplicate counts for nobody (its
//! worker's [`SpoolSummary`] still counts it). Reclaims count as
//! `spool_reclaims`.
//!
//! `meta.json` names the spool layout (2). A worker refuses any other,
//! and the coordinator fails on a stream without a worker name, so
//! releases that disagree fail at once, not after the lease timeout.

use crate::campaign::{BackendContext, Deliver, ExecBackend};
use crate::error::EngineError;
use crate::lease::{
    cores, decode_lease, drain, encode_lease, CampaignPlan, LeaseExecutor, LeaseQueue, WorkLease,
};
use crate::protocol::{decode_event, encode_event, CampaignEvent};
use crate::registry::EstimatorRegistry;
use crate::spec::SweepSpec;
use crate::telemetry::Telemetry;
use std::collections::{BTreeMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Longest sleep of a spool poll loop.
const POLL: Duration = Duration::from_millis(50);
/// First sleep of a spool poll loop, and its sleep after progress.
const FIRST_POLL: Duration = Duration::from_millis(1);
/// `meta.json`'s `layout`: worker-named streams, claims removed by the
/// coordinator. Releases before the key wrote layout 1.
const SPOOL_LAYOUT: u64 = 2;

serde::codec! {
    lenient;
    /// `meta.json`: what a worker reads before the spec.
    struct SpoolMeta {
        /// Campaign name.
        name: String,
        /// The coordinator's disk cache, for workers given none.
        cache: Option<String> = None,
        /// The spool layout ([`SPOOL_LAYOUT`]).
        layout: u64 = 1,
        /// Whether lease streams carry telemetry deltas.
        telemetry: bool = false,
    }
}

serde::codec! {
    lenient;
    /// `workers/{name}.json`: a worker session's registration.
    struct Registration {
        /// Worker name.
        name: String,
        /// The session's thread cap (`0`: not reported).
        jobs: usize = 0,
        /// Worker process id.
        pid: u64,
    }
}

/// Capped geometric backoff for the spool's poll loops (module docs):
/// [`FIRST_POLL`], then each sleep a quarter longer up to [`POLL`];
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

    /// The delay to sleep now; the one after it is a quarter longer.
    fn next_delay(&mut self) -> Duration {
        let delay = self.next;
        self.next = (delay * 5 / 4).min(POLL);
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
        for sub in ["leases/open", "leases/claimed", "events", "workers"] {
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
        let meta = SpoolMeta {
            name: ctx.spec.name.clone(),
            cache: ctx.cache.disk_dir().map(|dir| dir.display().to_string()),
            layout: SPOOL_LAYOUT,
            telemetry: ctx.telemetry.is_enabled(),
        };
        write_atomic(
            &self.spool.join("meta.json"),
            &serde::json::to_string(&meta),
        )?;
        // spec.json lands last: its appearance is the signal workers
        // wait on, so meta must already be readable.
        write_atomic(&spec_path, &serde::json::to_string(ctx.spec))?;
        self.publish_ready(leases)?;

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
                        .and_then(|s| serde::json::from_str::<Registration>(&s).ok())
                        .map_or(0, |r| r.jobs);
                    let slot = worker_slots.len();
                    worker_slots.insert(name.to_string(), slot);
                    last_progress = Instant::now();
                    backoff.reset();
                    deliver(CampaignEvent::Hello { shard: slot, jobs })?;
                }
                // Attempt streams, `{lease stem}.{worker name}.jsonl`:
                // complete, failed or duplicate.
                for ev_path in sorted_dir(&self.spool.join("events")) {
                    if processed_events.contains(&ev_path) {
                        continue;
                    }
                    let Some(file) = ev_path
                        .file_name()
                        .and_then(|s| s.to_str())
                        .and_then(|s| s.strip_suffix(".jsonl"))
                    else {
                        continue;
                    };
                    let (stem, worker) = file.split_once('.').unwrap_or((file, ""));
                    let Some((lease_id, _attempt)) = parse_lease_stem(stem) else {
                        continue;
                    };
                    if worker.is_empty() {
                        return Err(EngineError::worker(
                            None,
                            format!(
                                "spool event stream {} carries no worker name, so its \
                                 worker predates spool layout {SPOOL_LAYOUT}; run the \
                                 coordinator and every worker from the same stochdag release",
                                ev_path.display()
                            ),
                        ));
                    }
                    processed_events.insert(ev_path.clone());
                    last_progress = Instant::now();
                    backoff.reset();
                    // The stream settles its attempt, so the claim is
                    // retired here, never by the worker.
                    let _ = std::fs::remove_file(
                        self.spool
                            .join("leases/claimed")
                            .join(format!("{stem}.json")),
                    );
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
                    let done_cells = match events.last() {
                        Some(CampaignEvent::LeaseDone {
                            lease_id: id,
                            cells,
                            ..
                        }) if why.is_none() && *id == lease_id => Some(*cells),
                        _ => None,
                    };
                    if let Some(cells) = done_cells {
                        for ev in events {
                            deliver(ev)?;
                        }
                        leases.complete(lease_id);
                        ctx.telemetry.count(&format!("spool_leases_{worker}"), 1);
                        ctx.telemetry
                            .count(&format!("spool_cells_{worker}"), cells as u64);
                    } else {
                        // Failed attempt: merge nothing (its finished
                        // cells are in the shared cache, so the retry
                        // is cache-first) and re-queue under the
                        // per-lease attempt cap.
                        let why = why.unwrap_or_else(|| "attempt ended without lease_done".into());
                        leases.requeue(lease_id, &why)?;
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
                        leases.requeue(lease_id, "worker lost; claim went stale")?;
                        eprintln!("spool lease {lease_id}: claim went stale; re-queueing");
                        ctx.telemetry.count("worker_retries", 1);
                        ctx.telemetry.count("spool_reclaims", 1);
                        self.publish_ready(leases)?;
                        last_progress = Instant::now();
                        backoff.reset();
                    }
                }
                if leases.is_drained() {
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
        self.stop(if result.is_ok() { "done" } else { "abort" });
        result
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
/// executes leases with up to `jobs` threads (the calling thread, plus
/// helpers from its first cache miss on), each capping its
/// Monte-Carlo trials at `jobs`, until the coordinator writes the
/// `stop` file. The cap is the session's own, so several workers in
/// one process work side by side. Results go to the shared cache
/// named in `meta.json` (override with
/// [`cache_dir`](SpoolWorker::cache_dir) /
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

    /// Read `meta.json`, refusing a spool of another layout: a
    /// coordinator that names streams or retires claims differently
    /// would never merge this worker's streams.
    fn read_meta(&self) -> Result<SpoolMeta, EngineError> {
        let meta = std::fs::read_to_string(self.spool.join("meta.json"))
            .ok()
            .and_then(|s| serde::json::from_str::<SpoolMeta>(&s).ok())
            .ok_or_else(|| {
                EngineError::spec(format!(
                    "spool {} has no readable meta.json, so its spool layout is unknown; \
                     this worker reads layout {SPOOL_LAYOUT}",
                    self.spool.display()
                ))
            })?;
        if meta.layout != SPOOL_LAYOUT {
            return Err(EngineError::spec(format!(
                "spool {} uses spool layout {}, but this worker reads layout {SPOOL_LAYOUT}; \
                 run the coordinator and every worker from the same stochdag release",
                self.spool.display(),
                meta.layout
            )));
        }
        Ok(meta)
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
        let meta = self.read_meta()?;
        let spec_text = std::fs::read_to_string(&spec_path)
            .map_err(|e| EngineError::io(format!("reading {}", spec_path.display()), e))?;
        let spec: SweepSpec = serde::json::from_str(&spec_text)
            .map_err(|e| EngineError::spec(format!("bad spool spec.json: {e}")))?;
        spec.validate()?;
        let cache = if self.no_cache {
            crate::cache::ResultCache::in_memory()
        } else if let Some(dir) = &self.cache_dir {
            crate::cache::ResultCache::on_disk(dir)
        } else {
            match &meta.cache {
                Some(dir) => crate::cache::ResultCache::on_disk(dir),
                None => crate::cache::ResultCache::in_memory(),
            }
        };
        let jobs = self.jobs.unwrap_or_else(cores);
        let plan = CampaignPlan::new(&spec, &EstimatorRegistry)?;
        let telemetry = if meta.telemetry {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let cancel = crate::cancel::CancelToken::new();
        let ctx = BackendContext {
            spec: &spec,
            cache: &cache,
            telemetry: &telemetry,
            cancel: &cancel,
            plan: &plan,
        };
        let executor = LeaseExecutor::new(&ctx);
        let registration = Registration {
            name: self.name.clone(),
            jobs,
            pid: u64::from(std::process::id()),
        };
        write_atomic(
            &self
                .spool
                .join("workers")
                .join(format!("{}.json", self.name)),
            &serde::json::to_string(&registration),
        )?;
        let done_leases = AtomicUsize::new(0);
        let done_cells = AtomicUsize::new(0);
        // Each thread polls for its next claim until the coordinator
        // stops the campaign or another thread failed.
        let next_claim = |failed: &AtomicBool| -> Result<_, EngineError> {
            let mut backoff = Backoff::new();
            while !self.stopped() && !failed.load(Ordering::SeqCst) {
                if let Some(claim) = self.claim_next() {
                    return Ok(Some(claim));
                }
                backoff.sleep();
            }
            Ok(None)
        };
        drain(
            jobs.min(plan.leases().len()).max(1),
            jobs,
            next_claim,
            |(lease, attempt_stem): (WorkLease, String), start_helpers| {
                self.run_claim(&executor, &lease, &attempt_stem, start_helpers)?;
                done_leases.fetch_add(1, Ordering::Relaxed);
                done_cells.fetch_add(lease.cells.len(), Ordering::Relaxed);
                Ok(())
            },
        )?;
        Ok(SpoolSummary {
            leases: done_leases.load(Ordering::Relaxed),
            cells: done_cells.load(Ordering::Relaxed),
        })
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
    /// published atomically at the end as
    /// `events/{stem}.{name}.jsonl` — with an `Error` tail when the
    /// attempt failed, so the coordinator re-queues promptly instead of
    /// waiting out the stale-claim timeout. The claim stays for the
    /// coordinator to remove once it has read the stream.
    fn run_claim(
        &self,
        executor: &LeaseExecutor<'_>,
        lease: &WorkLease,
        stem: &str,
        on_miss: &dyn Fn(),
    ) -> Result<(), EngineError> {
        let final_path = self
            .spool
            .join("events")
            .join(format!("{stem}.{}.jsonl", self.name));
        let tmp = final_path.with_extension(format!("jsonl.tmp.{}", std::process::id()));
        let file = std::fs::File::create(&tmp)
            .map_err(|e| EngineError::io(format!("creating {}", tmp.display()), e))?;
        let out = Mutex::new(std::io::BufWriter::new(file));
        let emit = |ev: CampaignEvent| -> Result<(), EngineError> {
            let mut out = out.lock().expect("event stream");
            writeln!(out, "{}", encode_event(&ev))
                .map_err(|e| EngineError::io("writing spool event stream", e))
        };
        let run = executor.execute(lease, &emit, on_miss);
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
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_by_a_quarter_up_to_the_poll_cap_and_resets() {
        let mut backoff = Backoff::new();
        let mut slept = Duration::ZERO;
        let mut delays = Vec::new();
        for _ in 0..30 {
            let delay = backoff.next_delay();
            // Progress during this sleep is noticed within a quarter
            // of the time already waited plus one first poll.
            assert!(
                4 * delay <= slept + 4 * FIRST_POLL,
                "{delay:?} after {slept:?} slept"
            );
            slept += delay;
            delays.push(delay);
        }
        assert_eq!(
            delays[..3],
            [
                Duration::from_micros(1000),
                Duration::from_micros(1250),
                Duration::from_nanos(1_562_500),
            ]
        );
        assert!(delays[17] < POLL, "{:?}", delays[17]);
        assert!(delays[18..].iter().all(|&d| d == POLL), "{delays:?}");
        backoff.reset();
        assert_eq!(backoff.next_delay(), FIRST_POLL);
        assert_eq!(backoff.next_delay(), Duration::from_micros(1250));
    }
}
