//! The resident campaign daemon.
//!
//! [`Server`] binds a loopback TCP listener, owns **one** shared
//! [`ResultCache`] and **one** bounded worker pool, and multiplexes
//! every submitted campaign onto them. Two clients sweeping
//! overlapping grids therefore share work: whichever campaign reaches
//! a cell first computes it, the other gets a memory-tier cache hit.
//!
//! Admission control is two-layered: a per-campaign cell quota
//! (`max_cells`) rejects over-budget specs outright, and a bounded
//! queue (`max_queued`) rejects submissions when the service is
//! saturated — both as structured [`Response::Error`]s, never by
//! blocking the client.
//!
//! The daemon never touches client files: each campaign's event
//! stream is buffered (and replayed to late `events` subscribers), and
//! clients materialise CSV/JSONL locally by feeding that stream
//! through [`merge_event_streams`](stochdag_engine::merge_event_streams)
//! — producing files byte-identical to an in-process
//! [`Campaign::run`] over the same cache.
//!
//! Buffering is bounded: a completed campaign is retired (entry, spec
//! and event log dropped) once its whole stream has reached at least
//! one subscriber and [`max_queued`](ServeConfig::max_queued) newer
//! campaigns have completed. Campaigns nobody has read yet, and failed
//! or cancelled ones (which `resume` and the shutdown report need),
//! stay. A retired id answers `events`, `status` and `resume` with a
//! `state` error; resubmitting its spec replays it from the cache.
//!
//! The accept loop blocks in `accept()`. Whatever can end the loop —
//! a shutdown request, its written ack, and each pool worker's exit —
//! wakes it with a throwaway loopback connection to the daemon's own
//! address. The loop does not end before every `shutdown` ack is
//! written.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use serde::{Deserialize, Serialize, Value};
use stochdag_engine::{
    encode_event, Campaign, CampaignEvent, CampaignObserver, CancelToken, EngineError,
    MetricsSnapshot, MultiProcess, ResultCache, SharedFs, SweepSpec, Telemetry,
};

use crate::protocol::{
    decode_request, encode_response, BackendChoice, CampaignState, CampaignStatus, Request,
    Response, ServerStatus, ShutdownMode, StatusReport, Submitted,
};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address; use port 0 for an ephemeral port (read it back
    /// with [`Server::local_addr`]).
    pub addr: String,
    /// Directory for the shared on-disk cache tier; `None` keeps the
    /// shared cache purely in memory.
    pub cache: Option<PathBuf>,
    /// Worker pool size: campaigns executing concurrently.
    pub max_running: usize,
    /// Queue capacity; submissions beyond it are rejected with
    /// `kind = "admission"`. Also the retention window for completed
    /// campaigns: one whose stream has reached a subscriber is retired
    /// once this many newer campaigns have completed.
    pub max_queued: usize,
    /// Per-campaign cell quota; bigger specs are rejected with
    /// `kind = "quota"`. `None` = unlimited.
    pub max_cells: Option<usize>,
    /// Where to persist the shutdown/resume report (JSON); `None`
    /// skips the file (the report is still returned by
    /// [`Server::run`]).
    pub shutdown_report: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache: None,
            max_running: 2,
            max_queued: 16,
            max_cells: None,
            shutdown_report: None,
        }
    }
}

/// One campaign that had not completed when the server shut down,
/// with its full spec so a later session can re-submit it (execution
/// is cache-first, so only unfinished cells are recomputed).
#[derive(Clone, Debug)]
pub struct UnfinishedCampaign {
    /// Server-assigned campaign id.
    pub id: u64,
    /// The spec's campaign name.
    pub name: String,
    /// Final lifecycle state at shutdown.
    pub state: CampaignState,
    /// Total estimator cells.
    pub cells: usize,
    /// Cells completed before shutdown.
    pub rows: usize,
    /// The campaign's spec, ready to re-submit.
    pub spec: SweepSpec,
}

/// What [`Server::run`] hands back (and persists to
/// [`ServeConfig::shutdown_report`]) after a clean shutdown.
#[derive(Clone, Debug)]
pub struct ShutdownReport {
    /// Final whole-server statistics.
    pub server: ServerStatus,
    /// Campaigns that did not complete, with their specs.
    pub unfinished: Vec<UnfinishedCampaign>,
}

impl Serialize for UnfinishedCampaign {
    fn serialize(&self) -> Value {
        Value::obj([
            ("id", self.id.serialize()),
            ("name", self.name.serialize()),
            ("state", Value::Str(self.state.as_str().into())),
            ("cells", self.cells.serialize()),
            ("rows", self.rows.serialize()),
            ("spec", self.spec.serialize()),
        ])
    }
}

impl Deserialize for UnfinishedCampaign {
    fn deserialize(v: &Value) -> Result<UnfinishedCampaign, serde::Error> {
        let state = String::deserialize(v.require("state")?)?;
        Ok(UnfinishedCampaign {
            id: u64::deserialize(v.require("id")?)?,
            name: String::deserialize(v.require("name")?)?,
            state: CampaignState::parse(&state)
                .ok_or_else(|| serde::Error::new(format!("unknown state {state:?}")))?,
            cells: usize::deserialize(v.require("cells")?)?,
            rows: usize::deserialize(v.require("rows")?)?,
            spec: SweepSpec::deserialize(v.require("spec")?)?,
        })
    }
}

impl Serialize for ShutdownReport {
    fn serialize(&self) -> Value {
        Value::obj([
            ("server", self.server.serialize()),
            ("unfinished", self.unfinished.serialize()),
        ])
    }
}

impl Deserialize for ShutdownReport {
    fn deserialize(v: &Value) -> Result<ShutdownReport, serde::Error> {
        Ok(ShutdownReport {
            server: ServerStatus::deserialize(v.require("server")?)?,
            unfinished: Vec::<UnfinishedCampaign>::deserialize(v.require("unfinished")?)?,
        })
    }
}

/// Shutdown flag values (an `AtomicU8` so connection handlers can set
/// it without the state lock).
const RUN: u8 = 0;
const DRAIN: u8 = 1;
const NOW: u8 = 2;

/// A campaign's buffered event stream plus its live subscribers.
///
/// Every event line is retained for the campaign's lifetime so a late
/// subscriber replays the full prefix before receiving live events —
/// the stream a client sees is always complete, whichever side of the
/// campaign it connects on.
struct EventLog {
    inner: Mutex<LogInner>,
}

struct LogInner {
    lines: Vec<String>,
    subscribers: Vec<TcpStream>,
    closed: bool,
}

impl EventLog {
    fn new() -> EventLog {
        EventLog {
            inner: Mutex::new(LogInner {
                lines: Vec::new(),
                subscribers: Vec::new(),
                closed: false,
            }),
        }
    }

    /// Append one event line: buffer it and push it to every live
    /// subscriber (dropping subscribers whose socket broke).
    fn append(&self, line: String) {
        let mut inner = self.inner.lock().unwrap();
        inner
            .subscribers
            .retain_mut(|s| write_line(s, &line).is_ok());
        inner.lines.push(line);
    }

    /// Mark the stream complete and hang up on subscribers (they see
    /// EOF after the final event). Returns whether any subscriber
    /// received the whole stream.
    fn close(&self) -> bool {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        let delivered = !inner.subscribers.is_empty();
        for s in inner.subscribers.drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
        delivered
    }

    /// Replay the buffered prefix to `stream`, then keep it for live
    /// events. If the stream already closed and the replay got through,
    /// hand `stream` back: the caller hangs up once it has acted on
    /// the delivery, so the subscriber's EOF comes after that.
    fn subscribe(&self, stream: TcpStream) -> Option<TcpStream> {
        let mut inner = self.inner.lock().unwrap();
        let mut stream = stream;
        for line in &inner.lines {
            if write_line(&mut stream, line).is_err() {
                return None;
            }
        }
        if inner.closed {
            Some(stream)
        } else {
            inner.subscribers.push(stream);
            None
        }
    }
}

fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")
}

/// Observer installed on every served campaign: mirrors the event
/// stream into the campaign's [`EventLog`] (one encoded event per
/// line, opening with the plan) and counts finished cells.
struct LogObserver {
    log: Arc<EventLog>,
    rows: Arc<AtomicUsize>,
}

impl CampaignObserver for LogObserver {
    fn on_event(&mut self, event: &CampaignEvent) -> Result<(), EngineError> {
        if matches!(event, CampaignEvent::Cell { .. }) {
            self.rows.fetch_add(1, Ordering::Relaxed);
        }
        self.log.append(encode_event(event));
        Ok(())
    }
}

/// Book-keeping for one submitted campaign.
struct Entry {
    name: String,
    spec: SweepSpec,
    backend: BackendChoice,
    state: CampaignState,
    cells: usize,
    rows: Arc<AtomicUsize>,
    error: Option<String>,
    cancel: CancelToken,
    log: Arc<EventLog>,
    /// Completion ordinal (the `completed` count before this one), set
    /// when the campaign finishes successfully.
    completed_at: Option<u64>,
    /// Some subscriber received the whole stream, up to its close.
    delivered: bool,
}

/// Mutable server state behind one mutex: the campaign table and the
/// admission queue. Everything hot-path (counters, shutdown flag) is
/// atomic and lives outside it.
struct State {
    campaigns: BTreeMap<u64, Entry>,
    queue: VecDeque<u64>,
}

struct Inner {
    config: ServeConfig,
    /// Loopback address of the listener, for [`Inner::wake`].
    wake_addr: SocketAddr,
    cache: Arc<ResultCache>,
    telemetry: Telemetry,
    state: Mutex<State>,
    work: Condvar,
    next_id: AtomicU64,
    stop: AtomicU8,
    /// `shutdown` requests whose ack is not written yet: the accept
    /// loop keeps the daemon alive until they are.
    unacked_shutdowns: AtomicUsize,
    submissions: AtomicU64,
    admission_rejected: AtomicU64,
    quota_rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    cells_computed: AtomicU64,
    cells_memory_hits: AtomicU64,
    cells_disk_hits: AtomicU64,
}

/// A cheap, cloneable handle for controlling a running [`Server`] from
/// another thread (tests, signal handlers).
#[derive(Clone)]
pub struct ServeHandle {
    inner: Arc<Inner>,
}

impl ServeHandle {
    /// Trigger a shutdown exactly as a [`Request::Shutdown`] would.
    pub fn shutdown(&self, mode: ShutdownMode) {
        self.inner.shutdown(mode);
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.stop.load(Ordering::Relaxed) != RUN
    }

    /// Whole-process metrics (admissions, queue pressure, cache
    /// dividend) accumulated so far.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.telemetry.snapshot()
    }
}

/// The campaign daemon: one shared cache, one bounded worker pool,
/// many clients. Construct with [`Server::bind`], then call
/// [`Server::run`] (blocks until shutdown).
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
}

impl Server {
    /// Bind the listener and set up the shared cache and pool. The
    /// daemon does not accept connections until [`Server::run`].
    pub fn bind(config: ServeConfig) -> Result<Server, EngineError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| EngineError::io(format!("bind {}", config.addr), e))?;
        let mut wake_addr = listener
            .local_addr()
            .map_err(|e| EngineError::io("read local addr", e))?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let cache = Arc::new(match &config.cache {
            Some(dir) => ResultCache::on_disk(dir),
            None => ResultCache::in_memory(),
        });
        let inner = Arc::new(Inner {
            config,
            wake_addr,
            cache,
            telemetry: Telemetry::enabled(),
            state: Mutex::new(State {
                campaigns: BTreeMap::new(),
                queue: VecDeque::new(),
            }),
            work: Condvar::new(),
            next_id: AtomicU64::new(1),
            stop: AtomicU8::new(RUN),
            unacked_shutdowns: AtomicUsize::new(0),
            submissions: AtomicU64::new(0),
            admission_rejected: AtomicU64::new(0),
            quota_rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            cells_computed: AtomicU64::new(0),
            cells_memory_hits: AtomicU64::new(0),
            cells_disk_hits: AtomicU64::new(0),
        });
        Ok(Server { listener, inner })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> Result<SocketAddr, EngineError> {
        self.listener
            .local_addr()
            .map_err(|e| EngineError::io("read local addr", e))
    }

    /// A control handle usable from other threads while `run` blocks.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            inner: self.inner.clone(),
        }
    }

    /// Serve until shutdown: spawn the worker pool, accept and handle
    /// connections, then drain, persist the shutdown report, and
    /// return it.
    ///
    /// During a drain the daemon keeps answering `status`, `cancel`,
    /// and `events` connections (new submissions are refused) until
    /// the last in-flight campaign finishes; only then does it stop
    /// accepting and exit.
    pub fn run(self) -> Result<ShutdownReport, EngineError> {
        let active = Arc::new(AtomicUsize::new(self.inner.config.max_running.max(1)));
        let workers: Vec<_> = (0..self.inner.config.max_running.max(1))
            .map(|w| {
                let inner = self.inner.clone();
                let active = active.clone();
                thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || {
                        worker_loop(&inner);
                        active.fetch_sub(1, Ordering::Relaxed);
                        inner.wake();
                    })
                    .map_err(|e| EngineError::io("spawn serve worker", e))
            })
            .collect::<Result<_, _>>()?;

        loop {
            if self.inner.stop.load(Ordering::SeqCst) != RUN
                && active.load(Ordering::Relaxed) == 0
                && self.inner.unacked_shutdowns.load(Ordering::SeqCst) == 0
            {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let inner = self.inner.clone();
                    // Handler threads are detached: each serves one
                    // request and exits; `events` subscribers park
                    // their socket in the campaign's log.
                    let _ = thread::Builder::new()
                        .name("serve-conn".into())
                        .spawn(move || handle_connection(&inner, stream));
                }
                Err(e) => return Err(EngineError::io("accept connection", e)),
            }
        }

        for worker in workers {
            let _ = worker.join();
        }

        let report = self.inner.shutdown_report();
        if let Some(path) = &self.inner.config.shutdown_report {
            let json = serde::json::to_string(&report);
            std::fs::write(path, format!("{json}\n"))
                .map_err(|e| EngineError::io(format!("write {}", path.display()), e))?;
        }
        Ok(report)
    }
}

impl Inner {
    /// Admission path shared by `submit` and `resume`.
    fn submit(&self, mut spec: SweepSpec, backend: BackendChoice) -> Response {
        if self.stop.load(Ordering::Relaxed) != RUN {
            self.admission_rejected.fetch_add(1, Ordering::Relaxed);
            self.telemetry.count("serve.admission_rejected", 1);
            return Response::Error {
                kind: "admission".into(),
                message: "server is shutting down".into(),
            };
        }
        // A per-spec jobs cap serializes capped campaigns process-wide
        // (the engine guards them with a global mutex), which would
        // defeat the whole point of a multiplexing service — strip it.
        spec.jobs = None;
        // Reject malformed backend choices before admission, with the
        // same structured kind a bad spec would get.
        match &backend {
            BackendChoice::MultiProcess { workers: 0 } => {
                return Response::Error {
                    kind: "spec".into(),
                    message: "backend worker count must be positive".into(),
                }
            }
            BackendChoice::SharedFs { spool } if spool.is_empty() => {
                return Response::Error {
                    kind: "spec".into(),
                    message: "backend spool directory must not be empty".into(),
                }
            }
            _ => {}
        }
        // Validate and size the campaign before admitting it; the
        // throwaway Campaign never runs.
        let sized = Campaign::builder(spec.clone())
            .cache(self.cache.clone())
            .build()
            .and_then(|c| c.dry_run());
        let dry = match sized {
            Ok(dry) => dry,
            Err(e) => {
                return Response::Error {
                    kind: e.kind().into(),
                    message: e.to_string(),
                }
            }
        };
        if let Some(quota) = self.config.max_cells {
            if dry.cells > quota {
                self.quota_rejected.fetch_add(1, Ordering::Relaxed);
                self.telemetry.count("serve.quota_rejected", 1);
                return Response::Error {
                    kind: "quota".into(),
                    message: format!(
                        "campaign {:?} has {} cells, per-campaign quota is {quota}",
                        spec.name, dry.cells
                    ),
                };
            }
        }
        let mut state = self.state.lock().unwrap();
        if state.queue.len() >= self.config.max_queued {
            self.admission_rejected.fetch_add(1, Ordering::Relaxed);
            self.telemetry.count("serve.admission_rejected", 1);
            return Response::Error {
                kind: "admission".into(),
                message: format!(
                    "queue is full ({} campaigns waiting, capacity {})",
                    state.queue.len(),
                    self.config.max_queued
                ),
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let name = spec.name.clone();
        state.campaigns.insert(
            id,
            Entry {
                name: name.clone(),
                spec,
                backend,
                state: CampaignState::Queued,
                cells: dry.cells,
                rows: Arc::new(AtomicUsize::new(0)),
                error: None,
                cancel: CancelToken::new(),
                log: Arc::new(EventLog::new()),
                completed_at: None,
                delivered: false,
            },
        );
        state.queue.push_back(id);
        let queue_depth = state.queue.len();
        drop(state);
        self.submissions.fetch_add(1, Ordering::Relaxed);
        self.telemetry.count("serve.submissions", 1);
        self.telemetry
            .count("serve.queue_depth_on_submit", queue_depth as u64);
        self.work.notify_one();
        Response::Submitted(Submitted {
            id,
            name,
            cells: dry.cells,
            references: dry.references,
            queue_depth,
        })
    }

    fn status(&self, id: Option<u64>) -> Response {
        let state = self.state.lock().unwrap();
        if let Some(id) = id {
            if !state.campaigns.contains_key(&id) {
                return self.missing(id);
            }
        }
        let campaigns: Vec<CampaignStatus> = state
            .campaigns
            .iter()
            .filter(|(cid, _)| id.is_none_or(|want| **cid == want))
            .map(|(cid, e)| CampaignStatus {
                id: *cid,
                name: e.name.clone(),
                state: e.state,
                cells: e.cells,
                rows: e.rows.load(Ordering::Relaxed),
                error: e.error.clone(),
            })
            .collect();
        let running = state
            .campaigns
            .values()
            .filter(|e| e.state == CampaignState::Running)
            .count();
        let queued = state.queue.len();
        drop(state);
        Response::Status(StatusReport {
            server: ServerStatus {
                running,
                queued,
                max_running: self.config.max_running.max(1),
                max_queued: self.config.max_queued,
                max_cells: self.config.max_cells,
                submissions: self.submissions.load(Ordering::Relaxed),
                admission_rejected: self.admission_rejected.load(Ordering::Relaxed),
                quota_rejected: self.quota_rejected.load(Ordering::Relaxed),
                completed: self.completed.load(Ordering::Relaxed),
                failed: self.failed.load(Ordering::Relaxed),
                cancelled: self.cancelled.load(Ordering::Relaxed),
                cells_computed: self.cells_computed.load(Ordering::Relaxed),
                cells_memory_hits: self.cells_memory_hits.load(Ordering::Relaxed),
                cells_disk_hits: self.cells_disk_hits.load(Ordering::Relaxed),
            },
            campaigns,
        })
    }

    fn cancel(&self, id: u64) -> Response {
        let mut state = self.state.lock().unwrap();
        let Some(entry) = state.campaigns.get_mut(&id) else {
            if self.is_retired(id) {
                return Response::Ack {
                    message: format!("campaign {id} already done"),
                };
            }
            return unknown_id(id);
        };
        match entry.state {
            CampaignState::Queued => {
                entry.state = CampaignState::Cancelled;
                entry.error = Some(EngineError::cancelled().to_string());
                finish_log_with_error(&entry.log, &EngineError::cancelled());
                state.queue.retain(|qid| *qid != id);
                drop(state);
                self.cancelled.fetch_add(1, Ordering::Relaxed);
                self.telemetry.count("serve.campaigns_cancelled", 1);
                Response::Ack {
                    message: format!("cancelled queued campaign {id}"),
                }
            }
            CampaignState::Running => {
                // Cooperative: the campaign stops at its next cell
                // boundary and the worker records the final state.
                entry.cancel.cancel();
                Response::Ack {
                    message: format!("cancel requested for running campaign {id}"),
                }
            }
            finished => Response::Ack {
                message: format!("campaign {id} already {}", finished.as_str()),
            },
        }
    }

    fn resume(&self, id: u64) -> Response {
        let state = self.state.lock().unwrap();
        let Some(entry) = state.campaigns.get(&id) else {
            return self.missing(id);
        };
        match entry.state {
            CampaignState::Failed | CampaignState::Cancelled => {
                let spec = entry.spec.clone();
                let backend = entry.backend.clone();
                drop(state);
                // Re-admission over the shared cache: finished cells
                // are hits, so only the missing tail is recomputed.
                // SharedFs resumes fall back to in-process: the old
                // spool directory already hosted a campaign and cannot
                // be reused, but the cache still carries the work.
                let backend = match backend {
                    BackendChoice::SharedFs { .. } => BackendChoice::InProcess,
                    other => other,
                };
                self.submit(spec, backend)
            }
            CampaignState::Done => Response::Error {
                kind: "state".into(),
                message: format!("campaign {id} already completed; nothing to resume"),
            },
            CampaignState::Queued | CampaignState::Running => Response::Error {
                kind: "state".into(),
                message: format!("campaign {id} is still active; cancel it first"),
            },
        }
    }

    fn events_log(&self, id: u64) -> Result<Arc<EventLog>, Box<Response>> {
        let state = self.state.lock().unwrap();
        match state.campaigns.get(&id) {
            Some(entry) => Ok(entry.log.clone()),
            None => Err(Box::new(self.missing(id))),
        }
    }

    /// Whether `id` was issued and its campaign has since been retired.
    /// Call with the state lock held: ids are issued under it.
    fn is_retired(&self, id: u64) -> bool {
        (1..self.next_id.load(Ordering::Relaxed)).contains(&id)
    }

    /// The error for an id missing from the campaign table: retired,
    /// or never issued.
    fn missing(&self, id: u64) -> Response {
        if !self.is_retired(id) {
            return unknown_id(id);
        }
        Response::Error {
            kind: "state".into(),
            message: format!(
                "campaign {id} completed and was retired after its results were \
                 delivered; resubmit its spec to replay it (every cell is a cache hit)"
            ),
        }
    }

    /// Drop completed campaigns that some subscriber has read in full
    /// and that are older than the last `max_queued` completions.
    fn retire(&self, state: &mut State) {
        let completed = self.completed.load(Ordering::Relaxed);
        let window = self.config.max_queued as u64;
        state.campaigns.retain(|_, e| {
            !(e.delivered && e.completed_at.is_some_and(|at| completed - at > window))
        });
    }

    /// Record that a subscriber replayed campaign `id`'s closed stream
    /// in full.
    fn mark_delivered(&self, id: u64) {
        let mut state = self.state.lock().expect("serve state lock poisoned");
        if let Some(entry) = state.campaigns.get_mut(&id) {
            entry.delivered = true;
        }
        self.retire(&mut state);
    }

    /// Unblock the accept loop in [`Server::run`] so it re-checks
    /// whether to stop: connect to the listener and hang up at once.
    fn wake(&self) {
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
    }

    /// Apply a shutdown request: flip the flag, cancel what the mode
    /// says to cancel, and wake the pool. Returns the ack message.
    fn shutdown(&self, mode: ShutdownMode) -> String {
        let level = match mode {
            ShutdownMode::Drain => DRAIN,
            ShutdownMode::Now => NOW,
        };
        self.stop.fetch_max(level, Ordering::SeqCst);
        let mut state = self.state.lock().unwrap();
        // Queued campaigns never start under either mode.
        let queued: Vec<u64> = state.queue.drain(..).collect();
        for id in queued {
            if let Some(entry) = state.campaigns.get_mut(&id) {
                entry.state = CampaignState::Cancelled;
                entry.error = Some(EngineError::cancelled().to_string());
                finish_log_with_error(&entry.log, &EngineError::cancelled());
                self.cancelled.fetch_add(1, Ordering::Relaxed);
                self.telemetry.count("serve.campaigns_cancelled", 1);
            }
        }
        let mut interrupted = 0usize;
        if mode == ShutdownMode::Now {
            for entry in state.campaigns.values() {
                if entry.state == CampaignState::Running {
                    entry.cancel.cancel();
                    interrupted += 1;
                }
            }
        }
        let running = state
            .campaigns
            .values()
            .filter(|e| e.state == CampaignState::Running)
            .count();
        drop(state);
        self.work.notify_all();
        self.wake();
        match mode {
            ShutdownMode::Drain => {
                format!("shutting down after draining {running} running campaign(s)")
            }
            ShutdownMode::Now => {
                format!("shutting down now, cancelling {interrupted} running campaign(s)")
            }
        }
    }

    fn shutdown_report(&self) -> ShutdownReport {
        let Response::Status(report) = self.status(None) else {
            unreachable!("status with id=None always succeeds");
        };
        let state = self.state.lock().unwrap();
        let unfinished = state
            .campaigns
            .iter()
            .filter(|(_, e)| e.state != CampaignState::Done)
            .map(|(id, e)| UnfinishedCampaign {
                id: *id,
                name: e.name.clone(),
                state: e.state,
                cells: e.cells,
                rows: e.rows.load(Ordering::Relaxed),
                spec: e.spec.clone(),
            })
            .collect();
        ShutdownReport {
            server: report.server,
            unfinished,
        }
    }
}

fn unknown_id(id: u64) -> Response {
    Response::Error {
        kind: "unknown-id".into(),
        message: format!("no campaign with id {id}"),
    }
}

/// Terminate a log the way a failed `sweep-worker` terminates its
/// stdout: one final structured error event, then EOF.
fn finish_log_with_error(log: &EventLog, error: &EngineError) {
    log.append(encode_event(&CampaignEvent::Error {
        message: error.to_string(),
        kind: Some(error.kind().to_string()),
    }));
    log.close();
}

/// One worker-pool thread: pop campaign ids off the queue and run
/// them until a shutdown drains the queue.
fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let id = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if let Some(id) = state.queue.pop_front() {
                    break id;
                }
                if inner.stop.load(Ordering::Relaxed) != RUN {
                    return;
                }
                state = inner.work.wait(state).unwrap();
            }
        };
        run_campaign(inner, id);
    }
}

/// Execute one queued campaign on the shared cache, mirroring its
/// events into the log and folding its outcome into process totals.
fn run_campaign(inner: &Arc<Inner>, id: u64) {
    let (spec, backend, cancel, log, rows) = {
        let mut state = inner.state.lock().unwrap();
        let Some(entry) = state.campaigns.get_mut(&id) else {
            return;
        };
        // Cancelled (or shutdown-drained) between pop and here.
        if entry.state != CampaignState::Queued {
            return;
        }
        entry.state = CampaignState::Running;
        (
            entry.spec.clone(),
            entry.backend.clone(),
            entry.cancel.clone(),
            entry.log.clone(),
            entry.rows.clone(),
        )
    };

    // Per-campaign telemetry child: fresh aggregates, shared sink;
    // merged back into the process handle below.
    let child = inner.telemetry.child();
    let mut builder = Campaign::builder(spec)
        .cache(inner.cache.clone())
        .telemetry(child.clone())
        .cancel_token(cancel)
        .observer(LogObserver {
            log: log.clone(),
            rows,
        });
    // Per-campaign execution backend (ROADMAP round 2 (c)): the
    // default stays in-process on the shared pool; multi-process and
    // cross-host spool campaigns run their workers against the same
    // shared cache, so the cross-campaign cache dividend is unchanged.
    builder = match backend {
        BackendChoice::InProcess => builder,
        BackendChoice::MultiProcess { workers } => builder.backend(MultiProcess::new(workers)),
        BackendChoice::SharedFs { spool } => builder.backend(SharedFs::new(spool)),
    };
    let result = builder.build().and_then(|c| c.run());
    inner.telemetry.merge(&child.snapshot());

    let mut state = inner.state.lock().unwrap();
    let Some(entry) = state.campaigns.get_mut(&id) else {
        return;
    };
    match result {
        Ok(outcome) => {
            entry.state = CampaignState::Done;
            // Completions are counted under the state lock: the count is
            // the clock of the retention window.
            entry.completed_at = Some(inner.completed.fetch_add(1, Ordering::Relaxed));
            entry.delivered = log.close();
            inner.retire(&mut state);
            drop(state);
            inner
                .cells_computed
                .fetch_add(outcome.cells_computed as u64, Ordering::Relaxed);
            inner
                .cells_memory_hits
                .fetch_add(outcome.cells_memory_hits as u64, Ordering::Relaxed);
            inner
                .cells_disk_hits
                .fetch_add(outcome.cells_disk_hits as u64, Ordering::Relaxed);
            inner.telemetry.count("serve.campaigns_completed", 1);
            inner
                .telemetry
                .count("serve.cells_computed", outcome.cells_computed as u64);
            inner
                .telemetry
                .count("serve.cells_memory_hits", outcome.cells_memory_hits as u64);
            inner
                .telemetry
                .count("serve.cells_disk_hits", outcome.cells_disk_hits as u64);
        }
        Err(error) => {
            let was_cancel = error.kind() == "cancelled";
            entry.state = if was_cancel {
                CampaignState::Cancelled
            } else {
                CampaignState::Failed
            };
            entry.error = Some(error.to_string());
            finish_log_with_error(&log, &error);
            drop(state);
            if was_cancel {
                inner.cancelled.fetch_add(1, Ordering::Relaxed);
                inner.telemetry.count("serve.campaigns_cancelled", 1);
            } else {
                inner.failed.fetch_add(1, Ordering::Relaxed);
                inner.telemetry.count("serve.campaigns_failed", 1);
            }
        }
    }
}

/// Serve one connection: one request line, one response line; for
/// `events` the socket is then handed to the campaign's log.
fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut line = String::new();
    match reader.read_line(&mut line) {
        // Hung up without a request: an accept-loop wake-up.
        Ok(0) => return,
        Ok(_) if !line.trim().is_empty() => {}
        _ => {
            respond(
                stream,
                &Response::Error {
                    kind: "protocol".into(),
                    message: "expected one request line".into(),
                },
            );
            return;
        }
    }
    let request = match decode_request(&line) {
        Ok(r) => r,
        Err(message) => {
            respond(
                stream,
                &Response::Error {
                    kind: "protocol".into(),
                    message,
                },
            );
            return;
        }
    };
    match request {
        Request::Submit { spec, backend } => respond(stream, &inner.submit(spec, backend)),
        Request::Status { id } => respond(stream, &inner.status(id)),
        Request::Cancel { id } => respond(stream, &inner.cancel(id)),
        Request::Resume { id } => respond(stream, &inner.resume(id)),
        Request::Shutdown { mode } => {
            // Without a running campaign the pool exits at once; the
            // daemon must still write this ack before it stops.
            inner.unacked_shutdowns.fetch_add(1, Ordering::SeqCst);
            let message = inner.shutdown(mode);
            respond(stream, &Response::Ack { message });
            inner.unacked_shutdowns.fetch_sub(1, Ordering::SeqCst);
            inner.wake();
        }
        Request::Events { id } => {
            let mut stream = stream;
            match inner.events_log(id) {
                Ok(log) => {
                    if write_line(&mut stream, &encode_response(&Response::Subscribed { id }))
                        .is_ok()
                    {
                        if let Some(replayed) = log.subscribe(stream) {
                            inner.mark_delivered(id);
                            let _ = replayed.shutdown(Shutdown::Both);
                        }
                    }
                }
                Err(error) => respond(stream, &error),
            }
        }
    }
}

fn respond(mut stream: TcpStream, response: &Response) {
    let _ = write_line(&mut stream, &encode_response(response));
    let _ = stream.shutdown(Shutdown::Both);
}
