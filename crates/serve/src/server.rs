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
//! The thread that accepts a connection answers it, then accepts
//! again (Leader/Followers): the thread in [`Server::run`] is the first
//! acceptor, so a daemon answers request after request without
//! starting a thread. An acceptor reads the request line and writes
//! its answer without blocking; only before it would wait — on the
//! client (its request line has not arrived yet, or an `events` replay
//! does not fit the socket at once), or on a campaign's event log that
//! another thread holds — does it park: it makes sure another acceptor
//! is in `accept()`, starting one only when none is idle. A silent
//! client therefore holds one thread, its own, and never the daemon.
//! Parked acceptors return to `accept()` when their exchange ends, and
//! one that finds `max_running + 1` others idle exits, so a daemon
//! whose requests often park (a request line regularly arrives just
//! after `accept()` returns) keeps a few acceptors instead of starting
//! a thread per park. [`ServeHandle::metrics`] counts the parks
//! (`serve.parked`) and the acceptors started
//! (`serve.acceptors_started`).
//!
//! Acceptors block in `accept()`. Whatever can stop the daemon — a
//! shutdown request, and each pool worker's exit — wakes one with a
//! throwaway loopback connection to the daemon's own address, and
//! every acceptor checks after each connection. The daemon stops once
//! it is shutting down, no pool worker runs and every `shutdown` ack
//! is written: it hangs up on clients that have not sent their
//! request, wakes every idle acceptor, and [`Server::run`] returns once
//! all of them have exited.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, TryLockError};
use std::thread::{self, Scope};
use std::time::Duration;

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
    /// shared cache purely in memory, and the daemon then refuses
    /// multi-process and spool campaigns, whose worker processes could
    /// not share it.
    pub cache: Option<PathBuf>,
    /// Worker pool size: campaigns executing concurrently. Workers
    /// start on demand, one per admitted campaign until this many
    /// exist, and stay until shutdown.
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

serde::codec! {
    lenient;
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
}

serde::codec! {
    lenient;
    /// What [`Server::run`] hands back (and persists to
    /// [`ServeConfig::shutdown_report`]) after a clean shutdown.
    #[derive(Clone, Debug)]
    pub struct ShutdownReport {
        /// Final whole-server statistics.
        pub server: ServerStatus,
        /// Campaigns that did not complete, with their specs.
        pub unfinished: Vec<UnfinishedCampaign>,
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
    /// Every event line so far, each ending in `\n`.
    text: String,
    subscribers: Vec<Arc<TcpStream>>,
    closed: bool,
}

impl EventLog {
    fn new() -> EventLog {
        EventLog {
            inner: Mutex::new(LogInner {
                text: String::new(),
                subscribers: Vec::new(),
                closed: false,
            }),
        }
    }

    /// Append one event line: buffer it and push it to every live
    /// subscriber (dropping subscribers whose socket broke).
    fn append(&self, mut line: String) {
        line.push('\n');
        let mut inner = self.inner.lock().unwrap();
        inner
            .subscribers
            .retain(|s| (&**s).write_all(line.as_bytes()).is_ok());
        inner.text.push_str(&line);
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

    /// Replay the buffered prefix to `conn`, then keep its socket for
    /// live events. If the stream already closed and the replay got
    /// through, hand `conn` back: the caller hangs up once it has acted
    /// on the delivery, so the subscriber's EOF comes after that.
    ///
    /// Whoever holds the log may be blocked on a client that does not
    /// read (the campaign's thread writing live events, an acceptor
    /// replaying), so `conn` parks before it waits for the lock.
    fn subscribe<'scope, 'env>(&self, mut conn: Conn<'scope, 'env>) -> Option<Conn<'scope, 'env>> {
        let mut inner = match self.inner.try_lock() {
            Ok(inner) => inner,
            Err(TryLockError::WouldBlock) => {
                conn.park().ok()?;
                self.inner.lock().unwrap()
            }
            Err(TryLockError::Poisoned(e)) => panic!("{e}"),
        };
        conn.write_all(inner.text.as_bytes()).ok()?;
        if inner.closed {
            return Some(conn);
        }
        if let Ok(stream) = conn.into_subscriber() {
            inner.subscribers.push(stream);
        }
        None
    }
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

/// Mutable server state behind one mutex: the campaign table, the
/// admission queue and the pool workers started so far. The hot path
/// (the shutdown flag, the telemetry counters that `status` reports)
/// lives outside it.
struct State {
    campaigns: BTreeMap<u64, Entry>,
    queue: VecDeque<u64>,
    workers: Vec<thread::JoinHandle<()>>,
}

struct Inner {
    config: ServeConfig,
    /// Loopback address of the listener, for [`Inner::wake`].
    wake_addr: SocketAddr,
    cache: Arc<ResultCache>,
    telemetry: Telemetry,
    state: Mutex<State>,
    work: Condvar,
    /// Pool workers that have not exited yet.
    active: AtomicUsize,
    next_id: AtomicU64,
    /// Set under the state lock, so admission sees it before it
    /// queues a campaign.
    stop: AtomicU8,
    /// `shutdown` requests whose ack is not written yet: the daemon
    /// does not stop, and so hangs up on no client, before they are.
    unacked_shutdowns: AtomicUsize,
    acceptors: Mutex<Acceptors>,
    /// Campaigns completed: the clock of the retention window, counted
    /// under the state lock. Every other `status` total is a `serve.*`
    /// counter of `telemetry`.
    completed: AtomicU64,
}

/// The acceptor threads of [`Server::run`], counted under one lock.
#[derive(Default)]
struct Acceptors {
    /// Acceptors in `accept()`, or on their way back to it.
    idle: usize,
    /// Set once the daemon stops: no acceptor enters `accept()` again.
    closing: bool,
    /// Sockets whose acceptor waits on its client; closing hangs up on
    /// them, so every acceptor returns.
    parked: Vec<Arc<TcpStream>>,
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
    /// Bind the listener and set up the shared cache. The daemon does
    /// not accept connections until [`Server::run`]; pool workers
    /// start as campaigns are admitted.
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
                workers: Vec::new(),
            }),
            work: Condvar::new(),
            active: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            stop: AtomicU8::new(RUN),
            unacked_shutdowns: AtomicUsize::new(0),
            acceptors: Mutex::new(Acceptors::default()),
            completed: AtomicU64::new(0),
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

    /// Serve until shutdown: accept and answer connections, then
    /// drain, persist the shutdown report, and return it. The calling
    /// thread is the first acceptor; more start only while clients
    /// keep acceptors waiting (see the module docs). Pool workers start
    /// on demand, one per admitted campaign until
    /// [`max_running`](ServeConfig::max_running) exist.
    ///
    /// During a drain the daemon keeps answering `status`, `cancel`,
    /// and `events` connections (new submissions are refused) until
    /// the last in-flight campaign finishes; only then does it stop
    /// accepting and exit. A failed `accept` (say, out of file
    /// descriptors) is counted as `serve.accept_errors` and retried
    /// after a short pause.
    pub fn run(self) -> Result<ShutdownReport, EngineError> {
        self.inner.acceptors.lock().expect("acceptor lock").idle = 1;
        thread::scope(|scope| {
            Acceptor {
                inner: &self.inner,
                listener: &self.listener,
                scope,
            }
            .run(true)
        });

        // No worker starts once the loop has seen the stop flag:
        // admission checks it under the same lock.
        let workers = std::mem::take(&mut self.inner.state.lock().unwrap().workers);
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
    fn submit(self: &Arc<Self>, spec: SweepSpec, backend: BackendChoice) -> Response {
        if self.stop.load(Ordering::Relaxed) != RUN {
            return self.shutting_down();
        }
        // Reject malformed backend choices before admission, with the
        // same structured kind a bad spec would get.
        match &backend {
            BackendChoice::MultiProcess { .. } | BackendChoice::SharedFs { .. }
                if self.config.cache.is_none() =>
            {
                return Response::Error {
                    kind: "spec".into(),
                    message: "multi-process and spool campaigns run their workers over the \
                              daemon's on-disk cache; start the daemon with --cache DIR"
                        .into(),
                }
            }
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
        if self.stop.load(Ordering::SeqCst) != RUN {
            return self.shutting_down();
        }
        if state.queue.len() >= self.config.max_queued {
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
        if state.workers.len() < self.config.max_running.max(1) {
            // Started under the lock that queues the campaign, so a
            // shutdown cannot slip in between and strand it.
            match self.start_worker(state.workers.len()) {
                Ok(worker) => state.workers.push(worker),
                Err(e) if state.workers.is_empty() => {
                    return Response::Error {
                        kind: "io".into(),
                        message: format!("starting a serve worker: {e}"),
                    }
                }
                // The running workers pick the campaign up.
                Err(_) => {}
            }
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
        let counters = self.telemetry.snapshot().counters;
        let count = |name: &str| counters.get(name).copied().unwrap_or(0);
        Response::Status(StatusReport {
            server: ServerStatus {
                running,
                queued,
                max_running: self.config.max_running.max(1),
                max_queued: self.config.max_queued,
                max_cells: self.config.max_cells,
                submissions: count("serve.submissions"),
                admission_rejected: count("serve.admission_rejected"),
                quota_rejected: count("serve.quota_rejected"),
                completed: self.completed.load(Ordering::Relaxed),
                failed: count("serve.campaigns_failed"),
                cancelled: count("serve.campaigns_cancelled"),
                cells_computed: count("serve.cells_computed"),
                cells_memory_hits: count("serve.cells_memory_hits"),
                cells_disk_hits: count("serve.cells_disk_hits"),
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

    fn resume(self: &Arc<Self>, id: u64) -> Response {
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

    /// Start pool worker `w`; it runs queued campaigns until a
    /// shutdown empties the queue, then wakes an acceptor.
    fn start_worker(self: &Arc<Self>, w: usize) -> std::io::Result<thread::JoinHandle<()>> {
        let inner = self.clone();
        self.active.fetch_add(1, Ordering::SeqCst);
        thread::Builder::new()
            .name(format!("serve-worker-{w}"))
            .spawn(move || {
                worker_loop(&inner);
                inner.active.fetch_sub(1, Ordering::SeqCst);
                inner.wake();
            })
            .inspect_err(|_| {
                self.active.fetch_sub(1, Ordering::SeqCst);
            })
    }

    fn shutting_down(&self) -> Response {
        self.telemetry.count("serve.admission_rejected", 1);
        Response::Error {
            kind: "admission".into(),
            message: "server is shutting down".into(),
        }
    }

    /// Unblock an acceptor so it re-checks whether to stop: connect to
    /// the listener and hang up at once.
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
        let mut state = self.state.lock().unwrap();
        self.stop.fetch_max(level, Ordering::SeqCst);
        // Queued campaigns never start under either mode.
        let queued: Vec<u64> = state.queue.drain(..).collect();
        for id in queued {
            if let Some(entry) = state.campaigns.get_mut(&id) {
                entry.state = CampaignState::Cancelled;
                entry.error = Some(EngineError::cancelled().to_string());
                finish_log_with_error(&entry.log, &EngineError::cancelled());
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
    // Per-campaign execution backend: the default stays in-process on
    // the shared pool; multi-process and cross-host spool campaigns
    // (admitted only with an on-disk cache) run their workers against
    // the same shared cache, so the cross-campaign cache dividend is
    // unchanged.
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
                inner.telemetry.count("serve.campaigns_cancelled", 1);
            } else {
                inner.telemetry.count("serve.campaigns_failed", 1);
            }
        }
    }
}

/// One acceptor thread of [`Server::run`]: the daemon, its listener,
/// and the scope to start more acceptors in.
#[derive(Clone, Copy)]
struct Acceptor<'scope, 'env> {
    inner: &'env Arc<Inner>,
    listener: &'env TcpListener,
    scope: &'scope Scope<'scope, 'env>,
}

impl<'scope, 'env> Acceptor<'scope, 'env> {
    /// Accept a connection, answer it, and accept again, until the
    /// daemon stops or this acceptor is not needed. Entered counted as
    /// idle. The `anchor` (the thread in [`Server::run`]) stays until
    /// the daemon stops.
    fn run(self, anchor: bool) {
        loop {
            let accepted = self.listener.accept();
            self.inner.acceptors.lock().expect("acceptor lock").idle -= 1;
            match accepted {
                Ok((stream, _peer)) => {
                    // Without a non-blocking socket the acceptor could
                    // not tell whether the client keeps it waiting.
                    if stream.set_nonblocking(true).is_ok() {
                        answer(Conn {
                            stream: Arc::new(stream),
                            acceptor: self,
                            parked: false,
                        });
                    }
                }
                Err(_) => {
                    // The connection stays in the backlog, so retrying
                    // at once would spin.
                    self.inner.telemetry.count("serve.accept_errors", 1);
                    thread::sleep(Duration::from_millis(10));
                }
            }
            if !self.rejoin(anchor) {
                return;
            }
        }
    }

    /// Count this acceptor idle again, or tell it to exit: when the
    /// daemon stops, or when `max_running + 1` others are idle and it
    /// is not the anchor. The first acceptor to see the daemon stop
    /// closes: it hangs up on parked clients and wakes every idle
    /// acceptor, so all of them return.
    fn rejoin(self, anchor: bool) -> bool {
        let inner = self.inner;
        let stopping = inner.stop.load(Ordering::SeqCst) != RUN
            && inner.active.load(Ordering::SeqCst) == 0
            && inner.unacked_shutdowns.load(Ordering::SeqCst) == 0;
        let mut acceptors = inner.acceptors.lock().expect("acceptor lock");
        let mut wakes = 0;
        if stopping && !acceptors.closing {
            acceptors.closing = true;
            for client in acceptors.parked.drain(..) {
                let _ = client.shutdown(Shutdown::Both);
            }
            wakes = acceptors.idle;
        }
        let stay =
            !acceptors.closing && (anchor || acceptors.idle <= inner.config.max_running.max(1));
        if stay {
            acceptors.idle += 1;
        }
        drop(acceptors);
        for _ in 0..wakes {
            inner.wake();
        }
        stay
    }

    /// Before this thread waits on `client` (or, answering it, on a
    /// campaign's log): make sure another acceptor is in `accept()`,
    /// starting one only when none is idle, and register the socket
    /// for closing to hang up on. Fails with `ConnectionAborted` while
    /// the daemon closes, or when no acceptor could start: the caller
    /// then hangs up instead of waiting.
    fn park(self, client: &Arc<TcpStream>) -> io::Result<()> {
        let mut acceptors = self.inner.acceptors.lock().expect("acceptor lock");
        if acceptors.closing {
            return Err(ErrorKind::ConnectionAborted.into());
        }
        self.inner.telemetry.count("serve.parked", 1);
        if acceptors.idle == 0 {
            thread::Builder::new()
                .name("serve-acceptor".into())
                .spawn_scoped(self.scope, move || self.run(false))
                .map_err(|_| io::Error::from(ErrorKind::ConnectionAborted))?;
            acceptors.idle += 1;
            self.inner.telemetry.count("serve.acceptors_started", 1);
        }
        acceptors.parked.push(client.clone());
        Ok(())
    }

    /// Forget a parked socket whose exchange is over.
    fn unpark(self, client: &Arc<TcpStream>) {
        if let Ok(mut acceptors) = self.inner.acceptors.lock() {
            acceptors.parked.retain(|c| !Arc::ptr_eq(c, client));
        }
    }
}

/// One accepted connection, answered by the acceptor that accepted it.
/// Its socket stays non-blocking until the exchange would wait on the
/// client; the acceptor then parks ([`Acceptor::park`]) and switches
/// the socket to blocking I/O.
struct Conn<'scope, 'env> {
    stream: Arc<TcpStream>,
    acceptor: Acceptor<'scope, 'env>,
    parked: bool,
}

impl Conn<'_, '_> {
    /// Let this acceptor wait from here on: on the client, or on a
    /// campaign's log.
    fn park(&mut self) -> io::Result<()> {
        if !self.parked {
            self.stream.set_nonblocking(false)?;
            self.acceptor.park(&self.stream)?;
            self.parked = true;
        }
        Ok(())
    }

    /// Read up to the first newline (kept) or EOF; `None` when the
    /// client hung up without sending a byte.
    fn read_line(&mut self) -> io::Result<Option<String>> {
        let mut line = Vec::new();
        let mut buf = [0u8; 8192];
        loop {
            match (&*self.stream).read(&mut buf) {
                Ok(0) => break,
                Ok(n) => match buf[..n].iter().position(|&b| b == b'\n') {
                    Some(end) => {
                        line.extend_from_slice(&buf[..=end]);
                        break;
                    }
                    None => line.extend_from_slice(&buf[..n]),
                },
                Err(e) if e.kind() == ErrorKind::WouldBlock => self.park()?,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if line.is_empty() {
            return Ok(None);
        }
        String::from_utf8(line)
            .map(Some)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))
    }

    fn write_all(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            match (&*self.stream).write(bytes) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => self.park()?,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Write `line` and its newline in one `write_all`.
    fn write_line(&mut self, mut line: String) -> io::Result<()> {
        line.push('\n');
        self.write_all(line.as_bytes())
    }

    /// The socket for a campaign's live events, blocking again: the
    /// campaign's thread writes to it.
    fn into_subscriber(self) -> io::Result<Arc<TcpStream>> {
        if !self.parked {
            self.stream.set_nonblocking(false)?;
        }
        Ok(self.stream.clone())
    }

    fn hang_up(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl Drop for Conn<'_, '_> {
    fn drop(&mut self) {
        if self.parked {
            self.acceptor.unpark(&self.stream);
        }
    }
}

/// Answer one connection: one request line, one response line; for
/// `events` the socket then joins the campaign's subscribers.
fn answer(mut conn: Conn<'_, '_>) {
    let inner = conn.acceptor.inner;
    let line = match conn.read_line() {
        Ok(Some(line)) => line,
        // Hung up without a request (a wake-up), or this acceptor may
        // not wait for it (see `Acceptor::park`).
        Ok(None) => return,
        Err(e) if e.kind() == ErrorKind::ConnectionAborted => return,
        Err(_) => {
            respond(conn, &protocol_error("expected one request line"));
            return;
        }
    };
    let _span = inner.telemetry.span("serve.request");
    if line.trim().is_empty() {
        respond(conn, &protocol_error("expected one request line"));
        return;
    }
    let request = match decode_request(&line) {
        Ok(r) => r,
        Err(message) => {
            respond(conn, &protocol_error(message));
            return;
        }
    };
    match request {
        Request::Submit { spec, backend } => respond(conn, &inner.submit(spec, backend)),
        Request::Status { id } => respond(conn, &inner.status(id)),
        Request::Cancel { id } => respond(conn, &inner.cancel(id)),
        Request::Resume { id } => respond(conn, &inner.resume(id)),
        Request::Shutdown { mode } => {
            // Without a running campaign the pool exits at once; the
            // daemon must still write this ack before it stops (its
            // socket may be parked), and this acceptor checks whether
            // to stop once it has.
            inner.unacked_shutdowns.fetch_add(1, Ordering::SeqCst);
            let message = inner.shutdown(mode);
            respond(conn, &Response::Ack { message });
            inner.unacked_shutdowns.fetch_sub(1, Ordering::SeqCst);
        }
        Request::Events { id } => match inner.events_log(id) {
            Ok(log) => {
                if conn
                    .write_line(encode_response(&Response::Subscribed { id }))
                    .is_ok()
                {
                    if let Some(replayed) = log.subscribe(conn) {
                        inner.mark_delivered(id);
                        replayed.hang_up();
                    }
                }
            }
            Err(error) => respond(conn, &error),
        },
    }
}

fn protocol_error(message: impl Into<String>) -> Response {
    Response::Error {
        kind: "protocol".into(),
        message: message.into(),
    }
}

fn respond(mut conn: Conn<'_, '_>, response: &Response) {
    let _ = conn.write_line(encode_response(response));
    conn.hang_up();
}
