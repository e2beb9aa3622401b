//! The client ↔ daemon wire protocol of the campaign service.
//!
//! Same shape as the engine's worker protocol (`crate::protocol` of
//! `stochdag-engine`): **line-delimited JSON**, one `"type"`-tagged
//! object per line, over a plain TCP connection on the loopback
//! interface. A connection carries exactly one [`Request`] line and one
//! [`Response`] line — except `events`, whose response line is followed
//! by the campaign's raw
//! [`CampaignEvent`](stochdag_engine::CampaignEvent) stream (the
//! engine wire vocabulary, unchanged) until the server closes the
//! connection.
//!
//! | request | response | then |
//! |---------|----------|------|
//! | `submit` | `submitted` \| `error` | connection closes |
//! | `status` | `status` \| `error` | connection closes |
//! | `events` | `subscribed` \| `error` | raw `CampaignEvent` lines until EOF |
//! | `cancel` | `ack` \| `error` | connection closes |
//! | `resume` | `submitted` \| `error` | connection closes |
//! | `shutdown` | `ack` | connection closes |
//!
//! The `events` stream is the whole campaign's event log, opening with
//! its `plan` — what a
//! [`WireObserver`](stochdag_engine::WireObserver) on
//! [`Campaign::run`](stochdag_engine::Campaign::run) writes — so a
//! client replays it through
//! [`merge_event_streams`](stochdag_engine::merge_event_streams) and
//! gets CSV/JSONL byte-identical to an in-process
//! [`Campaign::run`](stochdag_engine::Campaign::run) over the same
//! cache. A failed or cancelled campaign ends its stream with a
//! [`CampaignEvent::Error`](stochdag_engine::CampaignEvent) line whose
//! `kind` is the structured
//! [`EngineError::kind`](stochdag_engine::EngineError::kind).
//!
//! Errors are structured: every [`Response::Error`] carries a stable
//! machine-readable `kind` (`"quota"`, `"admission"`, `"unknown-id"`,
//! `"state"`, `"protocol"`, or an engine error kind) next to the
//! human-readable message, so clients can branch without parsing prose.

use serde::{Deserialize, Serialize, Value};
use stochdag_engine::SweepSpec;

/// Which engine [`ExecBackend`](stochdag_engine::ExecBackend) a served
/// campaign runs on. Per-campaign: one daemon can run an in-process
/// campaign, a multi-process one, and a cross-host spool campaign
/// concurrently over the same shared cache. The two worker-process
/// backends need that cache on disk: a daemon without
/// [`ServeConfig::cache`](crate::ServeConfig::cache) refuses them with
/// kind `spec`.
///
/// On the wire this is an optional `backend` object on `submit`;
/// absent means [`InProcess`](BackendChoice::InProcess), so v1 clients
/// keep working unchanged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Work-stealing threads inside the daemon (the default).
    #[default]
    InProcess,
    /// `workers` lease-pulling `sweep-worker` child processes sharing
    /// the daemon's on-disk cache.
    MultiProcess {
        /// Worker process count (must be positive).
        workers: usize,
    },
    /// Cross-host execution through a shared-filesystem spool
    /// directory; remote `sweep-worker --spool` processes do the work.
    SharedFs {
        /// Spool directory (must be empty; shared with the workers).
        spool: String,
    },
}

impl Serialize for BackendChoice {
    fn serialize(&self) -> Value {
        match self {
            BackendChoice::InProcess => Value::obj([("kind", Value::Str("in-process".into()))]),
            BackendChoice::MultiProcess { workers } => Value::obj([
                ("kind", Value::Str("multi-process".into())),
                ("workers", workers.serialize()),
            ]),
            BackendChoice::SharedFs { spool } => Value::obj([
                ("kind", Value::Str("shared-fs".into())),
                ("spool", spool.serialize()),
            ]),
        }
    }
}

impl Deserialize for BackendChoice {
    fn deserialize(v: &Value) -> Result<BackendChoice, serde::Error> {
        let kind = String::deserialize(v.require("kind")?)?;
        match kind.as_str() {
            "in-process" => Ok(BackendChoice::InProcess),
            "multi-process" => Ok(BackendChoice::MultiProcess {
                workers: usize::deserialize(v.require("workers")?)?,
            }),
            "shared-fs" => Ok(BackendChoice::SharedFs {
                spool: String::deserialize(v.require("spool")?)?,
            }),
            other => Err(serde::Error::new(format!("unknown backend {other:?}"))),
        }
    }
}

/// One client request (see the module table).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a campaign spec for execution. The spec's `jobs` caps
    /// this campaign's threads only; admission control and the
    /// per-campaign cell quota apply before the campaign is queued.
    Submit {
        /// The campaign to run (same spec model as `sweep --spec`).
        spec: SweepSpec,
        /// Execution backend for this campaign; `InProcess` is the
        /// wire default (the field is omitted when encoding it).
        backend: BackendChoice,
    },
    /// Report one campaign (`id` set) or the whole server (`id`
    /// unset): every campaign plus pool/cache/admission statistics.
    Status {
        /// Campaign to report, or `None` for everything.
        id: Option<u64>,
    },
    /// Subscribe to a campaign's event stream. Events already emitted
    /// are replayed first (a subscriber never misses the prefix), then
    /// live events follow; the server closes the connection after the
    /// final event. A retired campaign answers with a `state` error.
    Events {
        /// Campaign to subscribe to.
        id: u64,
    },
    /// Cancel a campaign. Queued campaigns never start; running ones
    /// stop cooperatively at the next cell boundary (finished cells
    /// stay in the shared cache).
    Cancel {
        /// Campaign to cancel.
        id: u64,
    },
    /// Re-submit the spec of a failed or cancelled campaign as a new
    /// campaign. Execution is cache-first over the shared cache, so
    /// the new run recomputes only what the old one never finished.
    Resume {
        /// The failed/cancelled campaign whose spec to re-submit.
        id: u64,
    },
    /// Stop the server. `Drain` refuses new work, cancels queued
    /// campaigns, and lets running ones finish; `Now` also cancels
    /// running campaigns at their next cell boundary. Either way the
    /// server persists a shutdown report before exiting.
    Shutdown {
        /// How urgently to stop.
        mode: ShutdownMode,
    },
}

/// How a [`Request::Shutdown`] stops the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Refuse new work, cancel the queue, finish running campaigns.
    Drain,
    /// Also cancel running campaigns at their next cell boundary.
    Now,
}

impl ShutdownMode {
    /// Stable wire name (`"drain"` / `"now"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ShutdownMode::Drain => "drain",
            ShutdownMode::Now => "now",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<ShutdownMode> {
        match s {
            "drain" => Some(ShutdownMode::Drain),
            "now" => Some(ShutdownMode::Now),
            _ => None,
        }
    }
}

/// Lifecycle state of a submitted campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CampaignState {
    /// Admitted, waiting for a pool slot.
    Queued,
    /// Executing on the shared worker pool.
    Running,
    /// Finished successfully; the full event stream is replayable
    /// until the daemon retires the campaign (see
    /// [`ServeConfig::max_queued`](crate::ServeConfig::max_queued)).
    Done,
    /// Failed with an engine error (carried in the status row and as
    /// the final `error` event of the stream).
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

impl CampaignState {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            CampaignState::Queued => "queued",
            CampaignState::Running => "running",
            CampaignState::Done => "done",
            CampaignState::Failed => "failed",
            CampaignState::Cancelled => "cancelled",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<CampaignState> {
        match s {
            "queued" => Some(CampaignState::Queued),
            "running" => Some(CampaignState::Running),
            "done" => Some(CampaignState::Done),
            "failed" => Some(CampaignState::Failed),
            "cancelled" => Some(CampaignState::Cancelled),
            _ => None,
        }
    }

    /// Whether the campaign can still make progress.
    pub fn is_active(self) -> bool {
        matches!(self, CampaignState::Queued | CampaignState::Running)
    }
}

/// Acknowledgement of an admitted campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct Submitted {
    /// Server-assigned campaign id (use with `status`/`events`/
    /// `cancel`/`resume`).
    pub id: u64,
    /// The spec's campaign name.
    pub name: String,
    /// Estimator cells the campaign will execute (quota currency).
    pub cells: usize,
    /// Monte-Carlo reference scenarios the campaign needs.
    pub references: usize,
    /// Campaigns queued ahead of or including this one.
    pub queue_depth: usize,
}

/// One campaign's row in a status report.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignStatus {
    /// Server-assigned campaign id.
    pub id: u64,
    /// The spec's campaign name.
    pub name: String,
    /// Lifecycle state.
    pub state: CampaignState,
    /// Total estimator cells.
    pub cells: usize,
    /// Cells completed so far (== `cells` once done).
    pub rows: usize,
    /// The failure, for `Failed`/`Cancelled` campaigns.
    pub error: Option<String>,
}

/// Whole-server statistics in a status report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerStatus {
    /// Campaigns currently executing.
    pub running: usize,
    /// Campaigns waiting for a pool slot.
    pub queued: usize,
    /// Worker pool size (concurrent campaign ceiling).
    pub max_running: usize,
    /// Queue capacity; submissions beyond it are rejected
    /// (`kind = "admission"`).
    pub max_queued: usize,
    /// Per-campaign cell quota; bigger specs are rejected
    /// (`kind = "quota"`). `None` = unlimited.
    pub max_cells: Option<usize>,
    /// Campaigns admitted since the server started.
    pub submissions: u64,
    /// Submissions rejected because the queue was full.
    pub admission_rejected: u64,
    /// Submissions rejected for exceeding the cell quota.
    pub quota_rejected: u64,
    /// Campaigns finished successfully.
    pub completed: u64,
    /// Campaigns that failed.
    pub failed: u64,
    /// Campaigns cancelled (before or during execution).
    pub cancelled: u64,
    /// Cells computed fresh, across every finished campaign.
    pub cells_computed: u64,
    /// Cells served from the shared memory tier — the cross-campaign
    /// cache dividend.
    pub cells_memory_hits: u64,
    /// Cells served from the disk tier.
    pub cells_disk_hits: u64,
}

impl ServerStatus {
    /// Fraction of finished cells served from either cache tier
    /// (0 when nothing has finished).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cells_memory_hits + self.cells_disk_hits;
        let total = hits + self.cells_computed;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// A full status report: server statistics plus campaign rows
/// (all campaigns, or just the requested one), sorted by id.
#[derive(Clone, Debug, PartialEq)]
pub struct StatusReport {
    /// Whole-server statistics.
    pub server: ServerStatus,
    /// Campaign rows, ascending by id.
    pub campaigns: Vec<CampaignStatus>,
}

/// One server response (see the module table).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The campaign was admitted and queued.
    Submitted(Submitted),
    /// Status report for `status`.
    Status(StatusReport),
    /// `events` accepted; raw [`CampaignEvent`] lines follow until the
    /// server closes the connection.
    ///
    /// [`CampaignEvent`]: stochdag_engine::CampaignEvent
    Subscribed {
        /// The subscribed campaign.
        id: u64,
    },
    /// `cancel`/`shutdown` acknowledgement.
    Ack {
        /// What the server did.
        message: String,
    },
    /// The request was refused; `kind` is stable and machine-readable
    /// (see the module docs for the vocabulary).
    Error {
        /// Stable error kind.
        kind: String,
        /// Human-readable description.
        message: String,
    },
}

impl Serialize for Request {
    fn serialize(&self) -> Value {
        match self {
            Request::Submit { spec, backend } => {
                let mut fields = vec![
                    ("type", Value::Str("submit".into())),
                    ("spec", spec.serialize()),
                ];
                if backend != &BackendChoice::InProcess {
                    fields.push(("backend", backend.serialize()));
                }
                Value::obj(fields)
            }
            Request::Status { id } => {
                let mut fields = vec![("type", Value::Str("status".into()))];
                if let Some(id) = id {
                    fields.push(("id", id.serialize()));
                }
                Value::obj(fields)
            }
            Request::Events { id } => Value::obj([
                ("type", Value::Str("events".into())),
                ("id", id.serialize()),
            ]),
            Request::Cancel { id } => Value::obj([
                ("type", Value::Str("cancel".into())),
                ("id", id.serialize()),
            ]),
            Request::Resume { id } => Value::obj([
                ("type", Value::Str("resume".into())),
                ("id", id.serialize()),
            ]),
            Request::Shutdown { mode } => Value::obj([
                ("type", Value::Str("shutdown".into())),
                ("mode", Value::Str(mode.as_str().into())),
            ]),
        }
    }
}

impl Deserialize for Request {
    fn deserialize(v: &Value) -> Result<Request, serde::Error> {
        let tag = String::deserialize(v.require("type")?)?;
        match tag.as_str() {
            "submit" => Ok(Request::Submit {
                spec: SweepSpec::deserialize(v.require("spec")?)?,
                backend: match v.get("backend") {
                    None | Some(Value::Null) => BackendChoice::InProcess,
                    Some(b) => BackendChoice::deserialize(b)?,
                },
            }),
            "status" => Ok(Request::Status {
                id: match v.get("id") {
                    None | Some(Value::Null) => None,
                    Some(id) => Some(u64::deserialize(id)?),
                },
            }),
            "events" => Ok(Request::Events {
                id: u64::deserialize(v.require("id")?)?,
            }),
            "cancel" => Ok(Request::Cancel {
                id: u64::deserialize(v.require("id")?)?,
            }),
            "resume" => Ok(Request::Resume {
                id: u64::deserialize(v.require("id")?)?,
            }),
            "shutdown" => {
                let mode = String::deserialize(v.require("mode")?)?;
                Ok(Request::Shutdown {
                    mode: ShutdownMode::parse(&mode).ok_or_else(|| {
                        serde::Error::new(format!("unknown shutdown mode {mode:?}"))
                    })?,
                })
            }
            other => Err(serde::Error::new(format!("unknown request {other:?}"))),
        }
    }
}

impl Serialize for CampaignStatus {
    fn serialize(&self) -> Value {
        let mut fields = vec![
            ("id", self.id.serialize()),
            ("name", self.name.serialize()),
            ("state", Value::Str(self.state.as_str().into())),
            ("cells", self.cells.serialize()),
            ("rows", self.rows.serialize()),
        ];
        if let Some(error) = &self.error {
            fields.push(("error", error.serialize()));
        }
        Value::obj(fields)
    }
}

impl Deserialize for CampaignStatus {
    fn deserialize(v: &Value) -> Result<CampaignStatus, serde::Error> {
        let state = String::deserialize(v.require("state")?)?;
        Ok(CampaignStatus {
            id: u64::deserialize(v.require("id")?)?,
            name: String::deserialize(v.require("name")?)?,
            state: CampaignState::parse(&state)
                .ok_or_else(|| serde::Error::new(format!("unknown campaign state {state:?}")))?,
            cells: usize::deserialize(v.require("cells")?)?,
            rows: usize::deserialize(v.require("rows")?)?,
            error: match v.get("error") {
                None | Some(Value::Null) => None,
                Some(e) => Some(String::deserialize(e)?),
            },
        })
    }
}

impl Serialize for ServerStatus {
    fn serialize(&self) -> Value {
        Value::obj([
            ("running", self.running.serialize()),
            ("queued", self.queued.serialize()),
            ("max_running", self.max_running.serialize()),
            ("max_queued", self.max_queued.serialize()),
            ("max_cells", self.max_cells.serialize()),
            ("submissions", self.submissions.serialize()),
            ("admission_rejected", self.admission_rejected.serialize()),
            ("quota_rejected", self.quota_rejected.serialize()),
            ("completed", self.completed.serialize()),
            ("failed", self.failed.serialize()),
            ("cancelled", self.cancelled.serialize()),
            ("cells_computed", self.cells_computed.serialize()),
            ("cells_memory_hits", self.cells_memory_hits.serialize()),
            ("cells_disk_hits", self.cells_disk_hits.serialize()),
        ])
    }
}

impl Deserialize for ServerStatus {
    fn deserialize(v: &Value) -> Result<ServerStatus, serde::Error> {
        Ok(ServerStatus {
            running: usize::deserialize(v.require("running")?)?,
            queued: usize::deserialize(v.require("queued")?)?,
            max_running: usize::deserialize(v.require("max_running")?)?,
            max_queued: usize::deserialize(v.require("max_queued")?)?,
            max_cells: Option::<usize>::deserialize(v.get("max_cells").unwrap_or(&Value::Null))?,
            submissions: u64::deserialize(v.require("submissions")?)?,
            admission_rejected: u64::deserialize(v.require("admission_rejected")?)?,
            quota_rejected: u64::deserialize(v.require("quota_rejected")?)?,
            completed: u64::deserialize(v.require("completed")?)?,
            failed: u64::deserialize(v.require("failed")?)?,
            cancelled: u64::deserialize(v.require("cancelled")?)?,
            cells_computed: u64::deserialize(v.require("cells_computed")?)?,
            cells_memory_hits: u64::deserialize(v.require("cells_memory_hits")?)?,
            cells_disk_hits: u64::deserialize(v.require("cells_disk_hits")?)?,
        })
    }
}

impl Serialize for Submitted {
    fn serialize(&self) -> Value {
        Value::obj([
            ("id", self.id.serialize()),
            ("name", self.name.serialize()),
            ("cells", self.cells.serialize()),
            ("references", self.references.serialize()),
            ("queue_depth", self.queue_depth.serialize()),
        ])
    }
}

impl Deserialize for Submitted {
    fn deserialize(v: &Value) -> Result<Submitted, serde::Error> {
        Ok(Submitted {
            id: u64::deserialize(v.require("id")?)?,
            name: String::deserialize(v.require("name")?)?,
            cells: usize::deserialize(v.require("cells")?)?,
            references: usize::deserialize(v.require("references")?)?,
            queue_depth: usize::deserialize(v.require("queue_depth")?)?,
        })
    }
}

impl Serialize for Response {
    fn serialize(&self) -> Value {
        match self {
            Response::Submitted(s) => {
                let mut v = s.serialize();
                if let Value::Obj(m) = &mut v {
                    m.insert("type".into(), Value::Str("submitted".into()));
                }
                v
            }
            Response::Status(report) => Value::obj([
                ("type", Value::Str("status".into())),
                ("server", report.server.serialize()),
                ("campaigns", report.campaigns.serialize()),
            ]),
            Response::Subscribed { id } => Value::obj([
                ("type", Value::Str("subscribed".into())),
                ("id", id.serialize()),
            ]),
            Response::Ack { message } => Value::obj([
                ("type", Value::Str("ack".into())),
                ("message", message.serialize()),
            ]),
            Response::Error { kind, message } => Value::obj([
                ("type", Value::Str("error".into())),
                ("kind", kind.serialize()),
                ("message", message.serialize()),
            ]),
        }
    }
}

impl Deserialize for Response {
    fn deserialize(v: &Value) -> Result<Response, serde::Error> {
        let tag = String::deserialize(v.require("type")?)?;
        match tag.as_str() {
            "submitted" => Ok(Response::Submitted(Submitted::deserialize(v)?)),
            "status" => Ok(Response::Status(StatusReport {
                server: ServerStatus::deserialize(v.require("server")?)?,
                campaigns: Vec::<CampaignStatus>::deserialize(v.require("campaigns")?)?,
            })),
            "subscribed" => Ok(Response::Subscribed {
                id: u64::deserialize(v.require("id")?)?,
            }),
            "ack" => Ok(Response::Ack {
                message: String::deserialize(v.require("message")?)?,
            }),
            "error" => Ok(Response::Error {
                kind: String::deserialize(v.require("kind")?)?,
                message: String::deserialize(v.require("message")?)?,
            }),
            other => Err(serde::Error::new(format!("unknown response {other:?}"))),
        }
    }
}

/// Encode a request as one protocol line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    serde::json::to_string(req)
}

/// Decode one request line.
pub fn decode_request(line: &str) -> Result<Request, String> {
    serde::json::from_str::<Request>(line.trim_end())
        .map_err(|e| format!("bad request {line:?}: {e}"))
}

/// Encode a response as one protocol line (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    serde::json::to_string(resp)
}

/// Decode one response line.
pub fn decode_response(line: &str) -> Result<Response, String> {
    serde::json::from_str::<Response>(line.trim_end())
        .map_err(|e| format!("bad response {line:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> SweepSpec {
        SweepSpec::from_str_auto(
            r#"
            name = "proto"
            pfails = [0.01]
            estimators = ["first-order"]
            reference_trials = 100
            [[dags]]
            kind = "cholesky"
            ks = [2]
            "#,
        )
        .unwrap()
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Submit {
                spec: sample_spec(),
                backend: BackendChoice::InProcess,
            },
            Request::Submit {
                spec: sample_spec(),
                backend: BackendChoice::MultiProcess { workers: 3 },
            },
            Request::Submit {
                spec: sample_spec(),
                backend: BackendChoice::SharedFs {
                    spool: "/tmp/spool".into(),
                },
            },
            Request::Status { id: None },
            Request::Status { id: Some(7) },
            Request::Events { id: 3 },
            Request::Cancel { id: 3 },
            Request::Resume { id: 9 },
            Request::Shutdown {
                mode: ShutdownMode::Drain,
            },
            Request::Shutdown {
                mode: ShutdownMode::Now,
            },
        ];
        for req in &requests {
            let line = encode_request(req);
            assert!(!line.contains('\n'), "one request per line: {line:?}");
            assert_eq!(&decode_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Submitted(Submitted {
                id: 4,
                name: "camp".into(),
                cells: 18,
                references: 6,
                queue_depth: 2,
            }),
            Response::Status(StatusReport {
                server: ServerStatus {
                    running: 1,
                    queued: 2,
                    max_running: 2,
                    max_queued: 16,
                    max_cells: Some(500),
                    submissions: 9,
                    admission_rejected: 1,
                    quota_rejected: 2,
                    completed: 5,
                    failed: 1,
                    cancelled: 1,
                    cells_computed: 18,
                    cells_memory_hits: 36,
                    cells_disk_hits: 0,
                },
                campaigns: vec![CampaignStatus {
                    id: 4,
                    name: "camp".into(),
                    state: CampaignState::Failed,
                    cells: 18,
                    rows: 7,
                    error: Some("disk on fire".into()),
                }],
            }),
            Response::Subscribed { id: 4 },
            Response::Ack {
                message: "cancelled campaign 4".into(),
            },
            Response::Error {
                kind: "quota".into(),
                message: "campaign has 600 cells, quota is 500".into(),
            },
        ];
        for resp in &responses {
            let line = encode_response(resp);
            assert!(!line.contains('\n'), "one response per line: {line:?}");
            assert_eq!(&decode_response(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_request("").is_err());
        assert!(decode_request("{\"type\":\"warp\"}").is_err());
        assert!(decode_request("{\"type\":\"events\"}").is_err());
        assert!(decode_response("{not json").is_err());
        assert!(decode_response("{\"type\":\"warp\"}").is_err());
    }

    #[test]
    fn submit_backend_field_is_optional_on_the_wire() {
        // A v1 submit line (no backend field) decodes to InProcess,
        // and an InProcess submit encodes without the field — the v1
        // wire shape is preserved in both directions.
        let line = encode_request(&Request::Submit {
            spec: sample_spec(),
            backend: BackendChoice::InProcess,
        });
        assert!(!line.contains("backend"), "{line}");
        match decode_request(&line).unwrap() {
            Request::Submit { backend, .. } => assert_eq!(backend, BackendChoice::InProcess),
            other => panic!("expected submit, got {other:?}"),
        }
        let line = encode_request(&Request::Submit {
            spec: sample_spec(),
            backend: BackendChoice::MultiProcess { workers: 2 },
        });
        assert!(line.contains("multi-process"), "{line}");
        let bad = serde::json::parse("{\"kind\":\"warp\"}").unwrap();
        assert!(BackendChoice::deserialize(&bad).is_err());
    }

    #[test]
    fn hit_rate_handles_empty_server() {
        assert_eq!(ServerStatus::default().cache_hit_rate(), 0.0);
        let s = ServerStatus {
            cells_computed: 1,
            cells_memory_hits: 3,
            ..ServerStatus::default()
        };
        assert_eq!(s.cache_hit_rate(), 0.75);
    }

    #[test]
    fn states_and_modes_round_trip() {
        for state in [
            CampaignState::Queued,
            CampaignState::Running,
            CampaignState::Done,
            CampaignState::Failed,
            CampaignState::Cancelled,
        ] {
            assert_eq!(CampaignState::parse(state.as_str()), Some(state));
        }
        assert!(CampaignState::Queued.is_active());
        assert!(CampaignState::Running.is_active());
        assert!(!CampaignState::Done.is_active());
        for mode in [ShutdownMode::Drain, ShutdownMode::Now] {
            assert_eq!(ShutdownMode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(CampaignState::parse("exploded"), None);
        assert_eq!(ShutdownMode::parse("later"), None);
    }
}
