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
//!
//! Requests are strict: a request line with a key its type does not
//! read (`{"type":"status","idd":9}`) is refused with kind `protocol`,
//! naming the key and the accepted ones, rather than run on the
//! default of the key it meant; the spec it carries is strict too.
//! Responses are lenient: a client ignores keys it does not read, so
//! a newer daemon may add some.

use stochdag_engine::SweepSpec;

serde::codec! {
    strict "backend", tag "kind";
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
        InProcess = "in-process",
        /// `workers` lease-pulling `sweep-worker` child processes sharing
        /// the daemon's on-disk cache.
        MultiProcess = "multi-process" {
            /// Worker process count (must be positive).
            workers: usize,
        },
        /// Cross-host execution through a shared-filesystem spool
        /// directory; remote `sweep-worker --spool` processes do the work.
        SharedFs = "shared-fs" {
            /// Spool directory (must be empty; shared with the workers).
            spool: String,
        },
    }
}

serde::codec! {
    strict "request", tag "type";
    /// One client request (see the module table).
    #[derive(Clone, Debug, PartialEq)]
    pub enum Request {
        /// Submit a campaign spec for execution. The spec's `jobs` caps
        /// this campaign's threads only; admission control and the
        /// per-campaign cell quota apply before the campaign is queued.
        Submit = "submit" {
            /// The campaign to run (same spec model as `sweep --spec`).
            spec: SweepSpec,
            /// Execution backend for this campaign; `InProcess` is the
            /// wire default (the field is omitted when encoding it).
            #[serde(omit_default)]
            backend: BackendChoice = BackendChoice::InProcess,
        },
        /// Report one campaign (`id` set) or the whole server (`id`
        /// unset): every campaign plus pool/cache/admission statistics.
        Status = "status" {
            /// Campaign to report, or `None` for everything.
            #[serde(omit_default)]
            id: Option<u64> = None,
        },
        /// Subscribe to a campaign's event stream. Events already emitted
        /// are replayed first (a subscriber never misses the prefix), then
        /// live events follow; the server closes the connection after the
        /// final event. A retired campaign answers with a `state` error.
        Events = "events" {
            /// Campaign to subscribe to.
            id: u64,
        },
        /// Cancel a campaign. Queued campaigns never start; running ones
        /// stop cooperatively at the next cell boundary (finished cells
        /// stay in the shared cache).
        Cancel = "cancel" {
            /// Campaign to cancel.
            id: u64,
        },
        /// Re-submit the spec of a failed or cancelled campaign as a new
        /// campaign. Execution is cache-first over the shared cache, so
        /// the new run recomputes only what the old one never finished.
        Resume = "resume" {
            /// The failed/cancelled campaign whose spec to re-submit.
            id: u64,
        },
        /// Stop the server. `Drain` refuses new work, cancels queued
        /// campaigns, and lets running ones finish; `Now` also cancels
        /// running campaigns at their next cell boundary. Either way the
        /// server persists a shutdown report before exiting.
        Shutdown = "shutdown" {
            /// How urgently to stop.
            mode: ShutdownMode,
        },
    }
}

serde::codec! {
    /// How a [`Request::Shutdown`] stops the server.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum ShutdownMode {
        /// Refuse new work, cancel the queue, finish running campaigns.
        Drain = "drain",
        /// Also cancel running campaigns at their next cell boundary.
        Now = "now",
    }
}

serde::codec! {
    /// Lifecycle state of a submitted campaign.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum CampaignState {
        /// Admitted, waiting for a pool slot.
        Queued = "queued",
        /// Executing on the shared worker pool.
        Running = "running",
        /// Finished successfully; the full event stream is replayable
        /// until the daemon retires the campaign (see
        /// [`ServeConfig::max_queued`](crate::ServeConfig::max_queued)).
        Done = "done",
        /// Failed with an engine error (carried in the status row and as
        /// the final `error` event of the stream).
        Failed = "failed",
        /// Cancelled before or during execution.
        Cancelled = "cancelled",
    }
}

impl CampaignState {
    /// Whether the campaign can still make progress.
    pub fn is_active(self) -> bool {
        matches!(self, CampaignState::Queued | CampaignState::Running)
    }
}

serde::codec! {
    lenient;
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
}

serde::codec! {
    lenient;
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
        #[serde(omit_default)]
        pub error: Option<String> = None,
    }
}

serde::codec! {
    lenient;
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
        pub max_cells: Option<usize> = None,
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

serde::codec! {
    lenient;
    /// A full status report: server statistics plus campaign rows
    /// (all campaigns, or just the requested one), sorted by id.
    #[derive(Clone, Debug, PartialEq)]
    pub struct StatusReport {
        /// Whole-server statistics.
        pub server: ServerStatus,
        /// Campaign rows, ascending by id.
        pub campaigns: Vec<CampaignStatus>,
    }
}

serde::codec! {
    lenient "response", tag "type";
    /// One server response (see the module table).
    #[derive(Clone, Debug, PartialEq)]
    pub enum Response {
        /// The campaign was admitted and queued.
        Submitted = "submitted" (Submitted),
        /// Status report for `status`.
        Status = "status" (StatusReport),
        /// `events` accepted; raw [`CampaignEvent`] lines follow until the
        /// server closes the connection.
        ///
        /// [`CampaignEvent`]: stochdag_engine::CampaignEvent
        Subscribed = "subscribed" {
            /// The subscribed campaign.
            id: u64,
        },
        /// `cancel`/`shutdown` acknowledgement.
        Ack = "ack" {
            /// What the server did.
            message: String,
        },
        /// The request was refused; `kind` is stable and machine-readable
        /// (see the module docs for the vocabulary).
        Error = "error" {
            /// Stable error kind.
            kind: String,
            /// Human-readable description.
            message: String,
        },
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
    use serde::Deserialize;

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
