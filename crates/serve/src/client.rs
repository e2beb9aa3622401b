//! Blocking client for the campaign service.
//!
//! [`ServeClient`] speaks the [`protocol`](crate::protocol) over plain
//! TCP: one connection per request, one JSON line each way. The
//! high-level [`ServeClient::run_to_sinks`] subscribes to a campaign's
//! event stream — the whole campaign's log, opening with its `plan` —
//! and replays it through the engine's [`merge_event_streams`], so the
//! files it writes are byte-identical to an in-process
//! [`Campaign::run`] over the same cache.
//!
//! [`Campaign::run`]: stochdag_engine::Campaign::run

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use stochdag_engine::{
    decode_event, merge_event_streams, CampaignEvent, EngineError, ProgressMode, ProgressReporter,
    ResultSink, SweepOutcome, SweepSpec,
};

use crate::protocol::{
    decode_response, encode_request, BackendChoice, Request, Response, ShutdownMode, StatusReport,
    Submitted,
};

/// A failed service interaction: transport problems, protocol
/// violations, and structured server-side refusals all normalise to a
/// stable `kind` plus a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeError {
    /// Stable machine-readable kind — a protocol error kind
    /// (`"quota"`, `"admission"`, `"unknown-id"`, `"state"`,
    /// `"protocol"`), an engine error kind, or `"io"` for transport
    /// failures.
    pub kind: String,
    /// Human-readable description.
    pub message: String,
}

impl ServeError {
    fn io(context: &str, e: std::io::Error) -> ServeError {
        ServeError {
            kind: "io".into(),
            message: format!("{context}: {e}"),
        }
    }

    fn protocol(message: impl Into<String>) -> ServeError {
        ServeError {
            kind: "protocol".into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.kind)
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> ServeError {
        ServeError {
            kind: e.kind().to_string(),
            message: e.to_string(),
        }
    }
}

impl From<ServeError> for String {
    fn from(e: ServeError) -> String {
        e.to_string()
    }
}

/// Client handle for one daemon address. Cheap to construct; every
/// request opens its own short-lived connection.
#[derive(Clone, Debug)]
pub struct ServeClient {
    addr: String,
}

impl ServeClient {
    /// Target a daemon at `addr` (e.g. `"127.0.0.1:7677"`).
    pub fn connect_to(addr: impl Into<String>) -> ServeClient {
        ServeClient { addr: addr.into() }
    }

    /// The daemon address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Open a connection, send one request line, and return the
    /// stream positioned after it plus a reader for responses.
    fn send(&self, request: &Request) -> Result<(TcpStream, BufReader<TcpStream>), ServeError> {
        let mut stream = TcpStream::connect(&self.addr)
            .map_err(|e| ServeError::io(&format!("connect {}", self.addr), e))?;
        let line = encode_request(request);
        stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .map_err(|e| ServeError::io("send request", e))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| ServeError::io("clone stream", e))?,
        );
        Ok((stream, reader))
    }

    /// Send one request and read its single response line.
    fn round_trip(&self, request: &Request) -> Result<Response, ServeError> {
        let (_stream, mut reader) = self.send(request)?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| ServeError::io("read response", e))?;
        if line.trim().is_empty() {
            return Err(ServeError::protocol("server closed without a response"));
        }
        match decode_response(&line).map_err(ServeError::protocol)? {
            Response::Error { kind, message } => Err(ServeError { kind, message }),
            response => Ok(response),
        }
    }

    /// Submit a campaign spec on the daemon's default in-process
    /// backend; returns the admission receipt.
    pub fn submit(&self, spec: &SweepSpec) -> Result<Submitted, ServeError> {
        self.submit_on(spec, BackendChoice::InProcess)
    }

    /// Submit a campaign spec on an explicit execution backend
    /// (in-process, multi-process, or a cross-host spool directory
    /// reachable from the daemon's host).
    pub fn submit_on(
        &self,
        spec: &SweepSpec,
        backend: BackendChoice,
    ) -> Result<Submitted, ServeError> {
        match self.round_trip(&Request::Submit {
            spec: spec.clone(),
            backend,
        })? {
            Response::Submitted(s) => Ok(s),
            other => Err(ServeError::protocol(format!(
                "expected submitted, got {other:?}"
            ))),
        }
    }

    /// Fetch a status report: one campaign (`Some(id)`) or everything.
    pub fn status(&self, id: Option<u64>) -> Result<StatusReport, ServeError> {
        match self.round_trip(&Request::Status { id })? {
            Response::Status(report) => Ok(report),
            other => Err(ServeError::protocol(format!(
                "expected status, got {other:?}"
            ))),
        }
    }

    /// Cancel a campaign; returns the server's acknowledgement.
    pub fn cancel(&self, id: u64) -> Result<String, ServeError> {
        match self.round_trip(&Request::Cancel { id })? {
            Response::Ack { message } => Ok(message),
            other => Err(ServeError::protocol(format!("expected ack, got {other:?}"))),
        }
    }

    /// Re-submit a failed or cancelled campaign's spec (cache-first,
    /// so only unfinished cells recompute).
    pub fn resume(&self, id: u64) -> Result<Submitted, ServeError> {
        match self.round_trip(&Request::Resume { id })? {
            Response::Submitted(s) => Ok(s),
            other => Err(ServeError::protocol(format!(
                "expected submitted, got {other:?}"
            ))),
        }
    }

    /// Ask the daemon to shut down; returns the acknowledgement.
    pub fn shutdown(&self, mode: ShutdownMode) -> Result<String, ServeError> {
        match self.round_trip(&Request::Shutdown { mode })? {
            Response::Ack { message } => Ok(message),
            other => Err(ServeError::protocol(format!("expected ack, got {other:?}"))),
        }
    }

    /// Subscribe to a campaign's event stream as typed
    /// [`CampaignEvent`]s — the full stream from the beginning,
    /// however late the subscription (until the daemon retires the
    /// completed campaign: then a `state` error); the iterator ends
    /// when the campaign finishes. A campaign that failed (or was cancelled)
    /// ends its stream with a [`CampaignEvent::Error`] item; transport
    /// or decode problems surface as `Err` items and end the stream.
    pub fn events(&self, id: u64) -> Result<EventStream, ServeError> {
        Ok(EventStream {
            reader: self.events_raw(id)?,
            done: false,
        })
    }

    /// The raw subscription reader (one encoded event per line) —
    /// exactly what [`merge_event_streams`] consumes.
    fn events_raw(&self, id: u64) -> Result<BufReader<TcpStream>, ServeError> {
        let (_stream, mut reader) = self.send(&Request::Events { id })?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| ServeError::io("read subscribe ack", e))?;
        match decode_response(&line).map_err(ServeError::protocol)? {
            Response::Subscribed { .. } => Ok(reader),
            Response::Error { kind, message } => Err(ServeError { kind, message }),
            other => Err(ServeError::protocol(format!(
                "expected subscribed, got {other:?}"
            ))),
        }
    }

    /// Stream a campaign into local sinks and return its outcome.
    ///
    /// Subscribes to the event stream and replays it through the
    /// engine's [`merge_event_streams`] — the same merge
    /// [`Campaign::run`](stochdag_engine::Campaign::run) applies to its
    /// backend's events — so CSV/JSONL written here is byte-identical
    /// to running the same spec in-process over the same cache. A campaign that failed (or was cancelled) ends its
    /// stream with a structured error event, which surfaces here as
    /// the corresponding [`EngineError`] wrapped in [`ServeError`].
    pub fn run_to_sinks(
        &self,
        id: u64,
        sinks: &mut [&mut dyn ResultSink],
        progress: ProgressMode,
    ) -> Result<SweepOutcome, ServeError> {
        let reader = self.events_raw(id)?;
        let mut progress = ProgressReporter::stderr(progress);
        let outcome = merge_event_streams(reader, sinks, &mut progress)?;
        Ok(outcome)
    }
}

/// A campaign's event subscription as an iterator of decoded
/// [`CampaignEvent`]s (from [`ServeClient::events`]). Yields the full
/// stream from the campaign's beginning and ends when the server
/// closes the subscription; a transport or decode failure yields one
/// `Err` and then ends.
pub struct EventStream {
    reader: BufReader<TcpStream>,
    done: bool,
}

impl Iterator for EventStream {
    type Item = Result<CampaignEvent, ServeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Err(e) => {
                self.done = true;
                Some(Err(ServeError::io("read event stream", e)))
            }
            Ok(0) => {
                self.done = true;
                None
            }
            Ok(_) => match decode_event(&line) {
                Ok(event) => Some(Ok(event)),
                Err(message) => {
                    self.done = true;
                    Some(Err(ServeError::protocol(message)))
                }
            },
        }
    }
}
