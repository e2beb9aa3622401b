//! Structured engine errors.
//!
//! Everything the engine can fail on, as a typed enum instead of bare
//! `String`s: spec/configuration problems, filesystem and stream I/O
//! (with the offending path), cache maintenance, worker processes, and
//! result sinks (with the owning cell when one is known). Every
//! [`Campaign`](crate::Campaign) method returns the typed error;
//! `From<EngineError> for String` keeps string-error embedders (the
//! CLI's command layer) compiling without a mapping dance.

use std::fmt;

/// A structured engine failure (see the crate docs).
#[derive(Debug)]
pub enum EngineError {
    /// The spec or configuration is invalid (unknown estimator, empty
    /// axes, malformed TOML/JSON, bad knob value, …).
    Spec {
        /// What was wrong.
        message: String,
    },
    /// Filesystem or stream I/O failed.
    Io {
        /// What was being done, naming the offending path when known
        /// (e.g. `"reading spec /tmp/campaign.toml"`).
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// Result-cache maintenance failed (GC, scan).
    Cache {
        /// What was wrong.
        message: String,
    },
    /// A worker failed, or its event stream broke the protocol.
    Worker {
        /// Worker slot, when the failure is attributable to one.
        worker: Option<usize>,
        /// What was wrong.
        message: String,
    },
    /// A result sink rejected output.
    Sink {
        /// The cell being written (`"dag / model / estimator"`), when
        /// the failure happened on a specific row.
        cell: Option<String>,
        /// What was wrong.
        message: String,
    },
    /// The run was cancelled via its
    /// [`CancelToken`](crate::CancelToken) before completing. Cells
    /// that finished before the stop are in the cache; re-running the
    /// same spec over the same cache resumes from them.
    Cancelled,
}

impl EngineError {
    /// Spec/configuration error.
    pub fn spec(message: impl Into<String>) -> EngineError {
        EngineError::Spec {
            message: message.into(),
        }
    }

    /// I/O error with a context line (name the path in `context`).
    pub fn io(context: impl Into<String>, source: std::io::Error) -> EngineError {
        EngineError::Io {
            context: context.into(),
            source,
        }
    }

    /// Cache-maintenance error.
    pub fn cache(message: impl Into<String>) -> EngineError {
        EngineError::Cache {
            message: message.into(),
        }
    }

    /// Worker error, optionally attributed to one worker slot.
    pub fn worker(worker: impl Into<Option<usize>>, message: impl Into<String>) -> EngineError {
        EngineError::Worker {
            worker: worker.into(),
            message: message.into(),
        }
    }

    /// Sink error, optionally attributed to one cell.
    pub fn sink(cell: impl Into<Option<String>>, message: impl Into<String>) -> EngineError {
        EngineError::Sink {
            cell: cell.into(),
            message: message.into(),
        }
    }

    /// Cancellation error (see [`CancelToken`](crate::CancelToken)).
    pub fn cancelled() -> EngineError {
        EngineError::Cancelled
    }

    /// Stable machine-readable kind of this error — the value carried
    /// in the wire `error` event's `kind` field and the key of the
    /// metrics report's failure tallies (`errors_by_kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            EngineError::Spec { .. } => "spec",
            EngineError::Io { .. } => "io",
            EngineError::Cache { .. } => "cache",
            EngineError::Worker { .. } => "worker",
            EngineError::Sink { .. } => "sink",
            EngineError::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Spec { message } => f.write_str(message),
            EngineError::Io { context, source } => write!(f, "{context}: {source}"),
            EngineError::Cache { message } => write!(f, "cache: {message}"),
            EngineError::Worker { worker, message } => match worker {
                Some(w) => write!(f, "worker {w}: {message}"),
                None => f.write_str(message),
            },
            EngineError::Sink { cell, message } => match cell {
                Some(cell) => write!(f, "sink ({cell}): {message}"),
                None => write!(f, "sink: {message}"),
            },
            EngineError::Cancelled => f.write_str("campaign cancelled"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Legacy bridge: the old `Result<_, String>` entry points (and the
/// CLI's error plumbing) keep working via `?` on engine results.
impl From<EngineError> for String {
    fn from(e: EngineError) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = EngineError::io(
            "reading spec /tmp/x.toml",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        let s = e.to_string();
        assert!(s.contains("/tmp/x.toml") && s.contains("gone"), "{s}");

        let e = EngineError::worker(3, "exploded");
        assert_eq!(e.to_string(), "worker 3: exploded");
        let e = EngineError::worker(None, "exploded");
        assert_eq!(e.to_string(), "exploded");

        let e = EngineError::sink("lu:k=2 / pfail=0.01 / sculli".to_string(), "disk full");
        assert!(e.to_string().contains("lu:k=2"), "{e}");

        let s: String = EngineError::spec("bad axis").into();
        assert_eq!(s, "bad axis");
    }

    #[test]
    fn kinds_are_stable_names() {
        assert_eq!(EngineError::spec("x").kind(), "spec");
        assert_eq!(
            EngineError::io("x", std::io::Error::other("boom")).kind(),
            "io"
        );
        assert_eq!(EngineError::cache("x").kind(), "cache");
        assert_eq!(EngineError::worker(1, "x").kind(), "worker");
        assert_eq!(EngineError::sink(None, "x").kind(), "sink");
        assert_eq!(EngineError::cancelled().kind(), "cancelled");
        assert_eq!(EngineError::cancelled().to_string(), "campaign cancelled");
    }

    #[test]
    fn io_errors_expose_their_source() {
        use std::error::Error;
        let e = EngineError::io("x", std::io::Error::other("boom"));
        assert!(e.source().is_some());
        assert!(EngineError::spec("y").source().is_none());
    }
}
