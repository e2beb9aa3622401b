//! # stochdag-serve — resident campaign service
//!
//! A long-running daemon that multiplexes **concurrent clients over
//! one shared result cache and one bounded worker pool**. Where
//! `stochdag sweep` builds a fresh process (and, by default, a fresh
//! cache) per campaign, the service keeps the memory cache tier
//! resident: when several clients sweep overlapping (DAG, pfail,
//! estimator) grids, each cell is computed once and every later
//! campaign gets it as a memory-tier hit.
//!
//! The moving parts:
//!
//! * [`Server`] — binds a loopback TCP listener ([`ServeConfig`]),
//!   admits campaigns through a per-campaign cell quota and a bounded
//!   queue, runs them on a bounded worker pool (workers start on
//!   demand, up to [`max_running`](ServeConfig::max_running)) over
//!   one shared [`ResultCache`](stochdag_engine::ResultCache), and
//!   buffers each campaign's event stream for subscribers. A completed
//!   campaign's buffer is kept until a subscriber has read it in full and
//!   [`max_queued`](ServeConfig::max_queued) newer campaigns have
//!   completed; failed, cancelled and unread campaigns are kept.
//!   Shutdown (request or signal) drains in-flight work and persists
//!   a resume report.
//! * [`protocol`] — the line-delimited JSON request/response
//!   vocabulary ([`Request`]/[`Response`]), sharing the engine's
//!   [`CampaignEvent`](stochdag_engine::CampaignEvent) wire format for
//!   event streams.
//! * [`ServeClient`] — the documented public client API: typed
//!   [`Submitted`]/[`StatusReport`] returns, an [`EventStream`]
//!   iterator of decoded
//!   [`CampaignEvent`](stochdag_engine::CampaignEvent)s from
//!   [`events`](ServeClient::events), per-campaign execution backends
//!   via [`submit_on`](ServeClient::submit_on) ([`BackendChoice`]:
//!   in-process, multi-process, or a cross-host spool directory), and
//!   [`run_to_sinks`](ServeClient::run_to_sinks) replaying a served
//!   event stream through the engine's stream merger — producing
//!   CSV/JSONL **byte-identical** to an in-process run.
//!
//! No runtime, no new dependencies: `std::net` sockets and OS threads,
//! matching the engine's process-based distribution design.
//!
//! ## Quickstart
//!
//! ```
//! use std::thread;
//! use stochdag_engine::{SweepSpec, VecSink, ProgressMode, ResultSink};
//! use stochdag_serve::{Server, ServeClient, ServeConfig, ShutdownMode};
//!
//! let server = Server::bind(ServeConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap().to_string();
//! let handle = server.handle();
//! let daemon = thread::spawn(move || server.run().unwrap());
//!
//! let spec = SweepSpec::from_str_auto(r#"
//!     name = "doc"
//!     pfails = [0.01]
//!     estimators = ["first-order"]
//!     reference_trials = 200
//!     [[dags]]
//!     kind = "cholesky"
//!     ks = [2]
//! "#).unwrap();
//!
//! let client = ServeClient::connect_to(&addr);
//! let ticket = client.submit(&spec).unwrap();
//! let mut rows = VecSink::default();
//! {
//!     let mut sinks: Vec<&mut dyn ResultSink> = vec![&mut rows];
//!     let outcome = client
//!         .run_to_sinks(ticket.id, &mut sinks, ProgressMode::None)
//!         .unwrap();
//!     assert_eq!(outcome.cells, 1);
//! }
//!
//! client.shutdown(ShutdownMode::Drain).unwrap();
//! let report = daemon.join().unwrap();
//! assert_eq!(report.server.completed, 1);
//! # let _ = handle;
//! ```

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{EventStream, ServeClient, ServeError};
pub use protocol::{
    BackendChoice, CampaignState, CampaignStatus, Request, Response, ServerStatus, ShutdownMode,
    StatusReport, Submitted,
};
pub use server::{ServeConfig, ServeHandle, Server, ShutdownReport, UnfinishedCampaign};
