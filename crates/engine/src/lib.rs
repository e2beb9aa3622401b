//! # stochdag-engine — parallel scenario-sweep engine
//!
//! The paper's evaluation is a *campaign*: estimator accuracy measured
//! over grids of (DAG family, size, failure probability) against a
//! Monte-Carlo ground truth. This crate turns that pattern into a
//! declarative, parallel, cached subsystem behind **one facade**:
//!
//! * [`Campaign`] — build with [`Campaign::builder`], configure
//!   typed estimators ([`EstimatorSpec`]), a content-addressed
//!   [`ResultCache`], streaming sinks, observers, and an execution
//!   [`ExecBackend`]; then [`run`](Campaign::run),
//!   [`resume_report`](Campaign::resume_report), or
//!   [`dry_run`](Campaign::dry_run).
//! * [`ExecBackend`] — where cells execute: [`InProcess`]
//!   (work-stealing threads), [`MultiProcess`] (N worker processes
//!   sharing the on-disk cache; a crashed worker's leases are
//!   re-queued for the survivors) or [`SharedFs`] (workers on other
//!   hosts, coordinated through a shared-filesystem spool directory).
//! * [`CampaignObserver`] — one event-subscription API for progress
//!   ([`ProgressReporter`]), custom monitors, and the distributed wire
//!   protocol ([`CampaignEvent`] + [`WireObserver`]).
//! * [`CsvSink`] / [`JsonlSink`] — ordered streaming sinks; re-runs
//!   and every backend produce byte-identical files.
//! * Structured [`EngineError`]s throughout (spec, I/O with paths,
//!   cache, worker, sink-with-cell variants).
//! * [`Telemetry`] — opt-in spans and counters over every phase
//!   (prepare, estimate, cache probes, worker sessions), merged across
//!   backends into a deterministic [`MetricsReport`]; disabled by
//!   default at zero cost.
//!
//! ## Quickstart
//!
//! ```
//! use stochdag_engine::{Campaign, SweepSpec, VecSink};
//!
//! let spec = SweepSpec::from_str_auto(r#"
//!     name = "doc"
//!     pfails = [0.01]
//!     estimators = ["first-order", "sculli"]
//!     reference_trials = 500
//!     [[dags]]
//!     kind = "cholesky"
//!     ks = [2]
//! "#).unwrap();
//!
//! let outcome = Campaign::builder(spec.clone())
//!     .sink(VecSink::default())
//!     .build().unwrap()
//!     .run().unwrap();
//! assert_eq!(outcome.cells, 2); // 1 DAG × 1 pfail × 2 estimators
//! assert!(outcome.rows.iter().all(|r| r.rel_error.abs() < 0.2));
//!
//! // Campaigns sharing a cache skip every finished cell; with the
//! // default in-memory cache each run is independent, so share one:
//! use std::sync::Arc;
//! use stochdag_engine::ResultCache;
//! let cache = Arc::new(ResultCache::in_memory());
//! let first = Campaign::builder(spec.clone()).cache(cache.clone())
//!     .build().unwrap().run().unwrap();
//! let again = Campaign::builder(spec).cache(cache.clone())
//!     .build().unwrap().run().unwrap();
//! assert!(again.fully_cached());
//! assert_eq!(again.rows, first.rows);
//! ```
//!
//! ## Distributed campaigns
//!
//! Swap the backend and nothing else changes. Execution is
//! pull-scheduled: the coordinator expands the spec into a
//! [`CampaignPlan`] of [`WorkLease`] cell batches, loads them into a
//! [`LeaseQueue`], and workers drain batches as they finish — so
//! heterogeneous cell costs balance themselves and a crashed worker's
//! leases are re-queued for the survivors.
//! [`MultiProcess`] spawns N `sweep-worker --leases` processes sharing
//! one on-disk cache, streaming leases over stdin pipes and
//! line-delimited JSON [`CampaignEvent`]s back over stdout;
//! [`SharedFs`] coordinates remote workers through a shared-filesystem
//! spool directory instead of pipes. Either way the campaign core
//! merges the streams into sink output **byte-identical** to an
//! [`InProcess`] run over the same cache — with live progress/ETA from
//! a [`ProgressReporter`]. The `stochdag sweep --workers N` /
//! `sweep --spool DIR` CLI is a thin shell over exactly this.

mod cache;
mod campaign;
mod cancel;
mod error;
mod keys;
mod lease;
mod observer;
mod progress;
mod protocol;
mod registry;
mod runner;
mod sink;
mod spec;
mod spool;
mod telemetry;

pub use cache::{cell_key, CacheGcStats, CacheTier, ResultCache};
pub use campaign::{
    merge_event_streams, BackendContext, Campaign, CampaignBuilder, Deliver, DryRun,
    DryRunInstance, ExecBackend, InProcess, MultiProcess,
};
pub use cancel::CancelToken;
pub use error::EngineError;
pub use keys::StableHasher;
pub use lease::{
    decode_lease, encode_lease, CampaignPlan, LeaseExecutor, LeasePoll, LeaseQueue, WorkLease,
};
pub use observer::{CampaignObserver, FnObserver};
pub use progress::{ProgressMode, ProgressReporter};
pub use protocol::{decode_event, encode_event, CampaignEvent, WireObserver};
pub use registry::EstimatorRegistry;
pub use runner::{ResumeEstimatorReport, ResumeReport, SweepOutcome};
pub use sink::{
    summarize, CsvSink, JsonlSink, Reorderer, ResultSink, SummaryRow, SweepRow, VecSink,
};
pub use spec::{parse_toml, DagInstance, DagSpec, SweepSpec};
pub use spool::{SharedFs, SpoolSummary, SpoolWorker};
pub use telemetry::{
    MetricsReport, MetricsSnapshot, SpanGuard, SpanStat, Telemetry, TelemetrySink,
};
// Re-exported so embedders can construct typed specs without adding a
// stochdag-core dependency.
pub use stochdag_core::EstimatorSpec;
// Re-exported so embedders can describe correlated-failure sweeps and
// inspect scenario support without depending on stochdag-workload or
// stochdag-core directly.
pub use stochdag_core::{ScenarioModel, UnsupportedScenario};
pub use stochdag_workload::ScenarioSpec;
