//! In-tree telemetry: spans, counters, and machine-readable campaign
//! metrics — the observability substrate of the engine.
//!
//! The build container is offline, so (following the `crates/shims/`
//! precedent) this is a tiny dependency-free span/counter core instead
//! of the `tracing` crate: a [`Telemetry`] handle is either *disabled*
//! (the default — every operation is a branch on a `None`, no clock
//! reads, no locks, no allocation) or *enabled* (aggregating span
//! durations and counters behind mutexes, optionally streaming each
//! record to a [`TelemetrySink`]).
//!
//! ## Span glossary
//!
//! | span | where | meaning |
//! |------|-------|---------|
//! | `campaign` | coordinator | whole campaign, build of the report |
//! | `prepare_dag` | lease executor | freezing one `PreparedDag` |
//! | `prepare_estimator` | cell evaluator | one lazy group preparation |
//! | `estimate_cell` | cell evaluator | one estimator cell's computation |
//! | `reference_mc` | cell evaluator | one Monte-Carlo reference's computation |
//! | `cache_probe` | cell evaluator | one cache lookup (any tier) |
//! | `sink_flush` | coordinator | summary + finish of every sink |
//! | `queue_wait` | delivering thread | time one event waits for the merge lock |
//!
//! ## How metrics flow
//!
//! Each lease collects into its own [`Telemetry::child`] of the
//! campaign handle and sends that delta on its
//! [`LeaseDone`](crate::CampaignEvent::LeaseDone) event — in-process
//! via the ordinary delivery callback, from a worker process as part
//! of one wire line, from a spool worker in the lease's event stream.
//! The campaign core merges each delta once per lease id (a re-queued
//! lease counts once, like its cache totals) into the campaign handle,
//! which also records the coordinator-side spans, and hands observers
//! the event without it. The merged result becomes a [`MetricsReport`]
//! (`sweep --metrics-out`), split into a **stable** section
//! (backend-invariant, timestamp-free — snapshot-testable bytes) and a
//! **detail** section (timings, per-phase aggregates, worker
//! bookkeeping).

use crate::cache::CacheTier;
use crate::runner::SweepOutcome;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Schema version of [`MetricsReport::to_json`] output.
const METRICS_SCHEMA_VERSION: u64 = 1;

/// Receives every finished span and counter increment of an enabled
/// [`Telemetry`] handle, as it happens.
///
/// This trait is the **exporter seam**: when networked builds exist, an
/// OTLP (or `tracing`-subscriber) exporter slots in here — implement
/// `TelemetrySink` over the exporter's client, hand it to
/// [`Telemetry::with_sink`], and every span/counter the engine records
/// streams out without touching any instrumentation site. The built-in
/// implementation is the JSONL trace writer behind
/// `sweep --trace-out` ([`Telemetry::with_trace`]).
///
/// Sinks observe records in completion order from whatever thread
/// finished the work; aggregation (if any) is the sink's business —
/// the engine's own aggregates are kept independently and are always
/// available via [`Telemetry::snapshot`].
pub trait TelemetrySink: Send {
    /// One span finished: `name` took `nanos` nanoseconds.
    fn record_span(&mut self, name: &str, nanos: u64);

    /// One counter increment: `name` grew by `delta`.
    fn record_counter(&mut self, name: &str, delta: u64);
}

/// Built-in [`TelemetrySink`]: one JSON object per line —
/// `{"span":NAME,"ns":N}` / `{"counter":NAME,"delta":N}` — flushed per
/// record so a live `tail -f` (or a coordinator reading a pipe) sees
/// spans as they finish.
struct JsonlTrace<W: Write + Send>(W);

impl<W: Write + Send> TelemetrySink for JsonlTrace<W> {
    fn record_span(&mut self, name: &str, nanos: u64) {
        let line = serde::json::to_string(&Value::obj([
            ("span", Value::Str(name.to_string())),
            ("ns", Value::Num(nanos as f64)),
        ]));
        let _ = writeln!(self.0, "{line}").and_then(|()| self.0.flush());
    }

    fn record_counter(&mut self, name: &str, delta: u64) {
        let line = serde::json::to_string(&Value::obj([
            ("counter", Value::Str(name.to_string())),
            ("delta", Value::Num(delta as f64)),
        ]));
        let _ = writeln!(self.0, "{line}").and_then(|()| self.0.flush());
    }
}

serde::codec! {
    lenient;
    /// Aggregate of one span name: how often it ran and for how long.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct SpanStat {
        /// Completions recorded.
        pub count: u64,
        /// Sum of durations, nanoseconds.
        pub total_ns: u64,
        /// Shortest recorded duration, nanoseconds.
        pub min_ns: u64,
        /// Longest recorded duration, nanoseconds.
        pub max_ns: u64,
    }
}

impl SpanStat {
    fn add(&mut self, nanos: u64) {
        if self.count == 0 {
            self.min_ns = nanos;
            self.max_ns = nanos;
        } else {
            self.min_ns = self.min_ns.min(nanos);
            self.max_ns = self.max_ns.max(nanos);
        }
        self.count += 1;
        self.total_ns += nanos;
    }

    fn merge(&mut self, other: &SpanStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

serde::codec! {
    lenient;
    /// A point-in-time copy of a [`Telemetry`] collector's aggregates:
    /// sorted counters plus per-span statistics. This is what a lease's
    /// [`LeaseDone`](crate::CampaignEvent::LeaseDone) carries to the
    /// coordinator and what the detail section of a [`MetricsReport`]
    /// renders.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct MetricsSnapshot {
        /// Counter totals by name (sorted).
        pub counters: BTreeMap<String, u64>,
        /// Span aggregates by name (sorted).
        pub spans: BTreeMap<String, SpanStat>,
    }
}

impl MetricsSnapshot {
    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.spans.is_empty()
    }
}

struct Core {
    counters: Mutex<BTreeMap<String, u64>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
    sink: Option<Arc<Mutex<Box<dyn TelemetrySink>>>>,
}

impl Core {
    fn record_span(&self, name: &str, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.spans
            .lock()
            .expect("telemetry spans")
            .entry(name.to_string())
            .or_default()
            .add(nanos);
        if let Some(sink) = &self.sink {
            sink.lock()
                .expect("telemetry sink")
                .record_span(name, nanos);
        }
    }

    fn count(&self, name: &str, delta: u64) {
        *self
            .counters
            .lock()
            .expect("telemetry counters")
            .entry(name.to_string())
            .or_insert(0) += delta;
        if let Some(sink) = &self.sink {
            sink.lock()
                .expect("telemetry sink")
                .record_counter(name, delta);
        }
    }
}

/// RAII span guard: created by [`Telemetry::span`], records the
/// enclosed duration when dropped. On a disabled handle it is inert —
/// no clock is read on either end.
pub struct SpanGuard<'a> {
    active: Option<(&'a Core, &'static str, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((core, name, t0)) = self.active.take() {
            core.record_span(name, t0.elapsed());
        }
    }
}

/// The telemetry collector handle (see the module docs).
///
/// Cheap to clone (an `Arc` under the hood — clones share one
/// collector) and **zero-cost when disabled**: the default
/// [`Telemetry::disabled`] handle makes every `span`/`count` call a
/// single branch, which is what lets the instrumentation live
/// permanently inside the hot cell-evaluation path.
///
/// Typical embedding:
///
/// ```
/// use stochdag_engine::{Campaign, SweepSpec, Telemetry};
///
/// let spec = SweepSpec::from_str_auto(r#"
///     name = "telemetry-doc"
///     pfails = [0.01]
///     estimators = ["first-order"]
///     reference_trials = 300
///     [[dags]]
///     kind = "cholesky"
///     ks = [2]
/// "#).unwrap();
/// let telemetry = Telemetry::enabled();
/// let outcome = Campaign::builder(spec.clone())
///     .telemetry(telemetry.clone())
///     .build().unwrap()
///     .run().unwrap();
/// let report = telemetry.report(&spec.name, &outcome);
/// assert!(report.to_json().contains("\"estimate_cell\""));
/// ```
#[derive(Clone, Default)]
pub struct Telemetry {
    core: Option<Arc<Core>>,
}

impl Telemetry {
    /// The inert handle: every operation is a no-op (no clock reads,
    /// no locks). This is the default on every campaign.
    pub fn disabled() -> Telemetry {
        Telemetry { core: None }
    }

    /// An enabled collector with no sink (aggregates only).
    pub fn enabled() -> Telemetry {
        Telemetry {
            core: Some(Arc::new(Core {
                counters: Mutex::new(BTreeMap::new()),
                spans: Mutex::new(BTreeMap::new()),
                sink: None,
            })),
        }
    }

    /// An enabled collector streaming every record to `sink` (the
    /// OTLP/`tracing` exporter seam — see [`TelemetrySink`]).
    pub fn with_sink(sink: Box<dyn TelemetrySink>) -> Telemetry {
        Telemetry {
            core: Some(Arc::new(Core {
                counters: Mutex::new(BTreeMap::new()),
                spans: Mutex::new(BTreeMap::new()),
                sink: Some(Arc::new(Mutex::new(sink))),
            })),
        }
    }

    /// An enabled collector streaming a JSONL trace to `writer` —
    /// one `{"span":…,"ns":…}` / `{"counter":…,"delta":…}` object per
    /// line, flushed per record (the engine behind
    /// `sweep --trace-out`).
    pub fn with_trace(writer: Box<dyn Write + Send>) -> Telemetry {
        Telemetry::with_sink(Box::new(JsonlTrace(writer)))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// A child collector: enabled iff `self` is, with **fresh**
    /// aggregates but the **shared** sink. Each lease collects into a
    /// child so its totals can cross to the coordinator as one
    /// [`MetricsSnapshot`] and be merged exactly once — identically for
    /// in-process, worker-process and spool leases.
    pub fn child(&self) -> Telemetry {
        match &self.core {
            None => Telemetry::disabled(),
            Some(core) => Telemetry {
                core: Some(Arc::new(Core {
                    counters: Mutex::new(BTreeMap::new()),
                    spans: Mutex::new(BTreeMap::new()),
                    sink: core.sink.clone(),
                })),
            },
        }
    }

    /// Open a span; the returned guard records the duration on drop.
    /// Inert (no clock read) when disabled.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            active: self
                .core
                .as_deref()
                .map(|core| (core, name, Instant::now())),
        }
    }

    /// Record an externally-timed span completion (used where a
    /// duration is already measured for other purposes, so enabling
    /// telemetry adds no second clock read).
    pub fn record_span_duration(&self, name: &'static str, elapsed: Duration) {
        if let Some(core) = &self.core {
            core.record_span(name, elapsed);
        }
    }

    /// Increment a counter.
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(core) = &self.core {
            core.count(name, delta);
        }
    }

    /// Copy out the current aggregates (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.core {
            None => MetricsSnapshot::default(),
            Some(core) => MetricsSnapshot {
                counters: core.counters.lock().expect("telemetry counters").clone(),
                spans: core.spans.lock().expect("telemetry spans").clone(),
            },
        }
    }

    /// Fold another collector's snapshot into this one (how worker
    /// snapshots accumulate into the campaign total). No-op when
    /// disabled.
    pub fn merge(&self, snapshot: &MetricsSnapshot) {
        let Some(core) = &self.core else {
            return;
        };
        {
            let mut counters = core.counters.lock().expect("telemetry counters");
            for (name, delta) in &snapshot.counters {
                *counters.entry(name.clone()).or_insert(0) += delta;
            }
        }
        let mut spans = core.spans.lock().expect("telemetry spans");
        for (name, stat) in &snapshot.spans {
            spans.entry(name.clone()).or_default().merge(stat);
        }
    }

    /// Record a cache-lookup outcome under a phase prefix (`reference`
    /// or `cell`): one of `<phase>_memory_hits`, `<phase>_disk_hits`,
    /// `<phase>_computed`.
    pub(crate) fn count_lookup(&self, phase: &'static str, tier: Option<CacheTier>) {
        if self.core.is_none() {
            return;
        }
        let suffix = match tier {
            Some(CacheTier::Memory) => "memory_hits",
            Some(CacheTier::Disk) => "disk_hits",
            None => "computed",
        };
        self.count(&format!("{phase}_{suffix}"), 1);
    }

    /// Assemble the per-campaign [`MetricsReport`] from this handle's
    /// merged aggregates plus the finished outcome's backend-invariant
    /// totals.
    pub fn report(&self, campaign: &str, outcome: &SweepOutcome) -> MetricsReport {
        let snapshot = self.snapshot();
        let errors_by_kind = snapshot
            .counters
            .iter()
            .filter_map(|(name, &v)| {
                name.strip_prefix("errors_")
                    .map(|kind| (kind.to_string(), v))
            })
            .collect();
        MetricsReport {
            campaign: campaign.to_string(),
            cells_total: outcome.cells,
            cells_computed: outcome.cells_computed,
            cells_memory_hits: outcome.cells_memory_hits,
            cells_disk_hits: outcome.cells_disk_hits,
            rows_emitted: outcome.rows.len(),
            estimator_cells: outcome
                .summary
                .iter()
                .map(|s| (s.estimator.clone(), s.cells))
                .collect(),
            wall_s: outcome.wall.as_secs_f64(),
            errors_by_kind,
            snapshot,
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// The machine-readable per-campaign report behind
/// `sweep --metrics-out` (see [`Telemetry::report`]).
///
/// [`to_json`](MetricsReport::to_json) renders two sections:
///
/// * `stable` — backend-invariant and timestamp-free: identical bytes
///   for the same campaign over equivalent cache state, whether run
///   in-process or over any number of worker processes (cells are
///   deduplicated by global index, so per-worker duplication of shared
///   references never leaks in). This is the snapshot-testable part.
/// * `detail` — execution-dependent: merged span timings, per-phase
///   counters (reference lookups are per worker, so totals vary with
///   the worker count), worker spawn/retry bookkeeping, wall time,
///   and failure tallies by [`EngineError`](crate::EngineError) kind.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsReport {
    /// Campaign name.
    pub campaign: String,
    /// Total estimator cells.
    pub cells_total: usize,
    /// Cells computed fresh (not served from any cache tier).
    pub cells_computed: usize,
    /// Cells served from the in-memory cache tier.
    pub cells_memory_hits: usize,
    /// Cells served from the on-disk cache tier.
    pub cells_disk_hits: usize,
    /// Rows delivered to the sinks.
    pub rows_emitted: usize,
    /// Cells per canonical estimator id.
    pub estimator_cells: BTreeMap<String, usize>,
    /// Campaign wall-clock seconds (detail section).
    pub wall_s: f64,
    /// Failure tallies by [`EngineError`](crate::EngineError) kind
    /// (worker `error` events observed, including attempts whose leases
    /// a re-queue later completed).
    pub errors_by_kind: BTreeMap<String, u64>,
    /// Merged span/counter aggregates (detail section).
    pub snapshot: MetricsSnapshot,
}

impl MetricsReport {
    fn stable_value(&self) -> Value {
        Value::obj([
            (
                "cells",
                Value::obj([
                    ("total", self.cells_total.serialize()),
                    ("computed", self.cells_computed.serialize()),
                    ("memory_hits", self.cells_memory_hits.serialize()),
                    ("disk_hits", self.cells_disk_hits.serialize()),
                ]),
            ),
            ("estimator_cells", self.estimator_cells.serialize()),
            ("rows_emitted", self.rows_emitted.serialize()),
        ])
    }

    /// The full report as deterministic-key-order JSON (keys sorted;
    /// the `stable` section additionally has deterministic values).
    pub fn to_json(&self) -> String {
        serde::json::to_string(&Value::obj([
            ("campaign", Value::Str(self.campaign.clone())),
            ("schema_version", METRICS_SCHEMA_VERSION.serialize()),
            ("stable", self.stable_value()),
            (
                "detail",
                Value::obj([
                    ("errors_by_kind", self.errors_by_kind.serialize()),
                    ("telemetry", self.snapshot.serialize()),
                    ("wall_s", self.wall_s.serialize()),
                ]),
            ),
        ]))
    }

    /// Only the backend-invariant `stable` section, as JSON — the
    /// byte-comparable portion (no timings, no timestamps, cells
    /// deduplicated by global index).
    pub fn stable_json(&self) -> String {
        serde::json::to_string(&self.stable_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        {
            let _s = t.span("estimate_cell");
        }
        t.count("rows", 3);
        t.record_span_duration("campaign", Duration::from_millis(5));
        assert!(t.snapshot().is_empty());
        assert!(!t.child().is_enabled());
    }

    #[test]
    fn spans_and_counters_aggregate() {
        let t = Telemetry::enabled();
        for _ in 0..3 {
            let _s = t.span("estimate_cell");
        }
        t.record_span_duration("campaign", Duration::from_micros(250));
        t.count("rows", 2);
        t.count("rows", 1);
        let snap = t.snapshot();
        assert_eq!(snap.counters["rows"], 3);
        assert_eq!(snap.spans["estimate_cell"].count, 3);
        assert_eq!(snap.spans["campaign"].total_ns, 250_000);
        assert_eq!(snap.spans["campaign"].min_ns, 250_000);
    }

    #[test]
    fn clones_share_and_children_do_not() {
        let t = Telemetry::enabled();
        let shared = t.clone();
        shared.count("a", 1);
        assert_eq!(t.snapshot().counters["a"], 1);

        let child = t.child();
        assert!(child.is_enabled());
        child.count("b", 5);
        assert!(!t.snapshot().counters.contains_key("b"));
        t.merge(&child.snapshot());
        assert_eq!(t.snapshot().counters["b"], 5);
    }

    #[test]
    fn merge_combines_span_extremes() {
        let a = Telemetry::enabled();
        a.record_span_duration("cache_probe", Duration::from_nanos(100));
        let b = Telemetry::enabled();
        b.record_span_duration("cache_probe", Duration::from_nanos(10));
        b.record_span_duration("cache_probe", Duration::from_nanos(500));
        a.merge(&b.snapshot());
        let s = a.snapshot().spans["cache_probe"];
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 610);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 500);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let t = Telemetry::enabled();
        t.count("references_computed", 12);
        t.record_span_duration("prepare_dag", Duration::from_nanos(42));
        let snap = t.snapshot();
        let text = serde::json::to_string(&snap);
        let back = serde::json::from_str::<MetricsSnapshot>(&text).unwrap();
        assert_eq!(back, snap);
        assert!(serde::json::from_str::<MetricsSnapshot>("{\"counters\":{}}").is_err());
    }

    #[test]
    fn trace_sink_receives_flushed_jsonl() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf::default();
        let t = Telemetry::with_trace(Box::new(buf.clone()));
        t.record_span_duration("sink_flush", Duration::from_nanos(7));
        t.count("worker_spawns", 2);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"ns\":7,\"span\":\"sink_flush\"}");
        assert_eq!(lines[1], "{\"counter\":\"worker_spawns\",\"delta\":2}");
        // Children stream to the same trace.
        t.child().count("x", 1);
        assert!(buf.0.lock().unwrap().len() > text.len());
    }
}
