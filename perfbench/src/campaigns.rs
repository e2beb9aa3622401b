//! Driving whole campaigns through the public API: in-process and over
//! a shared-filesystem spool, with the output checks of every run.

use crate::check::rows_match;
use crate::workloads::SpecText;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use stochdag_engine::{
    Campaign, CampaignEvent, CampaignPlan, CsvSink, EstimatorRegistry, FnObserver, JsonlSink,
    MetricsSnapshot, SharedFs, SpoolWorker, SweepOutcome, SweepRow, Telemetry,
};

/// Scratch space inside the checkout, removed when dropped.
pub struct Scratch {
    root: PathBuf,
    next: std::sync::atomic::AtomicUsize,
}

impl Scratch {
    pub fn new(workload: &str) -> std::io::Result<Scratch> {
        let root =
            PathBuf::from(".perfbench-tmp").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: Default::default(),
        })
    }

    /// A fresh, not yet existing directory path.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}

/// Where a campaign executes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `InProcess` with `jobs = 1`.
    InProcess,
    /// `SharedFs` coordinator plus one `SpoolWorker` (jobs 1) on a
    /// harness thread.
    Spool,
}

/// How long a spool worker waits for the campaign before the
/// coordinator posts it (a fifth of the engine's 50 ms spool poll).
const WORKER_HEAD_START: Duration = Duration::from_millis(10);

/// What one finished campaign delivered.
pub struct Finished {
    pub wall: Duration,
    pub outcome: SweepOutcome,
    /// Per estimator id: (cells computed fresh, cells).
    pub computed: BTreeMap<String, (usize, usize)>,
    pub references_computed: usize,
    /// When each `LeaseDone` reached the coordinator.
    pub lease_done: Vec<Instant>,
    /// The campaign's telemetry, when it ran traced.
    pub spans: Option<MetricsSnapshot>,
}

#[derive(Default)]
struct Tally {
    computed: BTreeMap<String, (usize, usize)>,
    references_computed: usize,
    lease_done: Vec<Instant>,
}

/// Time the program's set-up for `spec`: spec parse, `CampaignPlan::new`
/// (DAG generation, trace ingestion, structural hashes) and
/// `Campaign::build`.
pub fn setup_once(spec: &SpecText) -> Result<Duration, String> {
    let t0 = Instant::now();
    let parsed = spec.parse().map_err(|e| e.to_string())?;
    let plan =
        CampaignPlan::new(&parsed, &EstimatorRegistry::standard()).map_err(|e| e.to_string())?;
    let campaign = Campaign::builder(parsed)
        .jobs(1)
        .build()
        .map_err(|e| e.to_string())?;
    let took = t0.elapsed();
    std::hint::black_box((plan.cells(), campaign));
    Ok(took)
}

/// Run one campaign of `spec` on `backend` over a fresh in-memory cache,
/// writing CSV and JSONL into `out` like a user would. Only
/// `Campaign::run` is timed.
pub fn run(
    spec: &SpecText,
    backend: Backend,
    out: &Path,
    telemetry: Option<Telemetry>,
) -> Result<Finished, String> {
    let parsed = spec.parse().map_err(|e| e.to_string())?;
    let tally = Arc::new(Mutex::new(Tally::default()));
    let seen = tally.clone();
    let observer = FnObserver(move |ev: &CampaignEvent| {
        let mut t = seen.lock().expect("tally lock");
        match ev {
            CampaignEvent::Cell { cached, row, .. } => {
                let e = t.computed.entry(row.estimator.clone()).or_default();
                e.0 += usize::from(!cached);
                e.1 += 1;
            }
            CampaignEvent::Reference { cached: false, .. } => t.references_computed += 1,
            CampaignEvent::LeaseDone { .. } => t.lease_done.push(Instant::now()),
            _ => {}
        }
    });
    let io = |e: std::io::Error| e.to_string();
    let mut builder = Campaign::builder(parsed)
        .sink(CsvSink::create(out.join("rows.csv")).map_err(io)?)
        .sink(JsonlSink::create(out.join("rows.jsonl")).map_err(io)?)
        .observer(observer);
    if let Some(t) = &telemetry {
        builder = builder.telemetry(t.clone());
    }
    let spool = out.join("spool");
    let worker = match backend {
        Backend::InProcess => {
            builder = builder.jobs(1);
            None
        }
        Backend::Spool => {
            builder = builder.backend(SharedFs::new(&spool));
            let spool = spool.clone();
            let worker = std::thread::spawn(move || {
                SpoolWorker::new(spool)
                    .name("bench-worker")
                    .jobs(1)
                    .max_wait(Duration::from_secs(60))
                    .run()
            });
            // An already-waiting worker, as on a real host: its first
            // look for the campaign has happened before the coordinator
            // posts it, so both poll loops start in the same phase on
            // every campaign.
            std::thread::sleep(WORKER_HEAD_START);
            Some(worker)
        }
    };
    let campaign = builder.build().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let result = campaign.run();
    let wall = t0.elapsed();
    if let Some(worker) = worker {
        if result.is_err() {
            // A coordinator that failed before posting the campaign
            // leaves the worker waiting; the stop file releases it.
            let _ = std::fs::create_dir_all(&spool);
            let _ = std::fs::write(spool.join("stop"), "abort");
        }
        let summary = worker
            .join()
            .map_err(|_| "spool worker panicked".to_string())?;
        summary.map_err(|e| format!("spool worker: {e}"))?;
    }
    let outcome = result.map_err(|e| e.to_string())?;
    let tally = std::mem::take(&mut *tally.lock().expect("tally lock"));
    Ok(Finished {
        wall,
        outcome,
        computed: tally.computed,
        references_computed: tally.references_computed,
        lease_done: tally.lease_done,
        spans: telemetry.map(|t| t.snapshot()),
    })
}

/// Reference rows: an in-process run of `spec` over a fresh in-memory
/// cache.
pub fn reference_rows(spec: &SpecText) -> Result<Vec<SweepRow>, String> {
    let parsed = spec.parse().map_err(|e| e.to_string())?;
    let outcome = Campaign::builder(parsed)
        .jobs(1)
        .build()
        .and_then(|c| c.run())
        .map_err(|e| format!("reference run of {}: {e}", spec.name))?;
    Ok(outcome.rows)
}

/// The checks every timed campaign passes: rows equal the reference's,
/// and every cell was computed (each campaign starts from a cold cache).
pub fn verify(done: &Finished, want: &[SweepRow]) -> Result<(), String> {
    rows_match(&done.outcome.rows, want)?;
    let o = &done.outcome;
    let got = (o.cells_computed, o.cells_memory_hits, o.cells_disk_hits);
    if got != (o.cells, 0, 0) {
        return Err(format!(
            "cells (computed, memory hits, disk hits) = {got:?}, expected all {} computed",
            o.cells
        ));
    }
    Ok(())
}
