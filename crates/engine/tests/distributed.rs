//! Distributed execution invariants, exercised in-process: workers
//! serving disjoint slices ("shards") of a campaign's leases over one
//! disk cache report every cell exactly once and jointly compute
//! exactly what a single-process run would, a logged campaign replays
//! byte-identically, replay rejects broken logs, and the resume report
//! does not depend on the worker count.
//!
//! Exercises the campaign-facade entry points end to end:
//! [`Campaign::serve_leases`] for the worker half and
//! [`merge_event_streams`] for replayed logs.

use std::collections::BTreeSet;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use stochdag_engine::{
    decode_event, encode_event, encode_lease, merge_event_streams, Campaign, CampaignEvent,
    CampaignPlan, CsvSink, EstimatorRegistry, FnObserver, MultiProcess, ProgressReporter,
    ResultCache, ResultSink, SweepOutcome, SweepSpec, WorkLease,
};

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("stochdag_dist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn campaign() -> SweepSpec {
    SweepSpec::from_str_auto(
        r#"
name = "dist"
seed = 11
pfails = [0.01, 0.001]
estimators = ["first-order", "sculli", "mc:600"]
reference_trials = 1500

[[dags]]
kind = "cholesky"
ks = [2, 3]

[[dags]]
kind = "fork-join"
width = 3
depth = 2
"#,
    )
    .unwrap()
}

/// A cloneable in-memory writer, so CSV bytes survive the campaign
/// consuming its sinks.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The plan's leases dealt round-robin into `workers` disjoint slices.
fn lease_slices(spec: &SweepSpec, workers: usize) -> Vec<Vec<WorkLease>> {
    let plan = CampaignPlan::new(spec, &EstimatorRegistry::standard()).unwrap();
    let mut slices = vec![Vec::new(); workers];
    for lease in plan.leases() {
        slices[lease.lease_id % workers].push(lease.clone());
    }
    slices
}

/// Serve `leases` as worker `slot` through the campaign facade — a
/// fresh cache handle over the shared directory, leases fed as stdin
/// lines — collecting the protocol lines its stdout would carry.
fn worker_lines(
    spec: &SweepSpec,
    cache_dir: &Path,
    slot: usize,
    leases: &[WorkLease],
) -> Vec<String> {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = lines.clone();
    let input: String = leases.iter().map(|l| encode_lease(l) + "\n").collect();
    Campaign::builder(spec.clone())
        .cache(Arc::new(ResultCache::on_disk(cache_dir)))
        .observer(FnObserver(move |ev: &CampaignEvent| {
            sink.lock().unwrap().push(encode_event(ev));
        }))
        .build()
        .unwrap()
        .serve_leases(slot, Cursor::new(input))
        .unwrap();
    let out = lines.lock().unwrap().clone();
    out
}

/// Run the whole campaign in-process over `cache_dir`, returning its
/// outcome, its CSV bytes, and its event log.
fn single_run(spec: &SweepSpec, cache_dir: &Path) -> (SweepOutcome, Vec<u8>, Vec<String>) {
    let buf = SharedBuf::default();
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = log.clone();
    let outcome = Campaign::builder(spec.clone())
        .cache(Arc::new(ResultCache::on_disk(cache_dir)))
        .sink(CsvSink::new(buf.clone()))
        .observer(FnObserver(move |ev: &CampaignEvent| {
            sink.lock().unwrap().push(encode_event(ev));
        }))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let log = log.lock().unwrap().clone();
    (outcome, buf.bytes(), log)
}

fn replay(lines: &[String], sinks: &mut [&mut dyn ResultSink]) -> Result<SweepOutcome, String> {
    let log = Cursor::new((lines.join("\n") + "\n").into_bytes());
    merge_event_streams(log, sinks, &mut ProgressReporter::disabled()).map_err(String::from)
}

#[test]
fn shards_jointly_match_single_process_byte_for_byte() {
    let spec = campaign();

    for workers in [1usize, 2, 4] {
        let dir = scratch(&format!("w{workers}"));
        let cache_dir = dir.join("cache");

        // Distributed fresh run: each "process" is a fresh ResultCache
        // over the shared directory, serving its slice of the leases.
        for (slot, slice) in lease_slices(&spec, workers).iter().enumerate() {
            worker_lines(&spec, &cache_dir, slot, slice);
        }

        // Single-process run over the same cache: must be fully served
        // from what the workers stored, and its log must replay into
        // the identical bytes.
        let (single, csv, log) = single_run(&spec, &cache_dir);
        assert!(
            single.fully_cached(),
            "{workers} worker(s) must have computed every work unit ({} misses)",
            single.cache_misses
        );
        let mut replayed = CsvSink::new(Vec::new());
        let merged = replay(&log, &mut [&mut replayed]).unwrap();
        assert_eq!(merged.cells, 18);
        assert_eq!(merged.rows, single.rows, "replayed rows = single rows");
        assert_eq!(replayed.into_inner(), csv, "byte-identical CSV");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn shard_streams_cover_every_cell_exactly_once() {
    let spec = campaign();
    let dir = scratch("cover");
    let cache_dir = dir.join("cache");
    let mut seen = BTreeSet::new();
    for (slot, slice) in lease_slices(&spec, 3).iter().enumerate() {
        let events: Vec<CampaignEvent> = worker_lines(&spec, &cache_dir, slot, slice)
            .iter()
            .map(|l| decode_event(l).unwrap())
            .collect();
        assert!(
            matches!(events.first(), Some(CampaignEvent::Hello { shard, .. }) if *shard == slot),
            "hello first, carrying the worker slot"
        );
        assert!(
            matches!(events.last(), Some(CampaignEvent::Done { .. })),
            "done last"
        );
        for ev in events {
            if let CampaignEvent::Cell { index, .. } = ev {
                assert!(seen.insert(index), "cell {index} served by two workers");
            }
        }
    }
    assert_eq!(
        seen,
        (0..18).collect::<BTreeSet<_>>(),
        "3 DAGs x 2 pfails x 3 estimators, each exactly once"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_rejects_broken_streams() {
    let spec = campaign();
    let dir = scratch("broken");
    let (_, _, good) = single_run(&spec, &dir.join("cache"));
    let run = |lines: Vec<String>| replay(&lines, &mut []).unwrap_err();

    // A log cut before its last cell (its writer died mid-campaign).
    let last_cell = good
        .iter()
        .rposition(|l| matches!(decode_event(l), Ok(CampaignEvent::Cell { .. })))
        .unwrap();
    let err = run(good[..last_cell].to_vec());
    assert!(err.contains("of 18 planned cells"), "{err}");

    // An explicit worker error aborts the replay.
    let mut failed = good.clone();
    failed.insert(
        2,
        encode_event(&CampaignEvent::Error {
            message: "worker exploded".into(),
            kind: Some("worker".into()),
        }),
    );
    let err = run(failed);
    assert!(err.contains("worker exploded"), "{err}");

    // Garbage on the wire is a hard protocol error.
    let err = run(vec![good[0].clone(), "{not an event".into()]);
    assert!(err.contains("bad worker event"), "{err}");

    // Without the coordinator's plan there is nothing to check the
    // cells against.
    let err = run(good[1..].to_vec());
    assert!(err.contains("no plan"), "{err}");

    // A repeated cell is an error even while its first copy still
    // waits for earlier rows: move the last cell right behind the plan
    // and repeat it there.
    let mut repeated = good.clone();
    let last = repeated
        .iter()
        .position(|l| matches!(decode_event(l), Ok(CampaignEvent::Cell { index: 17, .. })))
        .unwrap();
    let cell = repeated.remove(last);
    repeated.insert(1, cell.clone());
    repeated.insert(2, cell);
    let err = run(repeated);
    assert!(err.contains("delivered twice"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_report_is_the_same_for_any_worker_count() {
    let spec = campaign();
    let dir = scratch("resume");
    let cache = Arc::new(ResultCache::on_disk(dir.join("cache")));
    let report = |workers: usize| {
        Campaign::builder(spec.clone())
            .cache(cache.clone())
            .backend(MultiProcess::new(workers))
            .build()
            .unwrap()
            .resume_report()
            .unwrap()
    };

    let fresh = report(1);
    assert_eq!(fresh.total_misses(), 18 + 6, "cells + references");
    assert_eq!(report(3), fresh);

    // Serve half the leases, then both reports show exactly that half
    // as cached.
    let half = &lease_slices(&spec, 2)[0];
    worker_lines(&spec, &dir.join("cache"), 0, half);
    let after = report(1);
    let cached_cells: usize = after.estimators.iter().map(|e| e.hits).sum();
    assert_eq!(
        cached_cells,
        half.iter().map(|l| l.cells.len()).sum::<usize>()
    );
    assert_eq!(report(3), after);

    // A zero-worker backend is rejected before any filesystem work.
    assert!(Campaign::builder(spec.clone())
        .backend(MultiProcess::new(0))
        .build()
        .is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
