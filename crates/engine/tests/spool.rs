//! Cross-host campaign coordination over a shared-filesystem spool,
//! exercised in-process: a [`SharedFs`] coordinator and [`SpoolWorker`]
//! sessions (threads here, remote `sweep-worker --spool` processes in
//! production) meet in one spool directory, and the merged output must
//! be byte-identical to a single-process run over the same cache —
//! including when a claim goes stale and the coordinator re-queues it.
//! The coordinator counts each worker's merged streams and retires
//! every claim, and both sides refuse files of another spool layout.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use stochdag_engine::{
    decode_event, Campaign, CampaignEvent, CsvSink, FnObserver, ResultCache, SharedFs, SpoolWorker,
    SweepSpec, Telemetry,
};

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("stochdag_spool_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn spec(name: &str) -> SweepSpec {
    SweepSpec::from_str_auto(&format!(
        r#"
        name = "{name}"
        seed = 13
        pfails = [0.01, 0.05]
        estimators = ["first-order", "sculli"]
        reference_trials = 600
        [[dags]]
        kind = "cholesky"
        ks = [2, 3]
        "#
    ))
    .unwrap()
}

/// Sum of the counters whose names start with `prefix`.
fn counter_sum(counters: &BTreeMap<String, u64>, prefix: &str) -> u64 {
    counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

/// Poll `spool/leases/open/` for a lease file and claim it as a worker
/// would (rename into `leases/claimed/`); returns its stem, or `None`
/// after ~6 s. Like a worker, it claims only `.json` lease files, never
/// the coordinator's temporary files.
fn claim_first_lease(spool: &Path) -> Option<String> {
    let open = spool.join("leases").join("open");
    let claimed = spool.join("leases").join("claimed");
    for _ in 0..600 {
        if let Ok(entries) = std::fs::read_dir(&open) {
            for e in entries.flatten() {
                let path = e.path();
                if path.extension().is_none_or(|x| x != "json") {
                    continue;
                }
                if std::fs::rename(&path, claimed.join(e.file_name())).is_ok() {
                    let stem = path.file_stem().unwrap().to_str().unwrap();
                    return Some(stem.to_string());
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    None
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

#[test]
fn two_spool_workers_match_single_process_byte_for_byte() {
    let dir = scratch("two");
    let spool = dir.join("spool");
    let cache_dir = dir.join("cache");

    // Two worker sessions start first and wait for the campaign to be
    // posted — the normal cross-host launch order. One is named like a
    // host: a dotted name must reach the counters whole.
    let names = ["w0", "w1.example.org"];
    let workers: Vec<_> = names
        .iter()
        .map(|&name| {
            let spool = spool.clone();
            std::thread::spawn(move || {
                SpoolWorker::new(&spool)
                    .name(name)
                    .jobs(1)
                    .max_wait(Duration::from_secs(30))
                    .run()
            })
        })
        .collect();

    let buf = SharedBuf::default();
    let hellos = Arc::new(Mutex::new(Vec::new()));
    let seen = hellos.clone();
    let telemetry = Telemetry::enabled();
    let outcome = Campaign::builder(spec("spool2"))
        .cache(Arc::new(ResultCache::on_disk(&cache_dir)))
        .backend(SharedFs::new(&spool))
        .telemetry(telemetry.clone())
        .sink(CsvSink::new(buf.clone()))
        .observer(FnObserver(move |ev: &CampaignEvent| {
            if let CampaignEvent::Hello { shard, jobs } = ev {
                seen.lock().unwrap().push((*shard, *jobs));
            }
        }))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.cells, 8);
    assert_eq!(outcome.references, 4);

    let summaries: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().unwrap().unwrap())
        .collect();
    assert_eq!(
        summaries.iter().map(|s| s.leases).sum::<usize>(),
        4,
        "the two sessions jointly drained every lease"
    );
    assert_eq!(summaries.iter().map(|s| s.cells).sum::<usize>(), 8);
    // Each worker the coordinator saw announced itself with its jobs
    // handshake. Both register as soon as the campaign appears, but
    // the coordinator stops scanning registrations once the queue
    // drains, so a worker that registers after its last scan of a fast
    // campaign is never announced: the count is 1 or 2, never 0.
    let hellos = hellos.lock().unwrap();
    assert!(
        (1..=2).contains(&hellos.len()),
        "registered workers announce once each: {hellos:?}"
    );
    assert!(hellos.iter().all(|&(_, jobs)| jobs == 1));

    // The coordinator credits each worker with the streams it merged
    // from it (nothing for a worker that arrived after the drain), so
    // the counters match the sessions' own summaries and sum to the
    // campaign.
    let counters = telemetry.snapshot().counters;
    for (name, summary) in names.iter().zip(&summaries) {
        for (what, want) in [("leases", summary.leases), ("cells", summary.cells)] {
            let key = format!("spool_{what}_{name}");
            let got = counters.get(&key).copied().unwrap_or(0);
            assert_eq!(got, want as u64, "{key}: {counters:?}");
        }
    }
    assert_eq!(counter_sum(&counters, "spool_leases_"), 4, "{counters:?}");
    assert_eq!(counter_sum(&counters, "spool_cells_"), 8, "{counters:?}");
    // Every claim was retired with its stream, and workers published
    // nothing but streams.
    let claims: Vec<_> = std::fs::read_dir(spool.join("leases").join("claimed"))
        .unwrap()
        .collect();
    assert!(claims.is_empty(), "claims left behind: {claims:?}");
    assert!(!spool.join("stats").exists(), "no per-worker stats files");

    // Single-process replay over the same cache: identical bytes.
    let single = SharedBuf::default();
    let replay = Campaign::builder(spec("spool2"))
        .cache(Arc::new(ResultCache::on_disk(&cache_dir)))
        .sink(CsvSink::new(single.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(replay.fully_cached(), "{} misses", replay.cache_misses);
    assert_eq!(buf.bytes(), single.bytes(), "byte-identical CSV");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn capped_spool_workers_in_one_process_work_side_by_side() {
    // Two `jobs(1)` workers in one process: when the coordinator merges
    // its first cell, both must have registered. Workers whose caps ran
    // them one after another would register the second only after the
    // stop file, so the observer would wait out its bound.
    let dir = scratch("side-by-side");
    let spool = dir.join("spool");
    let workers: Vec<_> = ["a", "b"]
        .map(|name| {
            let spool = spool.clone();
            std::thread::spawn(move || {
                SpoolWorker::new(&spool)
                    .name(name)
                    .jobs(1)
                    .max_wait(Duration::from_secs(30))
                    .run()
            })
        })
        .into_iter()
        .collect();
    let registered = |spool: &Path| {
        std::fs::read_dir(spool.join("workers")).map_or(0, |entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                .count()
        })
    };
    let at_first_cell = Arc::new(Mutex::new(None));
    let record = at_first_cell.clone();
    let watched = spool.clone();
    let outcome = Campaign::builder(spec("side-by-side"))
        .backend(SharedFs::new(&spool))
        .observer(FnObserver(move |ev: &CampaignEvent| {
            let mut seen = record.lock().unwrap();
            if seen.is_some() || !matches!(ev, CampaignEvent::Cell { .. }) {
                return;
            }
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while registered(&watched) < 2 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            *seen = Some(registered(&watched));
        }))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.cells, 8);
    let leases: usize = workers
        .into_iter()
        .map(|w| w.join().unwrap().unwrap().leases)
        .sum();
    assert_eq!(leases, 4, "the two sessions jointly drained every lease");
    let seen = at_first_cell.lock().unwrap().expect("a first cell");
    assert_eq!(
        seen, 2,
        "only {seen} of 2 spool workers registered by the first merged cell"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spool_reports_carry_worker_spans_exactly_when_telemetry_is_enabled() {
    let dir = scratch("spans");
    for enabled in [true, false] {
        let spool = dir.join(format!("spool-{enabled}"));
        let worker = {
            let spool = spool.clone();
            std::thread::spawn(move || {
                SpoolWorker::new(&spool)
                    .name("w")
                    .jobs(1)
                    .max_wait(Duration::from_secs(30))
                    .run()
            })
        };
        let telemetry = if enabled {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let outcome = Campaign::builder(spec("spans"))
            .backend(SharedFs::new(&spool))
            .telemetry(telemetry.clone())
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(worker.join().unwrap().unwrap().cells, 8);
        let meta = std::fs::read_to_string(spool.join("meta.json")).unwrap();
        assert!(meta.contains(&format!("\"telemetry\":{enabled}")), "{meta}");
        // The worker sends each lease's delta on its lease_done when,
        // and only when, the coordinator collects telemetry.
        let mut lease_dones = 0;
        for stream in std::fs::read_dir(spool.join("events")).unwrap() {
            let text = std::fs::read_to_string(stream.unwrap().path()).unwrap();
            for line in text.lines() {
                if let CampaignEvent::LeaseDone { telemetry, .. } = decode_event(line).unwrap() {
                    assert_eq!(telemetry.is_some(), enabled, "{line}");
                    lease_dones += 1;
                }
            }
        }
        assert_eq!(lease_dones, 4);
        // So the report has the worker's spans, as an in-process one
        // has its threads' spans.
        let report = telemetry.report("spans", &outcome);
        assert_eq!(report.cells_computed, 8, "a cold cache");
        let snapshot = &report.snapshot;
        if enabled {
            assert_eq!(snapshot.spans["estimate_cell"].count, 8, "{snapshot:?}");
            assert_eq!(snapshot.spans["reference_mc"].count, 4, "{snapshot:?}");
            assert_eq!(snapshot.counters["cells_computed"], 8, "{snapshot:?}");
        } else {
            assert!(snapshot.is_empty(), "{snapshot:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_claim_is_reclaimed_and_the_campaign_completes() {
    let dir = scratch("stale");
    let spool = dir.join("spool");
    let cache_dir = dir.join("cache");

    // A saboteur that claims the first posted lease and then "dies":
    // the claim file sits in leases/claimed/ with no events behind it,
    // exactly what a worker killed mid-lease leaves on disk.
    let saboteur = {
        let spool = spool.clone();
        std::thread::spawn(move || claim_first_lease(&spool).is_some())
    };

    // One healthy worker drains everything else (and, after the
    // coordinator reclaims the stale claim, the re-queued lease too).
    // It starts only once the saboteur holds its claim: a worker
    // polling from the start can drain every lease before the
    // saboteur's 10 ms poll finds one.
    let worker = {
        let spool = spool.clone();
        std::thread::spawn(move || {
            let sabotaged = saboteur.join().unwrap();
            let summary = SpoolWorker::new(&spool)
                .name("healthy")
                .jobs(1)
                .max_wait(Duration::from_secs(30))
                .run();
            (sabotaged, summary)
        })
    };

    let buf = SharedBuf::default();
    let telemetry = Telemetry::enabled();
    let outcome = Campaign::builder(spec("stale"))
        .cache(Arc::new(ResultCache::on_disk(&cache_dir)))
        .backend(SharedFs::new(&spool).lease_timeout(Duration::from_secs(1)))
        .telemetry(telemetry.clone())
        .sink(CsvSink::new(buf.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.cells, 8, "reclaim must not lose the stale lease");

    let (sabotaged, summary) = worker.join().unwrap();
    assert!(sabotaged, "saboteur claimed a lease");
    let summary = summary.unwrap();
    assert_eq!(
        summary.cells, 8,
        "the healthy worker executed every cell, including the reclaimed lease"
    );
    let counters = telemetry.snapshot().counters;
    assert_eq!(counters.get("spool_reclaims"), Some(&1), "{counters:?}");
    assert_eq!(
        counters.get("spool_leases_healthy"),
        Some(&4),
        "{counters:?}"
    );
    assert_eq!(
        counters.get("spool_cells_healthy"),
        Some(&8),
        "{counters:?}"
    );

    // The interrupted-and-reclaimed campaign still replays
    // byte-identically from its cache.
    let single = SharedBuf::default();
    let replay = Campaign::builder(spec("stale"))
        .cache(Arc::new(ResultCache::on_disk(&cache_dir)))
        .sink(CsvSink::new(single.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(replay.fully_cached(), "{} misses", replay.cache_misses);
    assert_eq!(buf.bytes(), single.bytes(), "byte-identical CSV");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_used_spool_directory_refuses_a_second_campaign() {
    let dir = scratch("reuse");
    let spool = dir.join("spool");
    std::fs::create_dir_all(&spool).unwrap();
    std::fs::write(spool.join("spec.json"), b"{}").unwrap();
    let err = Campaign::builder(spec("reuse"))
        .cache(Arc::new(ResultCache::on_disk(dir.join("cache"))))
        .backend(SharedFs::new(&spool).worker_timeout(Duration::from_secs(1)))
        .build()
        .unwrap()
        .run()
        .unwrap_err();
    assert!(
        err.to_string().contains("already hosts a campaign"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_worker_refuses_a_spool_of_another_layout() {
    let dir = scratch("layout");
    let spool = dir.join("spool");
    // A campaign as an older coordinator posts it. The stop file lets
    // a worker that wrongly accepts the spool exit instead of waiting
    // for leases.
    for sub in ["leases/open", "leases/claimed", "events", "workers"] {
        std::fs::create_dir_all(spool.join(sub)).unwrap();
    }
    std::fs::write(
        spool.join("spec.json"),
        serde::json::to_string(&spec("layout")),
    )
    .unwrap();
    std::fs::write(spool.join("stop"), "done").unwrap();
    for (meta, found) in [
        (None, "no readable meta.json"),
        (
            Some(r#"{"name":"layout","cache":null}"#),
            "uses spool layout 1",
        ),
        (
            Some(r#"{"name":"layout","cache":null,"layout":3}"#),
            "uses spool layout 3",
        ),
    ] {
        let _ = std::fs::remove_file(spool.join("meta.json"));
        if let Some(meta) = meta {
            std::fs::write(spool.join("meta.json"), meta).unwrap();
        }
        let err = SpoolWorker::new(&spool)
            .name("w")
            .no_cache()
            .run()
            .unwrap_err()
            .to_string();
        assert!(err.contains(found), "{err}");
        assert!(err.contains(&spool.display().to_string()), "{err}");
        assert!(err.contains("layout 2"), "{err}");
        assert!(
            !spool.join("workers").join("w.json").exists(),
            "refused before registering"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stream_without_a_worker_name_fails_the_campaign() {
    let dir = scratch("nameless");
    let spool = dir.join("spool");
    // A worker of spool layout 1: it claims a lease and publishes the
    // attempt's stream under the bare lease stem.
    let old_worker = {
        let spool = spool.clone();
        std::thread::spawn(move || {
            let stem = claim_first_lease(&spool)?;
            let stream = spool.join("events").join(format!("{stem}.jsonl"));
            std::fs::write(&stream, "{\"event\":\"error\",\"message\":\"boom\"}\n").unwrap();
            Some(stem)
        })
    };
    let err = Campaign::builder(spec("nameless"))
        .cache(Arc::new(ResultCache::on_disk(dir.join("cache"))))
        .backend(SharedFs::new(&spool).worker_timeout(Duration::from_secs(5)))
        .build()
        .unwrap()
        .run()
        .unwrap_err()
        .to_string();
    let stem = old_worker.join().unwrap().expect("a lease to claim");
    assert!(err.contains(&format!("{stem}.jsonl")), "{err}");
    assert!(err.contains("carries no worker name"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
