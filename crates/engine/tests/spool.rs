//! Cross-host campaign coordination over a shared-filesystem spool,
//! exercised in-process: a [`SharedFs`] coordinator and [`SpoolWorker`]
//! sessions (threads here, remote `sweep-worker --spool` processes in
//! production) meet in one spool directory, and the merged output must
//! be byte-identical to a single-process run over the same cache —
//! including when a claim goes stale and the coordinator re-queues it.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use stochdag_engine::{
    Campaign, CampaignEvent, CsvSink, FnObserver, ResultCache, SharedFs, SpoolWorker, SweepSpec,
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
    // posted — the normal cross-host launch order.
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let spool = spool.clone();
            std::thread::spawn(move || {
                SpoolWorker::new(&spool)
                    .name(format!("w{i}"))
                    .jobs(1)
                    .max_wait(Duration::from_secs(30))
                    .run()
            })
        })
        .collect();

    let buf = SharedBuf::default();
    let hellos = Arc::new(Mutex::new(Vec::new()));
    let seen = hellos.clone();
    let outcome = Campaign::builder(spec("spool2"))
        .cache(Arc::new(ResultCache::on_disk(&cache_dir)))
        .backend(SharedFs::new(&spool))
        .sink(CsvSink::new(buf.clone()))
        .observer(FnObserver(move |ev: &CampaignEvent| {
            if let CampaignEvent::Hello { shard, jobs, .. } = ev {
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
    // handshake. (A worker that registers only after a fast campaign
    // drained never appears — so the count is 1 or 2, never 0.)
    let hellos = hellos.lock().unwrap();
    assert!(
        (1..=2).contains(&hellos.len()),
        "registered workers announce once each: {hellos:?}"
    );
    assert!(hellos.iter().all(|&(_, jobs)| jobs == Some(1)));

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
fn stale_claim_is_reclaimed_and_the_campaign_completes() {
    let dir = scratch("stale");
    let spool = dir.join("spool");
    let cache_dir = dir.join("cache");

    // A saboteur that claims the first posted lease and then "dies":
    // the claim file sits in leases/claimed/ with no events behind it,
    // exactly what a worker killed mid-lease leaves on disk. Like a
    // worker, it claims only `.json` lease files, never the
    // coordinator's temporary files.
    let saboteur = {
        let spool = spool.clone();
        std::thread::spawn(move || {
            let open = spool.join("leases").join("open");
            let claimed = spool.join("leases").join("claimed");
            for _ in 0..600 {
                if let Ok(entries) = std::fs::read_dir(&open) {
                    for e in entries.flatten() {
                        if e.path().extension().is_none_or(|x| x != "json") {
                            continue;
                        }
                        let target = claimed.join(e.file_name());
                        if std::fs::rename(e.path(), &target).is_ok() {
                            return true;
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            false
        })
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
    let outcome = Campaign::builder(spec("stale"))
        .cache(Arc::new(ResultCache::on_disk(&cache_dir)))
        .backend(SharedFs::new(&spool).lease_timeout(Duration::from_secs(1)))
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
