//! A single-job campaign runs on the thread that called `run()`, cold
//! or fully cached: it creates no thread, not even for the parallel
//! Monte-Carlo trials of its references, and every event reaches the
//! observers on that thread.
//!
//! This binary holds one test on purpose: `Threads:` in
//! `/proc/self/status` counts the whole process, so a second test
//! running beside it would move the count.

#![cfg(target_os = "linux")]

use std::sync::{Arc, Mutex};
use std::time::Duration;

use stochdag_engine::{Campaign, CampaignEvent, FnObserver, ResultCache, SweepOutcome, SweepSpec};

fn spec() -> SweepSpec {
    SweepSpec::from_str_auto(
        r#"
        name = "threads"
        seed = 3
        pfails = [0.01, 0.05]
        estimators = ["first-order", "sculli"]
        reference_trials = 500
        [[dags]]
        kind = "cholesky"
        ks = [2, 3]
        "#,
    )
    .unwrap()
}

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .unwrap()
}

/// The thread count once threads that were joined have also left the
/// kernel's count (a joined thread can linger there briefly).
fn settled_threads() -> usize {
    let mut last = threads();
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(10));
        let now = threads();
        if now == last {
            return now;
        }
        last = now;
    }
    last
}

/// Run `spec()` with `jobs(1)` over `cache`, recording the process's
/// thread count and whether the event arrived on the calling thread at
/// every event.
fn observed_run(cache: &Arc<ResultCache>) -> (SweepOutcome, Vec<(usize, bool, String)>) {
    let caller = std::thread::current().id();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let record = seen.clone();
    let outcome = Campaign::builder(spec())
        .cache(cache.clone())
        .jobs(1)
        .observer(FnObserver(move |event: &CampaignEvent| {
            let on_caller = std::thread::current().id() == caller;
            record
                .lock()
                .unwrap()
                .push((threads(), on_caller, format!("{event:?}")));
        }))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    (outcome, seen)
}

#[test]
fn cached_single_job_campaign_creates_no_thread() {
    // The cold run that fills the cache is observed too: it computes
    // 500-trial Monte-Carlo references, whose trials would spawn
    // workers if the `jobs(1)` cap did not reach them.
    let cache = Arc::new(ResultCache::in_memory());
    let before = settled_threads();
    let (cold, cold_seen) = observed_run(&cache);
    assert_eq!(cold.cells, 8);
    assert!(!cold.fully_cached());
    let (warm, warm_seen) = observed_run(&cache);
    assert!(warm.fully_cached(), "{} misses", warm.cache_misses);

    for (run, outcome, seen) in [("cold", cold, cold_seen), ("warm", warm, warm_seen)] {
        assert!(seen.len() > outcome.cells, "plan, cells and lease events");
        for (count, on_caller, event) in &seen {
            assert_eq!(
                *count, before,
                "{run} run: thread count while observing {event} (before: {before})"
            );
            assert!(
                on_caller,
                "{run} run: {event} was delivered off the calling thread"
            );
        }
    }
}
