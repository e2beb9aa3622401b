//! A fully cached single-job campaign runs on the thread that called
//! `run()`: it creates no thread, and every event reaches the
//! observers on that thread.
//!
//! This binary holds one test on purpose: `Threads:` in
//! `/proc/self/status` counts the whole process, so a second test
//! running beside it would move the count.

#![cfg(target_os = "linux")]

use std::sync::{Arc, Mutex};
use std::time::Duration;

use stochdag_engine::{Campaign, CampaignEvent, FnObserver, ResultCache, SweepSpec};

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

#[test]
fn cached_single_job_campaign_creates_no_thread() {
    let cache = Arc::new(ResultCache::in_memory());
    let warm = Campaign::builder(spec())
        .cache(cache.clone())
        .jobs(1)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(warm.cells, 8);

    let before = settled_threads();
    let caller = std::thread::current().id();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let record = seen.clone();
    let outcome = Campaign::builder(spec())
        .cache(cache)
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
    assert!(outcome.fully_cached(), "{} misses", outcome.cache_misses);

    let seen = seen.lock().unwrap();
    assert!(seen.len() > outcome.cells, "plan, cells and lease events");
    for (count, on_caller, event) in seen.iter() {
        assert_eq!(
            *count, before,
            "thread count while observing {event} (before run: {before})"
        );
        assert!(on_caller, "{event} was delivered off the calling thread");
    }
}
