//! A fully cached campaign runs on the thread that called `run()` even
//! without a `jobs` cap: a session starts its helper threads at its
//! first cache miss, and a warm run has none, so it creates no thread
//! and every event reaches the observers on that thread.
//!
//! This binary holds one test on purpose: `Threads:` in
//! `/proc/self/status` counts the whole process, so a second test
//! running beside it would move the count. Its cold twin,
//! `cold_session_threads.rs`, checks that a computing session still
//! gets its helpers.

#![cfg(target_os = "linux")]

use std::sync::{Arc, Mutex};
use std::time::Duration;

use stochdag_engine::{Campaign, CampaignEvent, FnObserver, ResultCache, SweepSpec};

/// 12 cells in 6 leases, so an uncapped session on a multi-core host
/// has work for every helper it may start.
fn spec() -> SweepSpec {
    SweepSpec::from_str_auto(
        r#"
        name = "warm-session"
        seed = 5
        pfails = [0.01, 0.05]
        estimators = ["first-order", "sculli"]
        reference_trials = 4000
        [[dags]]
        kind = "cholesky"
        ks = [2, 3, 4]
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
fn warm_campaign_without_a_jobs_cap_creates_no_thread() {
    let cache = Arc::new(ResultCache::in_memory());
    let cold = Campaign::builder(spec())
        .cache(cache.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(cold.cells, 12);
    let before = settled_threads();

    let caller = std::thread::current().id();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let record = seen.clone();
    let warm = Campaign::builder(spec())
        .cache(cache)
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
    assert!(warm.fully_cached(), "{} misses", warm.cache_misses);

    let seen = std::mem::take(&mut *seen.lock().unwrap());
    assert!(seen.len() > warm.cells, "plan, cells and lease events");
    for (count, on_caller, event) in &seen {
        assert_eq!(
            *count, before,
            "thread count while observing {event} (before: {before})"
        );
        assert!(on_caller, "{event} was delivered off the calling thread");
    }
}
