//! A computing session still gets its parallelism: its helper threads
//! start at its first cache miss, so a cold `jobs(2)` campaign on a
//! multi-core host delivers cells from two threads. The warm twin,
//! `warm_session_threads.rs`, checks that a fully cached session
//! starts none.
//!
//! One test per binary, like its twin, so no other test's threads
//! share the process.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use stochdag_engine::{Campaign, CampaignEvent, FnObserver, ResultCache, SweepSpec};

/// The spec of `warm_session_threads.rs`: 12 cells in 6 leases.
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

#[test]
fn cold_two_job_campaign_delivers_cells_from_two_threads() {
    let cells_from = Arc::new(Mutex::new(HashSet::new()));
    let record = cells_from.clone();
    let outcome = Campaign::builder(spec())
        .cache(Arc::new(ResultCache::in_memory()))
        .jobs(2)
        .observer(FnObserver(move |event: &CampaignEvent| {
            if matches!(event, CampaignEvent::Cell { .. }) {
                record.lock().unwrap().insert(std::thread::current().id());
            }
        }))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.cells_computed, 12, "a cold run computes every cell");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cells_from.lock().unwrap().len();
    assert_eq!(
        threads,
        2.min(cores),
        "cells came from {threads} thread(s) on {cores} core(s)"
    );
}
