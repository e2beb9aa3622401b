//! Adversarial lease interleavings against the `ExecBackend` v2
//! work-leasing API: whatever order worker slots pull, complete, or
//! crash on their [`WorkLease`] batches, the campaign's merged output
//! must be byte-identical to a single-process run — that is the
//! contract that makes pull scheduling safe to adopt.
//!
//! Every scenario here drives a *custom* backend through the public
//! [`LeaseQueue`]/[`LeaseExecutor`] seam, exactly as an embedder
//! writing their own distribution layer would.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use stochdag_engine::{
    decode_event, decode_lease, encode_event, encode_lease, BackendContext, Campaign,
    CampaignEvent, CsvSink, Deliver, EngineError, ExecBackend, FnObserver, LeaseExecutor,
    LeaseQueue, ResultCache, SweepSpec, Telemetry, WorkLease,
};

fn spec(name: &str) -> SweepSpec {
    SweepSpec::from_str_auto(&format!(
        r#"
        name = "{name}"
        seed = 9
        pfails = [0.01, 0.05]
        estimators = ["first-order", "sculli"]
        reference_trials = 800
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

/// Reference output: the same spec under the default in-process
/// backend over `cache`. Cell timings live in the cache, so two runs
/// are byte-comparable exactly when they share one — the same warm
/// replay contract the distributed byte-identity tests use.
fn single_process_csv(name: &str, cache: &Arc<ResultCache>) -> Vec<u8> {
    let buf = SharedBuf::default();
    let outcome = Campaign::builder(spec(name))
        .cache(cache.clone())
        .sink(CsvSink::new(buf.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(
        outcome.fully_cached(),
        "the adversarial backend must have computed every unit ({} misses)",
        outcome.cache_misses
    );
    buf.bytes()
}

/// Run the spec on `backend` over `cache` into a CSV buffer.
fn csv_under(name: &str, cache: &Arc<ResultCache>, backend: impl ExecBackend + 'static) -> Vec<u8> {
    let buf = SharedBuf::default();
    let outcome = Campaign::builder(spec(name))
        .cache(cache.clone())
        .sink(CsvSink::new(buf.clone()))
        .backend(backend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.cells, 8, "2 DAGs x 2 pfails x 2 estimators");
    buf.bytes()
}

fn hello(deliver: &Deliver<'_>, ctx: &BackendContext<'_>) -> Result<(), EngineError> {
    deliver(CampaignEvent::Hello {
        shard: 0,
        jobs: ctx.spec.jobs.unwrap_or(1),
    })
}

/// Grants every lease up front, then executes them in **reverse**
/// order — the most out-of-order completion a single consumer can
/// produce.
struct ReverseOrder;

impl ExecBackend for ReverseOrder {
    fn name(&self) -> String {
        "reverse-order".into()
    }

    fn execute(
        &self,
        ctx: &BackendContext<'_>,
        leases: &LeaseQueue,
        deliver: &Deliver<'_>,
    ) -> Result<(), EngineError> {
        hello(deliver, ctx)?;
        let executor = LeaseExecutor::new(ctx);
        let mut granted = Vec::new();
        while let Some(lease) = leases.next() {
            granted.push(lease);
        }
        for lease in granted.iter().rev() {
            executor.run(lease, deliver)?;
            leases.complete(lease.lease_id);
        }
        Ok(())
    }
}

/// Two pulling threads, one of which dawdles before every batch: the
/// fast slot wins most leases, the slow one trickles in late — the
/// interleaving static sharding could never produce.
struct SlowAndFast;

impl ExecBackend for SlowAndFast {
    fn name(&self) -> String {
        "slow-and-fast".into()
    }

    fn workers(&self) -> usize {
        2
    }

    fn execute(
        &self,
        ctx: &BackendContext<'_>,
        leases: &LeaseQueue,
        deliver: &Deliver<'_>,
    ) -> Result<(), EngineError> {
        hello(deliver, ctx)?;
        let executor = LeaseExecutor::new(ctx);
        let first_error: Mutex<Option<EngineError>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for slow in [false, true] {
                let executor = &executor;
                let first_error = &first_error;
                scope.spawn(move || {
                    while let Some(lease) = leases.next() {
                        if slow {
                            std::thread::sleep(Duration::from_millis(15));
                        }
                        match executor.run(&lease, deliver) {
                            Ok(()) => leases.complete(lease.lease_id),
                            Err(e) => {
                                first_error.lock().unwrap().get_or_insert(e);
                                return;
                            }
                        }
                    }
                });
            }
        });
        if let Some(e) = first_error.into_inner().unwrap() {
            return Err(e);
        }
        Ok(())
    }
}

/// Crashes the first granted lease mid-batch (after its first `Cell`
/// event escaped), re-queues it, and then drains normally — the
/// events of the dead attempt stay delivered, exactly like a crashed
/// worker process whose stdout the coordinator already merged.
struct CrashOnceMidLease {
    crashes: AtomicUsize,
}

impl ExecBackend for CrashOnceMidLease {
    fn name(&self) -> String {
        "crash-once".into()
    }

    fn execute(
        &self,
        ctx: &BackendContext<'_>,
        leases: &LeaseQueue,
        deliver: &Deliver<'_>,
    ) -> Result<(), EngineError> {
        hello(deliver, ctx)?;
        let executor = LeaseExecutor::new(ctx);
        while let Some(lease) = leases.next() {
            let crash_this = self.crashes.fetch_add(1, Ordering::SeqCst) == 0
                && leases.attempts(lease.lease_id) == 1;
            if !crash_this {
                self.crashes.fetch_sub(1, Ordering::SeqCst);
            }
            let cells_seen = AtomicUsize::new(0);
            let emit = |ev: CampaignEvent| {
                let is_cell = matches!(ev, CampaignEvent::Cell { .. });
                deliver(ev)?;
                if is_cell && crash_this && cells_seen.fetch_add(1, Ordering::SeqCst) == 0 {
                    return Err(EngineError::spec("simulated mid-lease crash"));
                }
                Ok(())
            };
            match executor.run(&lease, &emit) {
                Ok(()) => leases.complete(lease.lease_id),
                Err(e) if crash_this => {
                    leases
                        .requeue(lease.lease_id, e)
                        .expect("first crash must be re-queueable");
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Crashes *every* attempt of lease 0 until the queue refuses to
/// re-queue it — the exhaustion path a repeatedly-dying worker hits.
struct AlwaysCrashFirstLease;

impl ExecBackend for AlwaysCrashFirstLease {
    fn name(&self) -> String {
        "always-crash".into()
    }

    fn execute(
        &self,
        ctx: &BackendContext<'_>,
        leases: &LeaseQueue,
        deliver: &Deliver<'_>,
    ) -> Result<(), EngineError> {
        hello(deliver, ctx)?;
        let executor = LeaseExecutor::new(ctx);
        while let Some(lease) = leases.next() {
            if lease.lease_id == 0 {
                let emit = |ev: CampaignEvent| {
                    let is_cell = matches!(ev, CampaignEvent::Cell { .. });
                    deliver(ev)?;
                    if is_cell {
                        return Err(EngineError::spec("simulated crash"));
                    }
                    Ok(())
                };
                let err = executor.run(&lease, &emit).unwrap_err();
                leases.requeue(lease.lease_id, err)?;
                continue;
            }
            executor.run(&lease, deliver)?;
            leases.complete(lease.lease_id);
        }
        Ok(())
    }
}

#[test]
fn out_of_order_lease_completion_is_byte_identical() {
    let cache = Arc::new(ResultCache::in_memory());
    assert_eq!(
        csv_under("interleave", &cache, ReverseOrder),
        single_process_csv("interleave", &cache),
        "reverse-order lease execution must merge to identical bytes"
    );
}

#[test]
fn slow_worker_interleaving_is_byte_identical() {
    let cache = Arc::new(ResultCache::in_memory());
    assert_eq!(
        csv_under("slowfast", &cache, SlowAndFast),
        single_process_csv("slowfast", &cache),
        "a straggling worker slot must not perturb the merged output"
    );
}

#[test]
fn mid_lease_crash_requeues_and_stays_byte_identical() {
    // Count post-dedup observer deliveries per cell index: the crashed
    // attempt's duplicate events must never reach observers twice.
    let seen = Arc::new(Mutex::new(std::collections::HashMap::<usize, usize>::new()));
    let counter = seen.clone();
    let cache = Arc::new(ResultCache::in_memory());
    let buf = SharedBuf::default();
    let outcome = Campaign::builder(spec("crashlease"))
        .cache(cache.clone())
        .sink(CsvSink::new(buf.clone()))
        .backend(CrashOnceMidLease {
            crashes: AtomicUsize::new(0),
        })
        .observer(FnObserver(move |ev: &CampaignEvent| {
            if let CampaignEvent::Cell { index, .. } = ev {
                *counter.lock().unwrap().entry(*index).or_insert(0) += 1;
            }
        }))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.cells, 8);
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 8, "every cell observed");
    assert!(
        seen.values().all(|&n| n == 1),
        "re-queued attempt's duplicates must be dropped before observers: {seen:?}"
    );
    assert_eq!(
        buf.bytes(),
        single_process_csv("crashlease", &cache),
        "a mid-lease crash plus re-queue must merge to identical bytes"
    );
}

#[test]
fn requeue_exhaustion_fails_the_campaign_but_keeps_the_cache() {
    let cache = Arc::new(ResultCache::in_memory());
    let err = Campaign::builder(spec("exhaust"))
        .cache(cache.clone())
        .backend(AlwaysCrashFirstLease)
        .build()
        .unwrap()
        .run()
        .unwrap_err();
    assert!(
        err.to_string()
            .contains("lease 0 failed after 2 attempts (last: simulated crash)"),
        "exhausted lease must fail the campaign: {err}"
    );
    // Everything the healthy leases finished (and the crashed lease's
    // completed cells) is in the cache: a plain retry reuses it.
    let outcome = Campaign::builder(spec("exhaust"))
        .cache(cache)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.cells, 8);
    assert!(
        outcome.cache_hits > 0,
        "the failed campaign's finished work must survive in the cache"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Lease request lines survive the wire in both directions.
    #[test]
    fn lease_lines_round_trip(
        lease_id in 0usize..1_000_000,
        cells in proptest::collection::vec(0usize..5_000_000, 0..24),
    ) {
        let lease = WorkLease { lease_id, cells };
        let line = encode_lease(&lease);
        prop_assert!(!line.contains('\n'), "one lease per line");
        prop_assert_eq!(decode_lease(&line).unwrap(), lease);
    }

    // The lease lifecycle events of the v2 protocol round-trip
    // through the shared event codec, `lease_done` with and without a
    // telemetry delta.
    #[test]
    fn lease_protocol_events_round_trip(
        lease_id in 0usize..1_000_000,
        cells in 0usize..10_000,
        hits in 0usize..10_000,
        misses in 0usize..10_000,
        references in 0usize..10_000,
        leases in 0usize..10_000,
        span_ns in 0u64..1_000_000_000,
    ) {
        let delta = Telemetry::enabled();
        delta.count("cells_computed", misses as u64);
        delta.record_span_duration("estimate_cell", Duration::from_nanos(span_ns));
        for event in [
            CampaignEvent::Plan { cells, references, leases },
            CampaignEvent::LeaseDone { lease_id, cells, hits, misses, telemetry: None },
            CampaignEvent::LeaseDone {
                lease_id,
                cells,
                hits,
                misses,
                telemetry: Some(delta.snapshot()),
            },
        ] {
            let line = encode_event(&event);
            prop_assert!(!line.contains('\n'));
            prop_assert_eq!(decode_event(&line).unwrap(), event);
        }
    }
}
