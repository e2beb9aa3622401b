//! Integration coverage of the [`Campaign`] facade: builder wiring,
//! cache-replay byte identity, dry runs, shared cache counters,
//! observers, and the worker half.

use std::collections::BTreeSet;
use std::io::Cursor;
use std::sync::{Arc, Mutex};
use stochdag_engine::{
    decode_event, encode_lease, Campaign, CampaignEvent, CampaignPlan, CsvSink, DryRun,
    EngineError, EstimatorRegistry, EstimatorSpec, FnObserver, MultiProcess, ResultCache,
    SweepSpec, VecSink, WireObserver,
};

fn campaign_spec() -> SweepSpec {
    SweepSpec::from_str_auto(
        r#"
name = "facade"
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

/// `Write` handle whose buffer outlives the boxed writer inside a sink.
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
fn campaign_rerun_is_fully_cached_and_byte_identical() {
    let spec = campaign_spec();
    let cache = Arc::new(ResultCache::in_memory());

    // First run computes everything.
    let buf = SharedBuf::default();
    let outcome = Campaign::builder(spec.clone())
        .cache(cache.clone())
        .sink(CsvSink::new(buf.clone()))
        .sink(VecSink::default())
        .build()
        .unwrap()
        .run()
        .unwrap();

    // A second campaign over the same cache must be fully served and
    // replay the exact same rows, summary, and CSV bytes.
    let replay_buf = SharedBuf::default();
    let replay = Campaign::builder(spec)
        .cache(cache.clone())
        .sink(CsvSink::new(replay_buf.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();

    assert!(replay.fully_cached(), "first run fed the replay");
    assert_eq!(outcome.cells, replay.cells);
    assert_eq!(outcome.references, replay.references);
    assert_eq!(outcome.rows, replay.rows, "rows are bit-identical");
    assert_eq!(outcome.summary, replay.summary);
    assert_eq!(buf.bytes(), replay_buf.bytes(), "CSV bytes are identical");
}

#[test]
fn dry_run_expands_without_executing() {
    let campaign = Campaign::builder(campaign_spec()).build().unwrap();
    let dry = campaign.dry_run().unwrap();
    assert_eq!(dry.name, "facade");
    assert_eq!(dry.backend, "in-process");
    assert_eq!(dry.estimators, ["first-order", "sculli", "mc:600"]);
    assert_eq!(dry.instances.len(), 3);
    assert_eq!(dry.instances[0].id, "cholesky:k=2");
    assert!(dry.instances.iter().all(|i| i.tasks > 0));
    assert_eq!(dry.models, 2);
    assert_eq!(dry.cells, 18);
    assert_eq!(dry.references, 6);

    let multi = Campaign::builder(campaign_spec())
        .backend(MultiProcess::new(3))
        .build()
        .unwrap()
        .dry_run()
        .unwrap();
    assert_eq!(multi.backend, "multi-process (3 workers)");
    assert_eq!(
        DryRun {
            backend: dry.backend.clone(),
            ..multi
        },
        dry,
        "leases assign cells at run time, so the expansion is backend-free"
    );

    // Nothing ran: a fresh resume report still sees zero cached cells.
    let report = campaign.resume_report().unwrap();
    assert_eq!(report.total_hits(), 0);
}

#[test]
fn shared_cache_counters_count_every_campaign() {
    // `hits()`/`misses()` count since construction: a campaign must not
    // zero a cache that other campaigns share (the serve daemon shares
    // one across every client).
    let cache = Arc::new(ResultCache::in_memory());
    let run = || {
        Campaign::builder(campaign_spec())
            .cache(cache.clone())
            .build()
            .unwrap()
            .run()
            .unwrap()
    };
    let (first, second) = (run(), run());
    assert_eq!(
        cache.hits() + cache.misses(),
        first.cache_hits + first.cache_misses + second.cache_hits + second.cache_misses
    );
}

#[test]
fn observers_see_the_full_event_stream() {
    let events: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_events = events.clone();
    let outcome = Campaign::builder(campaign_spec())
        .observer(FnObserver(move |ev: &CampaignEvent| {
            let tag = match ev {
                CampaignEvent::Plan { .. } => "plan",
                CampaignEvent::Hello { .. } => "hello",
                CampaignEvent::LeaseStart { .. } => "lease_start",
                CampaignEvent::Reference { .. } => "reference",
                CampaignEvent::Cell { .. } => "cell",
                CampaignEvent::LeaseDone { .. } => "lease_done",
                CampaignEvent::Done { .. } => "done",
                CampaignEvent::Error { .. } => "error",
                CampaignEvent::Telemetry { .. } => "telemetry",
                CampaignEvent::Unknown { .. } => "unknown",
            };
            sink_events.lock().unwrap().push(tag.to_string());
        }))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let seen = events.lock().unwrap();
    assert_eq!(seen.first().map(String::as_str), Some("plan"));
    assert_eq!(seen.get(1).map(String::as_str), Some("hello"));
    assert_eq!(seen.last().map(String::as_str), Some("done"));
    assert_eq!(seen.iter().filter(|t| *t == "cell").count(), outcome.cells);
    assert_eq!(
        seen.iter().filter(|t| *t == "reference").count(),
        outcome.references
    );
}

#[test]
fn serve_leases_streams_the_wire_protocol_through_observers() {
    // A worker serves whatever the coordinator grants it: here every
    // other planned lease, as stdin lines.
    let spec = campaign_spec();
    let plan = CampaignPlan::new(&spec, &EstimatorRegistry::standard()).unwrap();
    let leased: Vec<_> = plan.leases().iter().step_by(2).cloned().collect();
    let input: String = leased.iter().map(|l| encode_lease(l) + "\n").collect();
    let buf = SharedBuf::default();
    Campaign::builder(spec)
        .observer(WireObserver::new(buf.clone()))
        .build()
        .unwrap()
        .serve_leases(3, Cursor::new(input))
        .unwrap();

    let text = String::from_utf8(buf.bytes()).unwrap();
    let events: Vec<CampaignEvent> = text
        .lines()
        .map(|l| decode_event(l).unwrap_or_else(|e| panic!("{e}")))
        .collect();
    match events.first() {
        Some(CampaignEvent::Hello { shard, version, .. }) => {
            assert_eq!(*shard, 3, "hello carries the worker slot");
            assert_eq!(*version, Some(2));
        }
        other => panic!("expected hello first, got {other:?}"),
    }
    assert!(matches!(events.last(), Some(CampaignEvent::Done { .. })));
    let cells: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            CampaignEvent::Cell { index, .. } => Some(*index),
            _ => None,
        })
        .collect();
    let expected: BTreeSet<usize> = leased.iter().flat_map(|l| l.cells.clone()).collect();
    assert_eq!(cells.len(), expected.len(), "no cell twice");
    assert_eq!(cells.into_iter().collect::<BTreeSet<_>>(), expected);
    let mut lease_done: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            CampaignEvent::LeaseDone { lease_id, .. } => Some(*lease_id),
            _ => None,
        })
        .collect();
    lease_done.sort_unstable();
    let lease_ids: Vec<usize> = leased.iter().map(|l| l.lease_id).collect();
    assert_eq!(lease_done, lease_ids, "one lease_done per lease");
}

#[test]
fn builder_rejects_bad_configurations_up_front() {
    let err = Campaign::builder(SweepSpec::default()).build().unwrap_err();
    assert!(matches!(err, EngineError::Spec { .. }), "{err}");

    let mut spec = campaign_spec();
    spec.estimators.push(EstimatorSpec::Dodin { atoms: 1 });
    let err = Campaign::builder(spec).build().unwrap_err();
    assert!(err.to_string().contains("dodin"), "{err}");

    let err = Campaign::builder(campaign_spec())
        .backend(MultiProcess::new(0))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("worker"), "{err}");

    let err = Campaign::builder(campaign_spec())
        .jobs(0)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("jobs"), "{err}");
}

#[test]
fn multiprocess_spawn_failures_surface_as_worker_errors() {
    let err = Campaign::builder(campaign_spec())
        .backend(MultiProcess::new(2).launcher("/nonexistent/stochdag-binary-for-test", vec![]))
        .build()
        .unwrap()
        .run()
        .unwrap_err();
    assert!(
        matches!(err, EngineError::Worker { .. }),
        "spawn failure is a worker error: {err}"
    );
    assert!(err.to_string().contains("spawning sweep worker"), "{err}");
}
