//! Integration coverage of the telemetry layer: deterministic metrics
//! reports, cache-tier accounting across runs, the wire `telemetry`
//! event's emission contract, and the additive-protocol guarantee that
//! the stream-merge replay path (`merge_event_streams`) tolerates
//! newer event vocabularies.

use std::io::Cursor;
use std::sync::{Arc, Mutex};
use stochdag_engine::{
    decode_event, Campaign, CampaignEvent, ProgressReporter, ResultCache, ResultSink, SweepSpec,
    Telemetry, VecSink, WireObserver,
};

/// The engine-side acceptance campaign: 24 cells (2 DAG kinds × 3
/// sizes × 2 estimators × 2 failure probabilities), mirroring
/// `examples/ci_smoke_campaign.toml`.
fn campaign_spec() -> SweepSpec {
    SweepSpec::from_str_auto(
        r#"
name = "telemetry-accept"
seed = 3
pfails = [0.01, 0.001]
estimators = ["first-order", "sculli"]
reference_trials = 2000

[[dags]]
kind = "cholesky"
ks = [2, 3, 4]

[[dags]]
kind = "lu"
ks = [2, 3, 4]
"#,
    )
    .unwrap()
}

/// `Write` handle whose buffer outlives the boxed writer inside an
/// observer.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
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

fn run_with(telemetry: &Telemetry, cache: &Arc<ResultCache>) -> stochdag_engine::SweepOutcome {
    Campaign::builder(campaign_spec())
        .cache(cache.clone())
        .telemetry(telemetry.clone())
        .sink(VecSink::default())
        .build()
        .unwrap()
        .run()
        .unwrap()
}

#[test]
fn cold_run_metrics_are_byte_stable_across_reruns() {
    // Two fresh caches, two cold runs: every timing differs, but the
    // stable section — counts only, deduplicated by global cell index —
    // must be byte-identical. This is the schema/determinism contract
    // behind `sweep --metrics-out`.
    let reports: Vec<_> = (0..2)
        .map(|_| {
            let telemetry = Telemetry::enabled();
            let outcome = run_with(&telemetry, &Arc::new(ResultCache::in_memory()));
            telemetry.report("telemetry-accept", &outcome)
        })
        .collect();
    assert_eq!(reports[0].stable_json(), reports[1].stable_json());

    let stable = reports[0].stable_json();
    assert!(stable.contains("\"total\":24"), "{stable}");
    assert!(stable.contains("\"computed\":24"), "cold run: {stable}");
    assert!(stable.contains("\"memory_hits\":0"), "{stable}");
    assert!(stable.contains("\"disk_hits\":0"), "{stable}");
    assert!(
        stable.contains("\"first-order\":12") && stable.contains("\"sculli\":12"),
        "per-estimator split: {stable}"
    );

    // The full report carries the volatile detail too: spans with real
    // durations, no errors on a clean run.
    let json = reports[0].to_json();
    assert!(json.contains("\"schema_version\":1"), "{json}");
    for span in [
        "campaign",
        "prepare_dag",
        "prepare_estimator",
        "estimate_cell",
        "cache_probe",
        "sink_flush",
    ] {
        assert!(json.contains(&format!("\"{span}\"")), "span {span}: {json}");
    }
    assert!(json.contains("\"errors_by_kind\":{}"), "{json}");
}

#[test]
fn second_run_over_a_shared_cache_is_all_memory_tier() {
    let cache = Arc::new(ResultCache::in_memory());
    let first = Telemetry::enabled();
    run_with(&first, &cache);

    let second = Telemetry::enabled();
    let outcome = run_with(&second, &cache);
    assert_eq!(outcome.cells_memory_hits, 24);
    assert_eq!(outcome.cells_computed, 0);
    let stable = second.report("telemetry-accept", &outcome).stable_json();
    assert!(stable.contains("\"memory_hits\":24"), "{stable}");
    assert!(stable.contains("\"computed\":0"), "{stable}");
}

#[test]
fn wire_stream_carries_one_telemetry_event_only_when_enabled() {
    let wire_events = |telemetry: Telemetry| {
        let buf = SharedBuf::default();
        Campaign::builder(campaign_spec())
            .cache(Arc::new(ResultCache::in_memory()))
            .telemetry(telemetry)
            .observer(WireObserver::new(buf.clone()))
            .build()
            .unwrap()
            .run()
            .unwrap();
        buf.text()
            .lines()
            .map(|l| decode_event(l).unwrap_or_else(|e| panic!("{e}")))
            .collect::<Vec<_>>()
    };

    // Disabled (the default): no telemetry event at all.
    let events = wire_events(Telemetry::disabled());
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, CampaignEvent::Telemetry { .. })),
        "disabled telemetry must not widen the wire stream"
    );

    // Enabled: exactly one snapshot, just before `done`, with the
    // worker's collected spans and counters.
    let events = wire_events(Telemetry::enabled());
    let telemetry_events: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, CampaignEvent::Telemetry { .. }))
        .collect();
    assert_eq!(telemetry_events.len(), 1);
    assert!(
        matches!(events.last(), Some(CampaignEvent::Done { .. })),
        "done stays the stream terminator"
    );
    let CampaignEvent::Telemetry { shard, snapshot } = &events[events.len() - 2] else {
        panic!("telemetry event rides immediately before done");
    };
    assert_eq!(*shard, 0);
    assert!(!snapshot.is_empty(), "snapshot carries the worker's data");
}

#[test]
fn stream_merge_replays_telemetry_and_unknown_events() {
    // Capture a campaign's log with telemetry enabled…
    let buf = SharedBuf::default();
    Campaign::builder(campaign_spec())
        .cache(Arc::new(ResultCache::in_memory()))
        .telemetry(Telemetry::enabled())
        .observer(WireObserver::new(buf.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let mut lines: Vec<String> = buf.text().lines().map(str::to_string).collect();
    assert!(
        lines
            .iter()
            .any(|l| matches!(decode_event(l), Ok(CampaignEvent::Telemetry { .. }))),
        "stream carries the telemetry event"
    );
    // …and splice in an event from an imaginary future protocol rev.
    lines.insert(
        lines.len() - 1,
        r#"{"event":"warp","factor":9}"#.to_string(),
    );

    // The stream-merge replay path must take it in stride: unknown
    // event tags are skipped, not fatal, so older builds replay newer
    // logs.
    let reader = Cursor::new((lines.join("\n") + "\n").into_bytes());
    let mut vec_sink = VecSink::default();
    let outcome = {
        let mut sinks: Vec<&mut dyn ResultSink> = vec![&mut vec_sink];
        stochdag_engine::merge_event_streams(reader, &mut sinks, &mut ProgressReporter::disabled())
            .unwrap()
    };
    assert_eq!(outcome.cells, 24);
    assert_eq!(vec_sink.rows.len(), 24);
}
