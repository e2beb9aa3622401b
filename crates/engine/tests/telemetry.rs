//! Integration coverage of the telemetry layer: deterministic metrics
//! reports, cache-tier accounting across runs, the per-lease telemetry
//! delta on `lease_done`, and the additive-protocol guarantee that the
//! stream-merge replay path (`merge_event_streams`) tolerates newer
//! event vocabularies and older builds' retired events.

use std::io::Cursor;
use std::sync::{Arc, Mutex};
use stochdag_engine::{
    decode_event, encode_lease, Campaign, CampaignEvent, CampaignPlan, CsvSink, EstimatorRegistry,
    ProgressReporter, ResultCache, ResultSink, SweepSpec, Telemetry, VecSink, WireObserver,
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
            // Estimator cells and Monte-Carlo references are timed
            // apart: 24 cells, 12 references (6 DAGs × 2 pfails).
            let spans = telemetry.snapshot().spans;
            assert_eq!(spans["estimate_cell"].count, 24);
            assert_eq!(spans["reference_mc"].count, 12);
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
        "reference_mc",
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
fn worker_streams_carry_a_delta_on_every_lease_done_only_when_enabled() {
    // A worker session's wire stream (`sweep-worker --leases`).
    let worker_events = |telemetry: Telemetry| {
        let spec = campaign_spec();
        let plan = CampaignPlan::new(&spec, &EstimatorRegistry::standard()).unwrap();
        let input: String = plan
            .leases()
            .iter()
            .map(|l| encode_lease(l) + "\n")
            .collect();
        let buf = SharedBuf::default();
        Campaign::builder(spec)
            .telemetry(telemetry)
            .observer(WireObserver::new(buf.clone()))
            .build()
            .unwrap()
            .serve_leases(0, Cursor::new(input))
            .unwrap();
        decode_all(&buf.text())
    };
    let deltas = |events: &[CampaignEvent]| {
        events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::LeaseDone { telemetry, .. } => Some(telemetry.clone()),
                _ => None,
            })
            .collect::<Vec<_>>()
    };

    // Disabled (the default): no lease_done widens the wire stream.
    let events = worker_events(Telemetry::disabled());
    let off = deltas(&events);
    assert_eq!(off.len(), 12, "one lease_done per lease");
    assert!(off.iter().all(Option::is_none), "{off:?}");

    // Enabled: every lease_done carries its lease's own spans and
    // counters, which add up to the session's work; the session ends
    // with its last lease_done.
    let events = worker_events(Telemetry::enabled());
    assert!(matches!(
        events.last(),
        Some(CampaignEvent::LeaseDone { .. })
    ));
    let on = deltas(&events);
    assert_eq!(on.len(), 12);
    let total = Telemetry::enabled();
    for delta in &on {
        let delta = delta.as_ref().expect("a delta on every lease_done");
        assert_eq!(delta.spans["estimate_cell"].count, 2, "two cells per lease");
        total.merge(delta);
    }
    let total = total.snapshot();
    assert_eq!(total.counters["cells_computed"], 24);
    assert_eq!(total.spans["reference_mc"].count, 12);
    assert_eq!(total.spans["prepare_dag"].count, 6, "each DAG freezes once");

    // A campaign's observers never see a delta: the core folds it into
    // the campaign's collector and strips it first.
    let telemetry = Telemetry::enabled();
    let buf = SharedBuf::default();
    Campaign::builder(campaign_spec())
        .telemetry(telemetry.clone())
        .observer(WireObserver::new(buf.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let observed = deltas(&decode_all(&buf.text()));
    assert_eq!(observed.len(), 12);
    assert!(observed.iter().all(Option::is_none), "{observed:?}");
    assert_eq!(telemetry.snapshot().spans["estimate_cell"].count, 24);
}

#[test]
fn stream_merge_replays_retired_and_unknown_events() {
    // Capture a campaign's log and its CSV…
    let buf = SharedBuf::default();
    let csv = SharedBuf::default();
    Campaign::builder(campaign_spec())
        .cache(Arc::new(ResultCache::in_memory()))
        .telemetry(Telemetry::enabled())
        .observer(WireObserver::new(buf.clone()))
        .sink(CsvSink::new(csv.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let mut lines: Vec<String> = buf.text().lines().map(str::to_string).collect();
    // …splice in the session events older builds wrote (`lease_start`
    // before a lease's first event, `telemetry` and `done` at the end)
    // and an event from an imaginary future protocol rev.
    let first_reference = lines
        .iter()
        .position(|l| l.contains("\"event\":\"reference\""))
        .unwrap();
    lines.insert(
        first_reference,
        r#"{"event":"lease_start","lease_id":0,"cells":2}"#.to_string(),
    );
    lines.insert(
        lines.len() - 1,
        r#"{"event":"warp","factor":9}"#.to_string(),
    );
    lines.push(
        r#"{"event":"telemetry","shard":0,"snapshot":{"counters":{"cells_computed":24},"spans":{}}}"#
            .to_string(),
    );
    lines.push(r#"{"event":"done","wall_s":0.25}"#.to_string());
    let tags: Vec<String> = decode_all(&lines.join("\n"))
        .into_iter()
        .filter_map(|e| match e {
            CampaignEvent::Unknown { tag } => Some(tag),
            _ => None,
        })
        .collect();
    assert_eq!(tags, ["lease_start", "warp", "telemetry", "done"]);

    // The stream-merge replay path takes them in stride: unknown event
    // tags are skipped, not fatal, so this build replays archived logs
    // and older builds replay newer ones, into the same bytes.
    let reader = Cursor::new((lines.join("\n") + "\n").into_bytes());
    let mut replayed = CsvSink::new(Vec::new());
    let outcome = {
        let mut sinks: Vec<&mut dyn ResultSink> = vec![&mut replayed];
        stochdag_engine::merge_event_streams(reader, &mut sinks, &mut ProgressReporter::disabled())
            .unwrap()
    };
    assert_eq!(outcome.cells, 24);
    assert_eq!(replayed.into_inner(), csv.0.lock().unwrap().clone());
}

fn decode_all(text: &str) -> Vec<CampaignEvent> {
    text.lines()
        .map(|l| decode_event(l).unwrap_or_else(|e| panic!("{e}")))
        .collect()
}
