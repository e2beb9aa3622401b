//! End-to-end coverage of the workload subsystem inside the engine:
//! trace-backed `DagSpec` sources (DOT + WfCommons JSON), the
//! correlated-failure scenario axis, content-addressed trace cache
//! keys, and the i.i.d. byte-compatibility guarantee.

use std::io::Cursor;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use stochdag_engine::{
    encode_event, merge_event_streams, Campaign, CampaignEvent, CsvSink, FnObserver,
    ProgressReporter, ResultCache, ResultSink, SweepSpec, VecSink,
};

fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../workload/tests/fixtures")
        .join(name)
        .display()
        .to_string()
}

/// The CI workload campaign: two ingested traces, i.i.d. + rack
/// scenario, 2 estimators → 8 cells.
fn trace_spec() -> SweepSpec {
    SweepSpec::from_str_auto(&format!(
        r#"
name = "workload"
seed = 7
pfails = [0.01]
estimators = ["first-order", "mc:400"]
reference_trials = 1500
scenarios = ["iid", "rack:3:0.05:2"]

[[dags]]
kind = "dot"
path = "{}"

[[dags]]
kind = "trace-json"
path = "{}"
"#,
        fixture("montage-sample.dot"),
        fixture("epigenomics-sample.json"),
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
fn trace_campaign_with_rack_scenario_end_to_end() {
    let outcome = Campaign::builder(trace_spec())
        .sink(VecSink::default())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.cells, 8, "2 traces x 1 pfail x 2 scenarios x 2");
    assert_eq!(outcome.references, 4, "one reference per model x scenario");

    // Trace instances are content-addressed: format:name:hash48, so a
    // renamed or moved file keeps its identity (and its cache). These
    // ids are pinned to the committed fixtures.
    let dags: std::collections::BTreeSet<&str> =
        outcome.rows.iter().map(|r| r.dag.as_str()).collect();
    assert_eq!(
        dags.into_iter().collect::<Vec<_>>(),
        vec![
            "dot:montage_sample:97ad26851648",
            "trace-json:epigenomics-sample:49252d8d19c6",
        ]
    );

    // The i.i.d. half keeps the bare model label; the correlated half
    // is suffixed with the canonical scenario id.
    let labels: std::collections::BTreeSet<&str> =
        outcome.rows.iter().map(|r| r.model.as_str()).collect();
    assert_eq!(
        labels.into_iter().collect::<Vec<_>>(),
        vec!["pfail=0.01", "pfail=0.01|rack:3:0.05:2"]
    );

    // First-order's exact mixture expansion must agree with the MC
    // reference (which samples the actual correlated scenario) on
    // every row — including the rack rows.
    for row in &outcome.rows {
        assert!(
            row.rel_error.abs() < 0.05,
            "{} on {} ({}): rel_error {}",
            row.estimator,
            row.dag,
            row.model,
            row.rel_error
        );
    }
}

#[test]
fn bursty_scenario_runs_with_supported_estimators() {
    let spec = SweepSpec::from_str_auto(&format!(
        r#"
name = "bursty"
seed = 3
pfails = [0.02]
estimators = ["first-order", "first-order-naive", "mc:600"]
reference_trials = 2000
scenarios = ["bursty:3:0.5:2:11"]

[[dags]]
kind = "dot"
path = "{}"
"#,
        fixture("montage-sample.dot"),
    ))
    .unwrap();
    let outcome = Campaign::builder(spec)
        .sink(VecSink::default())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.cells, 3);
    for row in &outcome.rows {
        assert_eq!(row.model, "pfail=0.02|bursty:3:0.5:2:11");
        assert!(
            row.rel_error.abs() < 0.05,
            "{}: rel_error {}",
            row.estimator,
            row.rel_error
        );
    }
}

#[test]
fn trace_cache_keys_follow_graph_content_not_path() {
    let cache = Arc::new(ResultCache::in_memory());
    let first = Campaign::builder(trace_spec())
        .cache(cache.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(first.cache_hits, 0);

    // Move both fixtures to new names in a scratch directory: the
    // parsed graphs are unchanged, so every cell must come from cache.
    let dir = std::env::temp_dir().join(format!("stochdag_wl_move_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let moved_dot = dir.join("renamed-trace.dot");
    let moved_json = dir.join("renamed-trace.json");
    std::fs::copy(fixture("montage-sample.dot"), &moved_dot).unwrap();
    std::fs::copy(fixture("epigenomics-sample.json"), &moved_json).unwrap();
    let moved_spec = SweepSpec::from_str_auto(&format!(
        r#"
name = "workload"
seed = 7
pfails = [0.01]
estimators = ["first-order", "mc:400"]
reference_trials = 1500
scenarios = ["iid", "rack:3:0.05:2"]

[[dags]]
kind = "dot"
path = "{}"

[[dags]]
kind = "trace-json"
path = "{}"
"#,
        moved_dot.display(),
        moved_json.display(),
    ))
    .unwrap();
    let second = Campaign::builder(moved_spec)
        .cache(cache)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(
        second.fully_cached(),
        "moved trace files must hit the content-addressed cache ({} misses)",
        second.cache_misses
    );
    assert_eq!(second.rows, first.rows, "identical rows after the move");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_iid_scenario_is_byte_identical_to_absent() {
    let mut with_iid = trace_spec();
    with_iid.scenarios.truncate(1); // just ["iid"]
    let mut absent = trace_spec();
    absent.scenarios.clear();

    let cache = Arc::new(ResultCache::in_memory());
    let buf_a = SharedBuf::default();
    let a = Campaign::builder(with_iid)
        .cache(cache.clone())
        .sink(CsvSink::new(buf_a.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let buf_b = SharedBuf::default();
    let b = Campaign::builder(absent)
        .cache(cache)
        .sink(CsvSink::new(buf_b.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(
        b.fully_cached(),
        "an explicit iid scenario must reuse the bare-spec cache keys \
         ({} misses)",
        b.cache_misses
    );
    assert_eq!(a.rows, b.rows);
    assert_eq!(buf_a.bytes(), buf_b.bytes(), "byte-identical CSV");
}

#[test]
fn scenario_shards_match_in_process_byte_for_byte() {
    let spec = trace_spec();
    let dir = std::env::temp_dir().join(format!("stochdag_wl_shard_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_dir = dir.join("cache");

    // Logged half: a campaign's event stream, captured as a served
    // campaign's `events` subscription would carry it, then replayed.
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = lines.clone();
    Campaign::builder(spec.clone())
        .cache(Arc::new(ResultCache::on_disk(&cache_dir)))
        .observer(FnObserver(move |ev: &CampaignEvent| {
            sink.lock().unwrap().push(encode_event(ev));
        }))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let log = Cursor::new((lines.lock().unwrap().join("\n") + "\n").into_bytes());
    let mut csv = CsvSink::new(Vec::new());
    let merged = {
        let mut sinks: Vec<&mut dyn ResultSink> = vec![&mut csv];
        merge_event_streams(log, &mut sinks, &mut ProgressReporter::disabled()).unwrap()
    };
    let merged_csv = csv.into_inner();
    assert_eq!(merged.cells, 8);

    // In-process half: a second run over the same cache must be fully
    // served and byte-identical to the replay.
    let buf = SharedBuf::default();
    let single = Campaign::builder(spec)
        .cache(Arc::new(ResultCache::on_disk(&cache_dir)))
        .sink(CsvSink::new(buf.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(single.fully_cached(), "{} misses", single.cache_misses);
    assert_eq!(merged.rows, single.rows);
    assert_eq!(merged_csv, buf.bytes(), "byte-identical CSV");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unsupported_estimator_under_scenarios_is_a_structured_spec_error() {
    let mut spec = trace_spec();
    spec.estimators = vec!["sculli".parse().unwrap()];
    let err = Campaign::builder(spec).build().unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("sculli") && msg.contains("does not support correlated failure scenarios"),
        "{msg}"
    );
    assert!(
        msg.contains("first-order"),
        "names the supported families: {msg}"
    );
}

#[test]
fn trace_parse_errors_surface_with_location_and_path() {
    let dir = std::env::temp_dir().join(format!("stochdag_wl_err_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.dot");
    std::fs::write(&bad, "digraph g {\n  a -> ;\n}\n").unwrap();
    let spec = SweepSpec::from_str_auto(&format!(
        r#"
name = "bad"
seed = 1
pfails = [0.01]
estimators = ["first-order"]
reference_trials = 100

[[dags]]
kind = "dot"
path = "{}"
"#,
        bad.display(),
    ))
    .unwrap();
    let err = Campaign::builder(spec)
        .sink(VecSink::default())
        .build()
        .unwrap()
        .run()
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("bad.dot"), "names the file: {msg}");
    assert!(msg.contains("line 2"), "locates the error: {msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run a campaign over a hand-written DOT trace whose tasks all weigh 0
/// under the model axis `axis`, and check it fails as a spec error
/// naming the instance. Calibrating pfails divides by the mean weight,
/// and every relative error divides by the reference: both are 0 here.
fn assert_zero_makespan_is_a_spec_error(axis: &str) {
    let tag = if axis.starts_with("pfails") { "p" } else { "l" };
    let dir = std::env::temp_dir().join(format!("stochdag_wl_zero_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let zero = dir.join("zero.dot");
    std::fs::write(
        &zero,
        "digraph zero {\n  a [weight=0];\n  b [weight=0];\n  a -> b;\n}\n",
    )
    .unwrap();
    let spec = SweepSpec::from_str_auto(&format!(
        r#"
name = "zero"
seed = 1
{axis}
estimators = ["first-order", "dodin", "sculli"]
reference_trials = 100

[[dags]]
kind = "dot"
path = "{}"
"#,
        zero.display(),
    ))
    .unwrap();
    let outcome = Campaign::builder(spec)
        .sink(VecSink::default())
        .build()
        .unwrap()
        .run();
    let _ = std::fs::remove_dir_all(&dir);
    let err = outcome.expect_err("a zero-makespan instance must not run");
    let msg = err.to_string();
    assert_eq!(err.kind(), "spec", "{msg}");
    assert!(msg.contains("dot:zero:"), "names the instance: {msg}");
    assert!(
        msg.contains("failure-free makespan of 0"),
        "says why: {msg}"
    );
}

#[test]
fn a_zero_makespan_trace_is_a_spec_error_under_pfails() {
    assert_zero_makespan_is_a_spec_error("pfails = [0.01]");
}

#[test]
fn a_zero_makespan_trace_is_a_spec_error_under_lambdas() {
    assert_zero_makespan_is_a_spec_error("lambdas = [0.01]");
}
