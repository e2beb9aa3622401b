//! Public-API snapshot: the engine's exported symbol list is pinned so
//! future API breaks are deliberate, reviewed changes — not accidents
//! of a refactor. If this test fails, either restore the export or
//! update `EXPECTED` *and* the README's migration notes in the same
//! change.

/// Every name `stochdag_engine` re-exports at the crate root, sorted.
const EXPECTED: &[&str] = &[
    "BackendContext",
    "CacheGcStats",
    "CacheTier",
    "Campaign",
    "CampaignBuilder",
    "CampaignEvent",
    "CampaignObserver",
    "CampaignPlan",
    "CancelToken",
    "CsvSink",
    "DagInstance",
    "DagSpec",
    "Deliver",
    "DryRun",
    "DryRunInstance",
    "EngineError",
    "EstimatorRegistry",
    "EstimatorSpec",
    "ExecBackend",
    "FnObserver",
    "InProcess",
    "JsonlSink",
    "LeaseExecutor",
    "LeasePoll",
    "LeaseQueue",
    "MetricsReport",
    "MetricsSnapshot",
    "MultiProcess",
    "ProgressMode",
    "ProgressReporter",
    "Reorderer",
    "ResultCache",
    "ResultSink",
    "ResumeEstimatorReport",
    "ResumeReport",
    "ScenarioModel",
    "ScenarioSpec",
    "SharedFs",
    "SpanGuard",
    "SpanStat",
    "SpoolSummary",
    "SpoolWorker",
    "StableHasher",
    "SummaryRow",
    "SweepOutcome",
    "SweepRow",
    "SweepSpec",
    "Telemetry",
    "TelemetrySink",
    "UnsupportedScenario",
    "VecSink",
    "WireObserver",
    "WorkLease",
    "cell_key",
    "decode_event",
    "decode_lease",
    "encode_event",
    "encode_lease",
    "merge_event_streams",
    "parse_toml",
    "summarize",
];

/// Extract the names re-exported by `pub use …;` items in lib.rs.
fn exported_names(source: &str) -> Vec<String> {
    // Strip line comments, join, then walk `pub use …;` items. The
    // lib.rs style is plain paths and brace lists (no globs, no
    // nesting), so this stays a simple scanner.
    let joined: String = source
        .lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");
    let mut names = Vec::new();
    let mut rest = joined.as_str();
    while let Some(start) = rest.find("pub use ") {
        rest = &rest[start + "pub use ".len()..];
        let end = rest.find(';').expect("pub use item is terminated");
        let item = &rest[..end];
        rest = &rest[end + 1..];
        let item = item.trim();
        assert!(!item.contains('*'), "glob re-exports hide the surface");
        if let Some(brace) = item.find('{') {
            let list = item[brace + 1..].trim_end_matches('}');
            for name in list.split(',') {
                let name = name.trim();
                if !name.is_empty() {
                    names.push(name.rsplit("::").next().unwrap().trim().to_string());
                }
            }
        } else {
            names.push(item.rsplit("::").next().unwrap().trim().to_string());
        }
    }
    names.sort();
    names.dedup();
    names
}

#[test]
fn exported_symbol_list_is_pinned() {
    let names = exported_names(include_str!("../src/lib.rs"));
    let expected: Vec<String> = {
        let mut v: Vec<String> = EXPECTED.iter().map(|s| s.to_string()).collect();
        v.sort();
        v
    };
    assert_eq!(
        names, expected,
        "the engine's public re-export surface changed; if intentional, \
         update EXPECTED and the README migration notes together"
    );
}

#[test]
fn snapshot_names_actually_resolve() {
    // A compile-time cross-check that the snapshot is not stale: every
    // type/function named above is imported here. (A name dropped from
    // lib.rs fails this `use`; a name added to lib.rs fails the
    // snapshot comparison.)
    #[allow(unused_imports)]
    use stochdag_engine::{
        cell_key, decode_event, decode_lease, encode_event, encode_lease, merge_event_streams,
        parse_toml, summarize, BackendContext, CacheGcStats, CacheTier, Campaign, CampaignBuilder,
        CampaignEvent, CampaignObserver, CampaignPlan, CancelToken, CsvSink, DagInstance, DagSpec,
        Deliver, DryRun, DryRunInstance, EngineError, EstimatorRegistry, EstimatorSpec,
        ExecBackend, FnObserver, InProcess, JsonlSink, LeaseExecutor, LeasePoll, LeaseQueue,
        MetricsReport, MetricsSnapshot, MultiProcess, ProgressMode, ProgressReporter, Reorderer,
        ResultCache, ResultSink, ResumeEstimatorReport, ResumeReport, ScenarioModel, ScenarioSpec,
        SharedFs, SpanGuard, SpanStat, SpoolSummary, SpoolWorker, StableHasher, SummaryRow,
        SweepOutcome, SweepRow, SweepSpec, Telemetry, TelemetrySink, UnsupportedScenario, VecSink,
        WireObserver, WorkLease,
    };
}
