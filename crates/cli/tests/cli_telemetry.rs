//! End-to-end tests of `sweep`'s observability surface: the
//! `--metrics-out` report (deterministic stable section, identical
//! across backends and worker counts), the `--trace-out` JSONL stream,
//! and the progress reporter's non-TTY fallback.

use std::path::{Path, PathBuf};
use std::process::Command;

fn stochdag(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_stochdag"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The 24-cell acceptance campaign CI's smoke job also runs.
const CAMPAIGN: &str = include_str!("../../../examples/ci_smoke_campaign.toml");

fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("stochdag_cli_tel_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("campaign.toml");
    std::fs::write(&spec, CAMPAIGN).unwrap();
    (dir, spec)
}

/// Parse a metrics report and re-render its `stable` subtree (the
/// serde shim's rendering is deterministic, so equal subtrees mean
/// equal bytes).
fn stable_section(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let v = serde::json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(v.require("schema_version").unwrap().as_u64(), Some(1));
    let mut out = String::new();
    serde::json::write_value(v.require("stable").unwrap(), &mut out);
    out
}

#[test]
fn metrics_report_is_deterministic_and_worker_invariant() {
    let (dir, spec) = scratch("metrics");
    let cache = dir.join("cache");
    let run = |tag: &str, workers: Option<&str>| -> (PathBuf, String) {
        let metrics = dir.join(format!("{tag}.metrics.json"));
        let out = dir.join(tag);
        let mut args = vec![
            "sweep",
            "--spec",
            spec.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--cache",
            cache.to_str().unwrap(),
        ];
        let m = metrics.to_str().unwrap().to_string();
        args.extend(["--metrics-out", &m]);
        if let Some(n) = workers {
            args.extend(["--workers", n]);
        }
        let (ok, stdout, stderr) = stochdag(&args);
        assert!(ok, "{tag}: {stdout}\n{stderr}");
        assert!(
            stdout.contains(&format!("wrote {}", metrics.display())),
            "{stdout}"
        );
        (metrics, stdout)
    };

    // Cold run computes all 24 cells and says so in the report.
    let (cold, _) = run("cold", None);
    let cold_stable = stable_section(&cold);
    assert!(cold_stable.contains("\"total\":24"), "{cold_stable}");
    assert!(cold_stable.contains("\"computed\":24"), "{cold_stable}");
    assert!(cold_stable.contains("\"rows_emitted\":24"), "{cold_stable}");

    // Over the now-warm disk cache, every backend and worker count
    // must agree byte-for-byte: all 24 cells served from the disk
    // tier, regardless of how the campaign was partitioned.
    let (single, _) = run("single", None);
    let (w1, _) = run("w1", Some("1"));
    let (w2, _) = run("w2", Some("2"));
    let warm_stable = stable_section(&single);
    assert!(warm_stable.contains("\"disk_hits\":24"), "{warm_stable}");
    assert!(warm_stable.contains("\"computed\":0"), "{warm_stable}");
    assert_eq!(warm_stable, stable_section(&w1), "workers=1 differs");
    assert_eq!(warm_stable, stable_section(&w2), "workers=2 differs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_process_spans_reach_the_metrics_report() {
    // Each worker process sends every lease's spans and counters on
    // its lease_done, so a cold `--workers 2` report counts the work of
    // both workers exactly once.
    let (dir, spec) = scratch("worker-spans");
    let metrics = dir.join("metrics.json");
    let (ok, stdout, stderr) = stochdag(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        dir.join("out").to_str().unwrap(),
        "--cache",
        dir.join("cache").to_str().unwrap(),
        "--workers",
        "2",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    let text = std::fs::read_to_string(&metrics).unwrap();
    let v = serde::json::parse(&text).unwrap();
    let telemetry = v.require("detail").unwrap().require("telemetry").unwrap();
    let count = |section: &str, name: &str, field: Option<&str>| {
        let mut value = telemetry.require(section).unwrap().require(name).unwrap();
        if let Some(field) = field {
            value = value.require(field).unwrap();
        }
        value.as_u64()
    };
    assert_eq!(
        count("spans", "estimate_cell", Some("count")),
        Some(24),
        "{text}"
    );
    assert_eq!(
        count("counters", "cells_computed", None),
        Some(24),
        "{text}"
    );
    assert_eq!(count("counters", "worker_spawns", None), Some(2), "{text}");
    // Reference lookups are reported per tier by the workers' counters;
    // there is no plan-derived `references_probed` beside them.
    assert!(
        count("counters", "references_computed", None).is_some_and(|n| n >= 12),
        "{text}"
    );
    let detail = v.require("detail").unwrap();
    assert!(detail.get("references_probed").is_none(), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_out_streams_parseable_spans_and_counters() {
    let (dir, spec) = scratch("trace");
    let trace = dir.join("trace.jsonl");
    let (ok, stdout, stderr) = stochdag(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        dir.join("out").to_str().unwrap(),
        "--cache",
        dir.join("cache").to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(
        stdout.contains(&format!("wrote {}", trace.display())),
        "{stdout}"
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(!text.is_empty());
    for line in text.lines() {
        let v = serde::json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
        assert!(
            v.get("span").is_some() || v.get("counter").is_some(),
            "{line}"
        );
    }
    assert!(text.contains("\"span\":\"estimate_cell\""), "{text}");
    assert!(text.contains("\"span\":\"cache_probe\""), "{text}");
    assert!(text.contains("\"counter\":\"cells_computed\""), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg(unix)]
fn error_kinds_from_failed_attempts_reach_the_metrics_report() {
    // A worker whose first attempt emits a structured `error` event and
    // dies is retried; the campaign succeeds, but the failure must
    // still be tallied by kind in the metrics report. Inject it with a
    // launcher wrapper: first spawn fails with a `cache`-kind error,
    // every later spawn execs the real worker.
    use std::os::unix::fs::PermissionsExt;
    use stochdag_engine::{Campaign, MultiProcess, ResultCache, SweepSpec, Telemetry, VecSink};

    let (dir, spec) = scratch("errkind");
    let marker = dir.join("first-attempt-done");
    let wrapper = dir.join("flaky-worker.sh");
    std::fs::write(
        &wrapper,
        format!(
            "#!/bin/sh\n\
             if mkdir {marker:?} 2>/dev/null; then\n\
               echo '{{\"event\":\"error\",\"kind\":\"cache\",\"message\":\"injected failure\"}}'\n\
               exit 1\n\
             fi\n\
             exec {real:?} \"$@\"\n",
            marker = marker.to_str().unwrap(),
            real = env!("CARGO_BIN_EXE_stochdag"),
        ),
    )
    .unwrap();
    std::fs::set_permissions(&wrapper, std::fs::Permissions::from_mode(0o755)).unwrap();

    let telemetry = Telemetry::enabled();
    let outcome = Campaign::builder(SweepSpec::from_file(spec.to_str().unwrap()).unwrap())
        .cache(std::sync::Arc::new(ResultCache::on_disk(dir.join("cache"))))
        .backend(MultiProcess::new(2).launcher(&wrapper, vec!["sweep-worker".into()]))
        .telemetry(telemetry.clone())
        .sink(VecSink::default())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.cells, 24, "campaign survives the flaky attempt");

    let report = telemetry.report("ci-smoke", &outcome);
    assert_eq!(
        report.errors_by_kind.get("cache"),
        Some(&1),
        "{:?}",
        report.errors_by_kind
    );
    let snap_json = report.to_json();
    assert!(snap_json.contains("\"worker_retries\":1"), "{snap_json}");
    assert!(
        snap_json.contains("\"errors_by_kind\":{\"cache\":1}"),
        "{snap_json}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_progress_falls_back_to_plain_when_stderr_is_piped() {
    let (dir, spec) = scratch("live");
    let (ok, stdout, stderr) = stochdag(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        dir.join("out").to_str().unwrap(),
        "--no-cache",
        "--progress",
        "live",
        "--progress-interval",
        "0",
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    // stderr here is a pipe, not a terminal: live must degrade to
    // append-only plain lines — no carriage-return rewriting in logs.
    assert!(!stderr.contains('\r'), "plain fallback never rewrites");
    assert!(stderr.contains("cells 24/24 (100%)"), "{stderr}");
    assert!(stderr.contains("eta done"), "{stderr}");

    // And the knob rejects nonsense before any work happens.
    let (ok, _, stderr) = stochdag(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--no-cache",
        "--progress-interval",
        "-1",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--progress-interval"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
