//! End-to-end tests of distributed sweeps: the `sweep --workers N`
//! coordinator, the hidden `sweep-worker --leases` protocol, and the
//! acceptance guarantee that a distributed campaign's merged CSV/JSONL
//! is byte-identical to the single-process path over the same cache.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use stochdag_engine::{
    decode_event, encode_lease, CampaignEvent, CampaignPlan, EstimatorRegistry, SweepSpec,
};

fn stochdag(args: &[&str]) -> (bool, String, String) {
    stochdag_env(args, &[])
}

fn stochdag_env(args: &[&str], env: &[(&str, &str)]) -> (bool, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_stochdag"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Run the binary with `input` on stdin.
fn stochdag_stdin(args: &[&str], input: String) -> (bool, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_stochdag"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Recursively copy a directory (the committed fixture cache into a
/// scratch dir, so tests never mutate repo files).
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

/// The 24-cell acceptance campaign (2 DAG kinds × 3 sizes × 2
/// estimators × 2 failure probabilities) — the same file CI's
/// distributed-sweep-smoke job runs, so editing the example cannot
/// silently diverge CI from the byte-identity guarantee tested here.
const CAMPAIGN: &str = include_str!("../../../examples/ci_smoke_campaign.toml");

fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("stochdag_cli_dist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("campaign.toml");
    std::fs::write(&spec, CAMPAIGN).unwrap();
    (dir, spec)
}

#[test]
fn distributed_output_is_byte_identical_to_single_process() {
    // Acceptance criterion: for N ∈ {1, 2, 4}, a fresh distributed run
    // followed by a single-process run over the same cache produces
    // byte-identical CSV and JSONL (the single-process run is served
    // entirely from what the workers computed and stored).
    for n in ["1", "2", "4"] {
        let (dir, spec) = scratch(&format!("accept{n}"));
        let cache = dir.join("cache");
        let dist_out = dir.join("dist");
        let single_out = dir.join("single");

        let (ok, stdout, stderr) = stochdag(&[
            "sweep",
            "--spec",
            spec.to_str().unwrap(),
            "--workers",
            n,
            "--progress",
            "plain",
            "--out",
            dist_out.to_str().unwrap(),
            "--cache",
            cache.to_str().unwrap(),
        ]);
        assert!(ok, "workers={n}: {stdout}\n{stderr}");
        assert!(stdout.contains("24 cells"), "{stdout}");
        assert!(
            stderr.contains("cells 24/24") && stderr.contains("eta done"),
            "progress on stderr: {stderr}"
        );

        let (ok, stdout, stderr) = stochdag(&[
            "sweep",
            "--spec",
            spec.to_str().unwrap(),
            "--out",
            single_out.to_str().unwrap(),
            "--cache",
            cache.to_str().unwrap(),
        ]);
        assert!(ok, "{stdout}\n{stderr}");
        assert!(
            stdout.contains("(fully cached)"),
            "workers={n} must have computed every work unit: {stdout}"
        );
        for ext in ["csv", "jsonl"] {
            assert_eq!(
                std::fs::read(dist_out.join(format!("ci-smoke.{ext}"))).unwrap(),
                std::fs::read(single_out.join(format!("ci-smoke.{ext}"))).unwrap(),
                "workers={n}: merged {ext} differs from single-process {ext}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crashed_worker_shard_is_retried_once_and_output_stays_identical() {
    // Kill-a-worker: a crash file arms the fault-injection hook in
    // `sweep-worker` — worker slot 0 emits a few events, deletes the
    // file, and hard-exits mid-stream (non-zero, no `lease_done`). The
    // coordinator must re-queue the dead worker's leases (cache-first
    // over the shared cache) and still produce byte-identical output.
    let (dir, spec) = scratch("retry");
    let cache = dir.join("cache");
    let crash_file = dir.join("crash-shard");
    std::fs::write(&crash_file, "0").unwrap();

    let dist_out = dir.join("dist");
    let (ok, stdout, stderr) = stochdag_env(
        &[
            "sweep",
            "--spec",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--progress",
            "plain",
            "--out",
            dist_out.to_str().unwrap(),
            "--cache",
            cache.to_str().unwrap(),
        ],
        &[(
            "STOCHDAG_SWEEP_WORKER_CRASH_FILE",
            crash_file.to_str().unwrap(),
        )],
    );
    assert!(ok, "campaign must survive one worker crash: {stderr}");
    assert!(
        stderr.contains("sweep worker 0 failed") && stderr.contains("re-queueing"),
        "coordinator reports the re-queue: {stderr}"
    );
    assert!(stdout.contains("24 cells"), "{stdout}");
    assert!(!crash_file.exists(), "the crashing worker disarms the hook");
    // The crashed attempt's duplicate events must not skew progress:
    // the final line reports exactly the campaign's 24 cells — not a
    // double-counted retry total — and reaches a finished ETA.
    assert!(
        stderr.contains("cells 24/24 (100%)") && stderr.contains("eta done"),
        "progress counters stay exact across the retry: {stderr}"
    );

    // The merged output must match a clean single-process run.
    let single_out = dir.join("single");
    let (ok, stdout, stderr) = stochdag(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        single_out.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("(fully cached)"), "{stdout}");
    for ext in ["csv", "jsonl"] {
        assert_eq!(
            std::fs::read(dist_out.join(format!("ci-smoke.{ext}"))).unwrap(),
            std::fs::read(single_out.join(format!("ci-smoke.{ext}"))).unwrap(),
            "retried campaign {ext} differs from single-process {ext}"
        );
    }

    // A lease whose every attempt crashes fails the campaign. Run with
    // a single worker slot so no healthy peer can absorb the re-queued
    // leases, and re-arm the hook so the respawned worker dies too:
    // the second crash exhausts the per-lease attempt budget.
    std::fs::write(&crash_file, "0").unwrap();
    let twice = dir.join("twice-crash");
    let (ok2, stdout2, stderr2) = stochdag_env(
        &[
            "sweep",
            "--spec",
            spec.to_str().unwrap(),
            "--workers",
            "1",
            "--out",
            twice.to_str().unwrap(),
            "--cache",
            dir.join("cache2").to_str().unwrap(),
        ],
        &[
            (
                "STOCHDAG_SWEEP_WORKER_CRASH_FILE",
                crash_file.to_str().unwrap(),
            ),
            ("STOCHDAG_SWEEP_WORKER_CRASH_REARM", "1"),
        ],
    );
    assert!(!ok2, "a lease failing every attempt must fail the campaign");
    assert!(stderr2.contains("sweep worker 0 failed"), "{stderr2}");
    assert!(
        !stdout2.contains("24 cells"),
        "the failed campaign must not report completion: {stdout2}"
    );
    assert!(
        crash_file.exists(),
        "the re-armed hook never disarms itself"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_replays_byte_identically_from_a_pre_redesign_cache() {
    // Acceptance criterion: the 24-cell acceptance campaign, run
    // against a cache directory written by the PR-4 (pre-Campaign)
    // code, is served fully from cache — cache keys unchanged — and
    // regenerates byte-identical CSV/JSONL through both the InProcess
    // and MultiProcess{2} backends.
    let fixture = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/pr4_acceptance"
    ));
    let expected_csv = std::fs::read(fixture.join("ci-smoke.csv")).unwrap();
    let expected_jsonl = std::fs::read(fixture.join("ci-smoke.jsonl")).unwrap();

    for workers in [None, Some("2")] {
        let (dir, spec) = scratch(&format!("pr4cache{}", workers.unwrap_or("1")));
        let cache = dir.join("cache");
        copy_dir(&fixture.join("cache"), &cache);
        let out = dir.join("out");
        let mut args = vec![
            "sweep",
            "--spec",
            spec.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--cache",
            cache.to_str().unwrap(),
        ];
        if let Some(n) = workers {
            args.extend(["--workers", n]);
        }
        let (ok, stdout, stderr) = stochdag(&args);
        assert!(ok, "{stdout}\n{stderr}");
        // Single-process probes each of the 36 work units once; with
        // workers, a reference needed by leases on both workers is
        // (cache-)hit by each. Either way nothing may be recomputed.
        assert!(
            stdout.contains("(fully cached)"),
            "every cell and reference must hit the PR-4 cache (workers={workers:?}): {stdout}"
        );
        if workers.is_none() {
            assert!(stdout.contains("cache: 36/36 hits"), "{stdout}");
        }
        assert_eq!(
            std::fs::read(out.join("ci-smoke.csv")).unwrap(),
            expected_csv,
            "CSV differs from the pre-redesign output (workers={workers:?})"
        );
        assert_eq!(
            std::fs::read(out.join("ci-smoke.jsonl")).unwrap(),
            expected_jsonl,
            "JSONL differs from the pre-redesign output (workers={workers:?})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sweep_worker_speaks_the_lease_protocol() {
    let (dir, spec_toml) = scratch("proto");
    // Workers take the spec as JSON (what the coordinator hands them);
    // TOML also parses, but exercise the real handshake format.
    let spec = SweepSpec::from_file(spec_toml.to_str().unwrap()).unwrap();
    let spec_json = dir.join("campaign.json");
    std::fs::write(&spec_json, serde::json::to_string(&spec)).unwrap();
    let cache = dir.join("cache");
    let lease_lines: Vec<String> = CampaignPlan::new(&spec, &EstimatorRegistry::standard())
        .unwrap()
        .leases()
        .iter()
        .map(encode_lease)
        .collect();
    let worker = |input: String| {
        stochdag_stdin(
            &[
                "sweep-worker",
                "--spec-json",
                spec_json.to_str().unwrap(),
                "--leases",
                "--worker",
                "1",
                "--jobs",
                "2",
                "--cache",
                cache.to_str().unwrap(),
            ],
            input,
        )
    };

    // Every planned lease on stdin, then EOF: the worker drains them
    // and reports each cell once, after its hello; the last lease's
    // lease_done ends the stream.
    let (ok, stdout, stderr) = worker(lease_lines.join("\n") + "\n");
    assert!(ok, "{stderr}");
    let events: Vec<CampaignEvent> = stdout
        .lines()
        .map(|l| decode_event(l).unwrap_or_else(|e| panic!("{e}")))
        .collect();
    match events.first() {
        Some(CampaignEvent::Hello { shard, jobs }) => {
            assert_eq!(*shard, 1, "hello carries the worker slot");
            assert_eq!(*jobs, 2, "the coordinator's --jobs handshake");
        }
        other => panic!("expected hello first, got {other:?}"),
    }
    assert!(
        matches!(events.last(), Some(CampaignEvent::LeaseDone { .. })),
        "a lease_done last"
    );
    let mut cells = std::collections::BTreeSet::new();
    for ev in &events {
        if let CampaignEvent::Cell { index, row, .. } = ev {
            assert!(cells.insert(*index), "cell {index} reported twice");
            assert!(row.value > 0.0 && row.rel_error.abs() < 0.5);
        }
    }
    assert_eq!(cells.len(), 24, "the leases cover the 24 cells");

    // A torn lease line fails the worker cleanly: its final stdout line
    // is a protocol `error` event with the structured failure kind, so
    // a coordinator's metrics report can tally failures by kind.
    let (ok, stdout, _) = worker(format!("{}\n{{\"lease_id\":", lease_lines[0]));
    assert!(!ok);
    match decode_event(stdout.lines().last().unwrap()) {
        Ok(CampaignEvent::Error { kind, .. }) => {
            assert_eq!(kind.as_deref(), Some("worker"), "{stdout}")
        }
        other => panic!("expected error event, got {other:?}: {stdout}"),
    }

    // The static `--shard I --of N` mode is gone.
    let (ok, _, stderr) = stochdag(&[
        "sweep-worker",
        "--spec-json",
        spec_json.to_str().unwrap(),
        "--shard",
        "0",
        "--of",
        "2",
        "--no-cache",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--leases"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_report_under_workers_prints_no_shard_rows() {
    let (dir, spec) = scratch("resume");
    let cache = dir.join("cache");
    let base = [
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
    ];

    // Run the campaign once (single process), then ask for the report
    // under 2 workers: leases assign cells at run time, so the report
    // is the same as in-process, with no per-shard rows.
    let out = dir.join("out");
    let mut run_args = base.to_vec();
    run_args.extend(["--out", out.to_str().unwrap()]);
    let (ok, stdout, stderr) = stochdag(&run_args);
    assert!(ok, "{stdout}\n{stderr}");

    let mut report_args = base.to_vec();
    report_args.extend(["--resume-report", "--workers", "2"]);
    let (ok, stdout, _) = stochdag(&report_args);
    assert!(ok, "{stdout}");
    // 24 cells + 12 reference scenarios.
    assert!(stdout.contains("36 of 36 work units cached"), "{stdout}");
    assert!(!stdout.contains("shard"), "{stdout}");
    assert!(stdout.contains("entirely from cache"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_worker_counts_fail_before_any_work() {
    let (dir, spec) = scratch("badn");
    let (ok, _, stderr) = stochdag(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--workers",
        "0",
        "--no-cache",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--workers"), "{stderr}");

    let (ok, _, stderr) = stochdag(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--workers",
        "two",
        "--no-cache",
    ]);
    assert!(!ok);
    assert!(stderr.contains("bad --workers"), "{stderr}");
    assert!(
        !dir.join("results").exists(),
        "no output files before validation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
