//! End-to-end tests of the campaign service through the real binary:
//! `serve` daemon lifecycle, `submit`/`status`/`cancel`/`shutdown`
//! clients, served-output parity with a direct `sweep`, a SIGTERM
//! drain, a `shutdown` ack that outlives the worker pool, and on-disk
//! cache reusability after the daemon is SIGKILLed mid-campaign.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

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

/// The same 24-cell campaign CI's smoke jobs run.
const CAMPAIGN: &str = include_str!("../../../examples/ci_smoke_campaign.toml");

fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("stochdag_cli_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("campaign.toml");
    std::fs::write(&spec, CAMPAIGN).unwrap();
    (dir, spec)
}

/// Start a daemon on an ephemeral port; returns the child, the parsed
/// address from its "listening on" line, and the still-open stdout
/// reader (dropping the pipe would make the daemon's own summary
/// prints fail).
fn start_daemon(extra: &[&str]) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_stochdag"))
        .arg("serve")
        .args(["--listen", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("daemon announces its address");
    let addr = line
        .trim()
        .strip_prefix("stochdag-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected announce line {line:?}"))
        .to_string();
    (child, addr, reader)
}

fn wait_exit(child: &mut Child) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if child.try_wait().expect("wait works").is_some() {
            return;
        }
        assert!(Instant::now() < deadline, "daemon did not exit in time");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn served_campaign_matches_direct_sweep_and_daemon_shuts_down_cleanly() {
    let (dir, spec) = scratch("parity");
    let cache = dir.join("cache");
    let report = dir.join("report.json");
    let (mut daemon, addr, _daemon_out) = start_daemon(&[
        "--cache",
        cache.to_str().unwrap(),
        "--shutdown-report",
        report.to_str().unwrap(),
    ]);

    // Submit through the daemon and stream results locally.
    let served_out = dir.join("served");
    let (ok, stdout, stderr) = stochdag(&[
        "submit",
        "--addr",
        &addr,
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        served_out.to_str().unwrap(),
        "--progress",
        "none",
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("24 cells"), "{stdout}");

    // A direct single-process sweep over the same cache must replay
    // byte-identically.
    let direct_out = dir.join("direct");
    let (ok, stdout, stderr) = stochdag(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        direct_out.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(
        stdout.contains("(fully cached)"),
        "daemon must have computed every unit: {stdout}"
    );
    for ext in ["csv", "jsonl"] {
        assert_eq!(
            std::fs::read(served_out.join(format!("ci-smoke.{ext}"))).unwrap(),
            std::fs::read(direct_out.join(format!("ci-smoke.{ext}"))).unwrap(),
            "served {ext} differs from direct sweep {ext}"
        );
    }

    // Status shows the completed campaign and the cache totals.
    let (ok, stdout, _) = stochdag(&["status", "--addr", &addr]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("done"), "{stdout}");
    assert!(stdout.contains("cells: 24 computed"), "{stdout}");

    // Clean shutdown persists the report and exits zero.
    let (ok, stdout, _) = stochdag(&["shutdown", "--addr", &addr]);
    assert!(ok, "{stdout}");
    wait_exit(&mut daemon);
    assert!(
        daemon.wait().unwrap().success(),
        "daemon must exit cleanly after a drain"
    );
    assert!(report.exists(), "shutdown report must be persisted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn detach_cancel_and_unknown_id_round_trip() {
    let (dir, spec) = scratch("cancel");
    let (mut daemon, addr, _daemon_out) = start_daemon(&["--no-cache", "--max-running", "1"]);

    // A heavyweight submission detaches immediately…
    let slow_spec = dir.join("slow.toml");
    std::fs::write(
        &slow_spec,
        CAMPAIGN.replace("reference_trials = 2000", "reference_trials = 4000000"),
    )
    .unwrap();
    let (ok, stdout, stderr) = stochdag(&[
        "submit",
        "--addr",
        &addr,
        "--spec",
        slow_spec.to_str().unwrap(),
        "--detach",
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("submitted campaign 1"), "{stdout}");
    assert!(stdout.contains("detached"), "{stdout}");

    // …and can be cancelled while the daemon chews on it.
    let (ok, stdout, stderr) = stochdag(&["cancel", "--addr", &addr, "--id", "1"]);
    assert!(ok, "{stdout}\n{stderr}");
    let (ok, stdout, _) = stochdag(&["status", "--addr", &addr, "--id", "1"]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("queued") || stdout.contains("running") || stdout.contains("cancelled"),
        "{stdout}"
    );

    // Unknown ids are structured errors surfaced as command failures.
    let (ok, _, stderr) = stochdag(&["cancel", "--addr", &addr, "--id", "99"]);
    assert!(!ok);
    assert!(stderr.contains("unknown-id"), "{stderr}");

    let (ok, _, _) = stochdag(&["shutdown", "--addr", &addr, "--now"]);
    assert!(ok);
    wait_exit(&mut daemon);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = spec;
}

#[test]
fn idle_daemon_acks_shutdown_now_before_exiting() {
    // With no campaign running, the worker pool exits the moment the
    // flag flips; the daemon must still write the `shutdown` ack before
    // its process ends. Repeated because the race is a timing window.
    for _ in 0..20 {
        let (mut daemon, addr, _daemon_out) = start_daemon(&["--no-cache"]);
        let (ok, stdout, stderr) = stochdag(&["shutdown", "--addr", &addr, "--now"]);
        assert!(ok, "{stdout}\n{stderr}");
        assert!(stdout.contains("shutting down now"), "{stdout}");
        wait_exit(&mut daemon);
    }
}

#[test]
fn sigkilled_daemon_leaves_the_disk_cache_reusable() {
    // Torn-write coverage for the service: SIGKILL the daemon while a
    // campaign is writing the shared on-disk cache, then run a direct
    // sweep over the same directory — partial entries must be treated
    // as misses, not corruption.
    let (dir, spec) = scratch("sigkill");
    let cache = dir.join("cache");
    let (mut daemon, addr, _daemon_out) = start_daemon(&["--cache", cache.to_str().unwrap()]);

    let (ok, stdout, stderr) = stochdag(&[
        "submit",
        "--addr",
        &addr,
        "--spec",
        spec.to_str().unwrap(),
        "--detach",
    ]);
    assert!(ok, "{stdout}\n{stderr}");

    // Give the campaign a moment to start writing cache entries, then
    // kill the daemon without any cleanup.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cache.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    daemon.kill().expect("SIGKILL lands");
    daemon.wait().expect("reaped");

    // The cache directory (in whatever torn state the kill left it)
    // must still serve a fresh single-process sweep.
    let out = dir.join("after");
    let (ok, stdout, stderr) = stochdag(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
        "--cache-max-bytes",
        "100000000",
    ]);
    assert!(
        ok,
        "sweep over a torn cache must succeed: {stdout}\n{stderr}"
    );
    assert!(stdout.contains("24 cells"), "{stdout}");
    assert!(
        out.join("ci-smoke.csv").exists() && out.join("ci-smoke.jsonl").exists(),
        "outputs written"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigterm_drains_the_daemon_and_writes_the_shutdown_report() {
    let (dir, _spec) = scratch("sigterm");
    let report = dir.join("report.json");
    let (mut daemon, addr, mut daemon_out) =
        start_daemon(&["--no-cache", "--shutdown-report", report.to_str().unwrap()]);
    // One served request: the daemon is up, then idles in accept.
    let (ok, stdout, stderr) = stochdag(&["status", "--addr", &addr]);
    assert!(ok, "{stdout}\n{stderr}");

    let sent = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(sent.success());
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = daemon.try_wait().expect("wait works") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "daemon did not exit within 5 s of SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "SIGTERM must drain to exit 0: {status}");

    let mut rest = String::new();
    daemon_out.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("shut down after"), "{rest}");
    let raw = std::fs::read_to_string(&report).expect("shutdown report written");
    let parsed: stochdag_serve::ShutdownReport =
        serde::json::from_str(&raw).expect("shutdown report parses");
    assert!(parsed.unfinished.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
