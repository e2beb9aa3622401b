//! End-to-end tests of the `stochdag` binary: every subcommand runs and
//! produces the expected artifacts (reduced trial counts keep this
//! fast).

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

#[test]
fn help_lists_all_commands() {
    let (ok, stdout, _) = stochdag(&["help"]);
    assert!(ok);
    for cmd in [
        "figure",
        "all-figures",
        "table1",
        "dot",
        "sched",
        "dodin-compare",
        "second-order",
        "info",
        "analyze",
    ] {
        assert!(stdout.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn no_args_prints_help() {
    let (ok, stdout, _) = stochdag(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn help_after_a_command_prints_usage() {
    for args in [
        &["sweep", "--help"][..],
        &["sweep-worker", "--help"],
        &["submit", "-h"],
        &["sweep", "--classes", "qr", "--help"],
    ] {
        let (ok, stdout, stderr) = stochdag(args);
        assert!(ok, "{args:?}: {stderr}");
        assert!(stdout.contains("USAGE"), "{args:?}: {stdout}");
    }
}

#[test]
fn unknown_command_fails_cleanly() {
    let (ok, _, stderr) = stochdag(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn only_an_unknown_command_points_at_the_help() {
    let (ok, _, stderr) = stochdag(&["nosuch"]);
    assert!(!ok);
    assert!(stderr.contains("stochdag help"), "{stderr}");
    // A command that failed for another reason says only why.
    let (ok, _, stderr) = stochdag(&["sweep", "--spec", "/nonexistent.toml"]);
    assert!(!ok);
    assert!(stderr.contains("/nonexistent.toml"), "{stderr}");
    assert!(!stderr.contains("stochdag help"), "{stderr}");
}

/// Run `args` in `cwd`, killing the process if it is still running
/// after `limit` (a command that wrongly ignored a bad option may not
/// exit on its own): `(exited, success, stderr)`.
fn run_in(
    cwd: &std::path::Path,
    args: &[&str],
    limit: std::time::Duration,
) -> (bool, bool, String) {
    use std::io::Read;
    let mut child = Command::new(env!("CARGO_BIN_EXE_stochdag"))
        .args(args)
        .current_dir(cwd)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let start = std::time::Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if start.elapsed() > limit {
            child.kill().unwrap();
            child.wait().unwrap();
            break None;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    (
        status.is_some(),
        status.is_some_and(|s| s.success()),
        stderr,
    )
}

/// A scratch working directory, so a command that wrongly runs on
/// defaults leaves its `results/` and `.stochdag-cache/` where the test
/// can see them.
fn scratch_cwd(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stochdag_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `args` must fail at once with an error that names `option`,
/// suggests `hint` (or nothing) and lists `accepted` among the
/// command's options, leaving `cwd` empty.
fn assert_rejects_option(
    tag: &str,
    args: &[&str],
    option: &str,
    hint: Option<&str>,
    accepted: &str,
) {
    let cwd = scratch_cwd(tag);
    let (exited, ok, stderr) = run_in(&cwd, args, std::time::Duration::from_secs(20));
    assert!(exited, "{args:?} kept running: {stderr}");
    assert!(!ok, "{args:?} must fail");
    assert!(
        stderr.contains(&format!("unknown option {option} ")),
        "{stderr}"
    );
    match hint {
        Some(name) => assert!(
            stderr.contains(&format!("(did you mean {name}?)")),
            "{stderr}"
        ),
        None => assert!(!stderr.contains("did you mean"), "{stderr}"),
    }
    assert!(stderr.contains(accepted), "{stderr}");
    let left: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
    assert!(left.is_empty(), "{args:?} wrote {left:?}");
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn sweep_rejects_an_unknown_option() {
    assert_rejects_option(
        "bogus",
        &[
            "sweep",
            "--classes",
            "qr",
            "--ks",
            "2",
            "--trials",
            "200",
            "--totally-bogus",
            "1",
        ],
        "--totally-bogus",
        None,
        "--spec",
    );
}

#[test]
fn sweep_rejects_cache_dir_instead_of_running_on_the_default_cache() {
    assert_rejects_option(
        "cachedir",
        &[
            "sweep",
            "--classes",
            "qr",
            "--ks",
            "2",
            "--trials",
            "200",
            "--cache-dir",
            "X",
        ],
        "--cache-dir",
        Some("--cache"),
        "--cache,",
    );
}

#[test]
fn serve_rejects_the_clients_addr_option() {
    // `--addr` is the clients' option; the daemon binds `--listen`.
    assert_rejects_option(
        "serveaddr",
        &[
            "serve",
            "--no-cache",
            "--listen",
            "127.0.0.1:0",
            "--addr",
            "127.0.0.1:7791",
        ],
        "--addr",
        None,
        "--listen",
    );
}

#[test]
fn sweep_rejects_a_misspelt_spec_key_instead_of_running_on_defaults() {
    let body = "pfails = [0.1]\nestimators = [\"first-order\"]\nreference_trials = 200\n";
    for (tag, text, error) in [
        (
            "topkey",
            format!("refrence_trials = 9\n{body}[[dags]]\nkind = \"qr\"\nks = [2]\n"),
            "unknown key \"refrence_trials\" in the top-level table",
        ),
        (
            "dagkey",
            format!("{body}[[dags]]\nkind = \"qr\"\nks = [2]\nweigths = 2\n"),
            "dags[0]: unknown key \"weigths\" in a \"qr\" DAG source (accepted: kind, ks)",
        ),
    ] {
        // The spec lives outside the working directory, which must
        // stay empty.
        let spec =
            std::env::temp_dir().join(format!("stochdag_cli_{tag}_{}.toml", std::process::id()));
        std::fs::write(&spec, text).unwrap();
        let cwd = scratch_cwd(tag);
        let args = ["sweep", "--spec", spec.to_str().unwrap()];
        let (exited, ok, stderr) = run_in(&cwd, &args, std::time::Duration::from_secs(20));
        assert!(exited, "{args:?} kept running: {stderr}");
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.contains(error), "{stderr}");
        let left: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
        assert!(left.is_empty(), "{args:?} wrote {left:?}");
        let _ = std::fs::remove_dir_all(&cwd);
        let _ = std::fs::remove_file(&spec);
    }
}

#[test]
fn info_reports_paper_task_counts() {
    let (ok, stdout, _) = stochdag(&["info", "--class", "lu", "-k", "12"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("tasks:            650"), "{stdout}");
    assert!(stdout.contains("series-parallel:  false"));
}

#[test]
fn figure_produces_error_table_and_csv() {
    let tmp = std::env::temp_dir().join("stochdag_cli_smoke_fig.csv");
    let _ = std::fs::remove_file(&tmp);
    let (ok, stdout, _) = stochdag(&[
        "figure",
        "--class",
        "cholesky",
        "--pfail",
        "0.001",
        "--ks",
        "4",
        "--trials",
        "5000",
        "--csv",
        tmp.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("first_order"));
    let csv = std::fs::read_to_string(&tmp).expect("CSV written");
    assert!(csv.starts_with("k,tasks,mc_mean"));
    assert_eq!(csv.lines().count(), 2, "header + one k row");
    let _ = std::fs::remove_file(&tmp);
}

#[test]
fn figure_requires_class() {
    let (ok, _, stderr) = stochdag(&["figure", "--pfail", "0.01"]);
    assert!(!ok);
    assert!(stderr.contains("--class"));
}

#[test]
fn dot_emits_graphviz_with_paper_names() {
    let (ok, stdout, _) = stochdag(&["dot", "--class", "qr", "-k", "5"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph qr_5 {"));
    assert!(stdout.contains("TSMQR_3_4_2"), "paper Fig. 3 task present");
    assert!(stdout.trim_end().ends_with('}'));
}

#[test]
fn sched_compares_policies() {
    let (ok, stdout, _) = stochdag(&[
        "sched",
        "--class",
        "cholesky",
        "-k",
        "4",
        "-p",
        "2",
        "--pfail",
        "0.01",
        "--replicas",
        "50",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("bottom-level"));
    assert!(stdout.contains("best:"));
}

#[test]
fn analyze_handles_user_file_and_bad_file() {
    let tmp = std::env::temp_dir().join("stochdag_cli_smoke_graph.txt");
    std::fs::write(&tmp, "task a 1.0\ntask b 2.0\ndep a b\n").unwrap();
    let (ok, stdout, _) = stochdag(&[
        "analyze",
        "--file",
        tmp.to_str().unwrap(),
        "--trials",
        "5000",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("FirstOrder"));
    assert!(stdout.contains("d(G) = 3.0"), "{stdout}");

    std::fs::write(&tmp, "task a 1.0\ndep a missing\n").unwrap();
    let (ok, _, stderr) = stochdag(&["analyze", "--file", tmp.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("missing"), "{stderr}");
    let _ = std::fs::remove_file(&tmp);
}

#[test]
fn second_order_table() {
    let (ok, stdout, _) = stochdag(&[
        "second-order",
        "--class",
        "lu",
        "-k",
        "4",
        "--trials",
        "5000",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("second_order"));
    assert!(stdout.lines().count() >= 8, "six pfail rows plus header");
}

#[test]
fn dodin_compare_reports_gap() {
    let (ok, stdout, _) = stochdag(&["dodin-compare", "--ks", "2,3"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("rel_gap"));
    assert!(stdout.contains("cholesky"));
}

#[test]
fn sweep_campaign_caches_and_reruns_identically() {
    // The acceptance campaign: 2 DAG kinds x 3 sizes x 2 estimators x
    // 2 failure probabilities = 24 cells, from a TOML spec file.
    let dir = std::env::temp_dir().join(format!("stochdag_cli_sweep_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("campaign.toml");
    std::fs::write(
        &spec_path,
        r#"
name = "smoke"
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
    .unwrap();
    let out = dir.join("results");
    let cache = dir.join("cache");
    let args = [
        "sweep",
        "--spec",
        spec_path.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
    ];

    let (ok, stdout, stderr) = stochdag(&args);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("24 cells"), "{stdout}");
    let csv_path = out.join("smoke.csv");
    let csv = std::fs::read(&csv_path).expect("CSV written");
    let text = String::from_utf8_lossy(&csv);
    assert!(text.starts_with("dag,tasks,edges,model,lambda,estimator,"));
    // header + 24 cells + summary header + 2 estimator summaries.
    assert_eq!(text.lines().count(), 1 + 24 + 1 + 2, "{text}");
    let jsonl = std::fs::read(out.join("smoke.jsonl")).expect("JSONL written");

    // Immediate re-run: 100% cache hits, byte-identical outputs.
    let (ok2, stdout2, stderr2) = stochdag(&args);
    assert!(ok2, "{stdout2}\n{stderr2}");
    assert!(stdout2.contains("(fully cached)"), "{stdout2}");
    assert_eq!(std::fs::read(&csv_path).unwrap(), csv, "CSV byte-identical");
    assert_eq!(
        std::fs::read(out.join("smoke.jsonl")).unwrap(),
        jsonl,
        "JSONL byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_flag_spec_and_errors() {
    let dir = std::env::temp_dir().join(format!("stochdag_cli_sweepflags_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = dir.join("results");
    let (ok, stdout, _) = stochdag(&[
        "sweep",
        "--classes",
        "cholesky",
        "--ks",
        "2",
        "--pfails",
        "0.01",
        "--estimators",
        "first-order",
        "--trials",
        "1000",
        "--out",
        out.to_str().unwrap(),
        "--no-cache",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("1 cells + 1 references"), "{stdout}");

    let (ok, _, stderr) = stochdag(&["sweep"]);
    assert!(!ok);
    assert!(stderr.contains("--spec"), "{stderr}");

    let (ok, _, stderr) = stochdag(&[
        "sweep",
        "--classes",
        "cholesky",
        "--estimators",
        "warp-drive",
        "--no-cache",
    ]);
    assert!(!ok);
    assert!(stderr.contains("warp-drive"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_dry_run_expands_without_executing() {
    let dir = std::env::temp_dir().join(format!("stochdag_cli_dryrun_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = dir.join("results");
    let (ok, stdout, stderr) = stochdag(&[
        "sweep",
        "--classes",
        "cholesky,lu",
        "--ks",
        "2,3",
        "--pfails",
        "0.01,0.001",
        "--estimators",
        "first-order,dodin",
        "--out",
        out.to_str().unwrap(),
        "--no-cache",
        "--dry-run",
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    // 4 instances x 2 models x 2 estimators.
    assert!(stdout.contains("16 cells + 8 references"), "{stdout}");
    assert!(stdout.contains("cholesky:k=2"), "{stdout}");
    assert!(
        stdout.contains("dodin:128"),
        "canonical estimator ids: {stdout}"
    );
    assert!(!out.exists(), "dry run must not create output files");

    // With --workers the dry run names the backend; leases assign cells
    // at run time, so there are no per-worker loads to predict.
    let (ok, stdout, _) = stochdag(&[
        "sweep",
        "--classes",
        "cholesky",
        "--ks",
        "2,3",
        "--pfails",
        "0.01",
        "--estimators",
        "first-order,sculli",
        "--no-cache",
        "--dry-run",
        "--workers",
        "2",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("multi-process (2 workers)"), "{stdout}");
    assert!(!stdout.contains("shard"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_resume_report_jobs_and_cache_gc() {
    let dir = std::env::temp_dir().join(format!("stochdag_cli_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("results");
    let cache = dir.join("cache");
    let base = [
        "sweep",
        "--classes",
        "cholesky",
        "--ks",
        "2,3",
        "--pfails",
        "0.01",
        "--estimators",
        "first-order,sculli",
        "--trials",
        "1000",
        "--out",
        out.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
    ];

    // Before any run: the resume report predicts all misses and runs
    // nothing (no output files appear).
    let mut report_args = base.to_vec();
    report_args.push("--resume-report");
    let (ok, stdout, stderr) = stochdag(&report_args);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("0 of 6 work units cached"), "{stdout}");
    assert!(stdout.contains("(mc reference)"), "{stdout}");
    assert!(!out.join("sweep.csv").exists(), "report must not run cells");

    // Run the campaign with a worker cap.
    let mut run_args = base.to_vec();
    run_args.extend(["--jobs", "2"]);
    let (ok, stdout, stderr) = stochdag(&run_args);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("4 cells + 2 references"), "{stdout}");

    // Now the report sees everything cached.
    let (ok, stdout, _) = stochdag(&report_args);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("6 of 6 work units cached"), "{stdout}");
    assert!(stdout.contains("entirely from cache"), "{stdout}");

    // A zero-byte budget evicts the whole on-disk tier after the run.
    let mut gc_args = base.to_vec();
    gc_args.extend(["--cache-max-bytes", "0"]);
    let (ok, stdout, stderr) = stochdag(&gc_args);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("cache gc: kept 0 entries"), "{stdout}");
    let (ok, stdout, _) = stochdag(&report_args);
    assert!(ok);
    assert!(stdout.contains("0 of 6 work units cached"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_lists_sweep() {
    let (ok, stdout, _) = stochdag(&["help"]);
    assert!(ok);
    assert!(stdout.contains("sweep"), "help missing sweep");
}
