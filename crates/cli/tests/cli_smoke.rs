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
fn unknown_command_fails_cleanly() {
    let (ok, _, stderr) = stochdag(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
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
