//! `sweep` — run a declarative scenario campaign on the engine's
//! [`Campaign`] facade, with content-addressed caching and streaming
//! CSV/JSONL sinks.
//!
//! The campaign comes from a spec file (`--spec camp.toml|.json`) or is
//! assembled from flags (`--classes`, `--ks`, `--pfails`,
//! `--estimators`, …). Re-running the same spec against the same
//! `--cache` directory completes from cache with byte-identical output
//! files. `--jobs N` caps the worker threads (results are identical at
//! any setting), `--resume-report` diffs the spec against the cache
//! without running anything, `--dry-run` prints the expansion without
//! executing, and `--cache-max-bytes B` LRU-prunes the on-disk cache
//! after the campaign.
//!
//! `--workers N` selects the engine's [`MultiProcess`] backend: the
//! campaign pull-schedules cell leases over N `sweep-worker` processes
//! sharing the on-disk cache, a crashed worker's leases are re-queued
//! to the survivors, and the merged CSV/JSONL is byte-identical to an
//! in-process run. `--spool DIR` selects the [`SharedFs`] backend
//! instead: the campaign coordinates remote `sweep-worker --spool DIR`
//! processes (launched separately, on any hosts sharing the
//! filesystem) through a spool directory, with `--lease-timeout SECS`
//! bounding how long a dead worker's claim can stall a lease before it
//! is re-queued. `--progress none|plain|live` renders progress on
//! stderr for either backend (`live` falls back to `plain` when stderr
//! is not a terminal; `--progress-interval SECS` tunes the plain-mode
//! throttle).
//!
//! Observability: `--metrics-out FILE` writes a deterministic JSON
//! metrics report (cells by cache tier, rows, per-estimator counts,
//! span timings, failure tallies by kind) after the campaign, and
//! `--trace-out FILE` streams every telemetry span/counter as JSONL
//! while it runs. See the README's "Observability" section for the
//! schema and span glossary.

use crate::args::Options;
use crate::report::{fmt_duration, Table};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use stochdag::prelude::*;
use stochdag_engine::{
    Campaign, DagSpec, EstimatorSpec, MultiProcess, ProgressMode, ProgressReporter, SharedFs,
    Telemetry,
};

pub fn run(argv: &[String]) -> Result<(), String> {
    let run_options = [
        "out",
        "cache",
        "no-cache",
        "cache-max-bytes",
        "workers",
        "spool",
        "lease-timeout",
        "progress",
        "progress-interval",
        "metrics-out",
        "trace-out",
        "dry-run",
        "resume-report",
    ];
    let opts = Options::parse(argv, &[SPEC_OPTIONS, &run_options[..]].concat())?;
    let spec = load_spec(&opts)?;
    spec.validate()?;

    let out_dir: PathBuf = opts.get("out").unwrap_or("results").into();
    let cache_dir: PathBuf = opts.get("cache").unwrap_or(".stochdag-cache").into();
    let cache = Arc::new(if opts.flag("no-cache") {
        ResultCache::in_memory()
    } else {
        ResultCache::on_disk(&cache_dir)
    });
    // Parse every knob before any work: a malformed value must fail up
    // front, not after an hours-long campaign.
    let cache_budget: Option<u64> = opts
        .get("cache-max-bytes")
        .map(str::parse)
        .transpose()
        .map_err(|_| "bad --cache-max-bytes".to_string())?;
    let workers: Option<usize> = opts
        .get("workers")
        .map(str::parse)
        .transpose()
        .map_err(|_| "bad --workers".to_string())?;
    if workers == Some(0) {
        return Err("--workers must be positive".into());
    }
    let spool = opts.get("spool").map(PathBuf::from);
    if spool.is_some() && workers.is_some() {
        return Err("use either --workers (local processes) or --spool (cross-host)".into());
    }
    let lease_timeout: Option<f64> = opts
        .get("lease-timeout")
        .map(str::parse)
        .transpose()
        .map_err(|_| "bad --lease-timeout".to_string())?;
    if lease_timeout.is_some_and(|s| !(s.is_finite() && s > 0.0)) {
        return Err("--lease-timeout must be a positive number of seconds".into());
    }
    if lease_timeout.is_some() && spool.is_none() {
        return Err("--lease-timeout only applies with --spool".into());
    }
    if spool.is_some() && opts.flag("no-cache") {
        return Err("--spool needs the shared on-disk cache; drop --no-cache".into());
    }
    let distributed = workers.is_some() || spool.is_some();
    let progress = match opts.get("progress") {
        None => {
            if distributed {
                ProgressMode::Plain
            } else {
                ProgressMode::None
            }
        }
        Some(mode) => ProgressMode::parse(mode)?,
    };
    let progress_interval: Option<f64> = opts
        .get("progress-interval")
        .map(str::parse)
        .transpose()
        .map_err(|_| "bad --progress-interval".to_string())?;
    if progress_interval.is_some_and(|s| !(s.is_finite() && s >= 0.0)) {
        return Err("--progress-interval must be a non-negative number of seconds".into());
    }
    let metrics_out: Option<PathBuf> = opts.get("metrics-out").map(Into::into);
    let trace_out: Option<PathBuf> = opts.get("trace-out").map(Into::into);

    // Telemetry is pay-for-what-you-ask: off unless a report or trace
    // was requested, so the default path records nothing and reads no
    // clocks.
    let telemetry = if let Some(path) = &trace_out {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("creating trace file {}: {e}", path.display()))?;
        Telemetry::with_trace(Box::new(file))
    } else if metrics_out.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    let mut builder = Campaign::builder(spec.clone())
        .cache(cache.clone())
        .telemetry(telemetry.clone());
    if let Some(n) = workers {
        builder = builder.backend(MultiProcess::new(n));
    } else if let Some(dir) = &spool {
        let mut backend = SharedFs::new(dir);
        if let Some(secs) = lease_timeout {
            backend = backend.lease_timeout(Duration::from_secs_f64(secs));
        }
        builder = builder.backend(backend);
    }

    if opts.flag("dry-run") {
        return print_dry_run(builder.build()?);
    }
    if opts.flag("resume-report") {
        if cache_budget.is_some() {
            eprintln!("note: --cache-max-bytes has no effect with --resume-report (nothing runs)");
        }
        return print_resume_report(builder.build()?);
    }

    let csv_path = out_dir.join(format!("{}.csv", spec.name));
    let jsonl_path = out_dir.join(format!("{}.jsonl", spec.name));
    let csv = CsvSink::create(&csv_path).map_err(|e| e.to_string())?;
    let jsonl = JsonlSink::create(&jsonl_path).map_err(|e| e.to_string())?;

    eprintln!(
        "sweep {:?}: {} estimator(s) x {} model(s), reference mc={} trials{}",
        spec.name,
        spec.estimators.len(),
        spec.model_count(),
        spec.reference_trials,
        match (workers, &spool) {
            (Some(n), _) => format!(", distributed over {n} worker(s)"),
            (None, Some(dir)) => format!(", cross-host via spool {}", dir.display()),
            (None, None) => String::new(),
        }
    );
    let mut reporter = ProgressReporter::stderr(progress);
    if let Some(secs) = progress_interval {
        reporter = reporter.with_plain_interval(Duration::from_secs_f64(secs));
    }
    let outcome = builder
        .sink(csv)
        .sink(jsonl)
        .observer(reporter)
        .build()?
        .run()?;

    let mut table = Table::new(&[
        "estimator",
        "cells",
        "mean|rel_err|",
        "max|rel_err|",
        "total_time",
    ]);
    for s in &outcome.summary {
        table.row(vec![
            s.estimator.clone(),
            s.cells.to_string(),
            format!("{:.3e}", s.mean_abs_rel_error),
            format!("{:.3e}", s.max_abs_rel_error),
            fmt_duration(std::time::Duration::from_secs_f64(s.total_elapsed_s)),
        ]);
    }
    println!(
        "# sweep {:?}: {} cells + {} references in {}",
        spec.name,
        outcome.cells,
        outcome.references,
        fmt_duration(outcome.wall)
    );
    print!("{}", table.to_text());
    println!(
        "cache: {}/{} hits{}",
        outcome.cache_hits,
        outcome.cache_hits + outcome.cache_misses,
        if outcome.fully_cached() {
            " (fully cached)"
        } else {
            ""
        }
    );
    println!("wrote {}", csv_path.display());
    println!("wrote {}", jsonl_path.display());
    if let Some(path) = &metrics_out {
        let report = telemetry.report(&spec.name, &outcome);
        std::fs::write(path, report.to_json() + "\n")
            .map_err(|e| format!("writing metrics report {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    if let Some(path) = &trace_out {
        println!("wrote {}", path.display());
    }

    if let Some(budget) = cache_budget {
        if opts.flag("no-cache") {
            eprintln!("note: --cache-max-bytes has no effect with --no-cache");
        } else {
            let stats = cache.gc_disk(budget)?;
            println!(
                "cache gc: kept {} entries ({} B), evicted {} ({} B) to fit {budget} B",
                stats.kept_files, stats.kept_bytes, stats.evicted_files, stats.evicted_bytes
            );
        }
    }
    Ok(())
}

/// `sweep --dry-run`: print the campaign's expansion — instances,
/// estimators, cell/reference counts — without executing or probing
/// anything.
fn print_dry_run(campaign: Campaign) -> Result<(), String> {
    let dry = campaign.dry_run()?;
    println!(
        "# dry run {:?} on {}: {} cells + {} references",
        dry.name, dry.backend, dry.cells, dry.references
    );
    let mut table = Table::new(&["dag", "tasks", "edges"]);
    for inst in &dry.instances {
        table.row(vec![
            inst.id.clone(),
            inst.tasks.to_string(),
            inst.edges.to_string(),
        ]);
    }
    print!("{}", table.to_text());
    println!(
        "{} failure model(s) x estimators: {}",
        dry.models,
        dry.estimators.join(", ")
    );
    Ok(())
}

/// `sweep --resume-report`: diff the spec against the cache and print
/// hit/miss counts per estimator without running anything.
fn print_resume_report(campaign: Campaign) -> Result<(), String> {
    let report = campaign.resume_report()?;
    println!(
        "# resume report for {:?}: {} of {} work units cached",
        campaign.spec().name,
        report.total_hits(),
        report.total_hits() + report.total_misses()
    );
    let mut table = Table::new(&["estimator", "cached", "to compute"]);
    table.row(vec![
        "(mc reference)".into(),
        report.reference_hits.to_string(),
        report.reference_misses.to_string(),
    ]);
    for e in &report.estimators {
        table.row(vec![
            e.estimator.clone(),
            e.hits.to_string(),
            e.misses.to_string(),
        ]);
    }
    print!("{}", table.to_text());
    if report.fully_cached() {
        println!("a run would complete entirely from cache");
    } else {
        println!("{} work unit(s) would be computed", report.total_misses());
    }
    Ok(())
}

fn parse_estimators(list: &str) -> Result<Vec<EstimatorSpec>, String> {
    list.split(',')
        .map(|s| s.trim().parse::<EstimatorSpec>())
        .collect()
}

/// The options [`load_spec`] reads, which `sweep` and `submit` both
/// accept.
pub(crate) const SPEC_OPTIONS: &[&str] = &[
    "spec",
    "classes",
    "ks",
    "pfails",
    "estimators",
    "trials",
    "seed",
    "name",
    "jobs",
    "scenarios",
];

/// Build the campaign spec from `--spec FILE` plus flag overrides, or
/// assemble it purely from flags. Shared with `submit`, which sends
/// the same spec model to a resident daemon instead of running it.
pub(crate) fn load_spec(opts: &Options) -> Result<SweepSpec, String> {
    if let Some(path) = opts.get("spec") {
        let mut spec = SweepSpec::from_file(path)?;
        // Flag overrides on top of a file spec.
        if let Some(seed) = opts.get("seed") {
            spec.seed = seed.parse().map_err(|_| "bad --seed".to_string())?;
        }
        if let Some(trials) = opts.get("trials") {
            spec.reference_trials = trials.parse().map_err(|_| "bad --trials".to_string())?;
        }
        if let Some(jobs) = opts.get("jobs") {
            spec.jobs = Some(jobs.parse().map_err(|_| "bad --jobs".to_string())?);
        }
        if let Some(list) = opts.get("scenarios") {
            spec.scenarios = parse_scenarios(list)?;
        }
        return Ok(spec);
    }
    // Flag-assembled spec: factorization classes only.
    let classes = opts.get("classes").ok_or_else(|| {
        "pass --spec FILE, or assemble one with --classes/--ks/--pfails/--estimators".to_string()
    })?;
    let ks = opts.get_usize_list("ks", &[4, 6, 8])?;
    let dags = classes
        .split(',')
        .map(|c| {
            let class = FactorizationClass::parse(c.trim())
                .ok_or_else(|| format!("unknown DAG class {c:?}"))?;
            Ok(DagSpec::Factorization {
                class,
                ks: ks.clone(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let pfails = match opts.get("pfails") {
        None => vec![0.01, 0.001],
        Some(list) => list
            .split(',')
            .map(|p| {
                p.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("bad pfail {p:?}"))
            })
            .collect::<Result<_, _>>()?,
    };
    let estimators = parse_estimators(
        opts.get("estimators")
            .unwrap_or("first-order,sculli,corlca,dodin"),
    )?;
    Ok(SweepSpec {
        name: opts.get("name").unwrap_or("sweep").to_string(),
        seed: opts.get_or("seed", 0)?,
        pfails,
        lambdas: Vec::new(),
        estimators,
        reference_trials: opts.get_or("trials", 100_000)?,
        reference_sampling: stochdag::core::SamplingModel::Geometric,
        jobs: opts
            .get("jobs")
            .map(str::parse)
            .transpose()
            .map_err(|_| "bad --jobs".to_string())?,
        scenarios: match opts.get("scenarios") {
            None => Vec::new(),
            Some(list) => parse_scenarios(list)?,
        },
        dags,
    })
}

/// Comma-separated scenario ids, e.g. `iid,rack:4:0.05:2`.
fn parse_scenarios(list: &str) -> Result<Vec<stochdag::workload::ScenarioSpec>, String> {
    list.split(',')
        .map(|s| {
            s.trim()
                .parse::<stochdag::workload::ScenarioSpec>()
                .map_err(|e| format!("bad scenario {s:?}: {e}"))
        })
        .collect()
}
