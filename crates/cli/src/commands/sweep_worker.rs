//! `sweep-worker` — the worker half of distributed sweeps, in two
//! modes:
//!
//! * `--leases` (spawned by the engine's [`MultiProcess`] backend):
//!   the coordinator streams [`WorkLease`] requests over **stdin**,
//!   one JSON line each, and this process executes them via
//!   [`Campaign::serve_leases`], emitting every
//!   [`stochdag_engine::CampaignEvent`] as one line of JSON on
//!   **stdout** (which therefore stays machine-readable; diagnostics
//!   go to stderr). `--jobs N` caps this worker's threads — the
//!   coordinator sizes it, not a cores/N guess.
//! * `--spool DIR` (launched by hand or a job scheduler on any host
//!   sharing the filesystem with a `sweep --spool DIR` coordinator):
//!   runs a [`SpoolWorker`] session that claims leases from the spool
//!   directory until the coordinator stops the campaign. See the
//!   README's "Cross-host campaigns" section.
//!
//! Not listed in `stochdag help`: the piped protocol is an internal
//! contract with the coordinator, not a user interface. The `--spool`
//! mode IS user-facing (it is how remote hosts join a campaign) and is
//! documented in the README.
//!
//! [`MultiProcess`]: stochdag_engine::MultiProcess
//! [`WorkLease`]: stochdag_engine::WorkLease
//! [`Campaign::serve_leases`]: stochdag_engine::Campaign::serve_leases
//! [`SpoolWorker`]: stochdag_engine::SpoolWorker

use crate::args::Options;
use std::sync::Arc;
use std::time::Duration;
use stochdag::prelude::*;
use stochdag_engine::{
    encode_event, Campaign, CampaignEvent, CampaignObserver, EngineError, SpoolWorker, Telemetry,
    WireObserver,
};

/// Test hook for the coordinator's kill-a-worker tests: when
/// `STOCHDAG_SWEEP_WORKER_CRASH_FILE` names a file whose content is
/// this worker's slot index, the worker deletes the file (so the
/// re-queued leases land on a clean respawn) and hard-exits mid-stream
/// after a few events. Every build has it, so the tests pass in debug
/// and release alike; without the variable it does nothing.
struct CrashAfterEvents {
    remaining: usize,
}

impl CampaignObserver for CrashAfterEvents {
    fn on_event(&mut self, _event: &CampaignEvent) -> Result<(), EngineError> {
        if self.remaining == 0 {
            // Simulates a worker dying mid-lease: some events are
            // already on the wire, the lease has no `lease_done`, and
            // the exit status is non-zero.
            std::process::exit(87);
        }
        self.remaining -= 1;
        Ok(())
    }
}

fn crash_armed(slot: usize) -> bool {
    let Ok(path) = std::env::var("STOCHDAG_SWEEP_WORKER_CRASH_FILE") else {
        return false;
    };
    match std::fs::read_to_string(&path) {
        Ok(content) if content.trim() == slot.to_string() => {
            // Disarm before crashing so the re-queued leases run clean
            // on the respawned worker — unless the test wants the
            // respawn to die too (`…_CRASH_REARM`).
            if std::env::var_os("STOCHDAG_SWEEP_WORKER_CRASH_REARM").is_none() {
                let _ = std::fs::remove_file(&path);
            }
            true
        }
        _ => false,
    }
}

pub fn run(argv: &[String]) -> Result<(), String> {
    // `--leases` mode takes exactly the flags `MultiProcess` passes;
    // `--spool` mode takes the rest.
    let opts = Options::parse(
        argv,
        &[
            "leases",
            "spec-json",
            "worker",
            "jobs",
            "cache",
            "no-cache",
            "telemetry",
            "spool",
            "name",
            "max-wait",
        ],
    )?;
    if let Some(spool) = opts.get("spool") {
        return run_spool(&opts, spool);
    }
    if !opts.flag("leases") {
        return Err("sweep-worker needs --leases (leases on stdin) or --spool DIR".into());
    }
    let spec_path = opts.require("spec-json")?;
    let slot: usize = opts
        .require("worker")?
        .parse()
        .map_err(|_| "bad --worker".to_string())?;
    let result: Result<(), EngineError> = (|| {
        let mut spec = SweepSpec::from_file(spec_path)?;
        // The coordinator sizes this worker's thread pool explicitly:
        // a worker does not know its peer count, so it never guesses
        // cores / N.
        if let Some(jobs) = opts.get("jobs") {
            spec.jobs = Some(jobs.parse().map_err(|_| EngineError::spec("bad --jobs"))?);
        }
        let cache = Arc::new(if opts.flag("no-cache") {
            ResultCache::in_memory()
        } else {
            ResultCache::on_disk(opts.get("cache").unwrap_or(".stochdag-cache"))
        });

        // One event per line on stdout, flushed immediately: the
        // coordinator renders live progress from this stream, so events
        // must not sit in a buffer until the lease finishes.
        let mut builder = Campaign::builder(spec)
            .cache(cache)
            .observer(WireObserver::new(std::io::stdout()));
        // The coordinator passes --telemetry when its own telemetry is
        // enabled: the worker then sends each lease's spans and
        // counters home on its `lease_done`.
        if opts.flag("telemetry") {
            builder = builder.telemetry(Telemetry::enabled());
        }
        if crash_armed(slot) {
            builder = builder.observer(CrashAfterEvents { remaining: 3 });
        }
        // The session's threads take turns reading leases, so the
        // reader must be `Send`, which a `StdinLock` is not.
        let stdin = std::io::BufReader::new(std::io::stdin());
        builder.build()?.serve_leases(slot, stdin)
    })();
    if let Err(e) = &result {
        // Best effort, covering every failure from spec loading through
        // lease execution: tell the coordinator why (and what kind of
        // failure it was, for the metrics report's errors_by_kind
        // tally) before exiting non-zero. If the pipe is already gone
        // the write fails silently — never panic here — and the exit
        // status still carries the failure.
        use std::io::Write;
        let _ = writeln!(
            std::io::stdout(),
            "{}",
            encode_event(&CampaignEvent::Error {
                message: e.to_string(),
                kind: Some(e.kind().to_string()),
            })
        );
    }
    result.map_err(String::from)
}

/// `sweep-worker --spool DIR`: serve a shared-filesystem campaign from
/// this host until its coordinator writes the stop file.
fn run_spool(opts: &Options, spool: &str) -> Result<(), String> {
    let mut worker = SpoolWorker::new(spool);
    if let Some(name) = opts.get("name") {
        worker = worker.name(name);
    }
    if let Some(jobs) = opts.get("jobs") {
        let jobs: usize = jobs.parse().map_err(|_| "bad --jobs".to_string())?;
        if jobs == 0 {
            return Err("--jobs must be positive".into());
        }
        worker = worker.jobs(jobs);
    }
    if opts.flag("no-cache") {
        worker = worker.no_cache();
    } else if let Some(dir) = opts.get("cache") {
        worker = worker.cache_dir(dir);
    }
    if let Some(wait) = opts.get("max-wait") {
        let secs: f64 = wait.parse().map_err(|_| "bad --max-wait".to_string())?;
        if !(secs.is_finite() && secs >= 0.0) {
            return Err("--max-wait must be a non-negative number of seconds".into());
        }
        worker = worker.max_wait(Duration::from_secs_f64(secs));
    }
    let summary = worker.run().map_err(String::from)?;
    eprintln!(
        "spool worker done: {} lease(s), {} cell(s)",
        summary.leases, summary.cells
    );
    Ok(())
}
