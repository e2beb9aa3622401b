//! `serve` + client subcommands — the resident campaign service.
//!
//! `stochdag serve` starts the daemon: one shared result cache and one
//! bounded worker pool multiplexing every submitted campaign, so
//! concurrent clients with overlapping grids share work through the
//! memory cache tier. `stochdag submit|status|cancel|shutdown` are the
//! matching clients, speaking the line-delimited JSON protocol of
//! `stochdag-serve` over loopback TCP.
//!
//! `submit` streams the campaign's events back and materialises
//! CSV/JSONL locally through the engine's stream merger — the files
//! are byte-identical to `stochdag sweep` over the same cache. Pass
//! `--detach` to just queue the campaign and exit; re-attach later
//! with `submit --resume-id` semantics or inspect with `status`.
//!
//! The daemon drains gracefully on SIGTERM or a `shutdown` request:
//! running campaigns finish (or stop at the next cell with
//! `shutdown --now`), queued ones are cancelled, and a resume report
//! (`--shutdown-report`) records every unfinished campaign with its
//! spec.

use super::sweep::SPEC_OPTIONS;
use crate::args::Options;
use crate::report::{fmt_duration, Table};
use std::io::Write;
use std::path::PathBuf;
use stochdag_engine::{CsvSink, JsonlSink, ProgressMode, ResultSink};
use stochdag_serve::{
    BackendChoice, ServeClient, ServeConfig, ServeHandle, Server, ShutdownMode, Submitted,
};

/// Default daemon address, shared by `serve` and the clients.
const DEFAULT_ADDR: &str = "127.0.0.1:7677";

/// `stochdag serve` — run the daemon until shutdown.
pub fn run_daemon(argv: &[String]) -> Result<(), String> {
    let opts = Options::parse(
        argv,
        &[
            "listen",
            "cache",
            "no-cache",
            "max-running",
            "max-queued",
            "max-cells",
            "shutdown-report",
        ],
    )?;
    let max_running: usize = opts.get_or("max-running", 2)?;
    if max_running == 0 {
        return Err("--max-running must be positive".into());
    }
    let max_cells: usize = opts.get_or("max-cells", 0)?;
    let config = ServeConfig {
        addr: opts.get("listen").unwrap_or(DEFAULT_ADDR).to_string(),
        cache: if opts.flag("no-cache") {
            None
        } else {
            Some(PathBuf::from(
                opts.get("cache").unwrap_or(".stochdag-cache"),
            ))
        },
        max_running,
        max_queued: opts.get_or("max-queued", 16)?,
        max_cells: if max_cells == 0 {
            None
        } else {
            Some(max_cells)
        },
        shutdown_report: opts.get("shutdown-report").map(Into::into),
    };
    let cache_desc = match &config.cache {
        Some(dir) => format!("disk cache {}", dir.display()),
        None => "in-memory cache".to_string(),
    };
    let report_path = config.shutdown_report.clone();

    let server = Server::bind(config).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // The listening line is machine-read (tests, CI, scripts polling
    // for readiness) — keep its shape stable and flush it immediately.
    println!("stochdag-serve listening on {addr}");
    std::io::stdout().flush().ok();
    eprintln!(
        "serve: {max_running} worker slot(s), queue capacity {}, {} cell quota, {cache_desc}",
        opts.get_or::<usize>("max-queued", 16)?,
        if max_cells == 0 {
            "no".to_string()
        } else {
            max_cells.to_string()
        },
    );
    install_sigterm(server.handle());

    let report = server.run().map_err(|e| e.to_string())?;
    println!(
        "serve: shut down after {} campaign(s): {} completed, {} cancelled, {} failed",
        report.server.submissions,
        report.server.completed,
        report.server.cancelled,
        report.server.failed
    );
    if let Some(path) = report_path {
        println!(
            "serve: resume report ({} unfinished) written to {}",
            report.unfinished.len(),
            path.display()
        );
    }
    Ok(())
}

/// `stochdag submit` — submit a campaign (spec file or flag-assembled,
/// exactly like `sweep`) and, unless `--detach`, stream it to local
/// CSV/JSONL.
pub fn run_submit(argv: &[String]) -> Result<(), String> {
    let client_options = [
        "addr",
        "resume-id",
        "workers",
        "spool",
        "detach",
        "out",
        "progress",
    ];
    let opts = Options::parse(argv, &[&client_options[..], SPEC_OPTIONS].concat())?;
    let client = client_for(&opts);

    let ticket = if let Some(id) = opts.get("resume-id") {
        let id: u64 = id.parse().map_err(|_| "bad --resume-id".to_string())?;
        client.resume(id)?
    } else {
        let spec = super::sweep::load_spec(&opts)?;
        spec.validate()?;
        // Per-campaign backend, same flags as `sweep`: --workers N
        // runs the campaign on N worker processes beside the daemon,
        // --spool DIR coordinates remote spool workers. Default stays
        // in-process on the daemon's pool.
        let workers: Option<usize> = opts
            .get("workers")
            .map(str::parse)
            .transpose()
            .map_err(|_| "bad --workers".to_string())?;
        let spool = opts.get("spool");
        let backend = match (workers, spool) {
            (Some(_), Some(_)) => {
                return Err(
                    "use either --workers (daemon-side processes) or --spool (cross-host)".into(),
                )
            }
            (Some(0), None) => return Err("--workers must be positive".into()),
            (Some(n), None) => BackendChoice::MultiProcess { workers: n },
            (None, Some(dir)) => BackendChoice::SharedFs { spool: dir.into() },
            (None, None) => BackendChoice::InProcess,
        };
        client.submit_on(&spec, backend)?
    };
    println!(
        "submitted campaign {} ({:?}): {} cells + {} references, queue depth {}",
        ticket.id, ticket.name, ticket.cells, ticket.references, ticket.queue_depth
    );
    if opts.flag("detach") {
        println!(
            "detached; follow with `stochdag status --id {}` or fetch results by re-submitting",
            ticket.id
        );
        return Ok(());
    }
    attach(&client, &ticket, &opts)
}

/// Stream a submitted campaign's events into local sinks and print
/// the sweep-style summary.
fn attach(client: &ServeClient, ticket: &Submitted, opts: &Options) -> Result<(), String> {
    let out_dir: PathBuf = opts.get("out").unwrap_or("results").into();
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let progress = match opts.get("progress") {
        None => ProgressMode::Plain,
        Some(mode) => ProgressMode::parse(mode)?,
    };
    let csv_path = out_dir.join(format!("{}.csv", ticket.name));
    let jsonl_path = out_dir.join(format!("{}.jsonl", ticket.name));
    let mut csv = CsvSink::create(&csv_path).map_err(|e| e.to_string())?;
    let mut jsonl = JsonlSink::create(&jsonl_path).map_err(|e| e.to_string())?;
    let outcome = {
        let mut sinks: Vec<&mut dyn ResultSink> = vec![&mut csv, &mut jsonl];
        client.run_to_sinks(ticket.id, &mut sinks, progress)?
    };
    println!(
        "# campaign {} ({:?}): {} cells + {} references in {}",
        ticket.id,
        ticket.name,
        outcome.cells,
        outcome.references,
        fmt_duration(outcome.wall)
    );
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
    Ok(())
}

/// `stochdag status` — one campaign (`--id`) or the whole server.
pub fn run_status(argv: &[String]) -> Result<(), String> {
    let opts = Options::parse(argv, &["addr", "id"])?;
    let id: Option<u64> = opts
        .get("id")
        .map(str::parse)
        .transpose()
        .map_err(|_| "bad --id".to_string())?;
    let report = client_for(&opts).status(id)?;
    let s = &report.server;
    println!(
        "server: {} running / {} queued (pool {}, queue cap {}, {} cell quota)",
        s.running,
        s.queued,
        s.max_running,
        s.max_queued,
        match s.max_cells {
            Some(q) => q.to_string(),
            None => "no".to_string(),
        }
    );
    println!(
        "admitted {} | rejected: {} admission, {} quota | finished: {} done, {} failed, {} cancelled",
        s.submissions, s.admission_rejected, s.quota_rejected, s.completed, s.failed, s.cancelled
    );
    println!(
        "cells: {} computed, {} memory hits, {} disk hits ({:.0}% served from cache)",
        s.cells_computed,
        s.cells_memory_hits,
        s.cells_disk_hits,
        s.cache_hit_rate() * 100.0
    );
    if !report.campaigns.is_empty() {
        let mut table = Table::new(&["id", "name", "state", "cells", "rows", "error"]);
        for c in &report.campaigns {
            table.row(vec![
                c.id.to_string(),
                c.name.clone(),
                c.state.as_str().to_string(),
                c.cells.to_string(),
                c.rows.to_string(),
                c.error.clone().unwrap_or_default(),
            ]);
        }
        print!("{}", table.to_text());
    }
    Ok(())
}

/// `stochdag cancel --id N` — cancel a queued or running campaign.
pub fn run_cancel(argv: &[String]) -> Result<(), String> {
    let opts = Options::parse(argv, &["addr", "id"])?;
    let id: u64 = opts
        .require("id")?
        .parse()
        .map_err(|_| "bad --id".to_string())?;
    let ack = client_for(&opts).cancel(id)?;
    println!("{ack}");
    Ok(())
}

/// `stochdag shutdown [--now]` — stop the daemon (drain by default).
pub fn run_shutdown(argv: &[String]) -> Result<(), String> {
    let opts = Options::parse(argv, &["addr", "now"])?;
    let mode = if opts.flag("now") {
        ShutdownMode::Now
    } else {
        ShutdownMode::Drain
    };
    let ack = client_for(&opts).shutdown(mode)?;
    println!("{ack}");
    Ok(())
}

fn client_for(opts: &Options) -> ServeClient {
    ServeClient::connect_to(opts.get("addr").unwrap_or(DEFAULT_ADDR))
}

/// Drain the daemon on SIGTERM so supervisors (systemd, CI teardown)
/// get the same graceful path as a `shutdown` request. Signal-handler
/// rules allow almost nothing, so the handler only flips a flag; a
/// watcher thread does the actual drain.
#[cfg(unix)]
fn install_sigterm(handle: ServeHandle) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static TERM: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term);
    }
    std::thread::spawn(move || loop {
        if TERM.load(Ordering::SeqCst) {
            handle.shutdown(ShutdownMode::Drain);
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    });
}

#[cfg(not(unix))]
fn install_sigterm(_handle: ServeHandle) {}
