//! serve-overlap: closed-loop clients against an in-process daemon.

use crate::campaigns::{self, Scratch};
use crate::check::rows_match;
use crate::metrics::Report;
use crate::run::{peak_rss_mb, reset_peak_rss, sampling_setup};
use crate::stats::{median, tail_percentile};
use crate::workloads::{self, Workload};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use stochdag_engine::{
    CsvSink, EngineError, JsonlSink, ProgressMode, ResultSink, SummaryRow, SweepOutcome, SweepRow,
    SweepSpec,
};
use stochdag_serve::{
    Request, Response, ServeClient, ServeConfig, ServeHandle, Server, ShutdownMode, ShutdownReport,
};

/// Closed-loop clients: no more than the cores of the 2-vCPU machine
/// the bounds were set on.
pub const CLIENTS: usize = 2;
/// Campaigns each client submits at least, however long that takes.
pub const MIN_PER_CLIENT: usize = 50;

/// A daemon serving on a loopback ephemeral port from a harness thread.
pub struct Daemon {
    pub addr: String,
    handle: ServeHandle,
    thread: JoinHandle<Result<ShutdownReport, EngineError>>,
}

impl Daemon {
    pub fn start() -> Result<Daemon, String> {
        let server = Server::bind(ServeConfig::default()).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let handle = server.handle();
        Ok(Daemon {
            addr,
            handle,
            thread: std::thread::spawn(move || server.run()),
        })
    }

    pub fn metrics(&self) -> stochdag_engine::MetricsSnapshot {
        self.handle.metrics()
    }

    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown(ShutdownMode::Drain);
        match self.thread.join() {
            Ok(r) => r.map(|_| ()).map_err(|e| e.to_string()),
            Err(_) => Err("serve thread panicked".into()),
        }
    }
}

/// `Server::bind` until the first `status` reply. The request is queued
/// on the listening socket before `Server::run` starts, so the first
/// accept finds it instead of racing the accept loop's idle sleep.
fn setup_once() -> Result<Duration, String> {
    let t0 = Instant::now();
    let server = Server::bind(ServeConfig::default()).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let mut conn = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let line = serde::json::to_string(&Request::Status { id: None });
    conn.write_all(format!("{line}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let mut reply = String::new();
    let read = BufReader::new(&conn).read_line(&mut reply);
    let took = t0.elapsed();
    handle.shutdown(ShutdownMode::Now);
    let joined = thread.join();
    read.map_err(|e| e.to_string())?;
    joined
        .map_err(|_| "serve thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    match serde::json::from_str::<Response>(&reply) {
        Ok(Response::Status(_)) => Ok(took),
        other => Err(format!("expected a status reply, got {other:?}")),
    }
}

/// The pool, parsed, with in-process reference rows for each entry.
pub struct Pool {
    pub specs: Vec<SweepSpec>,
    pub want: Vec<Vec<SweepRow>>,
}

impl Pool {
    pub fn prepare(seed: u64) -> Result<Pool, String> {
        let texts = workloads::serve_pool(Workload::ServeOverlap.spec_seed(seed));
        let mut pool = Pool {
            specs: Vec::new(),
            want: Vec::new(),
        };
        for t in &texts {
            pool.specs.push(t.parse().map_err(|e| e.to_string())?);
            pool.want.push(campaigns::reference_rows(t)?);
        }
        Ok(pool)
    }
}

/// One served campaign, timed from outside, in seconds.
#[derive(Clone, Copy)]
pub struct Timing {
    /// Submit → `run_to_sinks` returns (last row written, sinks
    /// flushed).
    pub latency: f64,
    /// The submit round trip.
    pub submit: f64,
    /// Submit reply → first row in the sinks (subscribe, first event).
    pub first_row: f64,
    /// First row → last row.
    pub stream: f64,
    /// A status round trip made after the campaign, outside its
    /// latency (traced runs only).
    pub status: Option<f64>,
}

/// One client's tally.
#[derive(Default)]
pub struct ClientRun {
    pub timings: Vec<Timing>,
    pub attempted: usize,
    pub failures: Vec<String>,
    pub rows: usize,
    /// Cells computed fresh and cells delivered, from the outcomes.
    pub cells_computed: usize,
    pub cells: usize,
    /// Distinct delivered cells → |rel_error|.
    pub errors: BTreeMap<String, f64>,
}

/// A sink that notes when the first and the last row arrive.
#[derive(Default)]
struct RowClock {
    first: Option<Instant>,
    last: Option<Instant>,
}

impl ResultSink for RowClock {
    fn begin(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    fn row(&mut self, _: &SweepRow) -> std::io::Result<()> {
        let now = Instant::now();
        self.first.get_or_insert(now);
        self.last = Some(now);
        Ok(())
    }

    fn summary(&mut self, _: &[SummaryRow]) -> std::io::Result<()> {
        Ok(())
    }

    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Submit `spec` and replay its events into CSV and JSONL files in
/// `dir` with `run_to_sinks`, as a user's client would; with `traced`,
/// one status request follows the campaign.
fn served_campaign(
    client: &ServeClient,
    spec: &SweepSpec,
    dir: &Path,
    traced: bool,
) -> Result<(Timing, SweepOutcome), String> {
    let io = |e: std::io::Error| e.to_string();
    let mut csv = CsvSink::create(dir.join("rows.csv")).map_err(io)?;
    let mut jsonl = JsonlSink::create(dir.join("rows.jsonl")).map_err(io)?;
    let mut clock = RowClock::default();
    let t0 = Instant::now();
    let sub = client
        .submit(spec)
        .map_err(|e| format!("submit refused or failed: {e}"))?;
    let t1 = Instant::now();
    let outcome = {
        let mut sinks: [&mut dyn ResultSink; 3] = [&mut csv, &mut jsonl, &mut clock];
        client
            .run_to_sinks(sub.id, &mut sinks, ProgressMode::None)
            .map_err(|e| e.to_string())?
    };
    let done = Instant::now();
    let status = if traced {
        client.status(Some(sub.id)).map_err(|e| e.to_string())?;
        Some(done.elapsed().as_secs_f64())
    } else {
        None
    };
    let first = clock.first.unwrap_or(done);
    let last = clock.last.unwrap_or(done);
    let timing = Timing {
        latency: (done - t0).as_secs_f64(),
        submit: (t1 - t0).as_secs_f64(),
        first_row: (first - t1).as_secs_f64(),
        stream: (last - first).as_secs_f64(),
        status,
    };
    Ok((timing, outcome))
}

/// One closed-loop client: draw, submit, replay, check; until the
/// deadline and at least `min` campaigns.
pub fn client_loop(
    addr: &str,
    pool: &Pool,
    draws: &[usize],
    deadline: Instant,
    min: usize,
    traced: bool,
    dir: &Path,
) -> ClientRun {
    let client = ServeClient::connect_to(addr);
    let mut run = ClientRun::default();
    for &pick in draws.iter().cycle() {
        if run.attempted >= min && Instant::now() >= deadline {
            break;
        }
        run.attempted += 1;
        let checked = served_campaign(&client, &pool.specs[pick], dir, traced).and_then(|done| {
            rows_match(&done.1.rows, &pool.want[pick])?;
            Ok(done)
        });
        match checked {
            Ok((timing, outcome)) => {
                run.rows += outcome.rows.len();
                run.cells_computed += outcome.cells_computed;
                run.cells += outcome.cells;
                for r in &outcome.rows {
                    run.errors.insert(
                        format!("{}|{}|{}", r.dag, r.model, r.estimator),
                        r.rel_error.abs(),
                    );
                }
                run.timings.push(timing);
            }
            Err(why) => run.failures.push(why),
        }
    }
    run
}

/// Both clients against `daemon` for `seconds`; returns the client runs
/// and the timed wall.
pub fn session(
    daemon: &Daemon,
    pool: &Pool,
    seed: u64,
    seconds: f64,
    min: usize,
    traced: bool,
    scratch: &Scratch,
) -> (Vec<ClientRun>, f64) {
    let barrier = Barrier::new(CLIENTS);
    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let draws = workloads::serve_draws(seed, c, CLIENTS, pool.specs.len(), 4 * min);
                let dir = scratch.fresh("client");
                let barrier = &barrier;
                s.spawn(move || {
                    if let Err(e) = std::fs::create_dir_all(&dir) {
                        return ClientRun {
                            attempted: 1,
                            failures: vec![e.to_string()],
                            ..ClientRun::default()
                        };
                    }
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    client_loop(&daemon.addr, pool, &draws, deadline, min, traced, &dir)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve client thread"))
            .collect()
    });
    (runs, start.elapsed().as_secs_f64())
}

pub fn tally(report: &mut Report, runs: &[ClientRun]) {
    for run in runs {
        report.attempted += run.attempted;
        for why in &run.failures {
            report.fail(why);
        }
    }
}

pub fn end_to_end(seed: u64, seconds: f64, scratch: &Scratch) -> Result<Report, String> {
    let mut report = Report::default();
    let pool = Pool::prepare(seed)?;
    let daemon = Daemon::start()?;
    reset_peak_rss();
    let (setup_s, (runs, wall)) = sampling_setup(setup_once, || {
        Ok(session(
            &daemon,
            &pool,
            seed,
            seconds,
            MIN_PER_CLIENT,
            false,
            scratch,
        ))
    })?;
    daemon.stop()?;
    tally(&mut report, &runs);
    let latencies: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.timings.iter().map(|t| t.latency))
        .collect();
    if latencies.is_empty() {
        return Err("no served campaign succeeded".into());
    }
    let rows: usize = runs.iter().map(|r| r.rows).sum();
    let errors: BTreeMap<&String, f64> = runs
        .iter()
        .flat_map(|r| r.errors.iter().map(|(k, v)| (k, *v)))
        .collect();
    if let Some((p, v)) = tail_percentile(&latencies) {
        eprintln!(
            "perfbench: {} served campaigns, p{p} latency {:.4} s",
            latencies.len(),
            v
        );
    }
    report.set("setup_s", setup_s);
    report.set("campaign_p50_s", median(&latencies));
    report.set("cells_per_s", rows as f64 / wall);
    report.set(
        "mean_abs_rel_error",
        errors.values().sum::<f64>() / errors.len() as f64,
    );
    report.set(
        "max_abs_rel_error",
        errors.values().copied().fold(0.0, f64::max),
    );
    report.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}
