//! `stochdag` — the experiment harness.
//!
//! Regenerates every table and figure of the paper's evaluation
//! (Section V). Run `stochdag help` for the command list; DESIGN.md
//! maps each paper artifact to the command that reproduces it.

mod args;
mod commands;
mod report;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `stochdag help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        print_help();
        return Ok(());
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "figure" => commands::figure::run(rest),
        "analyze" => commands::analyze::run(rest),
        "all-figures" => commands::figure::run_all(rest),
        "sweep" => commands::sweep::run(rest),
        // Internal worker half of distributed sweeps (hidden from
        // help): drains leases over stdin/stdout for `sweep --workers
        // N`, or polls a spool directory with `--spool DIR`
        // (cross-host).
        "sweep-worker" => commands::sweep_worker::run(rest),
        "serve" => commands::serve::run_daemon(rest),
        "submit" => commands::serve::run_submit(rest),
        "status" => commands::serve::run_status(rest),
        "cancel" => commands::serve::run_cancel(rest),
        "shutdown" => commands::serve::run_shutdown(rest),
        "table1" => commands::table1::run(rest),
        "dot" => commands::dot::run(rest),
        "sched" => commands::sched::run(rest),
        "dodin-compare" => commands::dodin_compare::run(rest),
        "second-order" => commands::second_order::run(rest),
        "info" => commands::info::run(rest),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn print_help() {
    println!(
        "stochdag — expected makespan of task graphs under silent errors
(reproduction of Casanova/Herrmann/Robert, P2S2/ICPP 2016)

USAGE: stochdag <COMMAND> [OPTIONS]

COMMANDS:
  figure         one figure's data series: relative error vs graph size
                   --class cholesky|lu|qr   (required)
                   --pfail 0.01|0.001|...   (required)
                   [--ks 4,6,8,10,12] [--trials 300000] [--seed 0]
                   [--csv PATH] [--fast]
                 reproduces paper Figures 4-12 (one per class x pfail)
  all-figures    every class x pfail combination; CSVs into results/
                   [--trials N] [--seed S] [--out DIR] [--fast]
  sweep          declarative scenario campaign on the parallel engine
                   --spec camp.toml|camp.json   (or assemble with flags:)
                   [--classes cholesky,lu] [--ks 4,6,8] [--pfails 0.01,0.001]
                   [--estimators first-order,sculli,corlca,dodin]
                   [--trials 100000] [--seed 0] [--name sweep] [--jobs N]
                   [--out results] [--cache .stochdag-cache] [--no-cache]
                   [--resume-report] [--dry-run] [--cache-max-bytes B]
                   [--workers N] [--spool DIR] [--lease-timeout SECS]
                   [--progress none|plain|live]
                   [--progress-interval SECS]
                   [--metrics-out FILE] [--trace-out FILE]
                 caches every cell content-addressed: re-runs and resumed
                 campaigns skip finished cells and emit identical CSV/JSONL.
                 each DAG source is built/frozen/hashed once per campaign
                 and shared across all models x estimators. --jobs caps
                 worker threads (results identical at any setting);
                 --resume-report prints per-estimator cache hit/miss
                 counts without running; --dry-run prints the
                 expansion (instances, cells) without executing
                 anything;
                 --cache-max-bytes LRU-prunes the on-disk cache after
                 the campaign. --workers N distributes cells over N
                 processes sharing the cache: workers pull batches of
                 cells (leases) as they finish, a crashed worker's
                 leases are re-queued cache-first to the survivors, and
                 merged CSV/JSONL is byte-identical to a single-process
                 run. --spool DIR coordinates remote `sweep-worker
                 --spool DIR` processes through a shared-filesystem
                 spool directory instead (cross-host campaigns; needs
                 the shared on-disk cache, and --lease-timeout tunes
                 how long a silent claim may sit before it is
                 re-queued). --progress
                 renders counters/ETA on stderr for either backend
                 (default: plain with --workers, none otherwise; live
                 falls back to plain when stderr is not a terminal, and
                 --progress-interval tunes the plain throttle).
                 --metrics-out writes a deterministic JSON metrics
                 report (cells by cache tier, span timings, failures
                 by kind); --trace-out streams telemetry spans and
                 counters as JSONL while the campaign runs
  serve          resident campaign daemon: one shared cache + worker
                 pool multiplexing concurrent clients over loopback TCP
                   [--listen 127.0.0.1:7677] [--cache DIR] [--no-cache]
                   [--max-running 2] [--max-queued 16] [--max-cells N]
                   [--shutdown-report FILE]
                 campaigns from different clients share every cached
                 cell; --max-cells rejects over-quota specs and a full
                 queue rejects submissions (structured errors); a
                 completed campaign someone has streamed is dropped
                 once --max-queued newer ones complete. SIGTERM
                 or `stochdag shutdown` drains in-flight campaigns and
                 writes a resume report of unfinished ones
  submit         submit a campaign to a running daemon and stream the
                 results to local CSV/JSONL (byte-identical to `sweep`
                 over the same cache)
                   [--addr 127.0.0.1:7677] [--spec camp.toml] [--out DIR]
                   [--progress none|plain|live] [--detach]
                   [--workers N] [--spool DIR]
                   [--resume-id N]  (re-admit a failed/cancelled campaign)
                 plus the spec-assembly flags of `sweep`; --detach
                 queues the campaign and returns immediately.
                 --workers N runs the campaign on N worker processes
                 beside the daemon; --spool DIR coordinates remote
                 spool workers (both per campaign, over the daemon's
                 shared cache)
  status         daemon + campaign states, admission counters, cache
                 hit-rates   [--addr ...] [--id N]
  cancel         cancel a queued or running campaign  --id N [--addr ...]
  shutdown       stop the daemon (drain; --now also stops running
                 campaigns at the next cell)  [--addr ...] [--now]
  table1         LU k=20 error + wall-clock comparison (paper Table I),
                 executed as an engine sweep (cache-aware)
                   [--k 20] [--trials 300000] [--seed 0] [--fast]
                   [--cache DIR]
  dot            DOT export of a factorization DAG (paper Figures 1-3)
                   --class C [-k 5] [--weights]
  sched          failure-aware list-scheduling policy comparison
                   --class C [-k 8] [-p 8] [--pfail 0.01]
                   [--replicas 1000] [--seed 0]
  dodin-compare  faithful Dodin (duplication) vs scalable surrogate
                   [--ks 2,4,6,8] [--pfail 0.01]
  second-order   first- vs second-order accuracy across pfail values
                   --class C [-k 8] [--trials 300000] [--seed 0]
  info           DAG statistics (tasks, edges, d(G), weights)
                   --class C [-k 8]
  analyze        estimator panel on a user task-graph file
                   --file graph.txt [--pfail 0.001] [--trials 100000]
                 (format: `task <name> <weight>` / `dep <src> <dst>`)
  help           this message"
    );
}
