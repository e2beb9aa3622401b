//! stochdag campaign benchmark.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload (see `BENCHMARK.json` and `perfbench/README.md`)
//! from the repository root and prints, as its last stdout line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, timed from outside around calls into each crate.

mod campaigns;
mod check;
mod metrics;
mod run;
mod serve;
mod stats;
mod trace;
mod workloads;

use metrics::Report;
use workloads::Workload;

/// Seed used when `--seed` is absent (the held-out seed for gain claims
/// is recorded in `perfbench/README.md`).
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn measure(args: &Args) -> Result<Report, String> {
    let scratch = campaigns::Scratch::new(args.workload.name())
        .map_err(|e| format!("creating scratch space: {e}"))?;
    match (args.workload, args.trace) {
        (Workload::ServeOverlap, false) => serve::end_to_end(args.seed, args.seconds, &scratch),
        (Workload::ServeOverlap, true) => trace::serve_overlap(args.seed, args.seconds, &scratch),
        (w, traced) => {
            let job = run::Job::prepare(w, args.seed, &scratch)?;
            if traced {
                trace::sequential(w, &job, args.seconds, &scratch)
            } else {
                run::end_to_end(&job, args.seconds)
            }
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let declared = if args.trace {
        metrics::per_layer()
    } else {
        metrics::declared_end_to_end()
    };
    let report = match measure(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    if let Err(e) = report.check_emitted(&declared) {
        eprintln!("perfbench: {}: {e}", args.workload.name());
        std::process::exit(1);
    }
    println!("{}", report.to_json(&declared));
}
