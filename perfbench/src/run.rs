//! The untraced run: end-to-end metrics of one workload.

use crate::campaigns::{self, Backend, Finished, Scratch};
use crate::check::accuracy;
use crate::metrics::Report;
use crate::stats::median;
use crate::workloads::{self, SpecText, Workload};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use stochdag_engine::{SweepRow, Telemetry};

/// A workload whose campaigns run one at a time (every workload except
/// serve-overlap): its spec, backend and reference rows. Every campaign
/// starts from a cold in-memory cache.
pub struct Job<'a> {
    pub spec: SpecText,
    pub backend: Backend,
    pub want: Vec<SweepRow>,
    scratch: &'a Scratch,
}

impl<'a> Job<'a> {
    pub fn prepare(w: Workload, seed: u64, scratch: &'a Scratch) -> Result<Job<'a>, String> {
        let spec_seed = w.spec_seed(seed);
        match w {
            Workload::PanelCold => Job::for_spec(
                workloads::panel_cold(spec_seed),
                Backend::InProcess,
                scratch,
            ),
            Workload::SpoolFanout => {
                Job::for_spec(workloads::spool_fanout(spec_seed), Backend::Spool, scratch)
            }
            Workload::ServeOverlap => Err("serve-overlap is not a sequential job".into()),
        }
    }

    /// A job over `spec`; its reference rows are computed here, untimed.
    pub fn for_spec(
        spec: SpecText,
        backend: Backend,
        scratch: &'a Scratch,
    ) -> Result<Job<'a>, String> {
        Ok(Job {
            want: campaigns::reference_rows(&spec)?,
            spec,
            backend,
            scratch,
        })
    }

    /// One checked campaign on `backend` (normally the job's own).
    pub fn campaign_on(
        &self,
        backend: Backend,
        telemetry: Option<Telemetry>,
    ) -> Result<Finished, String> {
        let out = self.scratch.fresh("run");
        std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
        let done = campaigns::run(&self.spec, backend, &out, telemetry);
        let _ = std::fs::remove_dir_all(&out);
        let done = done?;
        campaigns::verify(&done, &self.want)?;
        Ok(done)
    }

    pub fn campaign(&self, telemetry: Option<Telemetry>) -> Result<Finished, String> {
        self.campaign_on(self.backend, telemetry)
    }
}

/// Run `once` (one timed set-up) every 100 ms on a harness thread for
/// as long as `body` runs; return the median set-up time with `body`'s
/// result. Sampled across the whole timed section, the set-up figure
/// sees the same host conditions as the campaigns, not just a burst at
/// the start of the run.
pub fn sampling_setup<T>(
    once: impl Fn() -> Result<Duration, String> + Sync,
    body: impl FnOnce() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            while samples.is_empty() || !stop.load(Ordering::Relaxed) {
                samples.push(once()?.as_secs_f64());
                std::thread::sleep(Duration::from_millis(100));
            }
            Ok::<f64, String>(median(&samples))
        });
        let out = body();
        stop.store(true, Ordering::Relaxed);
        let setup = sampler.join().expect("set-up sampler thread")?;
        Ok((setup, out?))
    })
}

/// Restart peak-RSS tracking from the current resident set, so the
/// peak covers the timed campaigns and not the untimed preparation.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sequential workloads, untraced: time campaigns for `seconds`.
pub fn end_to_end(job: &Job, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    // One untimed campaign first: lazy set-up (page cache, allocator
    // pools, the spool worker's first poll) is not what is measured.
    job.campaign(None)?;
    reset_peak_rss();

    let mut walls = Vec::new();
    let mut rows = 0usize;
    let mut delivered: Vec<SweepRow> = Vec::new();
    let (setup_s, ()) = sampling_setup(
        || campaigns::setup_once(&job.spec),
        || {
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < seconds
                || (walls.len() < 3 && report.attempted < 10)
            {
                report.attempted += 1;
                match job.campaign(None) {
                    Ok(done) => {
                        walls.push(done.wall.as_secs_f64());
                        rows += done.outcome.rows.len();
                        delivered = done.outcome.rows;
                    }
                    Err(why) => report.fail(why),
                }
            }
            Ok(())
        },
    )?;
    if walls.is_empty() {
        return Err("every campaign failed".into());
    }
    eprintln!(
        "perfbench: {} campaigns, {} rows, walls {:.4}..{:.4} s",
        walls.len(),
        rows,
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max)
    );
    let (mean_err, max_err) = accuracy(&delivered);
    report.set("setup_s", setup_s);
    report.set("campaign_p50_s", median(&walls));
    report.set("cells_per_s", rows as f64 / walls.iter().sum::<f64>());
    report.set("mean_abs_rel_error", mean_err);
    report.set("max_abs_rel_error", max_err);
    report.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}
