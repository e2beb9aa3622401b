//! Live campaign progress, fed from the worker event stream.
//!
//! The coordinator owns the only terminal, so progress is rendered
//! coordinator-side from the same [`CampaignEvent`]s it merges anyway:
//! per-cell counters, throughput (cells/sec), cache-hit rate, and an
//! ETA extrapolated from the observed rate. Three render modes keep CI
//! logs clean (`--progress=none|plain|live`):
//!
//! * [`ProgressMode::None`] — write nothing.
//! * [`ProgressMode::Plain`] — append-only lines, throttled (a new line
//!   at most every ~10% of progress or every two seconds), suitable for
//!   CI logs and post-hoc artifact inspection.
//! * [`ProgressMode::Live`] — a single carriage-return-rewritten status
//!   line for interactive terminals.
//!
//! Progress goes to whatever `Write` the caller hands over (the CLI
//! passes stderr, so stdout stays machine-readable); rendering is
//! advisory and never fails the sweep — write errors are ignored.

use crate::protocol::CampaignEvent;
use std::io::{IsTerminal, Write};
use std::time::{Duration, Instant};

/// Plain-mode throttle default: a line at most every this often (or
/// every ~10% of progress, whichever comes first). Override per
/// reporter with [`ProgressReporter::with_plain_interval`].
const DEFAULT_PLAIN_INTERVAL: Duration = Duration::from_secs(2);

/// ETAs beyond this many seconds render as `--`: with one sample and a
/// coarse clock the extrapolation is noise, not a forecast.
const MAX_ETA_SECS: f64 = 1e9;

/// How (and whether) to render campaign progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgressMode {
    /// No progress output at all.
    None,
    /// Throttled append-only lines (CI-friendly).
    Plain,
    /// One `\r`-rewritten status line (interactive terminals).
    Live,
}

impl ProgressMode {
    /// Parse a `--progress` knob value.
    pub fn parse(s: &str) -> Result<ProgressMode, String> {
        match s {
            "none" => Ok(ProgressMode::None),
            "plain" => Ok(ProgressMode::Plain),
            "live" => Ok(ProgressMode::Live),
            other => Err(format!("unknown progress mode {other:?} (none|plain|live)")),
        }
    }
}

/// Renders campaign progress from observed [`CampaignEvent`]s.
pub struct ProgressReporter {
    mode: ProgressMode,
    out: Box<dyn Write + Send>,
    start: Instant,
    /// Totals announced by the coordinator's `plan` event.
    total_cells: usize,
    total_refs: usize,
    workers: usize,
    done_cells: usize,
    done_refs: usize,
    cache_hits: usize,
    lookups: usize,
    last_render: Option<Instant>,
    /// Progress (in percent) at the last plain-mode line.
    last_percent: f64,
    /// Width of the last live-mode line (for clean rewrites).
    last_width: usize,
    /// Plain-mode time throttle (see `render`).
    plain_interval: Duration,
}

impl ProgressReporter {
    /// Reporter rendering to `out` in the given mode.
    pub fn new(mode: ProgressMode, out: Box<dyn Write + Send>) -> ProgressReporter {
        ProgressReporter {
            mode,
            out,
            start: Instant::now(),
            total_cells: 0,
            total_refs: 0,
            workers: 0,
            done_cells: 0,
            done_refs: 0,
            cache_hits: 0,
            lookups: 0,
            last_render: None,
            last_percent: -1.0,
            last_width: 0,
            plain_interval: DEFAULT_PLAIN_INTERVAL,
        }
    }

    /// Reporter rendering to stderr, with one safety adjustment:
    /// [`ProgressMode::Live`]'s carriage-return rewriting is only
    /// legible on a terminal, so when stderr is **not** a TTY (CI, a
    /// `2> file` redirect, a pipe) live mode falls back to
    /// [`ProgressMode::Plain`] — append-only lines instead of one long
    /// `\r`-glued line in the log.
    pub fn stderr(mode: ProgressMode) -> ProgressReporter {
        let mode = match mode {
            ProgressMode::Live if !std::io::stderr().is_terminal() => ProgressMode::Plain,
            other => other,
        };
        ProgressReporter::new(mode, Box::new(std::io::stderr()))
    }

    /// Override the plain-mode time throttle (default 2s): a line is
    /// emitted when `interval` has passed since the last one, or when
    /// progress advanced ≥ 10%, whichever comes first.
    /// `Duration::ZERO` renders every event.
    pub fn with_plain_interval(mut self, interval: Duration) -> ProgressReporter {
        self.plain_interval = interval;
        self
    }

    /// Silent reporter (for callers that do not want progress at all).
    pub fn disabled() -> ProgressReporter {
        ProgressReporter::new(ProgressMode::None, Box::new(std::io::sink()))
    }

    /// Fold one worker event into the counters and maybe re-render.
    pub fn observe(&mut self, event: &CampaignEvent) {
        match event {
            CampaignEvent::Plan {
                cells, references, ..
            } => {
                // The coordinator's plan fixes the totals up front, and
                // the ETA extrapolates over them no matter how leases
                // are batched across workers.
                self.total_cells = *cells;
                self.total_refs = *references;
            }
            CampaignEvent::Hello { .. } => self.workers += 1,
            CampaignEvent::Reference { cached, .. } => {
                self.done_refs += 1;
                self.lookups += 1;
                self.cache_hits += usize::from(*cached);
            }
            CampaignEvent::Cell { cached, .. } => {
                self.done_cells += 1;
                self.lookups += 1;
                self.cache_hits += usize::from(*cached);
            }
            CampaignEvent::LeaseDone { .. }
            | CampaignEvent::Error { .. }
            | CampaignEvent::Unknown { .. } => {}
        }
        self.render(false);
    }

    /// Final render (always emitted, with a terminating newline in
    /// live mode). Call once after the event streams close.
    pub fn finish(&mut self) {
        self.render(true);
        if self.mode == ProgressMode::Live && self.last_render.is_some() {
            let _ = writeln!(self.out);
        }
        let _ = self.out.flush();
    }

    fn percent(&self) -> f64 {
        if self.total_cells == 0 {
            0.0
        } else {
            self.done_cells as f64 * 100.0 / self.total_cells as f64
        }
    }

    /// One status line: counters, rate, cache-hit share, ETA.
    fn status_line(&self) -> String {
        let elapsed = self.start.elapsed().as_secs_f64();
        // Rate needs at least one finished cell AND measurable elapsed
        // time (coarse clocks can report 0.0 after the first sample);
        // anything else would divide garbage into the ETA below.
        let rate = if self.done_cells > 0 && elapsed > 0.0 {
            self.done_cells as f64 / elapsed
        } else {
            0.0
        };
        let remaining = self.total_cells.saturating_sub(self.done_cells);
        let eta_secs = remaining as f64 / rate; // NaN/inf when rate is 0
        let eta = if remaining == 0 {
            "done".to_string()
        } else if eta_secs.is_finite() && eta_secs <= MAX_ETA_SECS {
            format!("{}s", eta_secs.ceil() as u64)
        } else {
            "--".to_string()
        };
        let hit_rate = if self.lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 * 100.0 / self.lookups as f64
        };
        format!(
            "progress: cells {}/{} ({:.0}%) refs {}/{} | {} worker(s) | {:.1} cells/s | cache {:.0}% | eta {}",
            self.done_cells,
            self.total_cells,
            self.percent(),
            self.done_refs,
            self.total_refs,
            self.workers,
            rate,
            hit_rate,
            eta
        )
    }

    fn render(&mut self, force: bool) {
        match self.mode {
            ProgressMode::None => {}
            ProgressMode::Plain => {
                // Throttle: a line per ~10% of progress or per
                // `plain_interval`, whichever comes first, so huge
                // campaigns do not flood the log and tiny ones still
                // show every step.
                let percent = self.percent();
                let due = force
                    || percent - self.last_percent >= 10.0
                    || self
                        .last_render
                        .is_none_or(|t| t.elapsed() >= self.plain_interval);
                if !due {
                    return;
                }
                self.last_percent = percent;
                self.last_render = Some(Instant::now());
                let line = self.status_line();
                let _ = writeln!(self.out, "{line}");
            }
            ProgressMode::Live => {
                // Rewrite in place, at most ~10×/s (plus the final one).
                let due = force
                    || self
                        .last_render
                        .is_none_or(|t| t.elapsed().as_secs_f64() >= 0.1);
                if !due {
                    return;
                }
                self.last_render = Some(Instant::now());
                let line = self.status_line();
                let pad = self.last_width.saturating_sub(line.len());
                self.last_width = line.len();
                let _ = write!(self.out, "\r{line}{}", " ".repeat(pad));
                let _ = self.out.flush();
            }
        }
    }
}

impl crate::observer::CampaignObserver for ProgressReporter {
    /// Progress is an ordinary event subscriber: attach one with
    /// [`CampaignBuilder::progress`](crate::CampaignBuilder::progress)
    /// (or `observer(...)`) and it renders from the same stream every
    /// other observer sees. Rendering is advisory — it never fails the
    /// campaign.
    fn on_event(&mut self, event: &CampaignEvent) -> Result<(), crate::EngineError> {
        self.observe(event);
        Ok(())
    }

    fn on_finish(&mut self) -> Result<(), crate::EngineError> {
        self.finish();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// `Write` handle whose buffer outlives the boxed writer.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn feed(reporter: &mut ProgressReporter, cells: usize) {
        reporter.observe(&CampaignEvent::Plan {
            cells,
            references: 1,
            leases: 1,
        });
        reporter.observe(&CampaignEvent::Reference {
            cached: false,
            scenario: None,
        });
        for i in 0..cells {
            reporter.observe(&CampaignEvent::Cell {
                index: i,
                cached: i % 2 == 0,
                tier: None,
                row: crate::sink::SweepRow {
                    dag: "d".into(),
                    tasks: 1,
                    edges: 0,
                    model: "pfail=0.1".into(),
                    lambda: 0.1,
                    estimator: "first-order".into(),
                    value: 1.0,
                    reference: 1.0,
                    reference_std_error: 0.0,
                    rel_error: 0.0,
                    elapsed_s: 0.0,
                    seed: 0,
                },
            });
        }
        reporter.finish();
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(ProgressMode::parse("none").unwrap(), ProgressMode::None);
        assert_eq!(ProgressMode::parse("plain").unwrap(), ProgressMode::Plain);
        assert_eq!(ProgressMode::parse("live").unwrap(), ProgressMode::Live);
        assert!(ProgressMode::parse("loud").is_err());
    }

    #[test]
    fn plain_mode_reports_counters_rate_and_eta() {
        let buf = SharedBuf::default();
        let mut p = ProgressReporter::new(ProgressMode::Plain, Box::new(buf.clone()));
        feed(&mut p, 4);
        let text = buf.text();
        assert!(text.contains("cells 4/4 (100%)"), "{text}");
        assert!(text.contains("refs 1/1"), "{text}");
        assert!(text.contains("cells/s"), "{text}");
        assert!(text.contains("cache 40%"), "{text}");
        assert!(text.contains("eta done"), "{text}");
        // Every cell crosses a >10% threshold here, so each renders.
        assert!(text.lines().count() >= 4, "{text}");
        assert!(!text.contains('\r'), "plain mode never rewrites");
    }

    #[test]
    fn live_mode_rewrites_one_line() {
        let buf = SharedBuf::default();
        let mut p = ProgressReporter::new(ProgressMode::Live, Box::new(buf.clone()));
        feed(&mut p, 3);
        let text = buf.text();
        assert!(text.contains('\r'), "{text:?}");
        assert!(text.ends_with('\n'), "finish terminates the line");
        assert!(text.contains("cells 3/3"), "{text}");
    }

    #[test]
    fn eta_shows_dashes_before_the_first_finished_cell() {
        let buf = SharedBuf::default();
        let mut p = ProgressReporter::new(ProgressMode::Plain, Box::new(buf.clone()));
        p.observe(&CampaignEvent::Plan {
            cells: 100,
            references: 1,
            leases: 1,
        });
        let text = buf.text();
        assert!(text.contains("cells 0/100"), "{text}");
        assert!(text.contains("eta --"), "no rate sample yet: {text}");
        assert!(text.contains("0.0 cells/s"), "{text}");
    }

    #[test]
    fn plan_fixes_totals_and_hello_totals_are_ignored() {
        let buf = SharedBuf::default();
        let mut p = ProgressReporter::new(ProgressMode::Plain, Box::new(buf.clone()))
            .with_plain_interval(Duration::ZERO);
        p.observe(&CampaignEvent::Plan {
            cells: 8,
            references: 4,
            leases: 4,
        });
        // Worker count tracks hellos; totals are the plan's.
        for w in 0..2 {
            p.observe(&CampaignEvent::Hello { shard: w, jobs: 2 });
        }
        p.observe(&CampaignEvent::Reference {
            cached: true,
            scenario: Some(0),
        });
        p.observe(&CampaignEvent::LeaseDone {
            lease_id: 0,
            cells: 2,
            hits: 1,
            misses: 2,
            telemetry: None,
        });
        p.finish();
        let text = buf.text();
        assert!(text.contains("cells 0/8"), "{text}");
        assert!(text.contains("refs 1/4"), "{text}");
        assert!(text.contains("2 worker(s)"), "{text}");
    }

    #[test]
    fn plain_interval_zero_renders_every_event() {
        let buf = SharedBuf::default();
        let mut p = ProgressReporter::new(ProgressMode::Plain, Box::new(buf.clone()))
            .with_plain_interval(Duration::ZERO);
        feed(&mut p, 50); // 2% per cell: the 10% rule alone would skip most
        let text = buf.text();
        // Plan + 50 cells + reference + forced finish line.
        assert!(text.lines().count() >= 51, "{}", text.lines().count());
    }

    #[test]
    fn stderr_constructor_downgrades_live_off_tty() {
        // The test harness may or may not attach a TTY; assert the
        // mapping against what stderr actually is right now.
        let expect_live = if std::io::stderr().is_terminal() {
            ProgressMode::Live
        } else {
            ProgressMode::Plain
        };
        assert_eq!(
            ProgressReporter::stderr(ProgressMode::Live).mode,
            expect_live
        );
        assert_eq!(
            ProgressReporter::stderr(ProgressMode::Plain).mode,
            ProgressMode::Plain
        );
        assert_eq!(
            ProgressReporter::stderr(ProgressMode::None).mode,
            ProgressMode::None
        );
    }

    #[test]
    fn none_mode_is_silent_and_disabled_works() {
        let buf = SharedBuf::default();
        let mut p = ProgressReporter::new(ProgressMode::None, Box::new(buf.clone()));
        feed(&mut p, 2);
        assert!(buf.text().is_empty());
        feed(&mut ProgressReporter::disabled(), 2);
    }
}
