//! Streaming result sinks.
//!
//! Sinks receive rows **in deterministic cell order** while later cells
//! are still computing (the runner reorders completions through
//! [`Reorderer`]), so output files are byte-identical across runs of
//! the same spec — including cached re-runs, because every float in a
//! row (values, errors, even elapsed times) comes from the cached
//! payload rather than the current wall clock.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

serde::codec! {
    lenient;
    /// One result cell: an estimator evaluated on one (DAG, model)
    /// scenario, compared against that scenario's Monte-Carlo reference.
    #[derive(Clone, Debug, PartialEq)]
    pub struct SweepRow {
        /// DAG instance id (e.g. `"lu:k=8"`).
        pub dag: String,
        /// Task count of the DAG.
        pub tasks: usize,
        /// Edge count of the DAG.
        pub edges: usize,
        /// Model label (`"pfail=0.01"` or `"lambda=0.05"`).
        pub model: String,
        /// Error rate λ of the concrete model.
        pub lambda: f64,
        /// Canonical estimator id (e.g. `"dodin:128"`).
        pub estimator: String,
        /// The estimate `E(G)`.
        pub value: f64,
        /// Monte-Carlo reference mean.
        pub reference: f64,
        /// Standard error of the reference mean.
        pub reference_std_error: f64,
        /// `(value − reference) / reference` (negative ⇒ underestimate).
        pub rel_error: f64,
        /// Wall-clock seconds of the estimation (from the producing run).
        pub elapsed_s: f64,
        /// Deterministic seed of the cell.
        pub seed: u64,
    }
}

serde::codec! {
    lenient;
    /// Per-estimator aggregate over a finished sweep.
    #[derive(Clone, Debug, PartialEq)]
    pub struct SummaryRow {
        /// Canonical estimator id.
        pub estimator: String,
        /// Number of cells.
        pub cells: usize,
        /// Mean `|rel_error|` across cells.
        pub mean_abs_rel_error: f64,
        /// Largest `|rel_error|`.
        pub max_abs_rel_error: f64,
        /// Total estimation seconds across cells.
        pub total_elapsed_s: f64,
    }
}

serde::codec! {
    lenient "JSONL line", tag "type";
    /// The JSONL lines that carry a `type` (result rows carry none).
    enum TaggedLine {
        /// A per-estimator summary, after the rows.
        Summary = "summary" (SummaryRow),
    }
}

/// Compute the per-estimator summary of a row set (sorted by id).
pub fn summarize(rows: &[SweepRow]) -> Vec<SummaryRow> {
    let mut by_est: BTreeMap<&str, (usize, f64, f64, f64)> = BTreeMap::new();
    for r in rows {
        let e = by_est.entry(&r.estimator).or_insert((0, 0.0, 0.0, 0.0));
        e.0 += 1;
        e.1 += r.rel_error.abs();
        e.2 = e.2.max(r.rel_error.abs());
        e.3 += r.elapsed_s;
    }
    by_est
        .into_iter()
        .map(|(est, (n, sum, max, secs))| SummaryRow {
            estimator: est.to_string(),
            cells: n,
            mean_abs_rel_error: sum / n as f64,
            max_abs_rel_error: max,
            total_elapsed_s: secs,
        })
        .collect()
}

/// A streaming consumer of sweep results.
///
/// Calls never overlap. `row` runs on the thread that delivered the
/// event completing the row, which may be a backend thread rather than
/// the one that called `run`; the other methods run on the caller's.
pub trait ResultSink: Send {
    /// Called once before any row.
    fn begin(&mut self) -> io::Result<()>;
    /// Called once per cell, in deterministic cell order.
    fn row(&mut self, row: &SweepRow) -> io::Result<()>;
    /// Called once after all rows with the per-estimator aggregates.
    fn summary(&mut self, rows: &[SummaryRow]) -> io::Result<()>;
    /// Called last; flush buffers.
    fn finish(&mut self) -> io::Result<()>;
}

/// Deterministic float rendering (shortest round-trip form).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}") // keep a decimal point so columns stay typed
    } else {
        format!("{v}")
    }
}

/// RFC-4180 quoting for string cells (file-sourced DAG ids can carry
/// commas).
fn esc_csv(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Open a buffered file writer, creating parent directories; failures
/// name the offending path.
fn create_file_writer(path: &Path) -> io::Result<io::BufWriter<std::fs::File>> {
    let with_path = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(with_path)?;
        }
    }
    Ok(io::BufWriter::new(
        std::fs::File::create(path).map_err(with_path)?,
    ))
}

/// CSV sink: one header, one line per cell, `#`-prefixed summary block.
pub struct CsvSink<W: Write + Send> {
    w: W,
}

impl CsvSink<io::BufWriter<std::fs::File>> {
    /// CSV sink writing to a file (parent directories created).
    /// Errors name the offending path.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(CsvSink {
            w: create_file_writer(path.as_ref())?,
        })
    }
}

impl<W: Write + Send> CsvSink<W> {
    /// CSV sink over any writer.
    pub fn new(w: W) -> Self {
        CsvSink { w }
    }

    /// Recover the underlying writer (e.g. a byte buffer in tests).
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write + Send> ResultSink for CsvSink<W> {
    fn begin(&mut self) -> io::Result<()> {
        writeln!(
            self.w,
            "dag,tasks,edges,model,lambda,estimator,value,reference,reference_std_error,rel_error,elapsed_s,seed"
        )
    }

    fn row(&mut self, r: &SweepRow) -> io::Result<()> {
        writeln!(
            self.w,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            esc_csv(&r.dag),
            r.tasks,
            r.edges,
            esc_csv(&r.model),
            fmt_f64(r.lambda),
            esc_csv(&r.estimator),
            fmt_f64(r.value),
            fmt_f64(r.reference),
            fmt_f64(r.reference_std_error),
            fmt_f64(r.rel_error),
            fmt_f64(r.elapsed_s),
            r.seed
        )
    }

    fn summary(&mut self, rows: &[SummaryRow]) -> io::Result<()> {
        writeln!(
            self.w,
            "# summary: estimator,cells,mean_abs_rel_error,max_abs_rel_error,total_elapsed_s"
        )?;
        for s in rows {
            writeln!(
                self.w,
                "# summary: {},{},{},{},{}",
                esc_csv(&s.estimator),
                s.cells,
                fmt_f64(s.mean_abs_rel_error),
                fmt_f64(s.max_abs_rel_error),
                fmt_f64(s.total_elapsed_s)
            )?;
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// JSON-lines sink: one object per cell, then one per summary row.
pub struct JsonlSink<W: Write + Send> {
    w: W,
}

impl JsonlSink<io::BufWriter<std::fs::File>> {
    /// JSONL sink writing to a file (parent directories created).
    /// Errors name the offending path.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink {
            w: create_file_writer(path.as_ref())?,
        })
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// JSONL sink over any writer.
    pub fn new(w: W) -> Self {
        JsonlSink { w }
    }

    /// Recover the underlying writer (e.g. a byte buffer in tests).
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write + Send> ResultSink for JsonlSink<W> {
    fn begin(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn row(&mut self, r: &SweepRow) -> io::Result<()> {
        writeln!(self.w, "{}", serde::json::to_string(r))
    }

    fn summary(&mut self, rows: &[SummaryRow]) -> io::Result<()> {
        for s in rows {
            let line = TaggedLine::Summary(s.clone());
            writeln!(self.w, "{}", serde::json::to_string(&line))?;
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// Sink that only collects rows in memory (tests, embedding).
#[derive(Default)]
pub struct VecSink {
    /// Collected rows.
    pub rows: Vec<SweepRow>,
}

impl ResultSink for VecSink {
    fn begin(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn row(&mut self, row: &SweepRow) -> io::Result<()> {
        self.rows.push(row.clone());
        Ok(())
    }
    fn summary(&mut self, _rows: &[SummaryRow]) -> io::Result<()> {
        Ok(())
    }
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Re-sequencer: accepts `(index, row)` completions in any order and
/// releases the in-order prefix.
pub struct Reorderer {
    next: usize,
    pending: BTreeMap<usize, SweepRow>,
}

impl Reorderer {
    /// Empty reorderer starting at index 0.
    pub fn new() -> Reorderer {
        Reorderer {
            next: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Insert a completion; `emit` is called for every row that is now
    /// next in sequence.
    ///
    /// The sequence always advances past a released row even when its
    /// `emit` fails (the first error is returned, later releases are
    /// still attempted), so one sink error cannot stall the stream.
    pub fn push(
        &mut self,
        idx: usize,
        row: SweepRow,
        mut emit: impl FnMut(&SweepRow) -> io::Result<()>,
    ) -> io::Result<()> {
        self.pending.insert(idx, row);
        let mut first_err = None;
        while let Some(row) = self.pending.remove(&self.next) {
            self.next += 1;
            if let Err(e) = emit(&row) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Number of rows released so far.
    pub fn released(&self) -> usize {
        self.next
    }

    /// Rows still waiting for earlier indices.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

impl Default for Reorderer {
    fn default() -> Self {
        Reorderer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: usize) -> SweepRow {
        SweepRow {
            dag: format!("lu:k={i}"),
            tasks: 10 * i,
            edges: 20 * i,
            model: "pfail=0.01".into(),
            lambda: 0.067,
            estimator: "first-order".into(),
            value: 1.5 + i as f64,
            reference: 1.49 + i as f64,
            reference_std_error: 0.001,
            rel_error: 0.0067,
            elapsed_s: 0.012,
            seed: 9,
        }
    }

    #[test]
    fn csv_output_shape() {
        let mut sink = CsvSink::new(Vec::new());
        sink.begin().unwrap();
        sink.row(&row(1)).unwrap();
        sink.row(&row(2)).unwrap();
        sink.summary(&summarize(&[row(1), row(2)])).unwrap();
        sink.finish().unwrap();
        let text = String::from_utf8(sink.w).unwrap();
        assert!(text.starts_with("dag,tasks,edges,model,lambda,"));
        assert_eq!(text.lines().count(), 1 + 2 + 2);
        assert!(text.contains("lu:k=1,10,20,pfail=0.01,0.067,first-order,2.5,"));
        assert!(text
            .lines()
            .last()
            .unwrap()
            .starts_with("# summary: first-order,2,"));
    }

    #[test]
    fn jsonl_rows_round_trip() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.begin().unwrap();
        sink.row(&row(3)).unwrap();
        sink.finish().unwrap();
        let text = String::from_utf8(sink.w).unwrap();
        let back: SweepRow = serde::json::from_str(text.trim()).unwrap();
        assert_eq!(back, row(3));
    }

    #[test]
    fn summarize_aggregates_per_estimator() {
        let mut a = row(1);
        a.rel_error = -0.02;
        let mut b = row(2);
        b.rel_error = 0.04;
        let mut c = row(3);
        c.estimator = "sculli".into();
        c.rel_error = 0.1;
        let s = summarize(&[a, b, c]);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].estimator, "first-order");
        assert_eq!(s[0].cells, 2);
        assert!((s[0].mean_abs_rel_error - 0.03).abs() < 1e-15);
        assert!((s[0].max_abs_rel_error - 0.04).abs() < 1e-15);
        assert_eq!(s[1].estimator, "sculli");
    }

    #[test]
    fn reorderer_releases_in_order() {
        let mut r = Reorderer::new();
        let seen = std::cell::RefCell::new(Vec::new());
        let emit = |row: &SweepRow| {
            seen.borrow_mut().push(row.tasks);
            Ok(())
        };
        r.push(2, row(2), emit).unwrap();
        assert_eq!(r.released(), 0);
        assert_eq!(r.pending(), 1);
        r.push(0, row(0), emit).unwrap();
        assert_eq!(*seen.borrow(), vec![0]);
        r.push(1, row(1), emit).unwrap();
        assert_eq!(*seen.borrow(), vec![0, 10, 20]);
        assert_eq!(r.released(), 3);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn deterministic_float_formatting() {
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(0.067), "0.067");
        assert_eq!(fmt_f64(1e-7), "0.0000001");
        assert_eq!(fmt_f64(-0.5), "-0.5");
    }
}
