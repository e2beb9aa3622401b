//! Output checks: a campaign's rows against the reference rows of an
//! in-process `Campaign::run` of the same spec and seed.

use stochdag_engine::SweepRow;

/// Compare every column except `elapsed_s` (a wall-clock measurement),
/// floats bit for bit. Returns the first difference.
pub fn rows_match(got: &[SweepRow], want: &[SweepRow]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} rows, expected {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let same = g.dag == w.dag
            && g.tasks == w.tasks
            && g.edges == w.edges
            && g.model == w.model
            && g.estimator == w.estimator
            && g.seed == w.seed
            && [
                (g.lambda, w.lambda),
                (g.value, w.value),
                (g.reference, w.reference),
                (g.reference_std_error, w.reference_std_error),
                (g.rel_error, w.rel_error),
            ]
            .iter()
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(format!("row {i} differs: got {g:?}, expected {w:?}"));
        }
    }
    Ok(())
}

/// Mean and maximum `|rel_error|` over estimator rows.
pub fn accuracy(rows: &[SweepRow]) -> (f64, f64) {
    let abs: Vec<f64> = rows.iter().map(|r| r.rel_error.abs()).collect();
    let mean = abs.iter().sum::<f64>() / abs.len().max(1) as f64;
    (mean, abs.iter().copied().fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Report;

    fn row(i: usize) -> SweepRow {
        SweepRow {
            dag: format!("lu:k={i}"),
            tasks: 10 + i,
            edges: 20 + i,
            model: "pfail=0.01".into(),
            lambda: 0.001,
            estimator: "first-order".into(),
            value: 100.0 + i as f64,
            reference: 101.0,
            reference_std_error: 0.2,
            rel_error: (100.0 + i as f64 - 101.0) / 101.0,
            elapsed_s: 0.5,
            seed: 7,
        }
    }

    #[test]
    fn elapsed_is_ignored_everything_else_is_not() {
        let want: Vec<SweepRow> = (0..3).map(row).collect();
        let mut got = want.clone();
        got[1].elapsed_s = 9.0;
        assert!(rows_match(&got, &want).is_ok());
        got[2].seed = 8;
        assert!(rows_match(&got, &want).is_err());
        assert!(rows_match(&want[..2], &want).is_err());
    }

    #[test]
    fn a_doctored_row_counts_as_a_failed_campaign() {
        let want: Vec<SweepRow> = (0..4).map(row).collect();
        let mut doctored = want.clone();
        doctored[3].value = f64::from_bits(doctored[3].value.to_bits() + 1);
        let mut report = Report::default();
        for got in [&want, &doctored, &want] {
            report.attempted += 1;
            if let Err(why) = rows_match(got, &want) {
                report.fail(why);
            }
        }
        assert_eq!((report.attempted, report.failed), (3, 1));
        assert!(!report.correct());
    }

    #[test]
    fn accuracy_is_mean_and_max_of_absolute_errors() {
        let mut rows: Vec<SweepRow> = (0..2).map(row).collect();
        rows[0].rel_error = -0.02;
        rows[1].rel_error = 0.01;
        let (mean, max) = accuracy(&rows);
        assert!((mean - 0.015).abs() < 1e-12 && (max - 0.02).abs() < 1e-12);
    }
}
