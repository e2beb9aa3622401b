//! `figure` / `all-figures` — the paper's Figures 4–12.
//!
//! For one DAG class and one `pfail`, sweep `k` and report every
//! estimator's relative error against the Monte Carlo ground truth
//! (the paper's "normalized difference with Monte-Carlo"; negative =
//! underestimation).

use crate::args::Options;
use crate::commands::{build_dag, parse_class};
use crate::report::{fmt_duration, fmt_rel, Table};
use std::path::PathBuf;
use stochdag::prelude::*;

struct FigureConfig {
    class: FactorizationClass,
    pfail: f64,
    ks: Vec<usize>,
    trials: usize,
    seed: u64,
    csv: Option<PathBuf>,
}

/// Default graph sizes of the paper's figures.
const PAPER_KS: [usize; 5] = [4, 6, 8, 10, 12];

pub fn run(argv: &[String]) -> Result<(), String> {
    let opts = Options::parse(
        argv,
        &["class", "pfail", "ks", "trials", "fast", "seed", "csv"],
    )?;
    let cfg = FigureConfig {
        class: parse_class(opts.require("class")?)?,
        pfail: opts
            .require("pfail")?
            .parse()
            .map_err(|_| "bad --pfail".to_string())?,
        ks: opts.get_usize_list("ks", &PAPER_KS)?,
        trials: opts.get_or("trials", if opts.flag("fast") { 20_000 } else { 300_000 })?,
        seed: opts.get_or("seed", 0)?,
        csv: opts.get("csv").map(PathBuf::from),
    };
    let table = figure_table(&cfg);
    println!(
        "# {} pfail={} trials={} (paper Figs. 4-12 series; error = (est - MC)/MC)",
        cfg.class.name(),
        cfg.pfail,
        cfg.trials
    );
    print!("{}", table.to_text());
    if let Some(path) = &cfg.csv {
        table.write_csv(path)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

pub fn run_all(argv: &[String]) -> Result<(), String> {
    let opts = Options::parse(argv, &["trials", "fast", "seed", "out", "ks"])?;
    let trials = opts.get_or("trials", if opts.flag("fast") { 20_000 } else { 300_000 })?;
    let seed = opts.get_or("seed", 0)?;
    let out: PathBuf = opts.get("out").unwrap_or("results").into();
    let ks = opts.get_usize_list("ks", &PAPER_KS)?;
    let mut fig_no = 4; // paper numbering: Figs. 4..12
    for class in FactorizationClass::ALL {
        for pfail in [0.01, 0.001, 0.0001] {
            let cfg = FigureConfig {
                class,
                pfail,
                ks: ks.clone(),
                trials,
                seed,
                csv: Some(out.join(format!("figure{fig_no:02}_{}_{pfail}.csv", class.name()))),
            };
            eprintln!("figure {fig_no}: {} pfail={pfail}", class.name());
            let table = figure_table(&cfg);
            println!(
                "\n# Figure {fig_no}: {} pfail={pfail} trials={trials}",
                class.name()
            );
            print!("{}", table.to_text());
            if let Some(path) = &cfg.csv {
                table.write_csv(path)?;
            }
            fig_no += 1;
        }
    }
    eprintln!("CSV series in {}", out.display());
    Ok(())
}

fn figure_table(cfg: &FigureConfig) -> Table {
    let mut table = Table::new(&[
        "k",
        "tasks",
        "mc_mean",
        "mc_stderr",
        "dodin",
        "sculli",
        "corlca",
        "normal_cov",
        "first_order",
        "second_order",
        "t_mc",
        "t_dodin",
        "t_normal_cov",
        "t_first_order",
    ]);
    for &k in &cfg.ks {
        let dag = build_dag(cfg.class, k);
        let model = FailureModel::from_pfail_for_dag(cfg.pfail, &dag);
        let mc = MonteCarloEstimator::new(cfg.trials)
            .with_seed(cfg.seed)
            .estimate(&dag, &model);
        let reference = mc.value;

        let dodin = DodinEstimator::scalable().estimate(&dag, &model);
        let sculli = SculliEstimator.estimate(&dag, &model);
        let corlca = CorLcaEstimator.estimate(&dag, &model);
        let cov = CovarianceNormalEstimator.estimate(&dag, &model);
        let first = FirstOrderEstimator::fast().estimate(&dag, &model);
        let second = SecondOrderEstimator.estimate(&dag, &model);

        table.row(vec![
            k.to_string(),
            dag.node_count().to_string(),
            format!("{reference:.6}"),
            format!("{:.2e}", mc.std_error.unwrap_or(0.0)),
            fmt_rel(dodin.relative_error(reference)),
            fmt_rel(sculli.relative_error(reference)),
            fmt_rel(corlca.relative_error(reference)),
            fmt_rel(cov.relative_error(reference)),
            fmt_rel(first.relative_error(reference)),
            fmt_rel(second.relative_error(reference)),
            fmt_duration(mc.elapsed),
            fmt_duration(dodin.elapsed),
            fmt_duration(cov.elapsed),
            fmt_duration(first.elapsed),
        ]);
    }
    table
}
