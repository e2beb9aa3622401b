//! `second-order` — the ablation for the paper's "future work"
//! extension: how much does the `O(λ²)` term buy at each failure rate?

use crate::args::Options;
use crate::commands::{build_dag, parse_class};
use crate::report::{fmt_rel, Table};
use stochdag::prelude::*;

pub fn run(argv: &[String]) -> Result<(), String> {
    let opts = Options::parse(argv, &["class", "k", "trials", "seed"])?;
    let class = parse_class(opts.require("class")?)?;
    let k: usize = opts.get_or("k", 8)?;
    let trials: usize = opts.get_or("trials", 300_000)?;
    let seed: u64 = opts.get_or("seed", 0)?;

    let dag = build_dag(class, k);
    let mut table = Table::new(&["pfail", "mc_mean", "first_order", "second_order", "gain"]);
    for pfail in [0.05, 0.02, 0.01, 0.005, 0.001, 0.0001] {
        let model = FailureModel::from_pfail_for_dag(pfail, &dag);
        let mc = MonteCarloEstimator::new(trials)
            .with_seed(seed)
            .run(&dag, &model);
        let e1 = first_order_expected_makespan_fast(&dag, &model);
        let e2 = second_order_expected_makespan(&dag, &model);
        let r1 = (e1 - mc.mean) / mc.mean;
        let r2 = (e2 - mc.mean) / mc.mean;
        let gain = if r2 != 0.0 {
            r1.abs() / r2.abs()
        } else {
            f64::INFINITY
        };
        table.row(vec![
            format!("{pfail}"),
            format!("{:.6}", mc.mean),
            fmt_rel(r1),
            fmt_rel(r2),
            format!("{gain:.1}x"),
        ]);
    }
    println!(
        "# first- vs second-order error vs Monte Carlo ({} k={k}, {trials} trials)",
        class.name()
    );
    print!("{}", table.to_text());
    Ok(())
}
