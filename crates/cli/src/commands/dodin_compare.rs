//! `dodin-compare` — quantify the faithful-vs-surrogate substitution
//! for the Dodin baseline (see DESIGN.md §3 and the module docs of
//! `stochdag_core::dodin`).

use crate::args::Options;
use crate::report::{fmt_duration, Table};
use stochdag::core::dodin::DodinStrategy;
use stochdag::prelude::*;

pub fn run(argv: &[String]) -> Result<(), String> {
    let opts = Options::parse(argv, &["ks", "pfail"])?;
    let ks = opts.get_usize_list("ks", &[2, 3, 4, 5, 6])?;
    let pfail: f64 = opts.get_or("pfail", 0.01)?;

    let mut table = Table::new(&[
        "class",
        "k",
        "tasks",
        "dodin_dup",
        "dodin_fwd",
        "rel_gap",
        "dups",
        "t_dup",
        "t_fwd",
    ]);
    for class in FactorizationClass::ALL {
        for &k in &ks {
            let dag = class.generate(k, &KernelTimings::paper_default());
            let model = FailureModel::from_pfail_for_dag(pfail, &dag);
            let faithful = DodinEstimator::new().with_strategy(DodinStrategy::Duplication);
            let start = std::time::Instant::now();
            let out = faithful.run(&dag, &model);
            let t_dup = start.elapsed();
            let dup_mean = out.dist.mean();
            let fwd = DodinEstimator::scalable().estimate(&dag, &model);
            table.row(vec![
                class.name().into(),
                k.to_string(),
                dag.node_count().to_string(),
                format!("{dup_mean:.6}"),
                format!("{:.6}", fwd.value),
                format!("{:+.2e}", (fwd.value - dup_mean) / dup_mean),
                out.duplications.to_string(),
                fmt_duration(t_dup),
                fmt_duration(fwd.elapsed),
            ]);
        }
    }
    println!("# faithful Dodin (duplication engine) vs scalable surrogate (forward propagation)");
    println!("# pfail = {pfail}; rel_gap = (fwd - dup)/dup");
    print!("{}", table.to_text());
    Ok(())
}
