//! `sched` — failure-aware list-scheduling comparison (the paper's
//! motivating application, Section I / future work).

use crate::args::Options;
use crate::commands::{build_dag, parse_class};
use crate::report::Table;
use stochdag::prelude::*;

pub fn run(argv: &[String]) -> Result<(), String> {
    let opts = Options::parse(argv, &["class", "k", "p", "pfail", "replicas", "seed"])?;
    let class = parse_class(opts.require("class")?)?;
    let k: usize = opts.get_or("k", 8)?;
    let processors: usize = opts.get_or("p", 8)?;
    let pfail: f64 = opts.get_or("pfail", 0.01)?;
    let replicas: usize = opts.get_or("replicas", 1000)?;
    let seed: u64 = opts.get_or("seed", 0)?;

    let dag = build_dag(class, k);
    let model = FailureModel::from_pfail_for_dag(pfail, &dag);
    eprintln!(
        "{} k={k}: {} tasks on {processors} processors, pfail={pfail}, {replicas} replicas",
        class.name(),
        dag.node_count()
    );

    let cmp = compare_policies(&dag, &model, processors, &Priority::ALL, replicas, seed);
    let mut table = Table::new(&[
        "policy",
        "mean_makespan",
        "stderr",
        "vs_bottom_level",
        "mean_failures",
    ]);
    let baseline = cmp
        .stats
        .iter()
        .find(|s| s.policy == Priority::BottomLevel)
        .expect("bottom-level included")
        .mean_makespan;
    for s in &cmp.stats {
        table.row(vec![
            s.policy.name().into(),
            format!("{:.6}", s.mean_makespan),
            format!("{:.2e}", s.std_error),
            format!("{:+.3}%", 100.0 * (s.mean_makespan - baseline) / baseline),
            format!("{:.2}", s.mean_failures),
        ]);
    }
    println!(
        "\n# policy comparison: {} k={k}, P={processors}, pfail={pfail}",
        class.name()
    );
    print!("{}", table.to_text());
    println!("best: {}", cmp.best().policy.name());

    // Context: the unlimited-processor expected makespan the estimators
    // bound from below.
    let first = FirstOrderEstimator::fast().expected_makespan(&dag, &model);
    println!(
        "context: d(G) = {:.6}, first-order E(G) with unlimited processors = {first:.6}",
        longest_path_length(&dag)
    );
    Ok(())
}
