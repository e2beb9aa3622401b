//! `info` — structural statistics of a workload DAG.

use crate::args::Options;
use crate::commands::{build_dag, parse_class};
use stochdag::prelude::*;

pub fn run(argv: &[String]) -> Result<(), String> {
    let opts = Options::parse(argv, &["class", "k"])?;
    let class = parse_class(opts.require("class")?)?;
    let k: usize = opts.get_or("k", 8)?;
    let dag = build_dag(class, k);
    let lp = LongestPaths::compute(&dag);
    println!("class:            {}", class.name());
    println!("k:                {k}");
    println!("tasks:            {}", dag.node_count());
    println!("edges:            {}", dag.edge_count());
    println!(
        "sources/sinks:    {}/{}",
        dag.sources().len(),
        dag.sinks().len()
    );
    println!("total weight:     {:.6} s", dag.total_weight());
    println!("mean weight a-bar:{:.6} s", dag.mean_weight());
    println!("d(G):             {:.6} s", lp.levels.makespan);
    println!("critical tasks:   {}", lp.critical.nodes.len());
    println!(
        "parallelism:      {:.2} (total weight / d(G))",
        dag.total_weight() / lp.levels.makespan
    );
    println!("series-parallel:  {}", is_series_parallel(&dag));
    for pfail in [0.01, 0.001, 0.0001] {
        let m = FailureModel::from_pfail_for_dag(pfail, &dag);
        println!(
            "pfail={pfail:<7} lambda={:.6}  MTBF={:.1}s  E1(G)={:.6}",
            m.lambda,
            m.mtbf(),
            first_order_expected_makespan_fast(&dag, &m)
        );
    }
    Ok(())
}
