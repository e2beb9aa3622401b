//! `analyze` — run the full estimator panel on a user-supplied task
//! graph file (see `stochdag_dag::io` for the format).

use crate::args::Options;
use crate::report::{fmt_duration, Table};
use stochdag::dag::io::parse_taskgraph;
use stochdag::prelude::*;

pub fn run(argv: &[String]) -> Result<(), String> {
    let opts = Options::parse(argv, &["file", "pfail", "trials", "seed"])?;
    let path = opts.require("file")?;
    let pfail: f64 = opts.get_or("pfail", 0.001)?;
    let trials: usize = opts.get_or("trials", 100_000)?;
    let seed: u64 = opts.get_or("seed", 0)?;

    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let dag = parse_taskgraph(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: {} tasks, {} edges, d(G) = {:.6}, a-bar = {:.6}",
        dag.node_count(),
        dag.edge_count(),
        longest_path_length(&dag),
        dag.mean_weight()
    );
    let model = FailureModel::from_pfail_for_dag(pfail, &dag);
    println!(
        "pfail = {pfail} => lambda = {:.6} (MTBF {:.1})\n",
        model.lambda,
        model.mtbf()
    );

    // One shared preparation (freeze + topological order) serves the
    // whole panel; each estimator binds to it and evaluates once. The
    // reported time covers bind + evaluate, i.e. each estimator's full
    // one-shot cost on an already-prepared graph.
    let prepared = PreparedDag::new(dag);
    let timed = |est: &dyn Estimator| {
        let t0 = std::time::Instant::now();
        let mut e = est.prepare(&prepared).estimate_for(&model);
        e.elapsed = t0.elapsed();
        e
    };
    let mc = timed(&MonteCarloEstimator::new(trials).with_seed(seed));
    let mut table = Table::new(&["estimator", "E(G)", "rel_vs_mc", "time"]);
    table.row(vec![
        "MonteCarlo".into(),
        format!("{:.6}", mc.value),
        format!("±{:.1e}", mc.std_error.unwrap_or(0.0) / mc.value),
        fmt_duration(mc.elapsed),
    ]);
    let panel: Vec<Box<dyn Estimator>> = vec![
        Box::new(FirstOrderEstimator::fast()),
        Box::new(SecondOrderEstimator),
        Box::new(SculliEstimator),
        Box::new(CorLcaEstimator),
        Box::new(CovarianceNormalEstimator),
        Box::new(DodinEstimator::scalable()),
        Box::new(SpeldeEstimator::default()),
    ];
    for est in panel {
        let e = timed(est.as_ref());
        table.row(vec![
            e.name.clone(),
            format!("{:.6}", e.value),
            format!("{:+.3e}", e.relative_error(mc.value)),
            fmt_duration(e.elapsed),
        ]);
    }
    print!("{}", table.to_text());
    Ok(())
}
