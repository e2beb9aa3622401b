//! `dot` — DOT export of the factorization DAGs (paper Figures 1–3),
//! or re-emission of an ingested trace (`--from FILE`).

use crate::args::Options;
use crate::commands::{build_dag, parse_class};
use stochdag::prelude::*;

pub fn run(argv: &[String]) -> Result<(), String> {
    let opts = Options::parse(argv, &["from", "class", "k", "weights"])?;
    if let Some(path) = opts.get("from") {
        let trace = ingest(path)?;
        eprintln!(
            "ingested {} trace {:?} from {path}: {} tasks, {} edges, structural hash {:032x}",
            trace.format.id(),
            trace.name,
            trace.dag.node_count(),
            trace.dag.edge_count(),
            structural_hash(&trace.dag),
        );
        print!(
            "{}",
            dot_string(&trace.dag, &trace.name, opts.flag("weights"))
        );
        return Ok(());
    }
    let class = parse_class(opts.require("class")?)?;
    let k: usize = opts.get_or("k", 5)?;
    let dag = build_dag(class, k);
    print!(
        "{}",
        dot_string(&dag, &format!("{}_{k}", class.name()), opts.flag("weights"))
    );
    Ok(())
}

/// Load a trace file, dispatching on extension: `.json` is parsed as a
/// WfCommons-style trace, everything else as DOT.
pub fn ingest(path: &str) -> Result<IngestedTrace, String> {
    let p = std::path::Path::new(path);
    let result = if path.ends_with(".json") {
        load_trace_json(p)
    } else {
        load_dot(p)
    };
    result.map_err(|e| format!("--from {path}: {e}"))
}
