//! WfCommons-style JSON workflow ingestion.
//!
//! Accepts the common shape of WfCommons / Pegasus workflow dumps:
//!
//! ```json
//! {
//!   "name": "epigenomics-small",
//!   "workflow": {
//!     "tasks": [
//!       {"name": "fastqSplit_1", "runtime": 12.5, "children": ["filterContams_1"]},
//!       {"name": "filterContams_1", "runtimeInSeconds": 3.25, "parents": ["fastqSplit_1"]}
//!     ]
//!   }
//! }
//! ```
//!
//! - `workflow.tasks` or a top-level `tasks` array is required;
//! - each task needs a unique `name`/`id` and a non-negative finite
//!   `runtime` (alias `runtimeInSeconds`), which becomes the task
//!   weight;
//! - dependencies come from `parents` and/or `children` (both
//!   accepted, duplicates deduplicated), referencing task names.
//!
//! JSON syntax errors are located (line/column, recovered from the
//! parser's byte offset); semantic errors name the offending task or
//! dependency id. The resulting DAG is cycle-validated like every
//! other source.

use crate::error::WorkloadError;
use std::collections::HashMap;
use stochdag_dag::{validate_acyclic, Dag};

/// Which on-disk format a trace was ingested from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// Graphviz DOT (`.dot`), via [`crate::parse_dot`].
    Dot,
    /// WfCommons-style workflow JSON (`.json`), via
    /// [`crate::parse_trace_json`].
    WfJson,
}

impl TraceFormat {
    /// Stable lowercase identifier (`"dot"` / `"trace-json"`), used in
    /// provenance metadata and instance ids.
    pub fn id(&self) -> &'static str {
        match self {
            TraceFormat::Dot => "dot",
            TraceFormat::WfJson => "trace-json",
        }
    }
}

/// An ingested workflow trace: the validated DAG plus provenance.
///
/// The graph's WL structural hash — not `source` — is what the engine
/// keys caches on, so a moved or renamed trace file still hits.
#[derive(Clone, Debug)]
pub struct IngestedTrace {
    /// The validated task graph (weights = runtimes).
    pub dag: Dag,
    /// Workflow name from the trace (graph name / `name` field),
    /// `"trace"` when the file does not carry one.
    pub name: String,
    /// Format the trace was parsed from.
    pub format: TraceFormat,
    /// Path the trace was loaded from, when it came from a file.
    pub source: Option<String>,
}

/// Parse WfCommons-style workflow JSON into a validated DAG.
pub fn parse_trace_json(src: &str) -> Result<IngestedTrace, WorkloadError> {
    let root = serde::json::parse(src).map_err(|e| locate_json_error(src, &e))?;
    let tasks = root
        .get("workflow")
        .and_then(|w| w.get("tasks"))
        .or_else(|| root.get("tasks"))
        .ok_or_else(|| {
            WorkloadError::parse(1, 1, "no `workflow.tasks` or `tasks` array in the trace")
        })?;
    let serde::Value::Arr(tasks) = tasks else {
        return Err(WorkloadError::parse(1, 1, "`tasks` must be an array"));
    };
    if tasks.is_empty() {
        return Err(WorkloadError::parse(1, 1, "the trace has no tasks"));
    }
    let name = root
        .get("name")
        .and_then(|v| v.as_str())
        .unwrap_or("trace")
        .to_string();

    struct TaskRec {
        name: String,
        runtime: f64,
        parents: Vec<String>,
        children: Vec<String>,
    }
    let mut recs: Vec<TaskRec> = Vec::with_capacity(tasks.len());
    let mut index: HashMap<String, usize> = HashMap::new();
    for (i, t) in tasks.iter().enumerate() {
        let tname = t
            .get("name")
            .or_else(|| t.get("id"))
            .and_then(|v| v.as_str())
            .ok_or_else(|| {
                WorkloadError::parse_at(
                    1,
                    1,
                    format!("task #{i}"),
                    "missing a string `name` (or `id`) field",
                )
            })?
            .to_string();
        if index.contains_key(&tname) {
            return Err(WorkloadError::parse_at(
                1,
                1,
                format!("task {tname:?}"),
                "duplicate task name",
            ));
        }
        let runtime = t
            .get("runtime")
            .or_else(|| t.get("runtimeInSeconds"))
            .and_then(|v| v.as_f64())
            .ok_or_else(|| {
                WorkloadError::parse_at(
                    1,
                    1,
                    format!("task {tname:?}"),
                    "missing a numeric `runtime` (or `runtimeInSeconds`) field",
                )
            })?;
        if !runtime.is_finite() || runtime < 0.0 {
            return Err(WorkloadError::parse_at(
                1,
                1,
                format!("task {tname:?}"),
                format!("runtime {runtime} must be finite and non-negative"),
            ));
        }
        let list_of = |key: &str| -> Result<Vec<String>, WorkloadError> {
            match t.get(key) {
                None | Some(serde::Value::Null) => Ok(Vec::new()),
                Some(serde::Value::Arr(items)) => items
                    .iter()
                    .map(|v| {
                        v.as_str().map(str::to_string).ok_or_else(|| {
                            WorkloadError::parse_at(
                                1,
                                1,
                                format!("task {tname:?}"),
                                format!("`{key}` entries must be task-name strings"),
                            )
                        })
                    })
                    .collect(),
                Some(_) => Err(WorkloadError::parse_at(
                    1,
                    1,
                    format!("task {tname:?}"),
                    format!("`{key}` must be an array of task names"),
                )),
            }
        };
        let rec = TaskRec {
            parents: list_of("parents")?,
            children: list_of("children")?,
            name: tname,
            runtime,
        };
        index.insert(rec.name.clone(), recs.len());
        recs.push(rec);
    }

    let mut dag = Dag::new();
    for rec in &recs {
        dag.add_named_node(rec.runtime, Some(rec.name.clone()));
    }
    let ids: Vec<_> = dag.nodes().collect();
    let resolve = |owner: &str, referenced: &str| -> Result<usize, WorkloadError> {
        index.get(referenced).copied().ok_or_else(|| {
            WorkloadError::parse_at(
                1,
                1,
                format!("task {owner:?}"),
                format!("references unknown task {referenced:?}"),
            )
        })
    };
    for (i, rec) in recs.iter().enumerate() {
        for p in &rec.parents {
            let pi = resolve(&rec.name, p)?;
            dag.add_edge_dedup(ids[pi], ids[i]);
        }
        for c in &rec.children {
            let ci = resolve(&rec.name, c)?;
            dag.add_edge_dedup(ids[i], ids[ci]);
        }
    }
    validate_acyclic(&dag)?;
    Ok(IngestedTrace {
        dag,
        name,
        format: TraceFormat::WfJson,
        source: None,
    })
}

/// Read and parse a WfCommons-style JSON trace file.
pub fn load_trace_json(path: &std::path::Path) -> Result<IngestedTrace, WorkloadError> {
    let src = std::fs::read_to_string(path).map_err(|e| WorkloadError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let mut trace = parse_trace_json(&src)?;
    trace.source = Some(path.display().to_string());
    Ok(trace)
}

/// Locate a JSON syntax error: map the parser's byte offset back to a
/// line and column.
fn locate_json_error(src: &str, e: &serde::Error) -> WorkloadError {
    let byte = e.offset().unwrap_or(0);
    let (mut line, mut col) = (1usize, 1usize);
    for b in src.as_bytes().iter().take(byte) {
        if *b == b'\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    WorkloadError::parse(line, col, format!("invalid JSON: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "name": "epi",
  "workflow": {
    "tasks": [
      {"name": "split", "runtime": 2.5, "children": ["filter_a", "filter_b"]},
      {"name": "filter_a", "runtime": 1.0},
      {"name": "filter_b", "runtimeInSeconds": 1.5},
      {"name": "merge", "runtime": 0.5, "parents": ["filter_a", "filter_b"]}
    ]
  }
}"#;

    #[test]
    fn parses_the_sample_workflow() {
        let t = parse_trace_json(SAMPLE).unwrap();
        assert_eq!(t.name, "epi");
        assert_eq!(t.format, TraceFormat::WfJson);
        assert_eq!(t.dag.node_count(), 4);
        assert_eq!(t.dag.edge_count(), 4);
        let ids: Vec<_> = t.dag.nodes().collect();
        assert_eq!(t.dag.display_name(ids[0]), "split");
        assert_eq!(t.dag.weight(ids[2]), 1.5);
    }

    #[test]
    fn top_level_tasks_array_is_accepted() {
        let t = parse_trace_json(r#"{"tasks": [{"name": "only", "runtime": 1.0}]}"#).unwrap();
        assert_eq!(t.name, "trace");
        assert_eq!(t.dag.node_count(), 1);
    }

    #[test]
    fn parents_and_children_are_merged_and_deduplicated() {
        let t = parse_trace_json(
            r#"{"tasks": [
                {"name": "a", "runtime": 1.0, "children": ["b"]},
                {"name": "b", "runtime": 1.0, "parents": ["a"]}
            ]}"#,
        )
        .unwrap();
        assert_eq!(t.dag.edge_count(), 1);
    }

    #[test]
    fn unknown_dependency_names_both_tasks() {
        let err = parse_trace_json(
            r#"{"tasks": [{"name": "a", "runtime": 1.0, "children": ["ghost"]}]}"#,
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("\"a\""), "{msg}");
        assert!(msg.contains("\"ghost\""), "{msg}");
    }

    #[test]
    fn missing_runtime_names_the_task() {
        let err = parse_trace_json(r#"{"tasks": [{"name": "lonely"}]}"#).unwrap_err();
        assert!(err.to_string().contains("\"lonely\""), "{err}");
        assert!(err.to_string().contains("runtime"), "{err}");
    }

    #[test]
    fn duplicate_task_name_is_rejected() {
        let err = parse_trace_json(
            r#"{"tasks": [{"name": "x", "runtime": 1.0}, {"name": "x", "runtime": 2.0}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn cyclic_workflow_is_rejected() {
        let err = parse_trace_json(
            r#"{"tasks": [
                {"name": "a", "runtime": 1.0, "children": ["b"]},
                {"name": "b", "runtime": 1.0, "children": ["a"]}
            ]}"#,
        )
        .unwrap_err();
        assert!(matches!(err, WorkloadError::Graph(_)), "{err}");
    }

    #[test]
    fn json_syntax_errors_carry_line_and_column() {
        let err = parse_trace_json("{\n  \"tasks\": [,]\n}").unwrap_err();
        match &err {
            WorkloadError::Parse { line, column, .. } => {
                assert_eq!(*line, 2, "{err}");
                assert!(*column > 1, "{err}");
            }
            other => panic!("expected a located parse error, got {other:?}"),
        }
        // A malformed number deep in the file is located where it starts.
        let bad_number = SAMPLE.replace("\"runtime\": 1.0", "\"runtime\": 1.5e");
        match parse_trace_json(&bad_number).unwrap_err() {
            WorkloadError::Parse { line, column, .. } => assert_eq!((line, column), (6, 39)),
            other => panic!("expected a located parse error, got {other:?}"),
        }
        // Python's json.dump writes characters outside the BMP as
        // surrogate-pair escapes; they decode to the one character.
        let emoji = SAMPLE.replace("\"merge\"", "\"a\\ud83d\\ude00\"");
        let t = parse_trace_json(&emoji).unwrap();
        assert!(
            t.dag.nodes().any(|v| t.dag.display_name(v) == "a😀"),
            "{emoji}"
        );
    }

    #[test]
    fn empty_or_missing_tasks_is_actionable() {
        let err = parse_trace_json(r#"{"workflow": {"tasks": []}}"#).unwrap_err();
        assert!(err.to_string().contains("no tasks"), "{err}");
        let err = parse_trace_json(r#"{"noise": 1}"#).unwrap_err();
        assert!(err.to_string().contains("tasks"), "{err}");
    }
}
