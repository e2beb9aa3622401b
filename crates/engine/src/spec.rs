//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] is the Cartesian product the engine expands:
//! **DAG sources** (factorization families across tile counts,
//! synthetic families, task-graph files) × **failure models** (paper
//! style calibrated `pfails` and/or raw `lambdas`) × **estimators**
//! (registry spec strings). One Monte-Carlo reference per (DAG, model)
//! scenario anchors the relative-error columns.
//!
//! Specs load from TOML (a self-contained subset: scalars, arrays of
//! scalars, `[table]`, `[[array-of-tables]]`) or JSON; both parse into
//! the same [`serde::Value`] tree.

use crate::error::EngineError;
use serde::{Deserialize, Serialize, Value};
use stochdag_core::{EstimatorSpec, SamplingModel};
use stochdag_dag::{structural_hash, Dag};
use stochdag_taskgraphs::{
    diamond_mesh_dag, erdos_renyi_dag, fork_join_dag, layered_random_dag, FactorizationClass,
    KernelTimings, LayeredConfig,
};
use stochdag_workload::{load_dot, load_trace_json, IngestedTrace, ScenarioSpec};

/// One concrete DAG produced from a [`DagSpec`].
pub struct DagInstance {
    /// Stable human-readable id (e.g. `"lu:k=8"`), used in result rows.
    pub id: String,
    /// The graph.
    pub dag: Dag,
}

/// A DAG source in the sweep's first axis.
#[derive(Clone, Debug, PartialEq)]
pub enum DagSpec {
    /// Paper factorization workloads across tile counts.
    Factorization {
        /// Cholesky, LU, or QR.
        class: FactorizationClass,
        /// Tile counts `k` (one DAG per entry).
        ks: Vec<usize>,
    },
    /// Random layered DAG (the classical scheduling benchmark shape).
    Layered {
        /// Layer counts (one DAG per entry).
        layers: Vec<usize>,
        /// Tasks per layer.
        width: usize,
        /// Inter-layer edge probability.
        edge_prob: f64,
        /// Weight range.
        weight_range: (f64, f64),
        /// Generator seed.
        seed: u64,
    },
    /// Erdős–Rényi DAG over forward pairs.
    ErdosRenyi {
        /// Task counts (one DAG per entry).
        ns: Vec<usize>,
        /// Edge probability.
        p: f64,
        /// Weight range.
        weight_range: (f64, f64),
        /// Generator seed.
        seed: u64,
    },
    /// Fork-join with `width` branches of `depth` tasks.
    ForkJoin {
        /// Branch count.
        width: usize,
        /// Tasks per branch.
        depth: usize,
        /// Uniform task weight.
        weight: f64,
    },
    /// Diamond mesh (grid pipeline; worst case for SP approximations).
    DiamondMesh {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Weight range.
        weight_range: (f64, f64),
        /// Generator seed.
        seed: u64,
    },
    /// A task-graph file in the `stochdag_dag::io` text format.
    File {
        /// Path to the file.
        path: String,
    },
    /// A Graphviz DOT trace (ingested via [`stochdag_workload::load_dot`]).
    ///
    /// The instance id — and with it every cache key — is derived from
    /// the parsed graph's structural hash, not this path: moving or
    /// renaming the file leaves cached cells valid.
    Dot {
        /// Path to the `.dot` file.
        path: String,
    },
    /// A WfCommons-style workflow JSON trace (ingested via
    /// [`stochdag_workload::load_trace_json`]). Content-addressed like
    /// [`DagSpec::Dot`].
    TraceJson {
        /// Path to the `.json` trace.
        path: String,
    },
}

/// Content-addressed instance id of an ingested trace: format, the
/// trace's own workflow name, and 48 bits of the graph's WL structural
/// hash — so the id (and every cache key under it) survives the file
/// moving or being renamed.
fn trace_instance_id(trace: &IngestedTrace) -> String {
    let h = (structural_hash(&trace.dag) as u64) & 0xffff_ffff_ffff;
    format!("{}:{}:{h:012x}", trace.format.id(), trace.name)
}

impl DagSpec {
    /// Expand into concrete DAG instances.
    pub fn materialize(&self) -> Result<Vec<DagInstance>, EngineError> {
        match self {
            DagSpec::Factorization { class, ks } => {
                let t = KernelTimings::paper_default();
                Ok(ks
                    .iter()
                    .map(|&k| DagInstance {
                        id: format!("{}:k={k}", class.name()),
                        dag: class.generate(k, &t),
                    })
                    .collect())
            }
            DagSpec::Layered {
                layers,
                width,
                edge_prob,
                weight_range,
                seed,
            } => Ok(layers
                .iter()
                .map(|&l| DagInstance {
                    id: format!("layered:L{l}xW{width}:seed={seed}"),
                    dag: layered_random_dag(
                        &LayeredConfig {
                            layers: l,
                            width: *width,
                            edge_prob: *edge_prob,
                            weight_range: *weight_range,
                        },
                        *seed,
                    ),
                })
                .collect()),
            DagSpec::ErdosRenyi {
                ns,
                p,
                weight_range,
                seed,
            } => Ok(ns
                .iter()
                .map(|&n| DagInstance {
                    id: format!("erdos-renyi:n={n}:p={p}:seed={seed}"),
                    dag: erdos_renyi_dag(n, *p, *weight_range, *seed),
                })
                .collect()),
            DagSpec::ForkJoin {
                width,
                depth,
                weight,
            } => Ok(vec![DagInstance {
                id: format!("fork-join:{width}x{depth}"),
                dag: fork_join_dag(*width, *depth, *weight),
            }]),
            DagSpec::DiamondMesh {
                rows,
                cols,
                weight_range,
                seed,
            } => Ok(vec![DagInstance {
                id: format!("diamond-mesh:{rows}x{cols}:seed={seed}"),
                dag: diamond_mesh_dag(*rows, *cols, *weight_range, *seed),
            }]),
            DagSpec::File { path } => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| EngineError::io(format!("reading task graph {path}"), e))?;
                let dag = stochdag_dag::io::parse_taskgraph(&text)
                    .map_err(|e| EngineError::spec(format!("parsing task graph {path}: {e}")))?;
                Ok(vec![DagInstance {
                    id: format!("file:{path}"),
                    dag,
                }])
            }
            DagSpec::Dot { path } => {
                let trace = load_dot(std::path::Path::new(path))
                    .map_err(|e| EngineError::spec(format!("ingesting DOT trace {path}: {e}")))?;
                Ok(vec![DagInstance {
                    id: trace_instance_id(&trace),
                    dag: trace.dag,
                }])
            }
            DagSpec::TraceJson { path } => {
                let trace = load_trace_json(std::path::Path::new(path))
                    .map_err(|e| EngineError::spec(format!("ingesting JSON trace {path}: {e}")))?;
                Ok(vec![DagInstance {
                    id: trace_instance_id(&trace),
                    dag: trace.dag,
                }])
            }
        }
    }
}

/// A full sweep campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// Campaign name (output file stem).
    pub name: String,
    /// Master seed; every cell derives its own stream from it.
    pub seed: u64,
    /// Calibrated per-task failure probabilities (paper Section V-C).
    pub pfails: Vec<f64>,
    /// Raw error rates λ (an alternative/additional model axis).
    pub lambdas: Vec<f64>,
    /// Typed estimator configurations (string spellings like
    /// `"dodin:64"` parse via [`EstimatorSpec`]'s `FromStr`).
    pub estimators: Vec<EstimatorSpec>,
    /// Trials of the Monte-Carlo reference per scenario.
    pub reference_trials: usize,
    /// Sampling model of the reference.
    pub reference_sampling: SamplingModel,
    /// Worker-thread cap for the campaign (`None` = all cores). Results
    /// are deterministic regardless of this knob; it only bounds
    /// parallelism (the CLI's `--jobs`).
    pub jobs: Option<usize>,
    /// Correlated-failure scenarios crossed with every failure model
    /// (`"iid"`, `"rack:G:q:m"`, `"bursty:W:frac:m:seed"`; see
    /// [`ScenarioSpec`]). Empty means plain i.i.d. failures — and an
    /// explicit `["iid"]` expands to byte-identical cells, so adding
    /// the axis never invalidates an existing cache.
    pub scenarios: Vec<ScenarioSpec>,
    /// DAG sources.
    pub dags: Vec<DagSpec>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            name: "sweep".into(),
            seed: 0,
            pfails: Vec::new(),
            lambdas: Vec::new(),
            estimators: Vec::new(),
            reference_trials: 100_000,
            reference_sampling: SamplingModel::Geometric,
            jobs: None,
            scenarios: Vec::new(),
            dags: Vec::new(),
        }
    }
}

impl SweepSpec {
    /// Structural sanity checks (axes non-empty, probabilities valid).
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.dags.is_empty() {
            return Err(EngineError::spec("spec has no DAG sources"));
        }
        if self.estimators.is_empty() {
            return Err(EngineError::spec("spec has no estimators"));
        }
        for est in &self.estimators {
            est.validate().map_err(EngineError::spec)?;
        }
        if self.pfails.is_empty() && self.lambdas.is_empty() {
            return Err(EngineError::spec("spec has neither pfails nor lambdas"));
        }
        for &p in &self.pfails {
            if !(0.0..1.0).contains(&p) {
                return Err(EngineError::spec(format!("pfail {p} outside [0, 1)")));
            }
        }
        for &l in &self.lambdas {
            if !(l.is_finite() && l >= 0.0) {
                return Err(EngineError::spec(format!(
                    "lambda {l} must be finite and non-negative"
                )));
            }
        }
        if self.reference_trials == 0 {
            return Err(EngineError::spec("reference_trials must be positive"));
        }
        if self.jobs == Some(0) {
            return Err(EngineError::spec("jobs must be positive when set"));
        }
        {
            let mut ids: Vec<String> = Vec::new();
            for s in &self.scenarios {
                s.validate()
                    .map_err(|e| EngineError::spec(format!("scenario {s}: {e}")))?;
                ids.push(s.to_string());
            }
            ids.sort_unstable();
            for pair in ids.windows(2) {
                if pair[0] == pair[1] {
                    return Err(EngineError::spec(format!(
                        "duplicate scenario {:?} in spec",
                        pair[0]
                    )));
                }
            }
        }
        if self.scenarios.iter().any(|s| !s.is_iid()) {
            // Correlated scenarios are exact only for the Monte-Carlo
            // and first-order families; every other estimator would
            // silently answer the i.i.d. question. Fail the spec up
            // front instead of per cell.
            for est in &self.estimators {
                if !matches!(
                    est,
                    EstimatorSpec::Mc { .. }
                        | EstimatorSpec::FirstOrder
                        | EstimatorSpec::FirstOrderNaive
                ) {
                    return Err(EngineError::spec(format!(
                        "estimator {est} does not support correlated failure scenarios \
                         (supported: mc, first-order, first-order-naive)"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Failure-model entries per DAG instance: the base models (pfails
    /// then lambdas) crossed with the scenario axis (an empty
    /// `scenarios` list counts as the single implicit i.i.d. entry).
    /// The single source of truth for every path that sizes the model
    /// axis (plans, resume reports, dry runs).
    pub fn model_count(&self) -> usize {
        (self.pfails.len() + self.lambdas.len()) * self.scenarios.len().max(1)
    }

    /// Load from a file; TOML unless the content starts with `{`.
    /// Errors name the offending path.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<SweepSpec, EngineError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| EngineError::io(format!("reading spec {}", path.display()), e))?;
        SweepSpec::from_str_auto(&text)
            .map_err(|e| EngineError::spec(format!("spec {}: {e}", path.display())))
    }

    /// Parse from TOML or JSON text (auto-detected).
    pub fn from_str_auto(text: &str) -> Result<SweepSpec, EngineError> {
        let trimmed = text.trim_start();
        let value = if trimmed.starts_with('{') {
            serde::json::parse(text).map_err(|e| EngineError::spec(e.to_string()))?
        } else {
            parse_toml(text)?
        };
        SweepSpec::deserialize(&value).map_err(|e| EngineError::spec(e.to_string()))
    }
}

fn num_field<T: Deserialize>(v: &Value, key: &str, default: T) -> Result<T, serde::Error> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => T::deserialize(x),
    }
}

fn weight_range(v: &Value) -> Result<(f64, f64), serde::Error> {
    let lo = num_field(v, "weight_lo", 0.5)?;
    let hi = num_field(v, "weight_hi", 1.5)?;
    if !(lo >= 0.0 && hi >= lo) {
        return Err(serde::Error::new(format!("bad weight range [{lo}, {hi}]")));
    }
    Ok((lo, hi))
}

impl Deserialize for DagSpec {
    fn deserialize(v: &Value) -> Result<DagSpec, serde::Error> {
        let kind = String::deserialize(v.require("kind")?)?;
        match kind.as_str() {
            "cholesky" | "lu" | "qr" => {
                let class = FactorizationClass::parse(&kind).expect("matched above");
                let ks: Vec<usize> = Vec::deserialize(v.require("ks")?)?;
                if ks.is_empty() || ks.contains(&0) {
                    return Err(serde::Error::new("ks must be non-empty positive tile counts"));
                }
                Ok(DagSpec::Factorization { class, ks })
            }
            "layered" => Ok(DagSpec::Layered {
                layers: Vec::deserialize(v.require("layers")?)?,
                width: num_field(v, "width", 4)?,
                edge_prob: num_field(v, "edge_prob", 0.5)?,
                weight_range: weight_range(v)?,
                seed: num_field(v, "seed", 0u64)?,
            }),
            "erdos-renyi" => Ok(DagSpec::ErdosRenyi {
                ns: Vec::deserialize(v.require("ns")?)?,
                p: num_field(v, "p", 0.2)?,
                weight_range: weight_range(v)?,
                seed: num_field(v, "seed", 0u64)?,
            }),
            "fork-join" => Ok(DagSpec::ForkJoin {
                width: num_field(v, "width", 4)?,
                depth: num_field(v, "depth", 3)?,
                weight: num_field(v, "weight", 1.0)?,
            }),
            "diamond-mesh" => Ok(DagSpec::DiamondMesh {
                rows: num_field(v, "rows", 4)?,
                cols: num_field(v, "cols", 4)?,
                weight_range: weight_range(v)?,
                seed: num_field(v, "seed", 0u64)?,
            }),
            "file" => Ok(DagSpec::File {
                path: String::deserialize(v.require("path")?)?,
            }),
            "dot" => Ok(DagSpec::Dot {
                path: String::deserialize(v.require("path")?)?,
            }),
            "trace-json" => Ok(DagSpec::TraceJson {
                path: String::deserialize(v.require("path")?)?,
            }),
            other => Err(serde::Error::new(format!(
                "unknown DAG kind {other:?} (cholesky|lu|qr|layered|erdos-renyi|fork-join|diamond-mesh|file|dot|trace-json)"
            ))),
        }
    }
}

impl Serialize for DagSpec {
    fn serialize(&self) -> Value {
        match self {
            DagSpec::Factorization { class, ks } => Value::obj([
                ("kind", Value::Str(class.name().into())),
                ("ks", ks.serialize()),
            ]),
            DagSpec::Layered {
                layers,
                width,
                edge_prob,
                weight_range,
                seed,
            } => Value::obj([
                ("kind", Value::Str("layered".into())),
                ("layers", layers.serialize()),
                ("width", width.serialize()),
                ("edge_prob", edge_prob.serialize()),
                ("weight_lo", weight_range.0.serialize()),
                ("weight_hi", weight_range.1.serialize()),
                ("seed", seed.serialize()),
            ]),
            DagSpec::ErdosRenyi {
                ns,
                p,
                weight_range,
                seed,
            } => Value::obj([
                ("kind", Value::Str("erdos-renyi".into())),
                ("ns", ns.serialize()),
                ("p", p.serialize()),
                ("weight_lo", weight_range.0.serialize()),
                ("weight_hi", weight_range.1.serialize()),
                ("seed", seed.serialize()),
            ]),
            DagSpec::ForkJoin {
                width,
                depth,
                weight,
            } => Value::obj([
                ("kind", Value::Str("fork-join".into())),
                ("width", width.serialize()),
                ("depth", depth.serialize()),
                ("weight", weight.serialize()),
            ]),
            DagSpec::DiamondMesh {
                rows,
                cols,
                weight_range,
                seed,
            } => Value::obj([
                ("kind", Value::Str("diamond-mesh".into())),
                ("rows", rows.serialize()),
                ("cols", cols.serialize()),
                ("weight_lo", weight_range.0.serialize()),
                ("weight_hi", weight_range.1.serialize()),
                ("seed", seed.serialize()),
            ]),
            DagSpec::File { path } => Value::obj([
                ("kind", Value::Str("file".into())),
                ("path", path.serialize()),
            ]),
            DagSpec::Dot { path } => Value::obj([
                ("kind", Value::Str("dot".into())),
                ("path", path.serialize()),
            ]),
            DagSpec::TraceJson { path } => Value::obj([
                ("kind", Value::Str("trace-json".into())),
                ("path", path.serialize()),
            ]),
        }
    }
}

impl Deserialize for SweepSpec {
    fn deserialize(v: &Value) -> Result<SweepSpec, serde::Error> {
        let defaults = SweepSpec::default();
        let sampling = match v.get("reference_sampling").and_then(Value::as_str) {
            None => defaults.reference_sampling,
            Some("geometric") => SamplingModel::Geometric,
            Some("two-state") => SamplingModel::TwoState,
            Some(other) => {
                return Err(serde::Error::new(format!(
                    "unknown reference_sampling {other:?} (geometric|two-state)"
                )))
            }
        };
        Ok(SweepSpec {
            name: match v.get("name") {
                None => defaults.name,
                Some(n) => String::deserialize(n)?,
            },
            seed: num_field(v, "seed", defaults.seed)?,
            pfails: match v.get("pfails") {
                None => Vec::new(),
                Some(p) => Vec::deserialize(p)?,
            },
            lambdas: match v.get("lambdas") {
                None => Vec::new(),
                Some(l) => Vec::deserialize(l)?,
            },
            estimators: Vec::deserialize(v.require("estimators")?)?,
            reference_trials: num_field(v, "reference_trials", defaults.reference_trials)?,
            reference_sampling: sampling,
            jobs: match v.get("jobs") {
                None => None,
                Some(j) => Some(usize::deserialize(j)?),
            },
            scenarios: match v.get("scenarios") {
                None => Vec::new(),
                Some(s) => Vec::deserialize(s)?,
            },
            dags: Vec::deserialize(v.require("dags")?)?,
        })
    }
}

impl Serialize for SweepSpec {
    fn serialize(&self) -> Value {
        let mut pairs = vec![
            ("name", self.name.serialize()),
            ("seed", self.seed.serialize()),
            ("pfails", self.pfails.serialize()),
            ("lambdas", self.lambdas.serialize()),
            ("estimators", self.estimators.serialize()),
            ("reference_trials", self.reference_trials.serialize()),
            (
                "reference_sampling",
                Value::Str(
                    match self.reference_sampling {
                        SamplingModel::Geometric => "geometric",
                        SamplingModel::TwoState => "two-state",
                    }
                    .into(),
                ),
            ),
            ("dags", self.dags.serialize()),
        ];
        if let Some(jobs) = self.jobs {
            pairs.push(("jobs", jobs.serialize()));
        }
        if !self.scenarios.is_empty() {
            pairs.push(("scenarios", self.scenarios.serialize()));
        }
        Value::obj(pairs)
    }
}

/// Parse the TOML subset sweep specs use (see module docs).
pub fn parse_toml(text: &str) -> Result<Value, EngineError> {
    parse_toml_inner(text).map_err(EngineError::spec)
}

fn parse_toml_inner(text: &str) -> Result<Value, String> {
    use std::collections::BTreeMap;
    let mut root: BTreeMap<String, Value> = BTreeMap::new();
    // Path of the table currently being filled; `None` = root.
    let mut current: Option<(String, bool)> = None; // (key, is_array_elem)

    fn insert(
        root: &mut BTreeMap<String, Value>,
        current: &Option<(String, bool)>,
        key: String,
        val: Value,
        line_no: usize,
    ) -> Result<(), String> {
        let target = match current {
            None => root,
            Some((table, is_array)) => {
                let entry = root
                    .get_mut(table)
                    .expect("table created when the header was seen");
                let obj = if *is_array {
                    match entry {
                        Value::Arr(items) => items.last_mut().expect("non-empty"),
                        _ => unreachable!("array tables stay arrays"),
                    }
                } else {
                    entry
                };
                match obj {
                    Value::Obj(m) => {
                        if m.contains_key(&key) {
                            return Err(format!("line {line_no}: duplicate key {key:?}"));
                        }
                        m.insert(key, val);
                        return Ok(());
                    }
                    _ => unreachable!("tables are objects"),
                }
            }
        };
        if target.contains_key(&key) {
            return Err(format!("line {line_no}: duplicate key {key:?}"));
        }
        target.insert(key, val);
        Ok(())
    }

    for (no, raw) in text.lines().enumerate() {
        let line_no = no + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            let name = name.trim().to_string();
            match root
                .entry(name.clone())
                .or_insert_with(|| Value::Arr(Vec::new()))
            {
                Value::Arr(items) => items.push(Value::Obj(BTreeMap::new())),
                _ => {
                    return Err(format!(
                        "line {line_no}: {name:?} is not an array of tables"
                    ))
                }
            }
            current = Some((name, true));
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let name = name.trim().to_string();
            if root.contains_key(&name) {
                return Err(format!("line {line_no}: duplicate table {name:?}"));
            }
            root.insert(name.clone(), Value::Obj(BTreeMap::new()));
            current = Some((name, false));
            continue;
        }
        let Some((key, rest)) = line.split_once('=') else {
            return Err(format!("line {line_no}: expected `key = value`"));
        };
        let key = key.trim();
        if key.is_empty()
            || !key
                .chars()
                .all(|c| c.is_alphanumeric() || c == '_' || c == '-')
        {
            return Err(format!("line {line_no}: bad key {key:?}"));
        }
        let val = parse_scalar_or_array(rest.trim(), line_no)?;
        insert(&mut root, &current, key.to_string(), val, line_no)?;
    }
    Ok(Value::Obj(root))
}

/// Strip a `#` comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_scalar_or_array(s: &str, line_no: usize) -> Result<Value, String> {
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| format!("line {line_no}: unterminated array"))?;
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_scalar(part, line_no)?);
        }
        return Ok(Value::Arr(items));
    }
    parse_scalar(s, line_no)
}

/// Split on commas outside string literals.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

fn parse_scalar(s: &str, line_no: usize) -> Result<Value, String> {
    if let Some(body) = s.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| format!("line {line_no}: unterminated string"))?;
        if body.contains('"') {
            return Err(format!("line {line_no}: embedded quote in {s:?}"));
        }
        return Ok(Value::Str(body.to_string()));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    s.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("line {line_no}: cannot parse value {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# a mini campaign
name = "mini"
seed = 42
pfails = [0.01, 0.001]
estimators = ["first-order", "sculli", "dodin:64"]
reference_trials = 5000
reference_sampling = "two-state"

[[dags]]
kind = "cholesky"
ks = [2, 3, 4]

[[dags]]
kind = "lu"
ks = [2, 3]

[[dags]]
kind = "layered"
layers = [4]
width = 3
edge_prob = 0.5
seed = 7
"#;

    #[test]
    fn toml_spec_parses() {
        let spec = SweepSpec::from_str_auto(SAMPLE).unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.pfails, vec![0.01, 0.001]);
        assert_eq!(spec.estimators.len(), 3);
        assert_eq!(spec.reference_trials, 5000);
        assert_eq!(
            spec.reference_sampling,
            stochdag_core::SamplingModel::TwoState
        );
        assert_eq!(spec.dags.len(), 3);
        spec.validate().unwrap();
    }

    #[test]
    fn json_round_trip_equals_toml() {
        let spec = SweepSpec::from_str_auto(SAMPLE).unwrap();
        let json = serde::json::to_string(&spec);
        let back = SweepSpec::from_str_auto(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn materialization_counts() {
        let spec = SweepSpec::from_str_auto(SAMPLE).unwrap();
        let mut instances = Vec::new();
        for d in &spec.dags {
            instances.extend(d.materialize().unwrap());
        }
        assert_eq!(instances.len(), 3 + 2 + 1);
        assert_eq!(instances[0].id, "cholesky:k=2");
        assert!(instances.iter().all(|i| i.dag.node_count() > 0));
    }

    #[test]
    fn validation_catches_empty_axes() {
        let mut spec = SweepSpec::from_str_auto(SAMPLE).unwrap();
        spec.pfails.clear();
        assert!(spec.validate().is_err());
        spec.lambdas = vec![0.05];
        spec.validate().unwrap();
        spec.estimators.clear();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(
            SweepSpec::from_str_auto("estimators = [\"x\"]").is_err(),
            "missing dags"
        );
        assert!(parse_toml("key").is_err());
        assert!(parse_toml("k = [1, 2").is_err());
        assert!(parse_toml("k = \"unterminated").is_err());
        assert!(parse_toml("k = 1\nk = 2").is_err());
        let err = SweepSpec::from_str_auto(
            "estimators = [\"sculli\"]\npfails = [0.1]\n[[dags]]\nkind = \"warp\"",
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown DAG kind"), "{err}");
        let err = SweepSpec::from_str_auto(
            "estimators = [\"warp-drive\"]\npfails = [0.1]\n[[dags]]\nkind = \"fork-join\"",
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown estimator"), "{err}");
    }

    #[test]
    fn jobs_round_trip_and_validation() {
        let mut spec = SweepSpec::from_str_auto(SAMPLE).unwrap();
        assert_eq!(spec.jobs, None, "jobs defaults to uncapped");
        spec.jobs = Some(4);
        spec.validate().unwrap();
        let back = SweepSpec::from_str_auto(&serde::json::to_string(&spec)).unwrap();
        assert_eq!(back.jobs, Some(4));
        spec.jobs = Some(0);
        assert!(spec.validate().is_err(), "jobs = 0 is rejected");
        let toml = SweepSpec::from_str_auto(
            "jobs = 2\nestimators = [\"first-order\"]\npfails = [0.1]\n[[dags]]\nkind = \"fork-join\"",
        )
        .unwrap();
        assert_eq!(toml.jobs, Some(2));
    }

    #[test]
    fn from_file_accepts_path_types_and_names_path_in_errors() {
        let p = std::env::temp_dir().join(format!("stochdag_specfile_{}.toml", std::process::id()));
        std::fs::write(&p, SAMPLE).unwrap();
        let a = SweepSpec::from_file(&p).unwrap(); // &PathBuf
        let b = SweepSpec::from_file(p.to_str().unwrap()).unwrap(); // &str
        assert_eq!(a, b);
        let _ = std::fs::remove_file(&p);
        let missing = p.with_extension("missing");
        let err = SweepSpec::from_file(&missing).unwrap_err().to_string();
        assert!(err.contains(missing.to_str().unwrap()), "{err}");
    }

    #[test]
    fn comments_respect_strings() {
        let v = parse_toml("s = \"a # not comment\" # real comment").unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "a # not comment");
    }

    #[test]
    fn file_source_materializes() {
        let path = std::env::temp_dir().join(format!("stochdag_spec_{}.txt", std::process::id()));
        std::fs::write(&path, "task a 1.0\ntask b 2.0\ndep a b\n").unwrap();
        let spec = DagSpec::File {
            path: path.to_str().unwrap().to_string(),
        };
        let inst = spec.materialize().unwrap();
        assert_eq!(inst.len(), 1);
        assert_eq!(inst[0].dag.node_count(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
