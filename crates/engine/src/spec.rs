//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] is the Cartesian product the engine expands:
//! **DAG sources** (factorization families across tile counts,
//! synthetic families, task-graph files) × **failure models** (paper
//! style calibrated `pfails` and/or raw `lambdas`) × **estimators**
//! ([`EstimatorSpec`] spellings). One Monte-Carlo reference per (DAG, model)
//! scenario anchors the relative-error columns.
//!
//! Specs load from TOML (a self-contained subset: scalars, arrays of
//! scalars, `[table]`, `[[array-of-tables]]`) or JSON; both parse into
//! the same [`serde::Value`] tree. Decoding rejects a key the model
//! does not read — a misspelt `refrence_trials` would otherwise run on
//! the default of the key it meant — naming the key, its table
//! (`dags[1]`, counted from 0) and the keys accepted there.
//! [`SweepSpec::validate`], which every campaign passes, then rejects
//! values the generators cannot take (`width = 0`, `p = 2`), naming
//! the source and the key.

use crate::error::EngineError;
use serde::{Deserialize, Value};
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

serde::codec! {
    strict "DAG source", tag "kind";
    /// A DAG source in the sweep's first axis: a table whose `kind`
    /// names the generator (or, for the paper's factorizations, the
    /// class). Keys other than the kind's fail the load.
    #[derive(Clone, Debug, PartialEq)]
    pub enum DagSpec {
        /// Random layered DAG (the classical scheduling benchmark shape).
        Layered = "layered" {
            /// Layer counts (one DAG per entry).
            layers: Vec<usize>,
            /// Tasks per layer.
            width: usize = 4,
            /// Inter-layer edge probability.
            edge_prob: f64 = 0.5,
            /// Weight range (`weight_lo`, `weight_hi`).
            #[serde(with = weight_range)]
            weight_range: (f64, f64),
            /// Generator seed.
            seed: u64 = 0,
        },
        /// Erdős–Rényi DAG over forward pairs.
        ErdosRenyi = "erdos-renyi" {
            /// Task counts (one DAG per entry).
            ns: Vec<usize>,
            /// Edge probability.
            p: f64 = 0.2,
            /// Weight range (`weight_lo`, `weight_hi`).
            #[serde(with = weight_range)]
            weight_range: (f64, f64),
            /// Generator seed.
            seed: u64 = 0,
        },
        /// Fork-join with `width` branches of `depth` tasks.
        ForkJoin = "fork-join" {
            /// Branch count.
            width: usize = 4,
            /// Tasks per branch.
            depth: usize = 3,
            /// Uniform task weight.
            weight: f64 = 1.0,
        },
        /// Diamond mesh (grid pipeline; worst case for SP approximations).
        DiamondMesh = "diamond-mesh" {
            /// Grid rows.
            rows: usize = 4,
            /// Grid columns.
            cols: usize = 4,
            /// Weight range (`weight_lo`, `weight_hi`).
            #[serde(with = weight_range)]
            weight_range: (f64, f64),
            /// Generator seed.
            seed: u64 = 0,
        },
        /// A task-graph file in the `stochdag_dag::io` text format.
        File = "file" {
            /// Path to the file.
            path: String,
        },
        /// A Graphviz DOT trace (ingested via [`stochdag_workload::load_dot`]).
        ///
        /// The instance id — and with it every cache key — is derived from
        /// the parsed graph's structural hash, not this path: moving or
        /// renaming the file leaves cached cells valid.
        Dot = "dot" {
            /// Path to the `.dot` file.
            path: String,
        },
        /// A WfCommons-style workflow JSON trace (ingested via
        /// [`stochdag_workload::load_trace_json`]). Content-addressed like
        /// [`DagSpec::Dot`].
        TraceJson = "trace-json" {
            /// Path to the `.json` trace.
            path: String,
        },
        /// Paper factorization workloads across tile counts.
        Factorization = _ {
            /// Cholesky, LU, or QR: the table's `kind`.
            #[serde(with = class_kind)]
            class: FactorizationClass,
            /// Tile counts `k` (one DAG per entry).
            ks: Vec<usize>,
        },
    }
}

/// A factorization source's `kind` is its class name; any kind that
/// names no generator lands here.
mod class_kind {
    use serde::{Error, Fields, Members, Value};
    use stochdag_taskgraphs::FactorizationClass;

    pub const KEYS: &[&str] = &[];

    pub fn decode(f: &mut Fields) -> Result<FactorizationClass, Error> {
        FactorizationClass::ALL
            .into_iter()
            .find(|class| class.name() == f.tag())
            .ok_or_else(|| {
                Error::new(format!(
                    "unknown DAG kind {:?} (cholesky|lu|qr|layered|erdos-renyi|fork-join|\
                     diamond-mesh|file|dot|trace-json)",
                    f.tag()
                ))
            })
    }

    pub fn encode(class: &FactorizationClass, out: &mut Members) {
        out.push(("kind".into(), Value::Str(class.name().into())));
    }
}

/// A generator's `(lo, hi)` weight range as `weight_lo`/`weight_hi`.
mod weight_range {
    use serde::{Error, Fields, Members, Value};

    pub const KEYS: &[&str] = &["weight_hi", "weight_lo"];

    pub fn decode(f: &mut Fields) -> Result<(f64, f64), Error> {
        Ok((f.or("weight_lo", || 0.5)?, f.or("weight_hi", || 1.5)?))
    }

    pub fn encode(&(lo, hi): &(f64, f64), out: &mut Members) {
        out.push(("weight_lo".into(), Value::Num(lo)));
        out.push(("weight_hi".into(), Value::Num(hi)));
    }
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
    /// Check the values the generators require, naming the key at
    /// fault: a bad value is a spec error, never a panic in a generator.
    fn validate(&self) -> Result<(), String> {
        let check = |ok: bool, key: &str, rule: &str, got: &dyn std::fmt::Debug| match ok {
            true => Ok(()),
            false => Err(format!("{key} must be {rule}, got {got:?}")),
        };
        let counts = |key, v: &Vec<usize>| {
            check(
                !v.is_empty() && !v.contains(&0),
                key,
                "non-empty positive counts",
                v,
            )
        };
        let probability = |key, p: &f64| check((0.0..=1.0).contains(p), key, "in [0, 1]", p);
        let weight = |key, w: &f64, min: f64| {
            let rule = format!("finite and at least {min}");
            check(w.is_finite() && *w >= min, key, &rule, w)
        };
        let weights = |(lo, hi): &(f64, f64)| {
            weight("weight_lo", lo, 0.0)?;
            weight("weight_hi", hi, *lo)
        };
        match self {
            DagSpec::Factorization { ks, .. } => counts("ks", ks),
            DagSpec::Layered {
                layers,
                width,
                edge_prob,
                weight_range,
                ..
            } => {
                counts("layers", layers)?;
                check(*width > 0, "width", "positive", width)?;
                probability("edge_prob", edge_prob)?;
                weights(weight_range)
            }
            DagSpec::ErdosRenyi {
                ns,
                p,
                weight_range,
                ..
            } => {
                counts("ns", ns)?;
                probability("p", p)?;
                weights(weight_range)
            }
            DagSpec::ForkJoin {
                width,
                depth,
                weight: w,
            } => {
                check(*width > 0, "width", "positive", width)?;
                check(*depth > 0, "depth", "positive", depth)?;
                weight("weight", w, 0.0)
            }
            DagSpec::DiamondMesh {
                rows,
                cols,
                weight_range,
                ..
            } => {
                check(*rows > 0, "rows", "positive", rows)?;
                check(*cols > 0, "cols", "positive", cols)?;
                weights(weight_range)
            }
            DagSpec::File { .. } | DagSpec::Dot { .. } | DagSpec::TraceJson { .. } => Ok(()),
        }
    }

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

serde::codec! {
    strict "the top-level table";
    /// A full sweep campaign.
    #[derive(Clone, Debug, PartialEq)]
    pub struct SweepSpec {
        /// Campaign name (output file stem).
        pub name: String = SweepSpec::default().name,
        /// Master seed; every cell derives its own stream from it.
        pub seed: u64 = 0,
        /// Calibrated per-task failure probabilities (paper Section V-C).
        pub pfails: Vec<f64> = Vec::new(),
        /// Raw error rates λ (an alternative/additional model axis).
        pub lambdas: Vec<f64> = Vec::new(),
        /// Typed estimator configurations (string spellings like
        /// `"dodin:64"` parse via [`EstimatorSpec`]'s `FromStr`).
        pub estimators: Vec<EstimatorSpec>,
        /// Trials of the Monte-Carlo reference per scenario.
        pub reference_trials: usize = SweepSpec::default().reference_trials,
        /// Sampling model of the reference.
        pub reference_sampling: SamplingModel = SweepSpec::default().reference_sampling,
        /// Worker-thread cap for the campaign (`None` = all cores). Results
        /// are deterministic regardless of this knob; it only bounds
        /// parallelism (the CLI's `--jobs`).
        #[serde(omit_default)]
        pub jobs: Option<usize> = None,
        /// Correlated-failure scenarios crossed with every failure model
        /// (`"iid"`, `"rack:G:q:m"`, `"bursty:W:frac:m:seed"`; see
        /// [`ScenarioSpec`]). Empty means plain i.i.d. failures — and an
        /// explicit `["iid"]` expands to byte-identical cells, so adding
        /// the axis never invalidates an existing cache.
        #[serde(omit_default)]
        pub scenarios: Vec<ScenarioSpec> = Vec::new(),
        /// DAG sources.
        pub dags: Vec<DagSpec>,
    }
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
        for (i, dag) in self.dags.iter().enumerate() {
            dag.validate()
                .map_err(|e| EngineError::spec(format!("dags[{i}]: {e}")))?;
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
    fn unknown_keys_are_rejected_naming_key_table_and_accepted_keys() {
        let err = SweepSpec::from_str_auto(&format!("refrence_seed = 3\n{SAMPLE}"))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("unknown key \"refrence_seed\" in the top-level table"),
            "{err}"
        );
        assert!(
            err.contains("reference_trials"),
            "lists accepted keys: {err}"
        );
        // SAMPLE ends inside its third [[dags]] table.
        let err = SweepSpec::from_str_auto(&format!("{SAMPLE}weigths = 2\n"))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("dags[2]: unknown key \"weigths\" in a \"layered\" DAG source"),
            "{err}"
        );
        assert!(
            err.contains("weight_lo, width"),
            "lists accepted keys: {err}"
        );
        // JSON, as served submits and spool spec.json carry it.
        let json = serde::json::to_string(&SweepSpec::from_str_auto(SAMPLE).unwrap());
        let err = SweepSpec::from_str_auto(&json.replacen('{', "{\"jbos\":2,", 1))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown key \"jbos\""), "{err}");
    }

    #[test]
    fn every_dag_kind_accepts_the_keys_it_writes() {
        let kinds = [
            "kind = \"qr\"\nks = [2]",
            "kind = \"layered\"\nlayers = [3]",
            "kind = \"erdos-renyi\"\nns = [5]",
            "kind = \"fork-join\"",
            "kind = \"diamond-mesh\"",
            "kind = \"file\"\npath = \"g.txt\"",
            "kind = \"dot\"\npath = \"g.dot\"",
            "kind = \"trace-json\"\npath = \"g.json\"",
        ];
        for dag in kinds {
            let spec = SweepSpec::from_str_auto(&format!(
                "estimators = [\"first-order\"]\npfails = [0.1]\n[[dags]]\n{dag}"
            ))
            .unwrap();
            let back = SweepSpec::from_str_auto(&serde::json::to_string(&spec)).unwrap();
            assert_eq!(back, spec, "{dag}");
        }
    }

    #[test]
    fn generator_values_out_of_range_are_spec_errors_naming_source_and_key() {
        for (dag, key) in [
            ("kind = \"fork-join\"\nwidth = 0", "width"),
            ("kind = \"fork-join\"\nweight = -1.0", "weight"),
            ("kind = \"fork-join\"\nweight = nan", "weight"),
            (
                "kind = \"layered\"\nlayers = [3]\nedge_prob = 1.5",
                "edge_prob",
            ),
            ("kind = \"layered\"\nlayers = [0]", "layers"),
            (
                "kind = \"layered\"\nlayers = [3]\nweight_hi = inf",
                "weight_hi",
            ),
            ("kind = \"erdos-renyi\"\nns = [5]\np = 2.0", "p"),
            ("kind = \"diamond-mesh\"\nrows = 0", "rows"),
        ] {
            let spec = SweepSpec::from_str_auto(&format!(
                "estimators = [\"first-order\"]\npfails = [0.1]\n\
                 [[dags]]\nkind = \"qr\"\nks = [2]\n[[dags]]\n{dag}"
            ))
            .unwrap();
            let err = spec.validate().unwrap_err();
            assert_eq!(err.kind(), "spec", "{dag}");
            assert!(
                err.to_string().contains(&format!("dags[1]: {key} must be")),
                "{dag}: {err}"
            );
        }
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
