//! The metric catalogue `BENCHMARK.json` declares, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), every workload: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("campaign_p50_s", "s"),
    ("cells_per_s", "1/s"),
    ("mean_abs_rel_error", "ratio"),
    ("max_abs_rel_error", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Estimator families the `core` layer is timed for, as
/// `(metric label, estimator spec string)`.
pub const CORE_FAMILIES: &[(&str, &str)] = &[
    ("first-order", "first-order"),
    ("second-order", "second-order"),
    ("sculli", "sculli"),
    ("corlca", "corlca"),
    ("spelde-32", "spelde:32"),
    ("dodin-128", "dodin:128"),
];

/// Engine telemetry spans reported by the traced run.
pub const TELEMETRY_SPANS: &[&str] = &[
    "campaign",
    "estimate_cell",
    "cache_probe",
    "prepare_dag",
    "prepare_estimator",
    "queue_wait",
    "sink_flush",
];

/// Per-layer metrics (`--trace 1`), every workload: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    for op in ["convolve", "max_independent"] {
        for n in [128, 1024] {
            add(format!("dist.{op}.{n}.ns"), "ns");
        }
    }
    for n in [256, 1024] {
        add(format!("dist.reduce_support.{n}.ns"), "ns");
    }
    for name in [
        "taskgraphs.generate.us",
        "workload.ingest.us",
        "dag.freeze.us",
        "dag.structural_hash.us",
    ] {
        add(name.into(), "us");
    }
    for (family, _) in CORE_FAMILIES {
        add(format!("core.{family}.prepare.us"), "us");
        add(format!("core.{family}.grid.us"), "us");
    }
    add("core.mc_reference.us".into(), "us");
    for name in [
        "engine.cache.lookup_memory_hit.us",
        "engine.cache.lookup_disk_hit.us",
        "engine.cache.lookup_miss.us",
        "engine.cache.store_disk.us",
    ] {
        add(name.into(), "us");
    }
    add("engine.cache.hit_frac".into(), "ratio");
    for name in [
        "engine.protocol.encode_cell.ns",
        "engine.protocol.decode_cell.ns",
        "engine.protocol.encode_lease.ns",
        "engine.protocol.decode_lease.ns",
        "engine.sink.csv_row.ns",
        "engine.sink.jsonl_row.ns",
    ] {
        add(name.into(), "ns");
    }
    add("engine.plan.us".into(), "us");
    add("engine.spool.overhead_s".into(), "s");
    add("engine.spool.lease_gap_ms".into(), "ms");
    add("engine.spool.leases".into(), "count");
    for name in [
        "serve.submit_rtt.ms",
        "serve.status_rtt.ms",
        "serve.subscribe_to_first_event.ms",
        "serve.stream.ms",
    ] {
        add(name.into(), "ms");
    }
    add("serve.cache_hit_frac".into(), "ratio");
    for span in TELEMETRY_SPANS {
        add(format!("engine.telemetry.{span}.ms"), "ms");
    }
    add("engine.telemetry.overhead_frac".into(), "ratio");
    add("engine.unattributed_frac".into(), "ratio");
    m
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result of one run: the metrics measured plus the campaign tally.
#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Record a failed campaign (error, refusal or row mismatch).
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        eprintln!("perfbench: failed campaign: {why}");
        self.failed += 1;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Check the emitted metric names against the declared catalogue;
    /// returns the first discrepancy.
    pub fn check_emitted(&self, declared: &[(String, &'static str)]) -> Result<(), String> {
        for (name, _) in declared {
            if !valid_name(name) {
                return Err(format!("metric name {name:?} is not legal"));
            }
            match self.values.get(name) {
                None => return Err(format!("declared metric {name} was not measured")),
                Some(v) if !v.is_finite() => return Err(format!("metric {name} is {v}")),
                Some(_) => {}
            }
        }
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !declared.iter().any(|(d, _)| d == *k))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        Ok(())
    }

    /// The single-line JSON result (declared metrics only, in catalogue
    /// order).
    pub fn to_json(&self, declared: &[(String, &'static str)]) -> String {
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(self.values[name])
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Every digit Rust's shortest round-trip rendering gives (no exponent
/// form, so the text is always a JSON number).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

pub fn declared_end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &serde::Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(serde::Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(serde::Value::as_str)
                        .expect(f)
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_metric_name_is_legal() {
        let names = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(valid_name(&name), "illegal metric name {name:?}");
            assert!(seen.insert(name.clone()), "duplicate metric name {name}");
        }
        assert!(!valid_name("a b") && !valid_name(".x") && !valid_name(""));
    }

    #[test]
    fn benchmark_json_declares_exactly_what_every_workload_emits() {
        let doc = benchmark_json();
        let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), owned(declared_end_to_end()));
        assert_eq!(declared(&doc, "per_layer"), owned(per_layer()));
        // Every workload emits the whole catalogue of its mode (checked
        // at run time before the result line), so each declared
        // workload only has to be one the benchmark can run.
        for w in doc
            .get("workloads")
            .and_then(serde::Value::as_arr)
            .expect("workloads")
        {
            let name = w.get("name").and_then(serde::Value::as_str).expect("name");
            assert!(
                crate::workloads::Workload::parse(name).is_some(),
                "BENCHMARK.json declares unknown workload {name}"
            );
        }
    }

    #[test]
    fn emitted_set_must_match_the_catalogue() {
        let declared = declared_end_to_end();
        let mut r = Report::default();
        for (name, _) in &declared {
            r.set(name.clone(), 1.5);
        }
        assert!(r.check_emitted(&declared).is_ok());
        r.set("stray", 1.0);
        assert!(r.check_emitted(&declared).is_err());
        let mut partial = Report::default();
        partial.set("setup_s", 0.1);
        assert!(partial.check_emitted(&declared).is_err());
    }

    #[test]
    fn result_line_is_json_with_all_digits() {
        let declared = vec![("setup_s".to_string(), "s")];
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.012345678912345);
        let line = r.to_json(&declared);
        let v = serde::json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(serde::Value::as_bool), Some(true));
        assert!(line.contains("0.012345678912345"));
        assert_eq!(json_number(2.0), "2.0");
    }
}
