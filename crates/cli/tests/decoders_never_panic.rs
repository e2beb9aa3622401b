//! Property tests: every decoder of outside input returns `Ok` or `Err`
//! and never panics — on arbitrary text, on valid inputs with a few
//! bytes mutated, and (for campaign building) on DAG sources whose
//! values no generator accepts.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use stochdag::core::Estimate;
use stochdag::taskgraphs::FactorizationClass;
use stochdag::workload::{parse_dot, parse_trace_json};
use stochdag_engine::{
    decode_event, decode_lease, parse_toml, Campaign, DagSpec, EstimatorSpec, SweepSpec,
};
use stochdag_serve::protocol::decode_request;

/// Fragments the decoders branch on, so random text reaches deep.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", "\"", ":", ",", "\\", "\\u", "\\ud83d", "\\ude00", "d83d", "0", "7", "-",
    "+", ".", "e", "1e999", "1e300", "-0.5", "nan", "inf", "true", "false", "null", " ", "\n",
    "=", "#", "[[dags]]", "[t]", "é", "😀", "\"event\"", "\"type\"", "\"kind\"", "\"cell\"",
    "\"submit\"", "\"spec\"", "\"dags\"", "\"qr\"", "\"ks\"", "\"tasks\"", "\"name\"",
    "\"runtime\"", "\"parents\"", "\"lease_id\"", "\"cells\"", "\"elapsed\"", "kind = ",
    "ks = ", "estimators = ", "digraph", "->", ";", "weight=",
];

/// Valid inputs of every decoder, for the mutation property.
fn seeds() -> Vec<String> {
    vec![
        concat!(
            r#"{"cached":true,"event":"cell","index":18,"row":{"dag":"lu:k=4","edges":55,"#,
            r#""elapsed_s":3.25e-5,"estimator":"dodin:128","lambda":0.0021,"model":"pfail=0.01","#,
            r#""reference":101.9,"reference_std_error":0.04,"rel_error":-0.0058,"seed":717,"#,
            r#""tasks":30,"value":102.5},"tier":"disk"}"#
        )
        .to_string(),
        concat!(
            r#"{"cells":2,"event":"lease_done","hits":0,"lease_id":8,"misses":3,"#,
            r#""telemetry":{"counters":{"c":2},"spans":{"s":{"count":2,"max_ns":15,"#,
            r#""min_ns":5,"total_ns":20}}}}"#
        )
        .to_string(),
        r#"{"cells":[6,7,11],"lease_id":3}"#.to_string(),
        r#"{"elapsed":0.0004,"name":"MonteCarlo","std_error":0.0008,"value":0.76}"#.to_string(),
        concat!(
            r#"{"backend":{"kind":"multi-process","workers":3},"spec":{"dags":[{"kind":"qr","#,
            r#""ks":[2,3]},{"edge_prob":0.25,"kind":"layered","layers":[3],"weight_hi":2.5}],"#,
            r#""estimators":["first-order","mc:500"],"jobs":2,"pfails":[0.01],"#,
            r#""scenarios":["rack:3:0.05:2"]},"type":"submit"}"#
        )
        .to_string(),
        r#"{"id":7,"type":"status"}"#.to_string(),
        concat!(
            r#"{"name":"w","workflow":{"tasks":[{"name":"aé","runtime":2.5,"#,
            r#""children":["b"]},{"id":"b","runtimeInSeconds":1,"parents":["aé"]}]}}"#
        )
        .to_string(),
        "digraph g {\n  a [weight=1.5, label=\"x\"];\n  b [weight=2];\n  a -> b;\n  \"c d\" -> b;\n}\n"
            .to_string(),
        "name = \"m\"\npfails = [0.01, 0.1]\nestimators = [\"first-order\"]\n\
         [[dags]]\nkind = \"fork-join\"\nwidth = 2 # two\n[[dags]]\nkind = \"qr\"\nks = [2]\n"
            .to_string(),
    ]
}

/// Run every decoder on `text`; name the first that panics.
fn first_panic(text: &str) -> Option<&'static str> {
    let panics = |decode: &dyn Fn()| catch_unwind(AssertUnwindSafe(decode)).is_err();
    [
        ("json::parse", panics(&|| drop(serde::json::parse(text)))),
        ("parse_toml", panics(&|| drop(parse_toml(text)))),
        ("decode_event", panics(&|| drop(decode_event(text)))),
        ("decode_lease", panics(&|| drop(decode_lease(text)))),
        (
            "cache payload",
            panics(&|| drop(serde::json::from_str::<Estimate>(text))),
        ),
        ("decode_request", panics(&|| drop(decode_request(text)))),
        ("parse_trace_json", panics(&|| drop(parse_trace_json(text)))),
        ("parse_dot", panics(&|| drop(parse_dot(text)))),
    ]
    .into_iter()
    .find(|&(_, panicked)| panicked)
    .map(|(name, _)| name)
}

/// Apply `edits` (position, kind, byte) to `seed`'s bytes, then read
/// them back as text (invalid UTF-8 becomes U+FFFD).
fn mutate(seed: &str, edits: &[(usize, usize, u32)]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for &(at, kind, byte) in edits {
        let at = at % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] = byte as u8,
            1 => bytes.insert(at, byte as u8),
            2 => bytes.truncate(at),
            _ if at < bytes.len() => drop(bytes.remove(at)),
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Small, zero and out-of-range values, the ones generators assert on.
fn value(i: usize) -> f64 {
    [
        0.0,
        0.5,
        1.0,
        1.5,
        2.0,
        -1.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e-300,
    ][i % 10]
}

fn arb_dag() -> impl Strategy<Value = DagSpec> {
    (
        (
            0usize..5,
            proptest::collection::vec(0usize..4, 0..3),
            0usize..4,
            0usize..4,
        ),
        (0usize..10, 0usize..10, 0usize..10, 0u64..3),
    )
        .prop_map(|((kind, counts, a, b), (x, lo, hi, seed))| {
            let (x, weight_range) = (value(x), (value(lo), value(hi)));
            match kind {
                0 => DagSpec::Factorization {
                    class: FactorizationClass::ALL[a % 3],
                    ks: counts,
                },
                1 => DagSpec::Layered {
                    layers: counts,
                    width: a,
                    edge_prob: x,
                    weight_range,
                    seed,
                },
                2 => DagSpec::ErdosRenyi {
                    ns: counts,
                    p: x,
                    weight_range,
                    seed,
                },
                3 => DagSpec::ForkJoin {
                    width: a,
                    depth: b,
                    weight: x,
                },
                _ => DagSpec::DiamondMesh {
                    rows: a,
                    cols: b,
                    weight_range,
                    seed,
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn arbitrary_text_never_panics_a_decoder(
        tokens in proptest::collection::vec(0usize..TOKENS.len(), 0..40)
    ) {
        let text: String = tokens.iter().map(|&t| TOKENS[t]).collect();
        prop_assert!(first_panic(&text).is_none(), "{:?} panicked on {text:?}", first_panic(&text));
    }

    #[test]
    fn mutated_valid_inputs_never_panic_a_decoder(
        seed in 0usize..9,
        edits in proptest::collection::vec((0usize..400, 0usize..4, 0u32..256), 1..4)
    ) {
        let text = mutate(&seeds()[seed], &edits);
        prop_assert!(first_panic(&text).is_none(), "{:?} panicked on {text:?}", first_panic(&text));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn building_a_campaign_never_panics_on_dag_values(dag in arb_dag()) {
        let spec = SweepSpec {
            name: "values".into(),
            pfails: vec![0.01],
            estimators: vec![EstimatorSpec::FirstOrder],
            reference_trials: 10,
            dags: vec![dag.clone()],
            ..SweepSpec::default()
        };
        let built = catch_unwind(|| {
            Campaign::builder(spec).build().and_then(|c| c.dry_run()).map(drop)
        });
        prop_assert!(built.is_ok(), "panicked on {dag:?}");
    }
}
