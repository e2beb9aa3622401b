//! Byte pins of every spec, wire, cache and spool encoding: the exact
//! line each type writes. A codec change that moves one byte of a line
//! that other releases read (event logs, lease streams, served
//! requests, cache payloads, spool files) fails here.
//!
//! Strict types (specs and served requests) must decode their own line
//! back to the same value. Lenient types (everything replayed across
//! releases) must also decode their line with one extra key added, and
//! re-encode to the pinned line.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use stochdag::core::Estimate;
use stochdag_engine::{
    decode_event, decode_lease, encode_event, encode_lease, CacheTier, Campaign, CampaignEvent,
    FnObserver, ResultCache, SharedFs, SpoolWorker, SweepRow, SweepSpec, Telemetry, WorkLease,
};
use stochdag_serve::{
    BackendChoice, CampaignState, CampaignStatus, Request, Response, ServerStatus, ShutdownMode,
    ShutdownReport, StatusReport, Submitted, UnfinishedCampaign,
};

/// `line` with one key no release writes, as a newer writer would add.
fn with_extra_key(line: &str) -> String {
    line.replacen('{', "{\"zz_newer_key\":[1,{\"x\":null}],", 1)
}

/// Encode `value`, compare with `line`, and decode `line` back.
fn pin<T: Serialize + Deserialize>(value: &T, line: &str) -> T {
    assert_eq!(serde::json::to_string(value), line);
    let back: T = serde::json::from_str(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    assert_eq!(serde::json::to_string(&back), line, "re-encoding");
    back
}

/// [`pin`], plus: the line decodes with an extra key and re-encodes
/// to the pinned bytes.
fn pin_lenient<T: Serialize + Deserialize>(value: &T, line: &str) {
    pin(value, line);
    let extra = with_extra_key(line);
    let back: T = serde::json::from_str(&extra).unwrap_or_else(|e| panic!("{extra}: {e}"));
    assert_eq!(serde::json::to_string(&back), line, "extra key dropped");
}

fn spec(jobs_and_scenarios: bool) -> SweepSpec {
    let extra = if jobs_and_scenarios {
        "jobs = 2\nscenarios = [\"iid\", \"rack:3:0.05:2\"]\n"
    } else {
        ""
    };
    SweepSpec::from_str_auto(&format!(
        r#"
        name = "pins"
        seed = 7
        pfails = [0.01]
        lambdas = [0.125]
        estimators = ["first-order", "mc:500"]
        reference_trials = 300
        reference_sampling = "two-state"
        {extra}
        [[dags]]
        kind = "qr"
        ks = [2, 3]

        [[dags]]
        kind = "layered"
        layers = [3]
        width = 2
        edge_prob = 0.25
        weight_lo = 0.5
        weight_hi = 2.5
        seed = 4

        [[dags]]
        kind = "erdos-renyi"
        ns = [5]

        [[dags]]
        kind = "fork-join"
        width = 2

        [[dags]]
        kind = "diamond-mesh"
        rows = 2

        [[dags]]
        kind = "file"
        path = "g.txt"

        [[dags]]
        kind = "dot"
        path = "g.dot"

        [[dags]]
        kind = "trace-json"
        path = "g.json"
        "#
    ))
    .unwrap()
}

/// Every DAG kind, with defaults filled in by the decoder.
const DAGS: &str = concat!(
    r#"[{"kind":"qr","ks":[2,3]},"#,
    r#"{"edge_prob":0.25,"kind":"layered","layers":[3],"seed":4,"weight_hi":2.5,"weight_lo":0.5,"width":2},"#,
    r#"{"kind":"erdos-renyi","ns":[5],"p":0.2,"seed":0,"weight_hi":1.5,"weight_lo":0.5},"#,
    r#"{"depth":3,"kind":"fork-join","weight":1,"width":2},"#,
    r#"{"cols":4,"kind":"diamond-mesh","rows":2,"seed":0,"weight_hi":1.5,"weight_lo":0.5},"#,
    r#"{"kind":"file","path":"g.txt"},{"kind":"dot","path":"g.dot"},"#,
    r#"{"kind":"trace-json","path":"g.json"}]"#,
);

fn spec_line(jobs_and_scenarios: bool) -> String {
    if jobs_and_scenarios {
        format!(
            concat!(
                r#"{{"dags":{},"estimators":["first-order","mc:500"],"jobs":2,"lambdas":[0.125],"#,
                r#""name":"pins","pfails":[0.01],"reference_sampling":"two-state","#,
                r#""reference_trials":300,"scenarios":["iid","rack:3:0.05:2"],"seed":7}}"#
            ),
            DAGS
        )
    } else {
        format!(
            concat!(
                r#"{{"dags":{},"estimators":["first-order","mc:500"],"lambdas":[0.125],"#,
                r#""name":"pins","pfails":[0.01],"reference_sampling":"two-state","#,
                r#""reference_trials":300,"seed":7}}"#
            ),
            DAGS
        )
    }
}

fn row() -> SweepRow {
    SweepRow {
        dag: "lu:k=4".into(),
        tasks: 30,
        edges: 55,
        model: "pfail=0.01|rack:3:0.05:2".into(),
        lambda: 0.0021,
        estimator: "dodin:128".into(),
        value: 102.5,
        reference: 101.93333333333334,
        reference_std_error: 0.04,
        rel_error: -0.0058,
        elapsed_s: 3.25e-5,
        seed: 717,
    }
}

const ROW_LINE: &str = concat!(
    r#"{"dag":"lu:k=4","edges":55,"elapsed_s":3.25e-5,"estimator":"dodin:128","lambda":0.0021,"#,
    r#""model":"pfail=0.01|rack:3:0.05:2","reference":101.93333333333334,"#,
    r#""reference_std_error":0.04,"rel_error":-0.0058,"seed":717,"tasks":30,"value":102.5}"#,
);

fn server_status(max_cells: Option<usize>) -> ServerStatus {
    ServerStatus {
        running: 1,
        queued: 2,
        max_running: 2,
        max_queued: 16,
        max_cells,
        submissions: 9,
        admission_rejected: 1,
        quota_rejected: 2,
        completed: 5,
        failed: 1,
        cancelled: 1,
        cells_computed: 18,
        cells_memory_hits: 36,
        cells_disk_hits: 4,
    }
}

fn requests() -> Vec<Request> {
    vec![
        Request::Submit {
            spec: spec(false),
            backend: BackendChoice::InProcess,
        },
        Request::Submit {
            spec: spec(false),
            backend: BackendChoice::MultiProcess { workers: 3 },
        },
        Request::Submit {
            spec: spec(false),
            backend: BackendChoice::SharedFs {
                spool: "/srv/spool \"a\"".into(),
            },
        },
        Request::Status { id: None },
        Request::Status { id: Some(7) },
        Request::Events { id: 3 },
        Request::Cancel { id: 4 },
        Request::Resume { id: 9 },
        Request::Shutdown {
            mode: ShutdownMode::Drain,
        },
        Request::Shutdown {
            mode: ShutdownMode::Now,
        },
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::Submitted(Submitted {
            id: 4,
            name: "camp".into(),
            cells: 18,
            references: 6,
            queue_depth: 2,
        }),
        Response::Status(StatusReport {
            server: server_status(Some(500)),
            campaigns: vec![
                CampaignStatus {
                    id: 4,
                    name: "camp".into(),
                    state: CampaignState::Failed,
                    cells: 18,
                    rows: 7,
                    error: Some("disk on fire".into()),
                },
                CampaignStatus {
                    id: 5,
                    name: "next".into(),
                    state: CampaignState::Queued,
                    cells: 2,
                    rows: 0,
                    error: None,
                },
            ],
        }),
        Response::Status(StatusReport {
            server: server_status(None),
            campaigns: vec![],
        }),
        Response::Subscribed { id: 4 },
        Response::Ack {
            message: "cancelled campaign 4".into(),
        },
        Response::Error {
            kind: "protocol".into(),
            message: "bad request \"x\"".into(),
        },
    ]
}

fn events() -> Vec<CampaignEvent> {
    let telemetry = Telemetry::enabled();
    telemetry.count("references_computed", 2);
    telemetry.record_span_duration("estimate_cell", Duration::from_nanos(1500));
    telemetry.record_span_duration("estimate_cell", Duration::from_nanos(500));
    vec![
        CampaignEvent::Plan {
            cells: 24,
            references: 12,
            leases: 6,
        },
        CampaignEvent::Hello { shard: 1, jobs: 4 },
        CampaignEvent::Reference {
            cached: true,
            scenario: None,
        },
        CampaignEvent::Reference {
            cached: false,
            scenario: Some(5),
        },
        CampaignEvent::Cell {
            index: 17,
            cached: false,
            tier: None,
            row: row(),
        },
        CampaignEvent::Cell {
            index: 18,
            cached: true,
            tier: Some(CacheTier::Disk),
            row: row(),
        },
        CampaignEvent::Cell {
            index: 19,
            cached: true,
            tier: Some(CacheTier::Memory),
            row: row(),
        },
        CampaignEvent::LeaseDone {
            lease_id: 7,
            cells: 2,
            hits: 1,
            misses: 2,
            telemetry: None,
        },
        CampaignEvent::LeaseDone {
            lease_id: 8,
            cells: 2,
            hits: 0,
            misses: 3,
            telemetry: Some(telemetry.snapshot()),
        },
        CampaignEvent::Error {
            message: "disk on fire".into(),
            kind: None,
        },
        CampaignEvent::Error {
            message: "spec exploded".into(),
            kind: Some("spec".into()),
        },
        CampaignEvent::Unknown {
            tag: "hyperdrive".into(),
        },
    ]
}

fn lease() -> WorkLease {
    WorkLease {
        lease_id: 3,
        cells: vec![6, 7, 11],
    }
}

fn estimate(std_error: Option<f64>) -> Estimate {
    Estimate {
        value: 41.300000000000004,
        elapsed: Duration::from_nanos(1_500_250),
        name: "MonteCarlo".into(),
        std_error,
    }
}

fn shutdown_report() -> ShutdownReport {
    ShutdownReport {
        server: server_status(None),
        unfinished: vec![UnfinishedCampaign {
            id: 3,
            name: "pins".into(),
            state: CampaignState::Cancelled,
            cells: 40,
            rows: 12,
            spec: spec(true),
        }],
    }
}

const SERVER: &str = concat!(
    r#"{"admission_rejected":1,"cancelled":1,"cells_computed":18,"cells_disk_hits":4,"#,
    r#""cells_memory_hits":36,"completed":5,"failed":1,"max_cells":MAX,"max_queued":16,"#,
    r#""max_running":2,"queued":2,"quota_rejected":2,"running":1,"submissions":9}"#,
);

fn server_line(max_cells: &str) -> String {
    SERVER.replace("MAX", max_cells)
}

#[test]
fn specs_and_rows_encode_to_pinned_bytes() {
    assert_eq!(pin(&spec(false), &spec_line(false)), spec(false));
    assert_eq!(pin(&spec(true), &spec_line(true)), spec(true));
    pin_lenient(&row(), ROW_LINE);
}

#[test]
fn requests_encode_to_pinned_bytes() {
    let spec = spec_line(false);
    let lines = [
        format!(r#"{{"spec":{spec},"type":"submit"}}"#),
        format!(
            r#"{{"backend":{{"kind":"multi-process","workers":3}},"spec":{spec},"type":"submit"}}"#
        ),
        format!(
            r#"{{"backend":{{"kind":"shared-fs","spool":"/srv/spool \"a\""}},"spec":{spec},"type":"submit"}}"#
        ),
        r#"{"type":"status"}"#.to_string(),
        r#"{"id":7,"type":"status"}"#.to_string(),
        r#"{"id":3,"type":"events"}"#.to_string(),
        r#"{"id":4,"type":"cancel"}"#.to_string(),
        r#"{"id":9,"type":"resume"}"#.to_string(),
        r#"{"mode":"drain","type":"shutdown"}"#.to_string(),
        r#"{"mode":"now","type":"shutdown"}"#.to_string(),
    ];
    let requests = requests();
    assert_eq!(requests.len(), lines.len());
    for (request, line) in requests.iter().zip(&lines) {
        assert_eq!(&pin(request, line), request, "{line}");
    }
}

#[test]
fn responses_encode_to_pinned_bytes() {
    let lines = [
        r#"{"cells":18,"id":4,"name":"camp","queue_depth":2,"references":6,"type":"submitted"}"#
            .to_string(),
        format!(
            concat!(
                r#"{{"campaigns":[{{"cells":18,"error":"disk on fire","id":4,"name":"camp","#,
                r#""rows":7,"state":"failed"}},{{"cells":2,"id":5,"name":"next","rows":0,"#,
                r#""state":"queued"}}],"server":{},"type":"status"}}"#
            ),
            server_line("500")
        ),
        format!(
            r#"{{"campaigns":[],"server":{},"type":"status"}}"#,
            server_line("null")
        ),
        r#"{"id":4,"type":"subscribed"}"#.to_string(),
        r#"{"message":"cancelled campaign 4","type":"ack"}"#.to_string(),
        r#"{"kind":"protocol","message":"bad request \"x\"","type":"error"}"#.to_string(),
    ];
    let responses = responses();
    assert_eq!(responses.len(), lines.len());
    for (response, line) in responses.iter().zip(&lines) {
        pin_lenient(response, line);
    }
}

#[test]
fn events_and_leases_encode_to_pinned_bytes() {
    let lines = [
        r#"{"cells":24,"event":"plan","leases":6,"references":12}"#.to_string(),
        r#"{"event":"hello","jobs":4,"shard":1}"#.to_string(),
        r#"{"cached":true,"event":"reference"}"#.to_string(),
        r#"{"cached":false,"event":"reference","scenario":5}"#.to_string(),
        format!(r#"{{"cached":false,"event":"cell","index":17,"row":{ROW_LINE}}}"#),
        format!(r#"{{"cached":true,"event":"cell","index":18,"row":{ROW_LINE},"tier":"disk"}}"#),
        format!(r#"{{"cached":true,"event":"cell","index":19,"row":{ROW_LINE},"tier":"memory"}}"#),
        r#"{"cells":2,"event":"lease_done","hits":1,"lease_id":7,"misses":2}"#.to_string(),
        concat!(
            r#"{"cells":2,"event":"lease_done","hits":0,"lease_id":8,"misses":3,"#,
            r#""telemetry":{"counters":{"references_computed":2},"#,
            r#""spans":{"estimate_cell":{"count":2,"max_ns":1500,"min_ns":500,"total_ns":2000}}}}"#
        )
        .to_string(),
        r#"{"event":"error","message":"disk on fire"}"#.to_string(),
        r#"{"event":"error","kind":"spec","message":"spec exploded"}"#.to_string(),
        r#"{"event":"hyperdrive"}"#.to_string(),
    ];
    let events = events();
    assert_eq!(events.len(), lines.len());
    for (event, line) in events.iter().zip(&lines) {
        assert_eq!(&encode_event(event), line);
        assert_eq!(&decode_event(line).unwrap(), event, "{line}");
        assert_eq!(
            &decode_event(&with_extra_key(line)).unwrap(),
            event,
            "{line}"
        );
    }
    let line = r#"{"cells":[6,7,11],"lease_id":3}"#;
    assert_eq!(encode_lease(&lease()), line);
    assert_eq!(decode_lease(line).unwrap(), lease());
    assert_eq!(decode_lease(&with_extra_key(line)).unwrap(), lease());
}

#[test]
fn cache_payloads_and_shutdown_reports_encode_to_pinned_bytes() {
    pin_lenient(
        &estimate(None),
        r#"{"elapsed":0.00150025,"name":"MonteCarlo","std_error":null,"value":41.300000000000004}"#,
    );
    pin_lenient(
        &estimate(Some(0.0625)),
        r#"{"elapsed":0.00150025,"name":"MonteCarlo","std_error":0.0625,"value":41.300000000000004}"#,
    );
    pin_lenient(
        &shutdown_report(),
        &format!(
            concat!(
                r#"{{"server":{},"unfinished":[{{"cells":40,"id":3,"name":"pins","rows":12,"#,
                r#""spec":{},"state":"cancelled"}}]}}"#
            ),
            server_line("null"),
            spec_line(true)
        ),
    );
}

/// Poll for `path` for up to ~30 s.
fn wait_for(path: &Path) {
    for _ in 0..3000 {
        if path.exists() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("{} never appeared", path.display());
}

#[test]
fn spool_meta_and_worker_registrations_are_pinned_and_read_leniently() {
    let dir = std::env::temp_dir().join(format!("stochdag_wire_bytes_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (spool, cache) = (dir.join("spool"), dir.join("cache"));
    // A registration of a newer release, with a key this one does not
    // write: the coordinator still reads its jobs.
    std::fs::create_dir_all(spool.join("workers")).unwrap();
    std::fs::write(
        spool.join("workers").join("ghost.json"),
        with_extra_key(r#"{"jobs":3,"name":"ghost","pid":1}"#),
    )
    .unwrap();

    let hellos = Arc::new(Mutex::new(Vec::new()));
    let seen = hellos.clone();
    let coordinator = {
        let (spool, cache) = (spool.clone(), cache.clone());
        std::thread::spawn(move || {
            Campaign::builder(
                SweepSpec::from_str_auto(
                    "name = \"pins\"\npfails = [0.01]\nestimators = [\"first-order\"]\n\
                     reference_trials = 50\n[[dags]]\nkind = \"qr\"\nks = [2]",
                )
                .unwrap(),
            )
            .cache(Arc::new(ResultCache::on_disk(&cache)))
            .backend(SharedFs::new(&spool))
            .observer(FnObserver(move |ev: &CampaignEvent| {
                if let CampaignEvent::Hello { shard, jobs } = ev {
                    seen.lock().unwrap().push((*shard, *jobs));
                }
            }))
            .build()
            .unwrap()
            .run()
            .unwrap()
        })
    };
    // meta.json is complete once spec.json appears.
    wait_for(&spool.join("spec.json"));
    let meta = std::fs::read_to_string(spool.join("meta.json")).unwrap();
    assert_eq!(
        meta,
        format!(
            r#"{{"cache":{},"layout":2,"name":"pins","telemetry":false}}"#,
            serde::json::to_string(&cache.display().to_string())
        )
    );
    // A newer coordinator's meta, with a key this release does not
    // write: the worker still serves the campaign.
    std::fs::write(spool.join("meta.json"), with_extra_key(&meta)).unwrap();
    let worker = SpoolWorker::new(&spool)
        .name("w1")
        .jobs(1)
        .max_wait(Duration::from_secs(30))
        .run()
        .unwrap();
    assert_eq!(worker.cells, 1);
    let outcome = coordinator.join().unwrap();
    assert_eq!(outcome.cells, 1);
    assert_eq!(
        std::fs::read_to_string(spool.join("workers").join("w1.json")).unwrap(),
        format!(r#"{{"jobs":1,"name":"w1","pid":{}}}"#, std::process::id())
    );
    assert_eq!(
        hellos.lock().unwrap().first(),
        Some(&(0, 3)),
        "ghost's jobs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
