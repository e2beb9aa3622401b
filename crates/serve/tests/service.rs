//! End-to-end service tests: a real `Server` on an ephemeral loopback
//! port, driven by real `ServeClient`s over TCP.
//!
//! The acceptance criterion for the service is exercised here: two
//! concurrent clients submitting the same 18-cell campaign must both
//! complete, the second served (near-)entirely from the shared memory
//! cache tier, and both producing CSV/JSONL byte-identical to a
//! direct in-process `Campaign::run` over the same cache.

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use stochdag_engine::{
    Campaign, CampaignEvent, CsvSink, JsonlSink, ProgressMode, ResultCache, ResultSink,
    SweepOutcome, SweepSpec, VecSink,
};
use stochdag_serve::{
    BackendChoice, CampaignState, ServeClient, ServeConfig, ServeHandle, Server, ShutdownMode,
    ShutdownReport, Submitted,
};

/// 18 cells: 3 cholesky sizes × 3 estimators × 2 pfails.
fn spec_18(name: &str) -> SweepSpec {
    SweepSpec::from_str_auto(&format!(
        r#"
        name = "{name}"
        seed = 7
        pfails = [0.01, 0.05]
        estimators = ["first-order", "sculli", "corlca"]
        reference_trials = 2000
        [[dags]]
        kind = "cholesky"
        ks = [2, 3, 4]
        "#
    ))
    .unwrap()
}

/// A campaign slow enough (Monte-Carlo heavy, several scenarios) to
/// still be running when a test cancels or queues behind it.
fn slow_spec(name: &str) -> SweepSpec {
    SweepSpec::from_str_auto(&format!(
        r#"
        name = "{name}"
        seed = 11
        pfails = [0.01, 0.02, 0.03, 0.04]
        estimators = ["first-order"]
        reference_trials = 4000000
        [[dags]]
        kind = "cholesky"
        ks = [4, 5]
        "#
    ))
    .unwrap()
}

fn start(config: ServeConfig) -> (String, thread::JoinHandle<ShutdownReport>) {
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let daemon = thread::spawn(move || server.run().unwrap());
    (addr, daemon)
}

/// Like [`start`], but `run`'s return arrives on a channel, so a test
/// can bound how long it takes instead of hanging on a join.
fn start_watched(
    config: ServeConfig,
) -> (
    std::net::SocketAddr,
    ServeHandle,
    mpsc::Receiver<ShutdownReport>,
) {
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(server.run().unwrap());
    });
    (addr, handle, rx)
}

/// Stream campaign `id` into memory; returns its outcome.
fn stream(client: &ServeClient, id: u64) -> SweepOutcome {
    let mut rows = VecSink::default();
    let mut sinks: Vec<&mut dyn ResultSink> = vec![&mut rows];
    client
        .run_to_sinks(id, &mut sinks, ProgressMode::None)
        .unwrap()
}

fn wait_for_state(client: &ServeClient, id: u64, want: CampaignState) -> CampaignState {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let report = client.status(Some(id)).unwrap();
        let state = report.campaigns[0].state;
        if state == want || !state.is_active() {
            return state;
        }
        assert!(
            Instant::now() < deadline,
            "campaign {id} stuck in {:?} waiting for {:?}",
            state.as_str(),
            want.as_str()
        );
        thread::sleep(Duration::from_millis(20));
    }
}

/// Submit `spec` and stream it into CSV/JSONL files under `dir`;
/// returns the outcome and the two files' bytes.
fn run_via_service(
    client: &ServeClient,
    spec: &SweepSpec,
    dir: &std::path::Path,
) -> (SweepOutcome, Vec<u8>, Vec<u8>) {
    std::fs::create_dir_all(dir).unwrap();
    let ticket = client.submit(spec).unwrap();
    let csv_path = dir.join(format!("{}.csv", spec.name));
    let jsonl_path = dir.join(format!("{}.jsonl", spec.name));
    let mut csv = CsvSink::create(&csv_path).unwrap();
    let mut jsonl = JsonlSink::create(&jsonl_path).unwrap();
    let outcome = {
        let mut sinks: Vec<&mut dyn ResultSink> = vec![&mut csv, &mut jsonl];
        client
            .run_to_sinks(ticket.id, &mut sinks, ProgressMode::None)
            .unwrap()
    };
    (
        outcome,
        std::fs::read(&csv_path).unwrap(),
        std::fs::read(&jsonl_path).unwrap(),
    )
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stochdag-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Occupy a running slot of a daemon started with a disk cache: a
/// one-cell campaign on a fresh spool under `dir` that no worker joins.
/// It only polls the spool, so it computes nothing while it holds the
/// slot, and it stops at its next poll (at most 50 ms) once cancelled.
fn hold_a_slot(client: &ServeClient, dir: &std::path::Path, name: &str) -> Submitted {
    client
        .submit_on(
            &spec_for_quota(name, 0.03),
            BackendChoice::SharedFs {
                spool: dir.join(name).display().to_string(),
            },
        )
        .unwrap()
}

#[test]
fn two_concurrent_clients_share_the_cache_and_match_a_direct_run() {
    let dir = scratch("parity");
    let cache_dir = dir.join("cache");
    // One pool slot serializes the two campaigns, so whichever runs
    // second is served from what the first computed.
    let (addr, daemon) = start(ServeConfig {
        cache: Some(cache_dir.clone()),
        max_running: 1,
        ..ServeConfig::default()
    });

    let spec = spec_18("shared");
    let outputs: Vec<(SweepOutcome, Vec<u8>, Vec<u8>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let addr = addr.clone();
                let spec = spec.clone();
                let out = dir.join(format!("client{c}"));
                scope.spawn(move || {
                    let client = ServeClient::connect_to(addr);
                    run_via_service(&client, &spec, &out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (outcome, _, _) in &outputs {
        assert_eq!(outcome.cells, 18);
        assert_eq!(outcome.rows.len(), 18);
    }
    // Acceptance: the second campaign is ≥95% memory-tier hits. The
    // submission order is racy, so check the better of the two.
    let best_memory_hits = outputs
        .iter()
        .map(|(o, _, _)| o.cells_memory_hits)
        .max()
        .unwrap();
    assert!(
        best_memory_hits * 100 >= 18 * 95,
        "second campaign should be served from the shared memory tier, \
         best was {best_memory_hits}/18 cells"
    );

    // Both served outputs are byte-identical to a direct in-process
    // run over the same (on-disk) cache.
    let direct_out = dir.join("direct");
    std::fs::create_dir_all(&direct_out).unwrap();
    let direct = Campaign::builder(spec)
        .cache(Arc::new(ResultCache::on_disk(&cache_dir)))
        .sink(CsvSink::create(direct_out.join("shared.csv")).unwrap())
        .sink(JsonlSink::create(direct_out.join("shared.jsonl")).unwrap())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(
        direct.fully_cached(),
        "the daemon computed every unit, the direct run must replay it"
    );
    let direct_csv = std::fs::read(direct_out.join("shared.csv")).unwrap();
    let direct_jsonl = std::fs::read(direct_out.join("shared.jsonl")).unwrap();
    for (c, (_, csv_bytes, jsonl_bytes)) in outputs.iter().enumerate() {
        assert_eq!(csv_bytes, &direct_csv, "client {c} csv differs from direct");
        assert_eq!(
            jsonl_bytes, &direct_jsonl,
            "client {c} jsonl differs from direct"
        );
    }

    let client = ServeClient::connect_to(&addr);
    let report = client.status(None).unwrap();
    assert_eq!(report.server.submissions, 2);
    assert_eq!(report.server.completed, 2);
    assert!(report.server.cache_hit_rate() >= 0.45);

    client.shutdown(ShutdownMode::Drain).unwrap();
    let report = daemon.join().unwrap();
    assert_eq!(report.server.completed, 2);
    assert!(report.unfinished.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn three_clients_with_overlapping_specs_compute_each_cell_once() {
    let (addr, daemon) = start(ServeConfig {
        max_running: 1,
        ..ServeConfig::default()
    });

    // Three 4-cell campaigns over pairwise-overlapping pfail sets:
    // 6 distinct cells total, 12 submitted.
    let spec_for = |name: &str, p1: f64, p2: f64| {
        SweepSpec::from_str_auto(&format!(
            r#"
            name = "{name}"
            seed = 7
            pfails = [{p1}, {p2}]
            estimators = ["first-order", "sculli"]
            reference_trials = 1000
            [[dags]]
            kind = "cholesky"
            ks = [3]
            "#
        ))
        .unwrap()
    };
    let specs = [
        spec_for("ov-a", 0.01, 0.02),
        spec_for("ov-b", 0.02, 0.03),
        spec_for("ov-c", 0.01, 0.03),
    ];

    let dir = scratch("overlap");
    let outcomes: Vec<SweepOutcome> = thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(c, spec)| {
                let addr = addr.clone();
                let out = dir.join(format!("client{c}"));
                scope.spawn(move || {
                    let client = ServeClient::connect_to(addr);
                    run_via_service(&client, spec, &out).0
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let computed: usize = outcomes.iter().map(|o| o.cells_computed).sum();
    let memory_hits: usize = outcomes.iter().map(|o| o.cells_memory_hits).sum();
    assert_eq!(
        computed, 6,
        "each of the 6 distinct cells is computed exactly once across campaigns"
    );
    assert_eq!(
        memory_hits, 6,
        "the other 6 submitted cells come from the shared memory tier"
    );

    let client = ServeClient::connect_to(&addr);
    client.shutdown(ShutdownMode::Drain).unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quota_and_admission_rejections_are_structured() {
    let dir = scratch("quota");
    let (addr, daemon) = start(ServeConfig {
        cache: Some(dir.join("cache")),
        max_running: 1,
        max_queued: 1,
        max_cells: Some(4),
        ..ServeConfig::default()
    });
    let client = ServeClient::connect_to(&addr);

    // Per-campaign quota: an 18-cell spec against a 4-cell budget.
    let err = client.submit(&spec_18("too-big")).unwrap_err();
    assert_eq!(err.kind, "quota");
    assert!(err.message.contains("18 cells"), "{err}");

    // Admission: occupy the single pool slot, fill the queue of one,
    // then overflow it. (The occupier must fit the 4-cell quota.)
    let running = hold_a_slot(&client, &dir, "occupier");
    assert!(
        running.cells <= 4,
        "stay under the quota: {}",
        running.cells
    );
    wait_for_state(&client, running.id, CampaignState::Running);
    let queued = client.submit(&spec_for_quota("queued-ok", 0.01)).unwrap();
    let err = client.submit(&spec_for_quota("bounced", 0.02)).unwrap_err();
    assert_eq!(err.kind, "admission");
    assert!(err.message.contains("queue is full"), "{err}");

    // Unblock and drain: cancel the occupier, let the queued one run.
    client.cancel(running.id).unwrap();
    assert_eq!(
        wait_for_state(&client, running.id, CampaignState::Cancelled),
        CampaignState::Cancelled
    );
    assert_eq!(
        wait_for_state(&client, queued.id, CampaignState::Done),
        CampaignState::Done
    );

    let report = client.status(None).unwrap();
    assert_eq!(report.server.quota_rejected, 1);
    assert_eq!(report.server.admission_rejected, 1);

    client.shutdown(ShutdownMode::Drain).unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_daemon_without_a_disk_cache_refuses_worker_process_backends() {
    // Worker processes share the daemon's cache only through its disk
    // tier; without one they would each compute on a private cache.
    let (addr, daemon) = start(ServeConfig::default());
    let client = ServeClient::connect_to(&addr);
    for backend in [
        BackendChoice::MultiProcess { workers: 2 },
        BackendChoice::SharedFs {
            spool: "never-created-spool".into(),
        },
    ] {
        let err = client
            .submit_on(&spec_for_quota("no-disk", 0.01), backend)
            .unwrap_err();
        assert_eq!(err.kind, "spec", "{err}");
        assert!(err.message.contains("--cache DIR"), "{err}");
    }
    // An in-process campaign is admitted, and its `jobs` is its own.
    let mut spec = spec_for_quota("in-process", 0.01);
    spec.jobs = Some(1);
    let ticket = client.submit(&spec).unwrap();
    let hello = client.events(ticket.id).unwrap().find_map(|ev| match ev {
        Ok(CampaignEvent::Hello { jobs, .. }) => Some(jobs),
        _ => None,
    });
    assert_eq!(hello, Some(1), "the served spec's jobs cap");
    assert_eq!(stream(&client, ticket.id).rows.len(), 1);

    client.shutdown(ShutdownMode::Drain).unwrap();
    let report = daemon.join().unwrap();
    assert_eq!(report.server.submissions, 1, "refusals are not admitted");
}

#[test]
fn a_served_stream_carries_only_plan_hello_and_lease_events() {
    // The daemon collects telemetry for every campaign; its clients get
    // no lease telemetry, and no session events beyond `hello`.
    let (addr, daemon) = start(ServeConfig::default());
    let client = ServeClient::connect_to(&addr);
    let ticket = client.submit(&spec_18("lean-stream")).unwrap();
    let events: Vec<CampaignEvent> = client
        .events(ticket.id)
        .unwrap()
        .map(Result::unwrap)
        .collect();
    let Some(&CampaignEvent::Plan {
        cells,
        references,
        leases,
    }) = events.first()
    else {
        panic!("expected the plan first, got {:?}", events.first());
    };
    assert!(matches!(events[1], CampaignEvent::Hello { .. }));
    assert!(matches!(
        events.last(),
        Some(CampaignEvent::LeaseDone { .. })
    ));
    assert_eq!(
        events.len(),
        2 + references + cells + leases,
        "one line per reference, cell and lease"
    );
    for event in &events[2..] {
        match event {
            CampaignEvent::Reference { .. } | CampaignEvent::Cell { .. } => {}
            CampaignEvent::LeaseDone { telemetry, .. } => assert!(telemetry.is_none()),
            other => panic!("unexpected {other:?}"),
        }
    }
    client.shutdown(ShutdownMode::Drain).unwrap();
    daemon.join().unwrap();
}

#[test]
fn a_zero_makespan_trace_is_answered_with_a_spec_error() {
    let dir = scratch("zero-makespan");
    let zero = dir.join("zero.dot");
    std::fs::write(
        &zero,
        "digraph zero { a [weight=0]; b [weight=0]; a -> b; }\n",
    )
    .unwrap();
    let (addr, daemon) = start(ServeConfig::default());
    let client = ServeClient::connect_to(&addr);
    let spec = SweepSpec::from_str_auto(&format!(
        r#"
        name = "zero"
        seed = 1
        pfails = [0.01]
        estimators = ["first-order"]
        reference_trials = 100
        [[dags]]
        kind = "dot"
        path = "{}"
        "#,
        zero.display()
    ))
    .unwrap();
    let err = client.submit(&spec).unwrap_err();
    assert_eq!(err.kind, "spec", "{err}");
    assert!(err.message.contains("failure-free makespan of 0"), "{err}");
    // The connection thread survived: the daemon still answers.
    assert!(client.status(None).unwrap().campaigns.is_empty());
    client.shutdown(ShutdownMode::Drain).unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Raw request lines, as a client of another release could send them:
/// a key no request reads is refused by name (a misspelt `backend` must
/// not run in-process), and a DAG value no generator accepts is a
/// `spec` error, not a panic on the accepting thread. The daemon then
/// completes a good campaign.
#[test]
fn unread_request_keys_and_bad_dag_values_are_refused_and_the_daemon_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    use stochdag_serve::{protocol::decode_response, Response};

    let (addr, daemon) = start(ServeConfig::default());
    let raw = |line: &str| {
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        writeln!(conn, "{line}").unwrap();
        let mut reply = String::new();
        BufReader::new(conn).read_line(&mut reply).unwrap();
        decode_response(&reply).unwrap()
    };
    let spec = |dag: &str| {
        format!(
            r#"{{"name":"raw","pfails":[0.01],"estimators":["first-order"],"reference_trials":100,"dags":[{dag}]}}"#
        )
    };
    let cases = [
        (
            format!(
                r#"{{"type":"submit","spec":{},"backnd":{{"kind":"shared-fs","spool":"/nonexistent"}}}}"#,
                spec(r#"{"kind":"qr","ks":[2]}"#)
            ),
            "protocol",
            "unknown key \"backnd\" in a \"submit\" request (accepted: backend, spec, type)",
        ),
        (
            r#"{"type":"status","idd":99}"#.to_string(),
            "protocol",
            "unknown key \"idd\" in a \"status\" request (accepted: id, type)",
        ),
        (
            format!(
                r#"{{"type":"submit","spec":{}}}"#,
                spec(r#"{"kind":"fork-join","width":0}"#)
            ),
            "spec",
            "dags[0]: width must be positive",
        ),
    ];
    for (line, want_kind, want_message) in &cases {
        match raw(line) {
            Response::Error { kind, message } => {
                assert_eq!(&kind, want_kind, "{message}");
                assert!(message.contains(want_message), "{message}");
            }
            other => panic!("{line}: expected an error, got {other:?}"),
        }
    }
    let client = ServeClient::connect_to(&addr);
    assert_eq!(client.status(None).unwrap().server.submissions, 0);
    let ticket = client.submit(&spec_for_quota("good", 0.02)).unwrap();
    assert_eq!(stream(&client, ticket.id).cells, 1);
    client.shutdown(ShutdownMode::Drain).unwrap();
    assert_eq!(daemon.join().unwrap().server.completed, 1);
}

/// A 1-cell spec (quota-friendly) distinguished by its pfail.
fn spec_for_quota(name: &str, pfail: f64) -> SweepSpec {
    SweepSpec::from_str_auto(&format!(
        r#"
        name = "{name}"
        seed = 7
        pfails = [{pfail}]
        estimators = ["first-order"]
        reference_trials = 1000
        [[dags]]
        kind = "cholesky"
        ks = [2]
        "#
    ))
    .unwrap()
}

#[test]
fn cancel_stops_a_running_campaign_and_leaves_others_unaffected() {
    let (addr, daemon) = start(ServeConfig {
        max_running: 2,
        ..ServeConfig::default()
    });
    let client = ServeClient::connect_to(&addr);

    let slow = client.submit(&slow_spec("victim")).unwrap();
    wait_for_state(&client, slow.id, CampaignState::Running);
    let normal = client.submit(&spec_18("bystander")).unwrap();

    let ack = client.cancel(slow.id).unwrap();
    assert!(ack.contains("cancel requested"), "{ack}");
    assert_eq!(
        wait_for_state(&client, slow.id, CampaignState::Cancelled),
        CampaignState::Cancelled,
        "cooperative cancel must stop the campaign"
    );
    assert_eq!(
        wait_for_state(&client, normal.id, CampaignState::Done),
        CampaignState::Done,
        "the other campaign must be unaffected"
    );

    // The victim's event stream terminates with a structured
    // cancellation error (same shape as a failed sweep-worker),
    // decoded by the typed subscription iterator.
    let events: Vec<_> = client
        .events(slow.id)
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    match events.last() {
        Some(stochdag_engine::CampaignEvent::Error { kind, .. }) => {
            assert_eq!(kind.as_deref(), Some("cancelled"));
        }
        other => panic!("stream must end with a cancelled error event, got {other:?}"),
    }

    // Cancelling a finished campaign is an idempotent ack; an unknown
    // id is a structured error.
    let ack = client.cancel(slow.id).unwrap();
    assert!(ack.contains("already cancelled"), "{ack}");
    let err = client.cancel(9999).unwrap_err();
    assert_eq!(err.kind, "unknown-id");

    // The victim's status row carries the error.
    let report = client.status(Some(slow.id)).unwrap();
    assert_eq!(
        report.campaigns[0].error.as_deref(),
        Some("campaign cancelled")
    );
    assert!(report.campaigns[0].rows < report.campaigns[0].cells);

    client.shutdown(ShutdownMode::Now).unwrap();
    daemon.join().unwrap();
}

#[test]
fn resume_reruns_a_cancelled_campaign_cache_first() {
    let dir = scratch("resume");
    let (addr, daemon) = start(ServeConfig {
        cache: Some(dir.join("cache")),
        max_running: 2,
        ..ServeConfig::default()
    });
    let client = ServeClient::connect_to(&addr);

    // Warm the shared cache with the full campaign.
    let spec = spec_18("warm");
    let (first, _, _) = run_via_service(&client, &spec, &dir.join("first"));
    assert_eq!(first.cells, 18);

    // Queue the same spec behind two slot-occupying campaigns, then
    // cancel it while still queued.
    let occupier = hold_a_slot(&client, &dir, "occupier-a");
    let occupier2 = hold_a_slot(&client, &dir, "occupier-b");
    let queued = client.submit(&spec).unwrap();
    let ack = client.cancel(queued.id).unwrap();
    assert!(ack.contains("cancelled queued"), "{ack}");

    // Resuming while others are active must re-admit just this spec;
    // resuming an active or completed campaign is a state error.
    let resumed = client.resume(queued.id).unwrap();
    assert_ne!(resumed.id, queued.id);
    let err = client.resume(occupier.id).unwrap_err();
    assert_eq!(err.kind, "state");

    // Free a slot so the resumed campaign can run, then verify it was
    // served from the cache the original run warmed.
    client.cancel(occupier.id).unwrap();
    wait_for_state(&client, resumed.id, CampaignState::Done);
    let (outcome, _, _) = {
        let out = dir.join("resumed");
        std::fs::create_dir_all(&out).unwrap();
        let mut csv = CsvSink::create(out.join("resumed.csv")).unwrap();
        let mut sinks: Vec<&mut dyn ResultSink> = vec![&mut csv];
        let outcome = client
            .run_to_sinks(resumed.id, &mut sinks, ProgressMode::None)
            .unwrap();
        (outcome, (), ())
    };
    assert_eq!(outcome.cells, 18);
    assert_eq!(
        outcome.cells_memory_hits, 18,
        "a resumed campaign over a warm cache recomputes nothing"
    );
    let err = client.resume(resumed.id).unwrap_err();
    assert_eq!(err.kind, "state");

    client.cancel(occupier2.id).unwrap();
    client.shutdown(ShutdownMode::Now).unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drain_cancels_the_queue_and_persists_a_resume_report() {
    let dir = scratch("shutdown");
    let report_path = dir.join("report.json");
    let (addr, daemon) = start(ServeConfig {
        cache: Some(dir.join("cache")),
        max_running: 1,
        shutdown_report: Some(report_path.clone()),
        ..ServeConfig::default()
    });
    let client = ServeClient::connect_to(&addr);

    let done = client.submit(&spec_for_quota("finished", 0.01)).unwrap();
    wait_for_state(&client, done.id, CampaignState::Done);

    let running = hold_a_slot(&client, &dir, "draining");
    wait_for_state(&client, running.id, CampaignState::Running);
    let queued = client.submit(&spec_18("never-ran")).unwrap();

    // Drain: the queued campaign is cancelled, the running one is
    // interrupted only because we follow up with a cancel (keeping
    // the test fast); new submissions are refused.
    let ack = client.shutdown(ShutdownMode::Drain).unwrap();
    assert!(ack.contains("draining"), "{ack}");
    let err = client.submit(&spec_for_quota("late", 0.02)).unwrap_err();
    assert_eq!(err.kind, "admission");
    assert!(err.message.contains("shutting down"), "{err}");
    client.cancel(running.id).unwrap();

    let report = daemon.join().unwrap();
    assert_eq!(report.server.completed, 1);
    let unfinished: Vec<(u64, CampaignState)> =
        report.unfinished.iter().map(|u| (u.id, u.state)).collect();
    assert!(
        unfinished.contains(&(queued.id, CampaignState::Cancelled)),
        "queued campaign must be in the resume report: {unfinished:?}"
    );
    assert!(
        unfinished.contains(&(running.id, CampaignState::Cancelled)),
        "interrupted campaign must be in the resume report: {unfinished:?}"
    );
    // The persisted report parses back and carries the spec needed to
    // resume.
    let raw = std::fs::read_to_string(&report_path).unwrap();
    let parsed: ShutdownReport = serde::json::from_str(&raw).unwrap();
    let entry = parsed
        .unfinished
        .iter()
        .find(|u| u.id == queued.id)
        .unwrap();
    assert_eq!(entry.spec.name, "never-ran");
    assert_eq!(entry.cells, 18);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A campaign that takes a while (a 1M-trial reference, ~0.1 s in a
/// release build): long enough to still be running when a test shuts
/// the daemon down around it.
fn medium_spec(name: &str) -> SweepSpec {
    SweepSpec::from_str_auto(&format!(
        r#"
        name = "{name}"
        seed = 5
        pfails = [0.01]
        estimators = ["first-order"]
        reference_trials = 1000000
        [[dags]]
        kind = "cholesky"
        ks = [3]
        "#
    ))
    .unwrap()
}

#[test]
fn idle_daemon_stops_on_a_handle_shutdown_from_another_thread() {
    let (addr, handle, stopped) = start_watched(ServeConfig::default());
    // One round trip: the accept loop is up, and then idles in accept.
    ServeClient::connect_to(addr.to_string())
        .status(None)
        .unwrap();
    thread::spawn(move || handle.shutdown(ShutdownMode::Now))
        .join()
        .unwrap();
    let report = stopped
        .recv_timeout(Duration::from_secs(1))
        .expect("an idle daemon must return from run within 1 s of shutdown");
    assert_eq!(report.server.submissions, 0);
}

#[test]
fn drain_ends_within_a_second_of_the_last_campaign_without_another_connection() {
    let (addr, handle, stopped) = start_watched(ServeConfig {
        max_running: 1,
        ..ServeConfig::default()
    });
    let client = ServeClient::connect_to(addr.to_string());
    let ticket = client.submit(&medium_spec("drained")).unwrap();
    assert_eq!(
        wait_for_state(&client, ticket.id, CampaignState::Running),
        CampaignState::Running,
        "the campaign must still be running when the drain starts"
    );
    // Subscribed before the drain: the stream ends when the campaign
    // does, and no connection reaches the daemon after that.
    let events = client.events(ticket.id).unwrap();
    handle.shutdown(ShutdownMode::Drain);
    for event in events {
        event.unwrap();
    }
    let report = stopped
        .recv_timeout(Duration::from_secs(1))
        .expect("run must return within 1 s of the drained campaign's end");
    assert_eq!(
        report.server.completed, 1,
        "the campaign drains, not cancels"
    );
    assert!(report.unfinished.is_empty());
}

#[test]
fn a_daemon_bound_to_the_wildcard_address_also_shuts_down() {
    let (addr, handle, stopped) = start_watched(ServeConfig {
        addr: "0.0.0.0:0".into(),
        ..ServeConfig::default()
    });
    assert!(addr.ip().is_unspecified());
    ServeClient::connect_to(format!("127.0.0.1:{}", addr.port()))
        .status(None)
        .unwrap();
    handle.shutdown(ShutdownMode::Now);
    stopped
        .recv_timeout(Duration::from_secs(1))
        .expect("a wildcard-bound daemon must wake itself on loopback");
}

#[test]
fn a_silent_client_stalls_neither_other_clients_nor_shutdown() {
    let (addr, handle, stopped) = start_watched(ServeConfig::default());
    // Connected first, and never sends a byte.
    let silent = std::net::TcpStream::connect(addr).unwrap();
    let client = ServeClient::connect_to(addr.to_string());
    let (done, finished) = mpsc::channel();
    thread::spawn(move || {
        client.status(None).unwrap();
        let ticket = client.submit(&spec_18("beside-silence")).unwrap();
        let _ = done.send(stream(&client, ticket.id));
    });
    let outcome = finished
        .recv_timeout(Duration::from_secs(10))
        .expect("status and a whole campaign must finish within 10 s beside a silent client");
    assert_eq!(outcome.rows.len(), 18);
    handle.shutdown(ShutdownMode::Drain);
    stopped
        .recv_timeout(Duration::from_secs(1))
        .expect("run must return within 1 s of shutdown while a silent client is connected");
    // No acceptor still holds the listener: its address binds again.
    let rebound = Server::bind(ServeConfig {
        addr: addr.to_string(),
        ..ServeConfig::default()
    });
    assert!(rebound.is_ok(), "{:?}", rebound.err());
    drop(silent);
}

/// ~30k cheap cells: an event log of ~10 MB, more than a loopback
/// socket buffers for a client that does not read.
fn big_log_spec(name: &str) -> SweepSpec {
    let pfails: Vec<String> = (1..=5000)
        .map(|i| format!("{:e}", i as f64 * 1e-6))
        .collect();
    SweepSpec::from_str_auto(&format!(
        r#"
        name = "{name}"
        seed = 3
        pfails = [{}]
        estimators = ["first-order", "sculli", "corlca"]
        reference_trials = 10
        [[dags]]
        kind = "cholesky"
        ks = [2, 3]
        "#,
        pfails.join(", ")
    ))
    .unwrap()
}

#[test]
fn a_subscriber_that_never_reads_its_replay_stalls_neither_status_nor_shutdown() {
    use std::io::Write;
    let (addr, handle, stopped) = start_watched(ServeConfig::default());
    let client = ServeClient::connect_to(addr.to_string());
    let ticket = client.submit(&big_log_spec("unread")).unwrap();
    assert_eq!(
        wait_for_state(&client, ticket.id, CampaignState::Done),
        CampaignState::Done
    );
    let events = format!(
        "{}\n",
        serde::json::to_string(&stochdag_serve::Request::Events { id: ticket.id })
    );
    let subscribe = || {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(events.as_bytes()).unwrap();
        raw
    };
    // The first subscriber's replay fills its socket, so its acceptor
    // blocks holding the campaign's log; more subscribers than idle
    // acceptors then wait for that log. None of them ever reads.
    let first = subscribe();
    thread::sleep(Duration::from_millis(200));
    let waiting: Vec<_> = (0..8).map(|_| subscribe()).collect();
    let (done, answered) = mpsc::channel();
    thread::spawn(move || {
        let _ = done.send(client.status(None).map(|s| s.campaigns.len()));
    });
    let listed = answered
        .recv_timeout(Duration::from_secs(10))
        .expect("status must be answered within 10 s beside blocked subscribers");
    assert_eq!(listed.unwrap(), 1);
    handle.shutdown(ShutdownMode::Now);
    stopped
        .recv_timeout(Duration::from_secs(1))
        .expect("run must return within 1 s of shutdown beside blocked subscribers");
    drop((first, waiting));
}

#[test]
fn cached_campaigns_start_few_acceptors_and_every_request_is_timed() {
    let config = ServeConfig::default();
    let max_running = config.max_running as u64;
    let (addr, handle, stopped) = start_watched(config);
    let client = ServeClient::connect_to(addr.to_string());
    let spec = spec_18("cached-loop");
    // One warm-up campaign fills the cache, then 50 cached ones; each
    // is two requests, `submit` and `events`.
    let mut requests = 0;
    for n in 0..51 {
        let ticket = client.submit(&spec).unwrap();
        let outcome = stream(&client, ticket.id);
        requests += 2;
        assert!(n == 0 || outcome.fully_cached(), "campaign {n} computed");
    }
    handle.shutdown(ShutdownMode::Drain);
    stopped
        .recv_timeout(Duration::from_secs(1))
        .expect("run must return within 1 s of shutdown");
    // Read once every acceptor has exited, so every span is recorded.
    let metrics = handle.metrics();
    let started = metrics
        .counters
        .get("serve.acceptors_started")
        .copied()
        .unwrap_or(0);
    assert!(
        started <= max_running + 1,
        "{started} acceptors started for one client"
    );
    let timed = metrics.spans.get("serve.request").map_or(0, |s| s.count);
    assert_eq!(timed, requests, "one serve.request span per request");
}

#[test]
fn streamed_campaigns_are_retired_after_the_window_and_unread_ones_are_kept() {
    const WINDOW: usize = 2;
    let dir = scratch("retention");
    let (addr, daemon) = start(ServeConfig {
        // The failed campaign below runs on a spool, which needs a
        // disk cache.
        cache: Some(dir.join("cache")),
        max_running: 1,
        max_queued: WINDOW,
        ..ServeConfig::default()
    });
    let client = ServeClient::connect_to(&addr);

    // Kept whatever completes after them: a detached campaign nobody
    // has read, and a failed one (its spool already hosts a campaign).
    let detached = client.submit(&spec_18("detached")).unwrap();
    assert_eq!(
        wait_for_state(&client, detached.id, CampaignState::Done),
        CampaignState::Done
    );
    let used_spool = dir.join("used-spool");
    std::fs::create_dir_all(&used_spool).unwrap();
    std::fs::write(used_spool.join("spec.json"), "{}").unwrap();
    let failed = client
        .submit_on(
            &spec_for_quota("failed", 0.01),
            BackendChoice::SharedFs {
                spool: used_spool.display().to_string(),
            },
        )
        .unwrap();
    assert_eq!(
        wait_for_state(&client, failed.id, CampaignState::Failed),
        CampaignState::Failed
    );

    let mut streamed = Vec::new();
    let mut listed = Vec::new();
    for i in 0..8 {
        let spec = spec_for_quota(&format!("streamed-{i}"), [0.01, 0.02, 0.03][i % 3]);
        let ticket = client.submit(&spec).unwrap();
        assert_eq!(stream(&client, ticket.id).rows.len(), 1);
        streamed.push(ticket.id);
        listed = client
            .status(None)
            .unwrap()
            .campaigns
            .iter()
            .filter(|c| c.state == CampaignState::Done && streamed.contains(&c.id))
            .map(|c| c.id)
            .collect::<Vec<u64>>();
        assert!(
            listed.len() <= WINDOW,
            "at most {WINDOW} streamed campaigns stay listed, got {listed:?}"
        );
    }
    assert_eq!(listed, streamed[streamed.len() - WINDOW..]);

    // The oldest retired id is a state error, not an unknown one.
    let retired = streamed[0];
    let err = client.status(Some(retired)).unwrap_err();
    assert_eq!(err.kind, "state", "{err}");
    assert!(err.message.contains("resubmit"), "{err}");
    assert_eq!(client.events(retired).err().unwrap().kind, "state");
    assert_eq!(client.resume(retired).unwrap_err().kind, "state");
    let ack = client.cancel(retired).unwrap();
    assert!(ack.contains("already done"), "{ack}");

    // Ids never issued are still unknown.
    for never in [0, 9999] {
        assert_eq!(client.status(Some(never)).unwrap_err().kind, "unknown-id");
        assert_eq!(client.events(never).err().unwrap().kind, "unknown-id");
        assert_eq!(client.resume(never).unwrap_err().kind, "unknown-id");
        assert_eq!(client.cancel(never).unwrap_err().kind, "unknown-id");
    }

    // The unread campaign replays in full, then retires: it is long
    // out of the window, and now it has been read.
    let replay = stream(&client, detached.id);
    assert_eq!(replay.cells, 18);
    assert_eq!(replay.rows.len(), 18);
    assert_eq!(client.status(Some(detached.id)).unwrap_err().kind, "state");

    // The failed campaign is still there to resume.
    let report = client.status(Some(failed.id)).unwrap();
    assert_eq!(report.campaigns[0].state, CampaignState::Failed);
    let resumed = client.resume(failed.id).unwrap();
    assert_eq!(stream(&client, resumed.id).rows.len(), 1);

    client.shutdown(ShutdownMode::Drain).unwrap();
    let report = daemon.join().unwrap();
    assert_eq!(report.server.completed, 10);
    assert!(report.unfinished.iter().any(|u| u.id == failed.id));
    let _ = std::fs::remove_dir_all(&dir);
}
