//! Chaos at the daemon boundary: a feeder killed mid-run (connection
//! dropped with no Finish) must leave its tenant alive, its server-side
//! trace file complete up to the last acknowledged batch (the disconnect
//! flush guard), and the run resumable — a reconnecting feeder freezes
//! it, restarts it, and drives it to a byte-identical completion.

mod common;

use std::time::{Duration, Instant};

use common::{capture_batch, fnv_digest, grid_scenario, wire_call};
use vcount_core::ProtocolVariant;
use vcount_sim::{
    serve_connections, Conn, Goal, Listener, ObservationBatch, ObservationSource, RunManager,
    ServiceConfig, ServiceRequest, ServiceResponse, SimulatorSource, WireClient,
};

fn trace_lines(path: &std::path::Path) -> Vec<String> {
    match std::fs::read_to_string(path) {
        Ok(text) => text.lines().map(String::from).collect(),
        Err(_) => Vec::new(),
    }
}

/// Waits (bounded) for the daemon's disconnect guard to flush `path` up
/// to exactly `want` lines. The flush runs on the server's connection
/// thread after it sees EOF, so the test must tolerate scheduling delay —
/// but not an incomplete file.
fn await_flushed_trace(path: &std::path::Path, want: &[String]) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let got = trace_lines(path);
        if got.len() >= want.len() {
            assert_eq!(
                got, want,
                "server-side trace diverged from the feeder's received stream"
            );
            return;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect flush guard never completed the trace file \
             ({} of {} lines)",
            got.len(),
            want.len()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The full chaos scenario, over real TCP:
///
/// 1. feeder 1 starts run "t" with a server-side trace, pushes a prefix of
///    batches, and is killed (connection dropped, no Finish);
/// 2. the daemon's disconnect guard flushes the tenant's trace file —
///    verified complete (byte-identical to the events feeder 1 was sent)
///    *before* anything else touches the daemon;
/// 3. feeder 2 reconnects, freezes the orphaned run (supplying the
///    simulator state it inherited), stops it, resumes it under a new id
///    with a second trace, and drives it to completion;
/// 4. the stitched event stream, the stitched trace files, and the final
///    metrics are byte-identical to the uninterrupted solo run.
#[test]
fn killed_feeder_leaves_flushed_trace_and_resumable_run() {
    let scen = grid_scenario(ProtocolVariant::Simple, 141);
    let prefix_batches = 200usize;
    let (reference, ref_metrics) = capture_batch(&scen, None);
    assert!(reference.len() > 10, "reference emitted too few events");

    // The daemon writes server-side traces only inside its trace
    // directory; a wire `trace` names a file there.
    let dir = std::env::temp_dir().join(format!("vcountd-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("trace dir");
    let (trace1, trace2) = (dir.join("1.jsonl"), dir.join("2.jsonl"));

    let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    let cfg = ServiceConfig {
        trace_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let server = std::thread::spawn(move || {
        let mut mgr = RunManager::new(cfg);
        serve_connections(&listener, &mut mgr, Some(2)).expect("serve_connections")
    });

    // Life 1: feeder 1 pushes a prefix, then dies without Finish.
    let mut source = SimulatorSource::from_scenario(&scen, 1);
    let mut batch = ObservationBatch::default();
    let mut prefix = Vec::new();
    {
        let mut client =
            WireClient::new(Conn::connect_tcp(&addr).expect("connect")).expect("client");
        let started = wire_call(
            &mut client,
            &ServiceRequest::Start {
                run: "t".into(),
                scenario: Box::new(scen.clone()),
                goal: Some(Goal::Collection),
                shards: 0,
                eager_decode: false,
                faults: None,
                trace: Some("1.jsonl".into()),
            },
            &mut prefix,
        );
        assert!(matches!(started, ServiceResponse::Started { .. }));
        for _ in 0..prefix_batches {
            assert!(source.next_batch(&mut batch));
            match wire_call(
                &mut client,
                &ServiceRequest::Observe {
                    run: "t".into(),
                    batch: batch.clone(),
                },
                &mut prefix,
            ) {
                ServiceResponse::Accepted { done, .. } => {
                    assert!(!done, "prefix must end before the goal for a real resume")
                }
                other => panic!("Observe answered with {other:?}"),
            }
        }
        // The kill: drop the connection. No Finish, no Stop, no goodbye.
    }

    // The disconnect guard must complete the server-side trace on its own.
    await_flushed_trace(&trace1, &prefix);

    // Life 2: a fresh feeder adopts the orphan.
    let mut client = WireClient::new(Conn::connect_tcp(&addr).expect("connect")).expect("client");
    let mut tail = Vec::new();
    let snap = match wire_call(
        &mut client,
        &ServiceRequest::Snapshot {
            run: "t".into(),
            sim: source.sim_state(),
        },
        &mut tail,
    ) {
        ServiceResponse::Snapshot { snapshot, .. } => snapshot,
        other => panic!("Snapshot answered with {other:?}"),
    };
    assert!(matches!(
        wire_call(
            &mut client,
            &ServiceRequest::Stop { run: "t".into() },
            &mut tail
        ),
        ServiceResponse::Stopped { .. }
    ));
    let mut source =
        SimulatorSource::resume_from(&snap.scenario, snap.scenario.validate().unwrap(), &snap.sim)
            .expect("snapshot restores");
    assert!(matches!(
        wire_call(
            &mut client,
            &ServiceRequest::Resume {
                run: "t2".into(),
                snapshot: snap,
                goal: Some(Goal::Collection),
                trace: Some("2.jsonl".into()),
            },
            &mut tail,
        ),
        ServiceResponse::Resumed { .. }
    ));
    let mut done = false;
    while !done && source.next_batch(&mut batch) {
        match wire_call(
            &mut client,
            &ServiceRequest::Observe {
                run: "t2".into(),
                batch: batch.clone(),
            },
            &mut tail,
        ) {
            ServiceResponse::Accepted { done: d, .. } => done = d,
            other => panic!("Observe answered with {other:?}"),
        }
    }
    let finished = wire_call(
        &mut client,
        &ServiceRequest::Finish {
            run: "t2".into(),
            truth: source.truth(),
        },
        &mut tail,
    );
    let ServiceResponse::Finished { metrics, .. } = finished else {
        panic!("Finish answered with {finished:?}");
    };
    drop(client);
    server.join().expect("server thread");

    // The stitched wire streams are byte-identical to the solo run...
    let mut stitched = prefix.clone();
    stitched.extend(tail.clone());
    assert_eq!(
        fnv_digest(&stitched),
        fnv_digest(&reference),
        "kill + reconnect + resume diverged from the uninterrupted run"
    );
    assert_eq!(stitched, reference);
    // ...and so are the stitched server-side trace files (the second one
    // is complete after the daemon's graceful shutdown).
    let mut traces = trace_lines(&trace1);
    traces.extend(trace_lines(&trace2));
    assert_eq!(
        traces, reference,
        "stitched server-side traces diverged from the uninterrupted run"
    );
    // State-derived metrics survive the kill (telemetry counters are
    // audited per life, as the snapshot schema documents).
    assert_eq!(metrics.global_count, ref_metrics.global_count);
    assert_eq!(metrics.true_population, ref_metrics.true_population);
    assert_eq!(metrics.oracle_violations, ref_metrics.oracle_violations);
    assert_eq!(metrics.elapsed_s, ref_metrics.elapsed_s);
    assert_eq!(metrics.steps, ref_metrics.steps);

    let _ = std::fs::remove_dir_all(&dir);
}
