//! The service contract (DESIGN.md §10): transport is a deployment knob,
//! never a semantics knob. A scenario driven through the `vcountd`
//! [`RunManager`] by a simulator-fed client must produce a *byte-identical*
//! protocol event stream, final counts, and counter telemetry to the same
//! scenario under the in-process batch runner — for every protocol variant,
//! under fault injection, with tenants interleaved, and across a
//! snapshot/restart through the service.
//!
//! The only fields allowed to differ are the wall-clock phase timings: the
//! service never runs the traffic substrate (the feeder does), so its
//! `traffic_step_secs` is legitimately zero. They are normalized out
//! before comparison.

mod common;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use common::{
    assert_metrics_identical, capture_batch, fnv_digest, grid_scenario, open_scenario,
    small_grid_scenario, split_answer, wire_call, VecSink,
};
use vcount_core::ProtocolVariant;
use vcount_obs::{EventRecord, EventSink};
use vcount_roadnet::builders::ManhattanConfig;
use vcount_roadnet::NodeId;
use vcount_sim::{
    serve_connections, Conn, CrashFault, EventRow, FaultPlan, Goal, Listener, MapSpec,
    ObservationBatch, ObservationSource, RunManager, RunMetrics, Runner, Scenario, ServiceConfig,
    ServiceRequest, ServiceResponse, SimulatorSource, WireClient,
};

fn boundary_plan() -> FaultPlan {
    FaultPlan {
        seed: 11,
        crashes: vec![
            CrashFault {
                node: 7,
                at_s: 60.0,
                recover_s: 240.0,
            },
            CrashFault {
                node: 8,
                at_s: 90.0,
                recover_s: 300.0,
            },
        ],
        blackouts: Vec::new(),
        chaos: None,
        image_every_s: 60.0,
    }
}

/// Applies one request and splits the answer per [`split_answer`].
fn call(mgr: &mut RunManager, req: ServiceRequest, events: &mut Vec<String>) -> ServiceResponse {
    let mut out = Vec::new();
    mgr.handle(req, &mut out);
    split_answer(out, events)
}

/// Drives `scen` through a [`RunManager`] exactly as a `vcount feed`
/// client would: Start, one Observe per simulator tick until the service
/// reports the run done, then Finish with ground truth.
fn capture_service(
    scen: &Scenario,
    plan: Option<FaultPlan>,
    goal: Goal,
    cfg: ServiceConfig,
) -> (Vec<String>, RunMetrics) {
    let mut mgr = RunManager::new(cfg);
    let mut events = Vec::new();
    let started = call(
        &mut mgr,
        ServiceRequest::Start {
            run: "t".into(),
            scenario: Box::new(scen.clone()),
            goal: Some(goal),
            shards: 0,
            eager_decode: false,
            faults: plan,
            trace: None,
        },
        &mut events,
    );
    assert!(matches!(started, ServiceResponse::Started { .. }));

    let mut source = SimulatorSource::from_scenario(scen, 1);
    let mut batch = ObservationBatch::default();
    let mut done = false;
    while !done && source.next_batch(&mut batch) {
        loop {
            let resp = call(
                &mut mgr,
                ServiceRequest::Observe {
                    run: "t".into(),
                    batch: batch.clone(),
                },
                &mut events,
            );
            match resp {
                ServiceResponse::Accepted { done: d, .. } => {
                    done = d;
                    break;
                }
                ServiceResponse::Throttled { .. } => {
                    call(&mut mgr, ServiceRequest::Pump { budget: None }, &mut events);
                }
                other => panic!("Observe answered with {other:?}"),
            }
        }
    }

    let finished = call(
        &mut mgr,
        ServiceRequest::Finish {
            run: "t".into(),
            truth: source.truth(),
        },
        &mut events,
    );
    let ServiceResponse::Finished { metrics, .. } = finished else {
        panic!("Finish answered with {finished:?}");
    };
    (events, *metrics)
}

fn assert_service_matches_batch(scen: &Scenario, plan: Option<FaultPlan>, what: &str) {
    let (batch_stream, batch_metrics) = capture_batch(scen, plan.clone());
    assert!(
        !batch_stream.is_empty(),
        "{what}: reference emitted no events"
    );
    let (service_stream, service_metrics) =
        capture_service(scen, plan, Goal::Collection, ServiceConfig::default());
    assert_eq!(
        fnv_digest(&service_stream),
        fnv_digest(&batch_stream),
        "{what}: event digest diverged between transports"
    );
    assert_eq!(
        service_stream, batch_stream,
        "{what}: event stream diverged between transports"
    );
    assert_metrics_identical(&service_metrics, &batch_metrics, what);
}

#[test]
fn simple_variant_is_transport_invariant() {
    let scen = grid_scenario(ProtocolVariant::Simple, 52);
    assert_service_matches_batch(&scen, None, "simple");
}

/// Also with a Start that still carries the keys of two deleted knobs:
/// `sim.signals`, here a plan that is never green, and
/// `protocol.patrol_stale_stop`. Both parse and are ignored like any
/// unknown key, so the tenant runs the scenario without them.
#[test]
fn extended_variant_is_transport_invariant() {
    let scen = grid_scenario(ProtocolVariant::Extended, 53);
    assert_service_matches_batch(&scen, None, "extended");
    let signals = r#""signals":{"green_s":0.0,"all_red_s":2.0},"#;
    let stale_stop = r#""patrol_stale_stop":true,"#;
    let clean = serde_json::to_string(&scen).unwrap();
    let old_keys = clean
        .replacen(r#""sim":{"#, &format!(r#""sim":{{{signals}"#), 1)
        .replacen(
            r#""protocol":{"#,
            &format!(r#""protocol":{{{stale_stop}"#),
            1,
        );
    assert_eq!(
        old_keys.len(),
        clean.len() + signals.len() + stale_stop.len(),
        "both keys were inserted"
    );
    let old: Scenario = serde_json::from_str(&old_keys).expect("old keys are ignored");
    let (batch_stream, batch_metrics) = capture_batch(&scen, None);
    let (service_stream, service_metrics) =
        capture_service(&old, None, Goal::Collection, ServiceConfig::default());
    assert_eq!(service_stream, batch_stream, "old keys changed the stream");
    assert_metrics_identical(&service_metrics, &batch_metrics, "old keys");
}

#[test]
fn open_variant_is_transport_invariant() {
    let scen = open_scenario(54);
    assert_service_matches_batch(&scen, None, "open");
}

#[test]
fn faulted_run_is_transport_invariant() {
    let scen = grid_scenario(ProtocolVariant::Simple, 55);
    assert_service_matches_batch(&scen, Some(boundary_plan()), "boundary faults");
}

/// A crash between constitution (123 s on this seed) and collection
/// (164.5 s), found in a traced run, that recovers from the only image
/// the plan takes — the t = 0 one, from before the checkpoint stabilized
/// (104 s). Both transports stop on the same state-based predicate, so
/// the batch run, like the tenant, keeps stepping degraded to the time
/// budget instead of stopping on a constitution it saw before the crash.
#[test]
fn crash_after_constitution_is_transport_invariant() {
    let scen = grid_scenario(ProtocolVariant::Simple, 56);
    let plan = FaultPlan {
        seed: 11,
        crashes: vec![CrashFault {
            node: 5,
            at_s: 143.0,
            recover_s: 153.0,
        }],
        blackouts: Vec::new(),
        chaos: None,
        image_every_s: 1e7,
    };
    let (_, clean) = capture_batch(&scen, None);
    assert!(
        clean.constitution_done_s < Some(143.0) && clean.collection_done_s > Some(143.0),
        "the crash must land between constitution and collection: {clean:?}"
    );
    let mut runner = Runner::builder(&scen).faults(plan.clone()).build();
    let metrics = runner.run(Goal::Collection, scen.max_time_s);
    assert!(
        metrics.degraded && !runner.checkpoint(NodeId(5)).is_stable(),
        "the recovered checkpoint must come back unstable; test is vacuous"
    );
    assert_service_matches_batch(&scen, Some(plan), "crash after constitution");
}

/// Two interleaved tenants with different seeds and protocol variants:
/// each tenant's event stream and metrics must be byte-identical to its
/// own solo batch run — tenants share a manager, never state.
#[test]
fn interleaved_tenants_match_their_solo_runs() {
    let scen_a = grid_scenario(ProtocolVariant::Simple, 61);
    let scen_b = open_scenario(62);
    let (solo_a, metrics_a) = capture_batch(&scen_a, None);
    let (solo_b, metrics_b) = capture_batch(&scen_b, None);

    let mut mgr = RunManager::new(ServiceConfig::default());
    let mut events: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut finished: BTreeMap<String, RunMetrics> = BTreeMap::new();
    let sift = |out: Vec<ServiceResponse>,
                events: &mut BTreeMap<String, Vec<String>>,
                finished: &mut BTreeMap<String, RunMetrics>|
     -> Option<ServiceResponse> {
        let mut terminal = None;
        for resp in out {
            match resp {
                ServiceResponse::Event { run, line } => events.entry(run).or_default().push(line),
                ServiceResponse::Error { run, message } => {
                    panic!("service error for run {run:?}: {message}")
                }
                ServiceResponse::Finished { run, metrics } => {
                    finished.insert(run, *metrics);
                }
                other => terminal = Some(other),
            }
        }
        terminal
    };

    for (run, scen) in [("a", &scen_a), ("b", &scen_b)] {
        let mut out = Vec::new();
        mgr.handle(
            ServiceRequest::Start {
                run: run.into(),
                scenario: Box::new(scen.clone()),
                goal: Some(Goal::Collection),
                shards: 0,
                eager_decode: false,
                faults: None,
                trace: None,
            },
            &mut out,
        );
        sift(out, &mut events, &mut finished);
    }

    let mut src_a = SimulatorSource::from_scenario(&scen_a, 1);
    let mut src_b = SimulatorSource::from_scenario(&scen_b, 1);
    let mut batch = ObservationBatch::default();
    let (mut done_a, mut done_b) = (false, false);
    while !done_a || !done_b {
        for (run, src, done) in [
            ("a", &mut src_a as &mut SimulatorSource, &mut done_a),
            ("b", &mut src_b, &mut done_b),
        ] {
            if *done || !src.next_batch(&mut batch) {
                continue;
            }
            let mut out = Vec::new();
            mgr.handle(
                ServiceRequest::Observe {
                    run: run.into(),
                    batch: batch.clone(),
                },
                &mut out,
            );
            match sift(out, &mut events, &mut finished) {
                Some(ServiceResponse::Accepted { done: d, .. }) => *done = d,
                other => panic!("Observe answered with {other:?}"),
            }
        }
    }
    for (run, src) in [("a", &src_a), ("b", &src_b)] {
        let mut out = Vec::new();
        mgr.handle(
            ServiceRequest::Finish {
                run: run.into(),
                truth: src.truth(),
            },
            &mut out,
        );
        sift(out, &mut events, &mut finished);
    }

    assert_eq!(events["a"], solo_a, "tenant a diverged from its solo run");
    assert_eq!(events["b"], solo_b, "tenant b diverged from its solo run");
    assert_eq!(
        fnv_digest(&events["a"]),
        fnv_digest(&solo_a),
        "tenant a digest"
    );
    assert_eq!(
        fnv_digest(&events["b"]),
        fnv_digest(&solo_b),
        "tenant b digest"
    );
    assert_metrics_identical(&finished["a"], &metrics_a, "tenant a metrics");
    assert_metrics_identical(&finished["b"], &metrics_b, "tenant b metrics");
}

/// The bounded ingest queue enforces *explicit* backpressure: an over-rate
/// producer gets a deterministic Throttled response (the batch is not
/// enqueued), and once the queue drains every accepted batch is ingested
/// exactly once — nothing is silently dropped.
#[test]
fn over_rate_producer_gets_explicit_backpressure() {
    let scen = grid_scenario(ProtocolVariant::Simple, 71);
    // Manual ingest: nothing is consumed until an explicit Pump, so the
    // queue fills deterministically.
    let cfg = ServiceConfig {
        queue_capacity: 2,
        pump_budget: 0,
        ..ServiceConfig::default()
    };
    let mut mgr = RunManager::new(cfg);
    let mut events = Vec::new();
    call(
        &mut mgr,
        ServiceRequest::Start {
            run: "t".into(),
            scenario: Box::new(scen.clone()),
            goal: Some(Goal::Collection),
            shards: 0,
            eager_decode: false,
            faults: None,
            trace: None,
        },
        &mut events,
    );

    // Start itself emits the seed-activation events at t=0; only ingest
    // may add to the stream after this point.
    let activation_events = events.len();

    let mut source = SimulatorSource::from_scenario(&scen, 1);
    let mut batches = Vec::new();
    for _ in 0..3 {
        let mut b = ObservationBatch::default();
        assert!(source.next_batch(&mut b));
        batches.push(b);
    }

    let observe = |b: &ObservationBatch| ServiceRequest::Observe {
        run: "t".into(),
        batch: b.clone(),
    };
    // Two batches fill the queue...
    for (i, b) in batches.iter().take(2).enumerate() {
        match call(&mut mgr, observe(b), &mut events) {
            ServiceResponse::Accepted { queued, done, .. } => {
                assert_eq!(queued, i + 1);
                assert!(!done);
            }
            other => panic!("expected Accepted, got {other:?}"),
        }
    }
    // ...and the third is rejected loudly, not enqueued and not dropped.
    match call(&mut mgr, observe(&batches[2]), &mut events) {
        ServiceResponse::Throttled {
            queued, capacity, ..
        } => {
            assert_eq!((queued, capacity), (2, 2));
        }
        other => panic!("expected Throttled, got {other:?}"),
    }
    assert_eq!(
        events.len(),
        activation_events,
        "nothing may be ingested before an explicit Pump"
    );

    // Draining one slot lets the identical resend through.
    match call(
        &mut mgr,
        ServiceRequest::Pump { budget: Some(1) },
        &mut events,
    ) {
        ServiceResponse::Pumped { ingested } => assert_eq!(ingested, 1),
        other => panic!("expected Pumped, got {other:?}"),
    }
    match call(&mut mgr, observe(&batches[2]), &mut events) {
        ServiceResponse::Accepted { queued, .. } => assert_eq!(queued, 2),
        other => panic!("expected Accepted after drain, got {other:?}"),
    }
    match call(&mut mgr, ServiceRequest::Pump { budget: None }, &mut events) {
        ServiceResponse::Pumped { ingested } => assert_eq!(ingested, 2),
        other => panic!("expected Pumped, got {other:?}"),
    }

    // Every accepted batch went through the engine exactly once.
    let finished = call(
        &mut mgr,
        ServiceRequest::Finish {
            run: "t".into(),
            truth: source.truth(),
        },
        &mut events,
    );
    let ServiceResponse::Finished { metrics, .. } = finished else {
        panic!("Finish answered with {finished:?}");
    };
    assert_eq!(metrics.steps, 3, "all three batches ingested, none dropped");
}

/// A run frozen through the service (the feeder supplies its traffic
/// state) and restarted on a fresh manager — a daemon restart — must
/// resume byte-identically to the uninterrupted batch run.
#[test]
fn service_snapshot_restart_resumes_byte_identically() {
    let scen = grid_scenario(ProtocolVariant::Simple, 81);
    let prefix_batches = 200usize;
    let (reference, ref_metrics) = capture_batch(&scen, None);
    assert!(!reference.is_empty(), "reference emitted no events");

    // First life: feed a prefix, freeze, stop.
    let mut mgr = RunManager::new(ServiceConfig::default());
    let mut prefix = Vec::new();
    call(
        &mut mgr,
        ServiceRequest::Start {
            run: "t".into(),
            scenario: Box::new(scen.clone()),
            goal: Some(Goal::Collection),
            shards: 0,
            eager_decode: false,
            faults: None,
            trace: None,
        },
        &mut prefix,
    );
    let mut source = SimulatorSource::from_scenario(&scen, 1);
    let mut batch = ObservationBatch::default();
    for _ in 0..prefix_batches {
        assert!(source.next_batch(&mut batch));
        match call(
            &mut mgr,
            ServiceRequest::Observe {
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
    let snap = match call(
        &mut mgr,
        ServiceRequest::Snapshot {
            run: "t".into(),
            sim: source.sim_state(),
        },
        &mut prefix,
    ) {
        ServiceResponse::Snapshot { snapshot, .. } => snapshot,
        other => panic!("Snapshot answered with {other:?}"),
    };
    call(
        &mut mgr,
        ServiceRequest::Stop { run: "t".into() },
        &mut prefix,
    );
    drop(mgr);

    // Second life: a fresh manager resumes the frozen run; the feeder
    // restores its simulator from the same snapshot.
    let mut mgr = RunManager::new(ServiceConfig::default());
    let mut tail = Vec::new();
    let mut source =
        SimulatorSource::resume_from(&snap.scenario, snap.scenario.validate().unwrap(), &snap.sim)
            .expect("snapshot restores");
    call(
        &mut mgr,
        ServiceRequest::Resume {
            run: "t2".into(),
            snapshot: snap,
            goal: Some(Goal::Collection),
            trace: None,
        },
        &mut tail,
    );
    let mut done = false;
    while !done && source.next_batch(&mut batch) {
        match call(
            &mut mgr,
            ServiceRequest::Observe {
                run: "t2".into(),
                batch: batch.clone(),
            },
            &mut tail,
        ) {
            ServiceResponse::Accepted { done: d, .. } => done = d,
            other => panic!("Observe answered with {other:?}"),
        }
    }
    let finished = call(
        &mut mgr,
        ServiceRequest::Finish {
            run: "t2".into(),
            truth: source.truth(),
        },
        &mut tail,
    );
    let ServiceResponse::Finished { metrics, .. } = finished else {
        panic!("Finish answered with {finished:?}");
    };

    let mut stitched = prefix;
    stitched.extend(tail);
    assert_eq!(
        fnv_digest(&stitched),
        fnv_digest(&reference),
        "service snapshot/restart diverged from the uninterrupted run"
    );
    assert_eq!(stitched, reference);
    // The snapshot deliberately excludes the telemetry counters ("a
    // resumed run audits its own tail"), so only the state-derived
    // metrics must survive the restart.
    assert_eq!(metrics.global_count, ref_metrics.global_count);
    assert_eq!(metrics.true_population, ref_metrics.true_population);
    assert_eq!(metrics.oracle_violations, ref_metrics.oracle_violations);
    assert_eq!(metrics.baseline_naive, ref_metrics.baseline_naive);
    assert_eq!(metrics.baseline_dedup, ref_metrics.baseline_dedup);
    assert_eq!(metrics.degraded, ref_metrics.degraded);
    assert_eq!(metrics.elapsed_s, ref_metrics.elapsed_s);
    assert_eq!(metrics.steps, ref_metrics.steps);
    assert_eq!(metrics.constitution_done_s, ref_metrics.constitution_done_s);
    assert_eq!(metrics.collection_done_s, ref_metrics.collection_done_s);
}

/// Drives `scen` to completion over an already-dialed connection, exactly
/// as a `vcount feed` client would: Start, one Observe per simulator tick
/// (resending after Throttled), then Finish with ground truth.
fn drive_wire(conn: Conn, run: &str, scen: &Scenario) -> (Vec<String>, RunMetrics) {
    let mut client = WireClient::new(conn).expect("wire client");
    let mut events = Vec::new();
    let started = wire_call(
        &mut client,
        &ServiceRequest::Start {
            run: run.into(),
            scenario: Box::new(scen.clone()),
            goal: Some(Goal::Collection),
            shards: 0,
            eager_decode: false,
            faults: None,
            trace: None,
        },
        &mut events,
    );
    assert!(matches!(started, ServiceResponse::Started { .. }));

    let mut source = SimulatorSource::from_scenario(scen, 1);
    let mut batch = ObservationBatch::default();
    let mut done = false;
    while !done && source.next_batch(&mut batch) {
        loop {
            let resp = wire_call(
                &mut client,
                &ServiceRequest::Observe {
                    run: run.into(),
                    batch: batch.clone(),
                },
                &mut events,
            );
            match resp {
                ServiceResponse::Accepted { done: d, .. } => {
                    done = d;
                    break;
                }
                ServiceResponse::Throttled { .. } => {
                    wire_call(
                        &mut client,
                        &ServiceRequest::Pump { budget: None },
                        &mut events,
                    );
                }
                other => panic!("Observe answered with {other:?}"),
            }
        }
    }
    let finished = wire_call(
        &mut client,
        &ServiceRequest::Finish {
            run: run.into(),
            truth: source.truth(),
        },
        &mut events,
    );
    let ServiceResponse::Finished { metrics, .. } = finished else {
        panic!("Finish answered with {finished:?}");
    };
    (events, *metrics)
}

/// The tentpole contract, over real sockets: two feeders on *concurrent
/// connections* to one daemon — each tenant's event stream and metrics
/// must be byte-identical to its own solo batch run, on both transports.
/// Requests interleave at request granularity on the manager's one owner
/// thread; each frame goes out in one write on its own connection, which
/// keeps each feeder's framing intact.
fn concurrent_feeders_match_solo(listener: Listener, dial: impl Fn() -> Conn + Send + Sync) {
    let scen_a = grid_scenario(ProtocolVariant::Simple, 61);
    let scen_b = open_scenario(62);
    let (solo_a, metrics_a) = capture_batch(&scen_a, None);
    let (solo_b, metrics_b) = capture_batch(&scen_b, None);

    let server = std::thread::spawn(move || {
        let mut mgr = RunManager::new(ServiceConfig::default());
        serve_connections(&listener, &mut mgr, Some(2)).expect("serve_connections");
        mgr
    });
    let ((events_a, got_a), (events_b, got_b)) = std::thread::scope(|s| {
        let feeder_a = s.spawn(|| drive_wire(dial(), "a", &scen_a));
        let feeder_b = s.spawn(|| drive_wire(dial(), "b", &scen_b));
        (
            feeder_a.join().expect("feeder a"),
            feeder_b.join().expect("feeder b"),
        )
    });
    let mgr = server.join().expect("server thread");

    assert_eq!(
        fnv_digest(&events_a),
        fnv_digest(&solo_a),
        "tenant a digest diverged from its solo run"
    );
    assert_eq!(events_a, solo_a, "tenant a diverged from its solo run");
    assert_eq!(
        fnv_digest(&events_b),
        fnv_digest(&solo_b),
        "tenant b digest diverged from its solo run"
    );
    assert_eq!(events_b, solo_b, "tenant b diverged from its solo run");
    assert_metrics_identical(&got_a, &metrics_a, "tenant a metrics");
    assert_metrics_identical(&got_b, &metrics_b, "tenant b metrics");
    assert!(
        mgr.runs().next().is_none(),
        "both tenants finished and were removed"
    );
}

#[test]
fn concurrent_tcp_feeders_match_their_solo_runs() {
    let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    concurrent_feeders_match_solo(listener, move || Conn::connect_tcp(&addr).expect("connect"));
}

#[test]
fn concurrent_unix_feeders_match_their_solo_runs() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("vcountd-identity-{}.sock", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path").to_string();
    let listener = Listener::bind_unix(&path).expect("bind");
    let dial_path = path.clone();
    concurrent_feeders_match_solo(listener, move || {
        Conn::connect_unix(&dial_path).expect("connect")
    });
    let _ = std::fs::remove_file(&path);
}

/// The shutdown guard (satellite of the service work): dropping a runner
/// mid-run — an aborted tenant, a panic unwinding past an external drive
/// loop — flushes its sinks, so a buffered trace never loses its tail.
#[test]
fn dropping_a_runner_mid_run_flushes_sinks() {
    struct FlagSink {
        records: usize,
        flushed: Arc<Mutex<bool>>,
    }
    impl EventSink for FlagSink {
        fn record(&mut self, _rec: &EventRecord) {
            self.records += 1;
        }
        fn flush(&mut self) {
            *self.flushed.lock().unwrap() = true;
        }
    }

    let flushed = Arc::new(Mutex::new(false));
    let scen = grid_scenario(ProtocolVariant::Simple, 91);
    let mut runner = Runner::builder(&scen)
        .sink(Box::new(FlagSink {
            records: 0,
            flushed: flushed.clone(),
        }))
        .build();
    for _ in 0..5 {
        runner.step();
    }
    assert!(!*flushed.lock().unwrap(), "no flush while mid-run");
    drop(runner);
    assert!(
        *flushed.lock().unwrap(),
        "dropping the runner must flush its sinks"
    );
}

/// The Observe wire form is lossless. On four scenarios (the closed and
/// open small midtown maps, a grid that detects overtakes, and a one-way
/// ring with two patrol cars) every batch goes JSON -> batch -> JSON
/// byte-identical, and an externally fed runner ingesting the decoded
/// batches emits the in-process event stream byte for byte.
#[test]
fn batches_round_trip_through_json_on_four_scenarios() {
    let closed = Scenario::paper_closed(ManhattanConfig::small(), 60.0, 2, 51);
    let open = Scenario::paper_open(ManhattanConfig::small(), 60.0, 2, 52);
    let overtaking = grid_scenario(ProtocolVariant::Simple, 53);
    assert!(overtaking.sim.detect_overtakes);
    let mut ring = small_grid_scenario(ProtocolVariant::Extended, 54);
    ring.map = MapSpec::DirectedRing {
        nodes: 8,
        spacing_m: 120.0,
        speed_mps: 10.0,
    };
    ring.patrol.cars = 2;
    let mut kinds = [0usize; 5];
    for (scen, what) in [
        (closed, "closed midtown"),
        (open, "open midtown"),
        (overtaking, "overtaking grid"),
        (ring, "patrol ring"),
    ] {
        let (reference, _) = capture_batch(&scen, None);
        let lines = Arc::new(Mutex::new(Vec::new()));
        let mut runner = Runner::builder(&scen)
            .external(true)
            .sink(Box::new(VecSink(lines.clone())))
            .build();
        let mut source = SimulatorSource::from_scenario(&scen, 1);
        let mut batch = ObservationBatch::default();
        // The loop `Runner::run` makes, with each batch through JSON.
        while runner.time_s() < scen.max_time_s
            && !runner.reached(Goal::Collection)
            && source.next_batch(&mut batch)
        {
            let json = serde_json::to_string(&batch).expect("batch serializes");
            let back: ObservationBatch = serde_json::from_str(&json).expect("batch parses");
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                json,
                "{what}: step {}",
                batch.steps
            );
            for row in &back.events {
                kinds[usize::from(row.0)] += 1;
            }
            runner.ingest(&back);
        }
        runner.flush_sinks();
        assert!(!reference.is_empty(), "{what}: no events");
        assert_eq!(*lines.lock().unwrap(), reference, "{what}");
    }
    for (kind, n) in kinds.iter().enumerate() {
        assert!(*n > 0, "no scenario produced an event of kind {kind}");
    }
    assert_eq!(kinds.len(), usize::from(EventRow::OVERTAKE) + 1);
}

/// The column layout keeps Observe lines short: over the first 400 steps
/// of the paper's closed midtown run (60% volume, two seeds, seed 1),
/// the Observe lines take at most half the bytes of the named-field
/// layout they replaced, which took 3,334,411 bytes on this feed (8,336
/// per line).
#[test]
fn midtown_observe_lines_stay_within_their_size_budget() {
    const STEPS: usize = 400;
    const NAMED_FIELD_BYTES: usize = 3_334_411;
    let scen = Scenario::paper_closed(ManhattanConfig::default(), 60.0, 2, 1);
    let mut source = SimulatorSource::from_scenario(&scen, 1);
    let mut batch = ObservationBatch::default();
    let mut bytes = 0usize;
    for _ in 0..STEPS {
        assert!(source.next_batch(&mut batch));
        let req = ServiceRequest::Observe {
            run: "closed".into(),
            batch: batch.clone(),
        };
        bytes += serde_json::to_string(&req).unwrap().len();
    }
    assert!(
        bytes * 2 <= NAMED_FIELD_BYTES,
        "{STEPS} Observe lines take {bytes} bytes ({} per line), over half the \
         named-field layout's {NAMED_FIELD_BYTES}",
        bytes / STEPS
    );
}
