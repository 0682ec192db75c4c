//! The `vcountd` trust boundary (DESIGN.md §10): everything arriving over
//! the wire is validated at the service edge, and a malformed or hostile
//! feeder is answered with [`ServiceResponse::Error`] — it never panics
//! the daemon, never mutates its own tenant, and never perturbs another
//! tenant's byte-identical stream. The engine's internal panics on the
//! same conditions remain as debug contracts for trusted in-process
//! sources; these tests pin the boundary where trust ends.

mod common;

use common::{capture_batch, fnv_digest, grid_scenario};
use vcount_core::ProtocolVariant;
use vcount_roadnet::{EdgeId, NodeId};
use vcount_sim::SeedSpec;
use vcount_sim::{
    serve_connections, serve_stream, Conn, EngineSnapshot, Goal, Listener, ObservationBatch,
    ObservationSource, RunManager, Scenario, ServiceConfig, ServiceRequest, ServiceResponse,
    SimulatorSource, WireClient,
};
use vcount_traffic::TrafficEvent;
use vcount_v2x::{VehicleClass, VehicleId};

/// Applies one request; event lines go to `events`, everything else (the
/// terminal response — possibly an Error, which is what these tests are
/// about) is returned.
fn call(mgr: &mut RunManager, req: ServiceRequest, events: &mut Vec<String>) -> ServiceResponse {
    let mut out = Vec::new();
    mgr.handle(req, &mut out);
    let mut terminal = None;
    for resp in out {
        match resp {
            ServiceResponse::Event { line, .. } => events.push(line),
            other => {
                assert!(terminal.is_none(), "more than one terminal response");
                terminal = Some(other);
            }
        }
    }
    terminal.expect("framing: every request ends in one terminal response")
}

fn start_request(run: &str, scen: &Scenario) -> ServiceRequest {
    ServiceRequest::Start {
        run: run.into(),
        scenario: Box::new(scen.clone()),
        goal: Some(Goal::Collection),
        shards: 0,
        eager_decode: false,
        faults: None,
        trace: None,
    }
}

fn observe(run: &str, batch: &ObservationBatch) -> ServiceRequest {
    ServiceRequest::Observe {
        run: run.into(),
        batch: batch.clone(),
    }
}

fn expect_malformed(resp: ServiceResponse, what: &str) {
    match resp {
        ServiceResponse::Error { message, .. } => assert!(
            message.contains("malformed batch"),
            "{what}: unexpected error message {message:?}"
        ),
        other => panic!("{what}: expected Error, got {other:?}"),
    }
}

/// Every malformed-batch shape the wire can carry is rejected with an
/// Error that poisons only that request: the same run then continues to a
/// byte-identical stream and identical metrics — the rejected batches
/// left zero trace in the tenant.
#[test]
fn malformed_batches_error_without_perturbing_the_run() {
    let scen = grid_scenario(ProtocolVariant::Simple, 131);
    let (reference, ref_metrics) = capture_batch(&scen, None);
    assert!(!reference.is_empty());

    // One poison per kind, each derived from the genuine batch of some
    // step so all the *other* fields stay plausible.
    type Poison = (&'static str, fn(&mut ObservationBatch));
    let poisons: &[Poison] = &[
        ("non-finite now", |b| b.now = f64::NAN),
        ("non-dense class announcement", |b| {
            let next = b
                .new_classes
                .last()
                .map(|(v, _)| v.index() + 2)
                .unwrap_or(usize::MAX);
            b.new_classes
                .push((VehicleId(next as u64), VehicleClass::WHITE_VAN));
        }),
        ("unknown vehicle in event", |b| {
            b.events.push(TrafficEvent::Exited {
                vehicle: VehicleId(u64::MAX),
                node: NodeId(0),
            });
        }),
        ("out-of-range node in event", |b| {
            b.events.push(TrafficEvent::Exited {
                vehicle: VehicleId(0),
                node: NodeId(u32::MAX),
            });
        }),
        ("out-of-range edge in event", |b| {
            b.events.push(TrafficEvent::Overtake {
                edge: EdgeId(u32::MAX),
                overtaker: VehicleId(0),
                overtaken: VehicleId(0),
            });
        }),
        ("departure without in-transit capture", |b| {
            let onto = (0..u32::MAX)
                .map(EdgeId)
                .find(|e| !b.in_transit_index.iter().any(|(ie, _, _)| ie == e))
                .expect("some low edge id is uncaptured");
            b.events.push(TrafficEvent::Departed {
                vehicle: VehicleId(0),
                node: NodeId(0),
                onto,
            });
        }),
        ("in-transit slice out of bounds", |b| {
            let len = b.in_transit_vehicles.len() as u32;
            b.in_transit_index.push((EdgeId(0), 0, len + 7));
        }),
        ("in-transit slice u32 overflow", |b| {
            // start + len wraps to a tiny value in u32 — the historical
            // panic-or-worse path; the validator must sum in u64.
            b.in_transit_index.push((EdgeId(0), u32::MAX, u32::MAX));
        }),
        ("unknown vehicle in in-transit storage", |b| {
            b.in_transit_index
                .push((EdgeId(0), b.in_transit_vehicles.len() as u32, 1));
            b.in_transit_vehicles.push(VehicleId(u64::MAX));
        }),
    ];
    let mut mgr = RunManager::new(ServiceConfig::default());
    let mut events = Vec::new();
    assert!(matches!(
        call(&mut mgr, start_request("t", &scen), &mut events),
        ServiceResponse::Started { .. }
    ));

    let mut source = SimulatorSource::from_scenario(&scen, 1);
    let mut batch = ObservationBatch::default();
    let mut step = 0usize;
    let mut done = false;
    while !done && source.next_batch(&mut batch) {
        // Interleave one poison ahead of each of the first few genuine
        // batches; every poison must bounce without touching the tenant.
        if let Some((what, poison)) = poisons.get(step) {
            let mut bad = batch.clone();
            poison(&mut bad);
            let before = events.len();
            expect_malformed(call(&mut mgr, observe("t", &bad), &mut events), what);
            assert_eq!(
                events.len(),
                before,
                "{what}: a rejected batch emitted events"
            );
        }
        match call(&mut mgr, observe("t", &batch), &mut events) {
            ServiceResponse::Accepted { done: d, .. } => done = d,
            other => panic!("genuine batch at step {step} answered with {other:?}"),
        }
        step += 1;
    }
    assert!(
        step > poisons.len(),
        "run ended before every poison was tried"
    );

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
    assert_eq!(
        fnv_digest(&events),
        fnv_digest(&reference),
        "poisoned requests perturbed the surviving stream"
    );
    assert_eq!(events, reference);
    assert_eq!(metrics.global_count, ref_metrics.global_count);
    assert_eq!(metrics.steps, ref_metrics.steps);
    assert_eq!(metrics.oracle_violations, ref_metrics.oracle_violations);
}

/// A Start whose scenario violates an *internal* contract (here: an
/// explicit seed index no checkpoint has) is refused by engine assembly's
/// validation instead of panicking inside it: an Error, and the service
/// stays fully serviceable — the next tenant on the same manager runs
/// byte-identically to its solo reference.
#[test]
fn panicking_start_becomes_an_error_and_spares_the_manager() {
    let mut hostile = grid_scenario(ProtocolVariant::Simple, 132);
    hostile.seeds = SeedSpec::Explicit(vec![9999]);

    let mut mgr = RunManager::new(ServiceConfig::default());
    let mut events = Vec::new();
    match call(&mut mgr, start_request("evil", &hostile), &mut events) {
        ServiceResponse::Error { run, message } => {
            assert_eq!(run, "evil");
            assert!(
                message.contains("start failed: scenario seed 9999"),
                "got {message:?}"
            );
        }
        other => panic!("hostile Start answered with {other:?}"),
    }
    assert!(events.is_empty(), "a failed Start must not emit events");
    assert_eq!(
        mgr.runs().count(),
        0,
        "no tenant may survive a failed Start"
    );

    // Unparseable wire bytes are likewise an unattributable Error.
    let mut out = Vec::new();
    mgr.handle_line("this is not json", &mut out);
    assert!(
        matches!(&out[..], [ServiceResponse::Error { run, .. }] if run.is_empty()),
        "garbage line answered with {out:?}"
    );

    // The manager is uncontaminated: a good tenant still matches solo.
    let scen = grid_scenario(ProtocolVariant::Simple, 133);
    let (reference, _) = capture_batch(&scen, None);
    assert!(matches!(
        call(&mut mgr, start_request("good", &scen), &mut events),
        ServiceResponse::Started { .. }
    ));
    let mut source = SimulatorSource::from_scenario(&scen, 1);
    let mut batch = ObservationBatch::default();
    let mut done = false;
    while !done && source.next_batch(&mut batch) {
        match call(&mut mgr, observe("good", &batch), &mut events) {
            ServiceResponse::Accepted { done: d, .. } => done = d,
            other => panic!("Observe answered with {other:?}"),
        }
    }
    call(
        &mut mgr,
        ServiceRequest::Finish {
            run: "good".into(),
            truth: source.truth(),
        },
        &mut events,
    );
    assert_eq!(
        events, reference,
        "a survivor tenant diverged from its solo run"
    );
}

/// Stop aborts a tenant mid-run; the runner's drop guard flushes its
/// sinks, and lines emitted *by* that flush are drained into the response
/// stream ahead of Stopped — nothing recorded is ever silently discarded.
/// The stopped prefix is byte-identical to the solo run's prefix.
#[test]
fn stop_drains_every_event_including_the_drop_guard_flush() {
    let scen = grid_scenario(ProtocolVariant::Simple, 134);
    let (reference, _) = capture_batch(&scen, None);

    let mut mgr = RunManager::new(ServiceConfig::default());
    let mut events = Vec::new();
    assert!(matches!(
        call(&mut mgr, start_request("t", &scen), &mut events),
        ServiceResponse::Started { .. }
    ));
    let mut source = SimulatorSource::from_scenario(&scen, 1);
    let mut batch = ObservationBatch::default();
    for _ in 0..40 {
        assert!(source.next_batch(&mut batch));
        match call(&mut mgr, observe("t", &batch), &mut events) {
            ServiceResponse::Accepted { done, .. } => assert!(!done),
            other => panic!("Observe answered with {other:?}"),
        }
    }
    let mut out = Vec::new();
    mgr.handle(ServiceRequest::Stop { run: "t".into() }, &mut out);
    let Some(ServiceResponse::Stopped { .. }) = out.last() else {
        panic!("Stop must terminate with Stopped, got {out:?}");
    };
    for resp in &out[..out.len() - 1] {
        let ServiceResponse::Event { line, .. } = resp else {
            panic!("non-event before the Stopped terminal: {resp:?}");
        };
        events.push(line.clone());
    }
    assert_eq!(mgr.runs().count(), 0);
    assert_eq!(
        events[..],
        reference[..events.len()],
        "stopped prefix diverged from the solo run"
    );
}

/// A tenant frozen with a *non-empty ingest queue* (reachable under
/// `pump_budget: 0`) must not lose the queued batches across a daemon
/// restart: they were answered Accepted, so Snapshot drains them into the
/// engine before freezing. The stitched restart run stays byte-identical.
#[test]
fn snapshot_under_backpressure_keeps_accepted_batches() {
    let scen = grid_scenario(ProtocolVariant::Simple, 135);
    let (reference, ref_metrics) = capture_batch(&scen, None);

    // Manual ingest: every Observe only queues, so the Snapshot below
    // provably freezes behind a non-empty queue.
    let mut mgr = RunManager::new(ServiceConfig {
        queue_capacity: 64,
        pump_budget: 0,
    });
    let mut prefix = Vec::new();
    assert!(matches!(
        call(&mut mgr, start_request("t", &scen), &mut prefix),
        ServiceResponse::Started { .. }
    ));
    let mut source = SimulatorSource::from_scenario(&scen, 1);
    let mut batch = ObservationBatch::default();
    let queued_batches = 30usize;
    for _ in 0..queued_batches {
        assert!(source.next_batch(&mut batch));
        match call(&mut mgr, observe("t", &batch), &mut prefix) {
            ServiceResponse::Accepted { queued, .. } => assert!(queued > 0),
            other => panic!("Observe answered with {other:?}"),
        }
    }
    // Nothing was ingested yet: the seed-activation events from Start are
    // all the stream holds.
    let activation_events = prefix.len();
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
    assert!(
        prefix.len() > activation_events,
        "Snapshot must drain the queued batches through the engine first"
    );
    call(
        &mut mgr,
        ServiceRequest::Stop { run: "t".into() },
        &mut prefix,
    );
    drop(mgr);

    // Restart: fresh manager, default (inline) pumping, resumed feeder.
    let mut mgr = RunManager::new(ServiceConfig::default());
    let mut tail = Vec::new();
    let mut source =
        SimulatorSource::resume_from(&snap.scenario, &snap.sim).expect("snapshot restores");
    assert!(matches!(
        call(
            &mut mgr,
            ServiceRequest::Resume {
                run: "t2".into(),
                snapshot: snap,
                goal: Some(Goal::Collection),
                trace: None,
            },
            &mut tail,
        ),
        ServiceResponse::Resumed { .. }
    ));
    let mut done = false;
    while !done && source.next_batch(&mut batch) {
        match call(&mut mgr, observe("t2", &batch), &mut tail) {
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
        "backpressured snapshot/restart diverged from the uninterrupted run"
    );
    assert_eq!(stitched, reference);
    assert_eq!(metrics.global_count, ref_metrics.global_count);
    assert_eq!(metrics.steps, ref_metrics.steps);
}

/// A named corruption of a live tenant's snapshot, and what its refused
/// Resume's error must say after `resume failed: `.
type SnapshotPoison = (&'static str, fn(&mut EngineSnapshot), &'static str);

/// Starts tenant `live` on `grid_scenario(Simple, seed)`, feeds it
/// `batches` batches and snapshots it through the manager. A Resume of
/// each poisoned copy of that snapshot must be refused at the service
/// edge: an Error reading `resume failed: <expected>…`, no tenant, no
/// events. The live tenant then runs on, byte-identical to its solo run.
fn assert_poisoned_resumes_refused(seed: u64, batches: usize, poisons: &[SnapshotPoison]) {
    let scen = grid_scenario(ProtocolVariant::Simple, seed);
    let (reference, _) = capture_batch(&scen, None);

    let mut mgr = RunManager::new(ServiceConfig::default());
    let mut events = Vec::new();
    assert!(matches!(
        call(&mut mgr, start_request("live", &scen), &mut events),
        ServiceResponse::Started { .. }
    ));
    let mut source = SimulatorSource::from_scenario(&scen, 1);
    let mut batch = ObservationBatch::default();
    for _ in 0..batches {
        assert!(source.next_batch(&mut batch));
        match call(&mut mgr, observe("live", &batch), &mut events) {
            ServiceResponse::Accepted { done, .. } => assert!(!done),
            other => panic!("Observe answered with {other:?}"),
        }
    }
    let snap = match call(
        &mut mgr,
        ServiceRequest::Snapshot {
            run: "live".into(),
            sim: source.sim_state(),
        },
        &mut events,
    ) {
        ServiceResponse::Snapshot { snapshot, .. } => snapshot,
        other => panic!("Snapshot answered with {other:?}"),
    };

    for (what, poison, expected) in poisons {
        let mut bad = snap.clone();
        poison(&mut bad);
        let before = events.len();
        let resp = call(
            &mut mgr,
            ServiceRequest::Resume {
                run: "bad".into(),
                snapshot: bad,
                goal: Some(Goal::Collection),
                trace: None,
            },
            &mut events,
        );
        match resp {
            ServiceResponse::Error { run, message } => {
                assert_eq!(run, "bad");
                assert!(
                    message.starts_with(&format!("resume failed: {expected}")),
                    "{what}: got {message:?}"
                );
            }
            other => panic!("{what}: Resume answered with {other:?}"),
        }
        assert_eq!(
            events.len(),
            before,
            "{what}: a refused Resume emitted events"
        );
        assert_eq!(mgr.runs().collect::<Vec<_>>(), ["live"]);
    }

    let mut done = false;
    while !done && source.next_batch(&mut batch) {
        match call(&mut mgr, observe("live", &batch), &mut events) {
            ServiceResponse::Accepted { done: d, .. } => done = d,
            other => panic!("Observe answered with {other:?}"),
        }
    }
    call(
        &mut mgr,
        ServiceRequest::Finish {
            run: "live".into(),
            truth: source.truth(),
        },
        &mut events,
    );
    assert_eq!(
        fnv_digest(&events),
        fnv_digest(&reference),
        "the live tenant diverged beside refused Resumes"
    );
    assert_eq!(events, reference);
}

/// A Resume carrying a snapshot whose schema tag is not the current one —
/// an invented `/v0` or the retired `/v4` — is refused at the service
/// edge, exactly as `EngineSnapshot::from_json` refuses it from a file.
#[test]
fn resume_with_a_foreign_schema_tag_is_an_error() {
    assert_poisoned_resumes_refused(
        139,
        40,
        &[
            (
                "v0",
                |s| s.schema = "vcount-engine-snapshot/v0".into(),
                "unsupported snapshot schema",
            ),
            (
                "v4",
                |s| s.schema = "vcount-engine-snapshot/v4".into(),
                "unsupported snapshot schema",
            ),
        ],
    );
}

/// A well-typed snapshot whose carried labels are garbage bytes is refused
/// at Resume; accepted, it would panic the daemon on a later Observe when
/// a vehicle hands the label over.
#[test]
fn resume_with_garbage_label_bytes_is_an_error() {
    assert_poisoned_resumes_refused(
        81,
        60,
        &[(
            "label bytes 0xFF",
            |s| {
                let labels = s.exchange.carried_label.iter_mut().flatten();
                let bytes: Vec<&mut u8> = labels.flatten().collect();
                assert!(!bytes.is_empty(), "no carried label to corrupt");
                bytes.into_iter().for_each(|b| *b = 0xFF);
            },
            "snapshot exchange: carried label payload does not decode",
        )],
    );
}

/// A snapshot naming a seed outside its map is refused at Resume;
/// accepted, it would panic the daemon once the run stabilized and the
/// collection check indexed the seed.
#[test]
fn resume_with_a_seed_outside_the_map_is_an_error() {
    assert_poisoned_resumes_refused(
        81,
        60,
        &[(
            "seed 9999",
            |s| s.seeds.push(NodeId(9999)),
            "snapshot seed 9999 is not a node of the 16-node map",
        )],
    );
}

/// The adversarial daemon test, over a real TCP connection: one feeder
/// sends unparseable bytes, then a hostile Start, then a malformed batch
/// for its (successfully started) run, then vanishes without Finish. The
/// daemon answers each with an Error, keeps the connection, keeps the
/// process — and a second tenant on a second connection runs to
/// completion byte-identical to its solo reference.
#[test]
fn hostile_feeder_cannot_kill_the_daemon_or_other_tenants() {
    let scen_victim = grid_scenario(ProtocolVariant::Simple, 136);
    let (reference, _) = capture_batch(&scen_victim, None);

    let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    let server = std::thread::spawn(move || {
        let mut mgr = RunManager::new(ServiceConfig::default());
        serve_connections(&listener, &mut mgr, Some(2)).expect("serve_connections");
        mgr
    });

    // The adversary, speaking raw bytes on connection 1.
    {
        use std::io::{BufRead, BufReader, Write};
        let conn = Conn::connect_tcp(&addr).expect("connect");
        let mut writer = conn.try_clone().expect("clone");
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        let next_line = |reader: &mut BufReader<Conn>, line: &mut String| {
            line.clear();
            assert!(reader.read_line(line).expect("read") > 0, "daemon hung up");
            serde_json::from_str::<ServiceResponse>(line.trim_end()).expect("response parses")
        };

        writeln!(writer, "$$$ definitely not json $$$").unwrap();
        assert!(matches!(
            next_line(&mut reader, &mut line),
            ServiceResponse::Error { .. }
        ));

        let mut hostile = grid_scenario(ProtocolVariant::Simple, 137);
        hostile.seeds = SeedSpec::Explicit(vec![9999]);
        let start = serde_json::to_string(&start_request("evil", &hostile)).unwrap();
        writeln!(writer, "{start}").unwrap();
        assert!(matches!(
            next_line(&mut reader, &mut line),
            ServiceResponse::Error { .. }
        ));

        // A run that *does* start, then gets fed garbage.
        let good_start = serde_json::to_string(&start_request(
            "adv",
            &grid_scenario(ProtocolVariant::Simple, 138),
        ))
        .unwrap();
        writeln!(writer, "{good_start}").unwrap();
        loop {
            match next_line(&mut reader, &mut line) {
                ServiceResponse::Event { .. } => continue,
                ServiceResponse::Started { .. } => break,
                other => panic!("Start answered with {other:?}"),
            }
        }
        let mut bad = ObservationBatch::default();
        bad.in_transit_index.push((EdgeId(0), u32::MAX, u32::MAX));
        let req = serde_json::to_string(&observe("adv", &bad)).unwrap();
        writeln!(writer, "{req}").unwrap();
        assert!(matches!(
            next_line(&mut reader, &mut line),
            ServiceResponse::Error { .. }
        ));
        // ...and the adversary disconnects without Finish. The tenant
        // stays; the daemon keeps accepting.
    }

    // The victim tenant, on connection 2, end to end.
    let mut client =
        WireClient::new(Conn::connect_tcp(&addr).expect("connect")).expect("wire client");
    let mut events = Vec::new();
    let terminal = |client: &mut WireClient,
                    req: &ServiceRequest,
                    events: &mut Vec<String>|
     -> ServiceResponse {
        let mut terminal = None;
        for resp in client.call(req).expect("wire call") {
            match resp {
                ServiceResponse::Event { line, .. } => events.push(line),
                other => terminal = Some(other),
            }
        }
        terminal.expect("terminal response")
    };
    assert!(matches!(
        terminal(
            &mut client,
            &start_request("victim", &scen_victim),
            &mut events
        ),
        ServiceResponse::Started { .. }
    ));
    let mut source = SimulatorSource::from_scenario(&scen_victim, 1);
    let mut batch = ObservationBatch::default();
    let mut done = false;
    while !done && source.next_batch(&mut batch) {
        match terminal(&mut client, &observe("victim", &batch), &mut events) {
            ServiceResponse::Accepted { done: d, .. } => done = d,
            other => panic!("Observe answered with {other:?}"),
        }
    }
    let finished = terminal(
        &mut client,
        &ServiceRequest::Finish {
            run: "victim".into(),
            truth: source.truth(),
        },
        &mut events,
    );
    assert!(matches!(finished, ServiceResponse::Finished { .. }));
    drop(client);
    let mgr = server.join().expect("server thread");

    assert_eq!(
        fnv_digest(&events),
        fnv_digest(&reference),
        "the victim tenant's digest diverged beside a hostile feeder"
    );
    assert_eq!(events, reference);
    // The adversary's half-started run survived the daemon shutdown path.
    assert_eq!(mgr.runs().collect::<Vec<_>>(), ["adv"]);
}

/// Reads one request's whole answer off a raw stream: its Event lines up
/// to and including the terminal response.
fn read_answer(reader: &mut impl std::io::BufRead) -> Vec<ServiceResponse> {
    let mut answer = Vec::new();
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read") > 0,
            "the daemon hung up"
        );
        let resp: ServiceResponse = serde_json::from_str(line.trim_end()).expect("response parses");
        let terminal = !matches!(resp, ServiceResponse::Event { .. });
        answer.push(resp);
        if terminal {
            return answer;
        }
    }
}

/// A request line that is not UTF-8.
const NOT_UTF8: &[u8] = b"\xff\xfe\n";

fn expect_not_utf8_refused(answer: &[ServiceResponse]) {
    match answer {
        [ServiceResponse::Error { run, message }] => {
            assert!(run.is_empty(), "the Error names run {run:?}");
            assert!(
                message.starts_with("malformed request"),
                "unexpected error message {message:?}"
            );
        }
        other => panic!("a non-UTF-8 line answered with {other:?}"),
    }
}

fn expect_started(answer: &[ServiceResponse]) {
    assert!(
        matches!(answer.last(), Some(ServiceResponse::Started { .. })),
        "Start answered with {answer:?}"
    );
}

/// A line that is not UTF-8 gets a `malformed request` Error, and the
/// connection keeps serving: the Start sent after it is answered.
#[test]
fn non_utf8_line_is_an_error_and_the_connection_survives() {
    use std::io::{BufReader, Write};
    let start = serde_json::to_string(&start_request(
        "after",
        &grid_scenario(ProtocolVariant::Simple, 151),
    ))
    .unwrap();

    let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    let server = std::thread::spawn(move || {
        let mut mgr = RunManager::new(ServiceConfig::default());
        serve_connections(&listener, &mut mgr, Some(1)).expect("serve_connections");
        mgr
    });
    let mut conn = Conn::connect_tcp(&addr).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    conn.write_all(NOT_UTF8).unwrap();
    expect_not_utf8_refused(&read_answer(&mut reader));
    writeln!(conn, "{start}").unwrap();
    expect_started(&read_answer(&mut reader));
    drop((conn, reader));
    let mgr = server.join().expect("server thread");
    assert_eq!(mgr.runs().collect::<Vec<_>>(), ["after"]);
}

/// The stdin mode answers the same bytes the same way.
#[test]
fn non_utf8_line_is_an_error_in_stdin_mode() {
    let start = serde_json::to_string(&start_request(
        "after",
        &grid_scenario(ProtocolVariant::Simple, 151),
    ))
    .unwrap();
    let mut input = NOT_UTF8.to_vec();
    input.extend_from_slice(start.as_bytes());
    input.push(b'\n');
    let mut output = Vec::new();
    let mut mgr = RunManager::new(ServiceConfig::default());
    serve_stream(&mut mgr, &input[..], &mut output).expect("serve_stream");
    let mut responses = &output[..];
    expect_not_utf8_refused(&read_answer(&mut responses));
    expect_started(&read_answer(&mut responses));
    assert!(responses.is_empty(), "answers past the Start");
    assert_eq!(mgr.runs().collect::<Vec<_>>(), ["after"]);
}

/// A TCP round trip costs no delayed ACK: 40 sequential Observes through
/// the daemon take well under a second. A frame written in two parts on a
/// socket without `TCP_NODELAY` waits ~40 ms per request for the peer's
/// delayed-ACK timer, which would put these 40 at 1.6 s or more.
#[test]
fn tcp_round_trips_wait_for_no_delayed_ack() {
    const ROUND_TRIPS: usize = 40;
    let scen = grid_scenario(ProtocolVariant::Simple, 152);
    let mut source = SimulatorSource::from_scenario(&scen, 1);
    let batches: Vec<ObservationBatch> = (0..ROUND_TRIPS)
        .map(|_| {
            let mut batch = ObservationBatch::default();
            assert!(source.next_batch(&mut batch), "the scenario ended early");
            batch
        })
        .collect();

    let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    let server = std::thread::spawn(move || {
        let mut mgr = RunManager::new(ServiceConfig::default());
        serve_connections(&listener, &mut mgr, Some(1)).expect("serve_connections");
    });
    let conn = Conn::connect_tcp(&addr).expect("connect");
    match &conn {
        Conn::Tcp(stream) => assert!(stream.nodelay().expect("nodelay"), "Nagle is on"),
        Conn::Unix(_) => unreachable!("connect_tcp dialed a Unix socket"),
    }
    let mut client = WireClient::new(conn).expect("wire client");
    let started = client.call(&start_request("rtt", &scen)).expect("Start");
    expect_started(&started);
    let t0 = std::time::Instant::now();
    for batch in &batches {
        let answer = client.call(&observe("rtt", batch)).expect("Observe");
        assert!(
            matches!(answer.last(), Some(ServiceResponse::Accepted { .. })),
            "Observe answered with {answer:?}"
        );
    }
    let elapsed = t0.elapsed();
    drop(client);
    server.join().expect("server thread");
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "{ROUND_TRIPS} Observe round trips took {elapsed:?}"
    );
}
