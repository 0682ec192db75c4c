//! The `vcountd` trust boundary (DESIGN.md §10): everything arriving over
//! the wire is validated at the service edge, and a malformed or hostile
//! feeder is answered with [`ServiceResponse::Error`] — it never panics
//! the daemon, never mutates its own tenant, and never perturbs another
//! tenant's byte-identical stream. The engine's internal panics on the
//! same conditions remain as debug contracts for trusted in-process
//! sources; these tests pin the boundary where trust ends.

mod common;

use common::{capture_batch, first_on_edge, fnv_digest, grid_scenario, open_scenario};
use std::panic::{catch_unwind, AssertUnwindSafe};
use vcount_core::table::ACTIVE;
use vcount_core::ProtocolVariant;
use vcount_roadnet::builders::{ManhattanConfig, RandomCityConfig};
use vcount_roadnet::{EdgeId, NodeId};
use vcount_sim::engine::exchange::RelayInFlight;
use vcount_sim::engine::{Envelope, Watch};
use vcount_sim::scenario::{MAX_MAP_NODE_LANES, MAX_RANDOM_CITY_NODES};
use vcount_sim::{
    serve_connections, serve_stream, Blackout, ChaosFault, Conn, CrashFault, EngineSnapshot,
    EventRow, FaultPlan, Goal, Listener, MapSpec, ObservationBatch, ObservationSource, RunManager,
    Runner, Scenario, SeedSpec, ServiceConfig, ServiceRequest, ServiceResponse, SimulatorSource,
    WireClient,
};
use vcount_traffic::{Loop, Spot};
use vcount_v2x::{AdjustMode, ChannelKind, Message, PatrolStatus, Report, SegmentWatch, VehicleId};

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
    faulted_start(run, scen, None)
}

fn faulted_start(run: &str, scen: &Scenario, faults: Option<FaultPlan>) -> ServiceRequest {
    ServiceRequest::Start {
        run: run.into(),
        scenario: Box::new(scen.clone()),
        goal: Some(Goal::Collection),
        shards: 0,
        eager_decode: false,
        faults,
        trace: None,
    }
}

/// A chaos window from the start, and a blackout and a crash that begin
/// after the 60 batches (30 s) the Resume tests feed before they snapshot.
fn fault_plan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        crashes: vec![CrashFault {
            node: 1,
            at_s: 120.0,
            recover_s: 300.0,
        }],
        blackouts: vec![Blackout {
            nodes: vec![2],
            from_s: 60.0,
            until_s: 180.0,
        }],
        chaos: Some(ChaosFault {
            from_s: 0.0,
            until_s: 240.0,
            duplicate_p: 0.2,
            delay_p: 0.2,
            max_delay_s: 10.0,
            reorder_p: 0.1,
        }),
        image_every_s: 60.0,
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
        ("class code past the 245 classes", |b| {
            b.new_classes.push(245)
        }),
        ("unknown event kind code", |b| {
            b.events.push(EventRow(5, 0, 0, 0))
        }),
        ("unknown vehicle in event", |b| {
            b.events.push(EventRow(EventRow::EXITED, u64::MAX, 0, 0));
        }),
        ("out-of-range node in event", |b| {
            b.events
                .push(EventRow(EventRow::EXITED, 0, u64::from(u32::MAX), 0));
        }),
        ("out-of-range edge in event", |b| {
            b.events.push(EventRow(EventRow::OVERTAKE, 0, 0, u32::MAX));
        }),
        ("border entry with a nonzero unused column", |b| {
            b.events.push(EventRow(EventRow::BORDER_ENTERED, 0, 0, 1));
        }),
        ("departure without in-transit capture", |b| {
            let onto = (0..u32::MAX)
                .find(|&e| !b.in_transit_edges.contains(&EdgeId(e)))
                .expect("some low edge id is uncaptured");
            b.events.push(EventRow(EventRow::DEPARTED, 0, 0, onto));
        }),
        ("in-transit lengths past the vehicle column", |b| {
            b.in_transit_edges.push(EdgeId(0));
            b.in_transit_lens.push(7);
        }),
        ("in-transit lengths that wrap in u32", |b| {
            // u32::MAX + 1 wraps to 0 in u32, so a validator summing in
            // u32 would see the stored count; it must sum in u64.
            b.in_transit_edges.extend([EdgeId(0), EdgeId(1)]);
            b.in_transit_lens.extend([u32::MAX, 1]);
        }),
        ("in-transit edge without a length", |b| {
            b.in_transit_edges.push(EdgeId(0));
        }),
        ("unknown vehicle in in-transit storage", |b| {
            b.in_transit_edges.push(EdgeId(0));
            b.in_transit_lens.push(1);
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
        ..ServiceConfig::default()
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
        SimulatorSource::resume_from(&snap.scenario, snap.scenario.validate().unwrap(), &snap.sim)
            .expect("snapshot restores");
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

/// Starts tenant `live` on `grid_scenario(Simple, seed)` under `plan`,
/// feeds it `batches` batches, snapshots it through the manager and hands
/// the manager and snapshot to `meddle`, which must leave no tenant but
/// `live` behind. The live tenant then runs on, byte-identical to its
/// solo run.
fn beside_a_live_tenant(
    seed: u64,
    batches: usize,
    plan: Option<FaultPlan>,
    meddle: impl FnOnce(&mut RunManager, &EngineSnapshot),
) {
    let scen = grid_scenario(ProtocolVariant::Simple, seed);
    let (reference, _) = capture_batch(&scen, plan.clone());

    let mut mgr = RunManager::new(ServiceConfig::default());
    let mut events = Vec::new();
    assert!(matches!(
        call(&mut mgr, faulted_start("live", &scen, plan), &mut events),
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

    meddle(&mut mgr, &snap);
    assert_eq!(mgr.runs().collect::<Vec<_>>(), ["live"]);

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
        "the live tenant diverged beside refused requests"
    );
    assert_eq!(events, reference);
}

/// Handles one request of a test table, returning its whole answer; a
/// panic inside the manager fails the test naming `what`.
fn handle_naming(mgr: &mut RunManager, what: &str, req: ServiceRequest) -> Vec<ServiceResponse> {
    let mut out = Vec::new();
    catch_unwind(AssertUnwindSafe(|| mgr.handle(req, &mut out)))
        .unwrap_or_else(|_| panic!("{what}: the manager panicked"));
    out
}

/// Next to a live tenant (see [`beside_a_live_tenant`]), a Resume of each
/// poisoned copy of its snapshot must be refused at the service edge: one
/// Error reading `resume failed: <expected>…`, no tenant, no events.
fn assert_poisoned_resumes_refused(
    seed: u64,
    batches: usize,
    plan: Option<FaultPlan>,
    poisons: &[SnapshotPoison],
) {
    beside_a_live_tenant(seed, batches, plan, |mgr, snap| {
        for (what, poison, expected) in poisons {
            let mut bad = Box::new(snap.clone());
            poison(&mut bad);
            let resume = ServiceRequest::Resume {
                run: "bad".into(),
                snapshot: bad,
                goal: Some(Goal::Collection),
                trace: None,
            };
            match &handle_naming(mgr, what, resume)[..] {
                [ServiceResponse::Error { run, message }] => {
                    assert_eq!(run, "bad");
                    assert!(
                        message.starts_with(&format!("resume failed: {expected}")),
                        "{what}: got {message:?}"
                    );
                }
                other => panic!("{what}: Resume answered with {other:?}"),
            }
        }
    });
}

/// A Resume carrying a snapshot whose schema tag is not the current one —
/// an invented `/v0` or the retired `/v4` — is refused at the service
/// edge, exactly as `EngineSnapshot::from_json` refuses it from a file.
#[test]
fn resume_with_a_foreign_schema_tag_is_an_error() {
    assert_poisoned_resumes_refused(
        139,
        40,
        None,
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
        None,
        &[(
            "label bytes 0xFF",
            |s| {
                let labels = s.exchange.carried_label.iter_mut();
                let bytes: Vec<&mut u8> = labels.flat_map(|(_, payload)| payload).collect();
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
        None,
        &[(
            "seed 9999",
            |s| s.seeds.push(NodeId(9999)),
            "snapshot seed 9999 is not a node of the 16-node map",
        )],
    );
}

/// Marks the first on-edge vehicle Queued and lists it `times` times in
/// the queue at the head of its edge.
fn queue_first_on_edge(s: &mut EngineSnapshot, times: usize) {
    let (i, &mut edge, ..) = first_on_edge(&mut s.sim);
    let head = s.scenario.validate().expect("a valid map").edge(edge).to;
    s.sim.vehicles.at[i] = Spot::Queued;
    let queue = &mut s.sim.queues[head.index()];
    queue.extend(std::iter::repeat_n((VehicleId(i as u64), edge), times));
}

/// One poison per field check of a snapshot's traffic state. Before
/// schema v6 an external Resume stored the traffic state unchecked and
/// echoed it into the next Snapshot.
const SIM_POISONS: [SnapshotPoison; 11] = [
    (
        "speed_mps one entry short",
        |s| {
            s.sim.vehicles.speed_mps.pop();
        },
        "snapshot vehicles.speed_mps has",
    ),
    (
        "on-edge edge off the map",
        |s| *first_on_edge(&mut s.sim).1 = EdgeId(999_999),
        "snapshot vehicles.at[",
    ),
    (
        "lane 2 on a two-lane edge",
        |s| *first_on_edge(&mut s.sim).2 = 2,
        "snapshot vehicles.at[",
    ),
    (
        "NaN position",
        |s| *first_on_edge(&mut s.sim).3 = f64::NAN,
        "snapshot vehicles.at[",
    ),
    (
        "position past the edge",
        |s| *first_on_edge(&mut s.sim).3 = 1e6,
        "snapshot vehicles.at[",
    ),
    (
        "NaN speed factor",
        |s| s.sim.vehicles.speed_factor[0] = f64::NAN,
        "snapshot vehicles.speed_factor[0] = NaN",
    ),
    (
        "queued vehicle in no queue",
        |s| queue_first_on_edge(s, 0),
        "snapshot vehicles.at[",
    ),
    (
        "queued vehicle listed twice",
        |s| queue_first_on_edge(s, 2),
        "snapshot queues list vehicle",
    ),
    (
        "loop next out of range",
        |s| {
            s.sim
                .vehicles
                .loops
                .push(Loop(VehicleId(0), vec![EdgeId(0)], 999))
        },
        "snapshot vehicles.loops[0]: next 999 is past its 1 edges",
    ),
    (
        "empty loop",
        |s| s.sim.vehicles.loops.push(Loop(VehicleId(0), vec![], 0)),
        "snapshot vehicles.loops[0] is empty",
    ),
    (
        "NaN clock",
        |s| s.sim.time_s = f64::NAN,
        "snapshot time_s NaN",
    ),
];

/// A Resume whose traffic state fails a field check is refused at the
/// service edge, naming the field; the tenant beside it runs on
/// byte-identical to its solo run.
#[test]
fn resume_with_a_poisoned_sim_state_is_an_error() {
    assert_poisoned_resumes_refused(158, 60, None, &SIM_POISONS);
}

/// A Snapshot request whose traffic state fails the same checks is
/// refused before anything changes, so the daemon never hands out a
/// snapshot its own Resume refuses; the tenant runs on byte-identical.
#[test]
fn snapshot_with_a_poisoned_sim_state_is_an_error() {
    beside_a_live_tenant(159, 60, None, |mgr, snap| {
        for (what, poison, expected) in SIM_POISONS {
            let mut bad = snap.clone();
            poison(&mut bad);
            let req = ServiceRequest::Snapshot {
                run: "live".into(),
                sim: Some(bad.sim),
            };
            match &handle_naming(mgr, what, req)[..] {
                [ServiceResponse::Error { run, message }] => {
                    assert_eq!(run, "live");
                    assert!(
                        message.starts_with(&format!("snapshot failed: {expected}")),
                        "{what}: got {message:?}"
                    );
                }
                other => panic!("{what}: Snapshot answered with {other:?}"),
            }
        }
    });
}

/// A Snapshot whose traffic state is older than the run (fewer vehicles
/// than the batches announced) is refused: the snapshot's ledger and
/// exchange rows are checked against that population, so the daemon
/// would hand out a snapshot its own Resume refuses. A current state
/// still freezes the run.
#[test]
fn snapshot_with_a_stale_sim_state_is_an_error() {
    // Open, so vehicles keep spawning and an early state holds fewer.
    let scen = open_scenario(162);
    let mut mgr = RunManager::new(ServiceConfig::default());
    let mut events = Vec::new();
    assert!(matches!(
        call(&mut mgr, start_request("r", &scen), &mut events),
        ServiceResponse::Started { .. }
    ));
    let mut source = SimulatorSource::from_scenario(&scen, 1);
    let mut batch = ObservationBatch::default();
    let mut stale = None;
    for _ in 0..200 {
        assert!(source.next_batch(&mut batch));
        call(&mut mgr, observe("r", &batch), &mut events);
        stale = stale.or_else(|| source.sim_state());
    }
    let held = stale.as_ref().map_or(0, |s| s.vehicles.len());
    let current = source.sim_state();
    assert!(held < current.as_ref().map_or(0, |s| s.vehicles.len()));
    let req = |sim| ServiceRequest::Snapshot {
        run: "r".into(),
        sim,
    };
    match call(&mut mgr, req(stale), &mut events) {
        ServiceResponse::Error { message, .. } => {
            let want = format!("snapshot failed: the traffic state holds {held} vehicles");
            assert!(message.starts_with(&want), "got {message:?}");
        }
        other => panic!("a stale Snapshot answered with {other:?}"),
    }
    assert!(matches!(
        call(&mut mgr, req(current), &mut events),
        ServiceResponse::Snapshot { .. }
    ));
}

/// Server-side traces stay inside the daemon's trace directory. A Start
/// naming a path (`../x.jsonl`, an absolute path) is refused and creates
/// no file, as is any trace on a daemon with no trace directory. A bare
/// name writes that file inside the directory, byte-identical to the
/// event lines the feeder received.
#[test]
fn server_side_traces_stay_inside_the_trace_dir() {
    let scen = grid_scenario(ProtocolVariant::Simple, 160);
    let root = std::env::temp_dir().join(format!("vcountd-trace-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("traces");
    std::fs::create_dir_all(&dir).expect("trace dir");
    let escaped = root.join("x.jsonl");
    let with_trace = |trace: &str| ServiceRequest::Start {
        run: "t".into(),
        scenario: Box::new(scen.clone()),
        goal: Some(Goal::Collection),
        shards: 0,
        eager_decode: false,
        faults: None,
        trace: Some(trace.into()),
    };
    let refused = |mgr: &mut RunManager, trace: &str, want: &str| {
        match &handle_naming(mgr, trace, with_trace(trace))[..] {
            [ServiceResponse::Error { message, .. }] => {
                assert!(message.contains(want), "{trace}: got {message:?}")
            }
            other => panic!("{trace}: Start answered with {other:?}"),
        }
        assert_eq!(mgr.runs().count(), 0, "{trace}: a tenant was built");
        assert!(!escaped.exists(), "{trace}: a file was created outside");
    };

    let mut mgr = RunManager::new(ServiceConfig::default());
    refused(&mut mgr, "x.jsonl", "no --trace-dir");
    assert!(!dir.join("x.jsonl").exists());

    let mut mgr = RunManager::new(ServiceConfig {
        trace_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let absolute = escaped.to_str().expect("utf-8 temp path").to_string();
    for bad in ["../x.jsonl", &absolute, "", "..", "sub/x.jsonl"] {
        refused(&mut mgr, bad, "is not a bare file name");
    }

    let mut events = Vec::new();
    assert!(matches!(
        call(&mut mgr, with_trace("x.jsonl"), &mut events),
        ServiceResponse::Started { .. }
    ));
    let mut source = SimulatorSource::from_scenario(&scen, 1);
    let mut batch = ObservationBatch::default();
    let mut done = false;
    while !done && source.next_batch(&mut batch) {
        match call(&mut mgr, observe("t", &batch), &mut events) {
            ServiceResponse::Accepted { done: d, .. } => done = d,
            other => panic!("Observe answered with {other:?}"),
        }
    }
    let finish = ServiceRequest::Finish {
        run: "t".into(),
        truth: source.truth(),
    };
    assert!(matches!(
        call(&mut mgr, finish, &mut events),
        ServiceResponse::Finished { .. }
    ));
    let written = std::fs::read_to_string(dir.join("x.jsonl")).expect("trace written");
    assert!(!events.is_empty());
    assert_eq!(written, events.join("\n") + "\n");
    std::fs::remove_dir_all(&root).ok();
}

/// A trace file is created only for a tenant that was built, and never
/// over an existing file. A Start or Resume refused at build, one naming
/// a file left by an earlier daemon, by a live tenant, by a finished
/// tenant or by a stopped tenant, each leave that file byte-identical.
#[test]
fn refused_opens_leave_existing_traces_untouched() {
    let scen = grid_scenario(ProtocolVariant::Simple, 161);
    let root = std::env::temp_dir().join(format!("vcountd-trace-keep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("trace dir");
    let start = |run: &str, scen: &Scenario| ServiceRequest::Start {
        run: run.into(),
        scenario: Box::new(scen.clone()),
        goal: Some(Goal::Collection),
        shards: 0,
        eager_decode: false,
        faults: None,
        trace: Some("x.jsonl".into()),
    };
    let resume = |run: &str, snapshot: &EngineSnapshot| ServiceRequest::Resume {
        run: run.into(),
        snapshot: Box::new(snapshot.clone()),
        goal: Some(Goal::Collection),
        trace: Some("x.jsonl".into()),
    };
    let refused = |mgr: &mut RunManager, req: ServiceRequest, want: &str| {
        let mut events = Vec::new();
        match call(mgr, req, &mut events) {
            ServiceResponse::Error { message, .. } => {
                assert!(message.contains(want), "want {want:?}, got {message:?}")
            }
            other => panic!("want {want:?}, got {other:?}"),
        }
        assert!(events.is_empty(), "a refused open emitted events");
    };
    let exists = "trace \"x.jsonl\" already exists";
    let trace = root.join("x.jsonl");
    let mut mgr = RunManager::new(ServiceConfig {
        trace_dir: Some(root.clone()),
        ..ServiceConfig::default()
    });

    // Refused by `try_build`, after the name passed its checks.
    std::fs::write(&trace, "kept\n").unwrap();
    let mut bad_scen = scen.clone();
    bad_scen.sim.dt_s = 0.0;
    refused(&mut mgr, start("bad", &bad_scen), "start failed: ");
    let mut runner = Runner::builder(&scen).build();
    for _ in 0..20 {
        runner.step();
    }
    let mut bad_snap = runner.snapshot();
    bad_snap.sim.vehicles.speed_mps.pop();
    refused(&mut mgr, resume("bad", &bad_snap), "resume failed: ");
    // A valid Start over a file no tenant of this daemon wrote.
    refused(&mut mgr, start("a", &scen), exists);
    refused(&mut mgr, resume("a", &runner.snapshot()), exists);
    assert_eq!(std::fs::read_to_string(&trace).unwrap(), "kept\n");
    assert_eq!(mgr.runs().count(), 0);

    // A live tenant's trace is refused to a second Start or Resume.
    std::fs::remove_file(&trace).unwrap();
    let mut events = Vec::new();
    assert!(matches!(
        call(&mut mgr, start("a", &scen), &mut events),
        ServiceResponse::Started { .. }
    ));
    let mut source = SimulatorSource::from_scenario(&scen, 1);
    let mut batch = ObservationBatch::default();
    let mut done = false;
    let mut fed = 0;
    while !done && source.next_batch(&mut batch) {
        match call(&mut mgr, observe("a", &batch), &mut events) {
            ServiceResponse::Accepted { done: d, .. } => done = d,
            other => panic!("Observe answered with {other:?}"),
        }
        fed += 1;
        if fed == 10 {
            mgr.flush_all();
            let before = std::fs::read(&trace).unwrap();
            refused(&mut mgr, start("b", &scen), exists);
            refused(&mut mgr, resume("c", &runner.snapshot()), exists);
            assert_eq!(std::fs::read(&trace).unwrap(), before);
        }
    }
    assert!(fed > 10, "the run ended before the second open was tried");
    let finish = ServiceRequest::Finish {
        run: "a".into(),
        truth: source.truth(),
    };
    assert!(matches!(
        call(&mut mgr, finish, &mut events),
        ServiceResponse::Finished { .. }
    ));
    let finished = events.join("\n") + "\n";
    assert_eq!(std::fs::read_to_string(&trace).unwrap(), finished);

    // A finished tenant's trace is kept too.
    refused(&mut mgr, start("b", &scen), exists);
    assert_eq!(std::fs::read_to_string(&trace).unwrap(), finished);

    // So is a stopped tenant's: Start a, Stop a, Start b.
    std::fs::remove_file(&trace).unwrap();
    let mut events = Vec::new();
    assert!(matches!(
        call(&mut mgr, start("a", &scen), &mut events),
        ServiceResponse::Started { .. }
    ));
    let mut source = SimulatorSource::from_scenario(&scen, 1);
    for _ in 0..10 {
        assert!(source.next_batch(&mut batch));
        assert!(matches!(
            call(&mut mgr, observe("a", &batch), &mut events),
            ServiceResponse::Accepted { .. }
        ));
    }
    let stop = ServiceRequest::Stop { run: "a".into() };
    assert!(matches!(
        call(&mut mgr, stop, &mut events),
        ServiceResponse::Stopped { .. }
    ));
    let stopped = std::fs::read(&trace).unwrap();
    assert_eq!(stopped, (events.join("\n") + "\n").into_bytes());
    refused(&mut mgr, start("b", &scen), exists);
    assert_eq!(std::fs::read(&trace).unwrap(), stopped);
    assert_eq!(mgr.runs().count(), 0);
    std::fs::remove_dir_all(&root).ok();
}

/// A Start whose fault plan omits `image_every_s` runs at the default
/// cadence, as the same plan does under `vcount run --faults`.
#[test]
fn start_with_a_plan_without_image_cadence_is_started() {
    let scen = grid_scenario(ProtocolVariant::Simple, 153);
    let line = format!(
        r#"{{"Start":{{"run":"p","scenario":{},"faults":{{"seed":3}}}}}}"#,
        serde_json::to_string(&scen).unwrap()
    );
    let mut mgr = RunManager::new(ServiceConfig::default());
    let mut out = Vec::new();
    mgr.handle_line(&line, &mut out);
    assert!(
        matches!(out.last(), Some(ServiceResponse::Started { .. })),
        "Start answered with {:?}",
        out.last()
    );
}

/// One Start mutation of a table: its name, whether the request stays
/// valid under it, and the change to the scenario and fault plan.
type StartMutation = (String, bool, Box<dyn Fn(&mut Scenario, &mut FaultPlan)>);

fn start_mutation(
    what: impl Into<String>,
    valid: bool,
    mutate: impl Fn(&mut Scenario, &mut FaultPlan) + 'static,
) -> StartMutation {
    (what.into(), valid, Box::new(mutate))
}

/// One at a time, every map size, channel probability, traffic setting,
/// seed and fault-plan field a Start can break construction with.
fn start_mutations() -> Vec<StartMutation> {
    fn grid(cols: usize, rows: usize, lanes: u8) -> MapSpec {
        MapSpec::Grid {
            cols,
            rows,
            spacing_m: 130.0,
            lanes,
            speed_mps: 10.0,
        }
    }
    fn midtown(avenues: usize, streets: usize) -> MapSpec {
        MapSpec::Manhattan(ManhattanConfig {
            avenues,
            streets,
            ..ManhattanConfig::small()
        })
    }
    fn random(nodes: usize) -> MapSpec {
        MapSpec::Random(RandomCityConfig {
            nodes,
            ..RandomCityConfig::default()
        })
    }
    fn burst(i: usize, p: f64) -> ChannelKind {
        let mut ps = [0.05, 0.8, 0.1, 0.2];
        ps[i] = p;
        ChannelKind::Burst {
            p_good: ps[0],
            p_bad: ps[1],
            p_g2b: ps[2],
            p_b2g: ps[3],
        }
    }
    let mut out = Vec::new();
    // A one-wide grid or a one-lane road is still a map.
    for v in [0, 1] {
        out.extend([
            start_mutation(format!("grid cols {v}"), v == 1, move |s, _| {
                s.map = grid(v, 4, 2)
            }),
            start_mutation(format!("grid rows {v}"), v == 1, move |s, _| {
                s.map = grid(4, v, 2)
            }),
            start_mutation(format!("grid lanes {v}"), v == 1, move |s, _| {
                s.map = grid(4, 4, v as u8)
            }),
            start_mutation(format!("ring nodes {v}"), false, move |s, _| {
                s.map = MapSpec::DirectedRing {
                    nodes: v,
                    spacing_m: 100.0,
                    speed_mps: 10.0,
                }
            }),
            start_mutation(format!("midtown avenues {v}"), false, move |s, _| {
                s.map = midtown(v, 10)
            }),
            start_mutation(format!("midtown streets {v}"), false, move |s, _| {
                s.map = midtown(6, v)
            }),
        ]);
    }
    // One node-lane past its cap on each map kind, and sizes whose build
    // would exhaust memory: each is refused before its map is built.
    let over = MAX_MAP_NODE_LANES + 1;
    out.extend([
        start_mutation("grid one node-lane over the cap", false, move |s, _| {
            s.map = grid(over.div_ceil(2), 1, 2)
        }),
        start_mutation("ring one node over the cap", false, move |s, _| {
            s.map = MapSpec::DirectedRing {
                nodes: over,
                spacing_m: 100.0,
                speed_mps: 10.0,
            }
        }),
        start_mutation("midtown one node over the cap", false, move |s, _| {
            s.map = midtown(over.div_ceil(2), 2)
        }),
        start_mutation("random city one node over its cap", false, |s, _| {
            s.map = random(MAX_RANDOM_CITY_NODES + 1)
        }),
        start_mutation("grid of 2^32 nodes", false, |s, _| {
            s.map = grid(1 << 16, 1 << 16, 1)
        }),
        start_mutation("grid of 60,000 x 60,000 nodes", false, |s, _| {
            s.map = grid(60_000, 60_000, 1)
        }),
        start_mutation("random city of 100,000 nodes", false, |s, _| {
            s.map = random(100_000)
        }),
        start_mutation("random city of usize::MAX nodes", false, |s, _| {
            s.map = random(usize::MAX)
        }),
        // Initial populations past their cap, refused before any vehicle
        // is placed.
        start_mutation("fig1 with 1e300 m segments", false, |s, _| {
            s.map = MapSpec::Fig1Triangle {
                segment_m: 1e300,
                speed_mps: 10.0,
            }
        }),
        start_mutation(
            "2 x 2 grid of 1e9 m at 500 % and 200 vehicles per lane-km",
            false,
            |s, _| {
                s.map = MapSpec::Grid {
                    cols: 2,
                    rows: 2,
                    spacing_m: 1e9,
                    lanes: 2,
                    speed_mps: 10.0,
                };
                s.demand.volume_pct = 500.0;
                s.demand.vehicles_per_lane_km = 200.0;
            },
        ),
    ]);
    for p in [-0.5, 1.5] {
        out.push(start_mutation(
            format!("Bernoulli {p}"),
            false,
            move |s, _| s.channel = ChannelKind::Bernoulli(p),
        ));
        for i in 0..4 {
            out.push(start_mutation(
                format!("Burst probability {i} at {p}"),
                false,
                move |s, _| s.channel = burst(i, p),
            ));
        }
    }
    out.extend([
        start_mutation("dt_s 0", false, |s, _| s.sim.dt_s = 0.0),
        start_mutation("min_gap_m 0", false, |s, _| s.sim.min_gap_m = 0.0),
        start_mutation("admit_per_step 0", false, |s, _| s.sim.admit_per_step = 0),
        start_mutation("lane_change_prob 1.5", false, |s, _| {
            s.sim.lane_change_prob = 1.5
        }),
        start_mutation("exit_prob 1.5", false, |s, _| s.sim.exit_prob = 1.5),
        start_mutation("u_turn_prob 1.5", false, |s, _| s.sim.u_turn_prob = 1.5),
        start_mutation("speed_factor_range reversed", false, |s, _| {
            s.sim.speed_factor_range = (1.0, 0.6)
        }),
        // Each hung or panicked `vcount run` before it had a bound.
        start_mutation("dt_s 1e300", false, |s, _| s.sim.dt_s = 1e300),
        start_mutation("dt_s 1e-300", false, |s, _| s.sim.dt_s = 1e-300),
        start_mutation("volume_pct 1e300", false, |s, _| {
            s.demand.volume_pct = 1e300
        }),
        start_mutation("patrol cars 2^62", false, |s, _| s.patrol.cars = 1 << 62),
        start_mutation("max_time_s 1e300", false, |s, _| s.max_time_s = 1e300),
        start_mutation("max_time_s -1", false, |s, _| s.max_time_s = -1.0),
        start_mutation("max_time_s 0", false, |s, _| s.max_time_s = 0.0),
        start_mutation("explicit seed 16", false, |s, _| {
            s.seeds = SeedSpec::Explicit(vec![16])
        }),
        start_mutation("explicit seed listed twice", false, |s, _| {
            s.seeds = SeedSpec::Explicit(vec![3, 3])
        }),
        start_mutation("crash node 16", false, |_, p| p.crashes[0].node = 16),
        start_mutation("blackout node 16", false, |_, p| {
            p.blackouts[0].nodes.push(16)
        }),
        start_mutation("crash window reversed", false, |_, p| {
            let c = &mut p.crashes[0];
            std::mem::swap(&mut c.at_s, &mut c.recover_s);
        }),
        start_mutation("chaos duplicate_p 1.5", false, |_, p| {
            p.chaos.as_mut().unwrap().duplicate_p = 1.5
        }),
    ]);
    out
}

/// Construction never panics, so the daemon needs no panic guard. Each
/// Start below carries one mutation of a valid faulted Start, and each
/// Resume one mutation of a faulted tenant's snapshot: every answer is a
/// `start failed:`/`resume failed:` Error, or Started where the mutation
/// is still valid. A panic inside
/// the manager fails the test naming its mutation, and the faulted tenant
/// fed alongside stays byte-identical to its solo run. The Resume table
/// covers every field check of the engine half: its checkpoint table,
/// ledger, carried messages, watches and fault images.
#[test]
fn mutated_starts_and_resumes_never_panic() {
    let scen = grid_scenario(ProtocolVariant::Simple, 154);
    beside_a_live_tenant(154, 60, Some(fault_plan()), |mgr, _| {
        for (what, valid, mutate) in start_mutations() {
            let (mut bad, mut plan) = (scen.clone(), fault_plan());
            mutate(&mut bad, &mut plan);
            let answer = handle_naming(mgr, &what, faulted_start("m", &bad, Some(plan)));
            match (&answer[..], valid) {
                ([.., ServiceResponse::Started { .. }], true) => {
                    handle_naming(mgr, &what, ServiceRequest::Stop { run: "m".into() });
                }
                ([ServiceResponse::Error { message, .. }], false)
                    if message.starts_with("start failed: ") => {}
                (other, _) => panic!("{what}: Start answered with {other:?}"),
            }
        }
    });
    assert_poisoned_resumes_refused(
        155,
        60,
        Some(fault_plan()),
        &[
            (
                "images one short",
                |s| {
                    s.faults.as_mut().unwrap().images.pop();
                },
                "snapshot faults: fault state has 15 images entries, the plan needs 16",
            ),
            (
                "images one long",
                |s| s.faults.as_mut().unwrap().images.push(None),
                "snapshot faults: fault state has 17 images entries, the plan needs 16",
            ),
            (
                "down emptied",
                |s| s.faults.as_mut().unwrap().down.clear(),
                "snapshot faults: fault state has 0 down entries, the plan needs 16",
            ),
            (
                "down one short",
                |s| {
                    s.faults.as_mut().unwrap().down.pop();
                },
                "snapshot faults: fault state has 15 down entries, the plan needs 16",
            ),
            (
                "down one long",
                |s| s.faults.as_mut().unwrap().down.push(false),
                "snapshot faults: fault state has 17 down entries, the plan needs 16",
            ),
            (
                "crash_fired one short",
                |s| {
                    s.faults.as_mut().unwrap().crash_fired.pop();
                },
                "snapshot faults: fault state has 0 crash_fired entries, the plan needs 1",
            ),
            (
                "crash_fired one long",
                |s| s.faults.as_mut().unwrap().crash_fired.push(false),
                "snapshot faults: fault state has 2 crash_fired entries, the plan needs 1",
            ),
            (
                "recover_fired one short",
                |s| {
                    s.faults.as_mut().unwrap().recover_fired.pop();
                },
                "snapshot faults: fault state has 0 recover_fired entries, the plan needs 1",
            ),
            (
                "recover_fired one long",
                |s| s.faults.as_mut().unwrap().recover_fired.push(false),
                "snapshot faults: fault state has 2 recover_fired entries, the plan needs 1",
            ),
            (
                "crash node 16",
                |s| s.fault_plan.as_mut().unwrap().crashes[0].node = 16,
                "snapshot faults: crash node 16 out of range (16 nodes)",
            ),
            (
                "plan without state",
                |s| s.faults = None,
                "snapshot faults: plan without state or state without plan",
            ),
            (
                "state without plan",
                |s| s.fault_plan = None,
                "snapshot faults: plan without state or state without plan",
            ),
            (
                "seed 16",
                |s| s.seeds.push(NodeId(16)),
                "snapshot seed 16 is not a node of the 16-node map",
            ),
            (
                "checkpoint table one node short",
                |s| {
                    s.checkpoints.pred.pop();
                },
                "snapshot checkpoints: pred has 15 entries for the 16-node map",
            ),
            (
                "every active non-seed pred off the map",
                |s| {
                    let t = &mut s.checkpoints;
                    for (flags, pred) in t.flags.iter().zip(&mut t.pred) {
                        if *flags == ACTIVE {
                            *pred = Some(NodeId(999_999));
                        }
                    }
                },
                "snapshot checkpoints: node 2: pred names node 999999 outside the 16-node map",
            ),
            (
                "wave seed off the map",
                |s| s.checkpoints.wave_seed[0] = Some(NodeId(16)),
                "snapshot checkpoints: node 0: wave_seed names node 16 outside the 16-node map",
            ),
            (
                "known neighbour off the map",
                |s| s.checkpoints.known_preds.push((NodeId(15), NodeId(16), None)),
                "snapshot checkpoints: node 15: known_preds names node 16 outside the 16-node map",
            ),
            (
                "known predecessor off the map",
                |s| s.checkpoints.known_preds[0].2 = Some(NodeId(999_999)),
                "snapshot checkpoints: node 2: known_preds names node 999999 outside",
            ),
            (
                "child report from off the map",
                |s| s.checkpoints.child_reports.push((NodeId(15), NodeId(16), 1, 0)),
                "snapshot checkpoints: node 15: child_reports names node 16 outside",
            ),
            (
                "row of a node off the map",
                |s| s.checkpoints.known_preds.push((NodeId(16), NodeId(0), None)),
                "snapshot checkpoints: known_preds[",
            ),
            (
                "inbound directions one short",
                |s| {
                    s.checkpoints.inbound_state.pop();
                },
                "snapshot checkpoints: inbound_state has 47 entries for the 48-edge map",
            ),
            (
                "no outbound directions",
                |s| s.checkpoints.label_state.clear(),
                "snapshot checkpoints: label_state has 0 entries for the 48-edge map",
            ),
            (
                "per-direction counts one long",
                |s| s.checkpoints.per_inbound.push(0),
                "snapshot checkpoints: per_inbound has 49 entries for the 48-edge map",
            ),
            (
                "unknown inbound state code",
                |s| s.checkpoints.inbound_state[0] = 3,
                "snapshot checkpoints: inbound_state[0] = 3 is not a state code",
            ),
            (
                "unknown label state code",
                |s| s.checkpoints.label_state[5] = 200,
                "snapshot checkpoints: label_state[5] = 200 is not a state code",
            ),
            (
                "unknown flag bit",
                |s| s.checkpoints.flags[3] |= 4,
                "snapshot checkpoints: flags[3] = ",
            ),
            (
                "active without a wave seed",
                |s| {
                    let t = &mut s.checkpoints;
                    let k = t.flags.iter().position(|&f| f == ACTIVE).unwrap();
                    t.wave_seed[k] = None;
                },
                "snapshot checkpoints: node 2: activation fields disagree: active true, \
                 is_seed false, pred Some(",
            ),
            (
                "active non-seed without a pred",
                |s| {
                    let t = &mut s.checkpoints;
                    let k = t.flags.iter().position(|&f| f == ACTIVE).unwrap();
                    t.pred[k] = None;
                },
                "snapshot checkpoints: node 2: activation fields disagree: active true, \
                 is_seed false, pred None, wave_seed Some(",
            ),
            (
                "known_preds out of order",
                |s| s.checkpoints.known_preds.reverse(),
                "snapshot checkpoints: known_preds[1] is out of (node, neighbour) order",
            ),
            (
                "known predecessor listed twice",
                |s| {
                    let rows = &mut s.checkpoints.known_preds;
                    rows.insert(1, rows[0]);
                },
                "snapshot checkpoints: known_preds[1] is out of (node, neighbour) order or listed twice",
            ),
            (
                "child report listed twice",
                |s| {
                    let row = (NodeId(3), NodeId(2), 1, 0);
                    s.checkpoints.child_reports.extend([row, row]);
                },
                "snapshot checkpoints: child_reports[1] is out of (node, neighbour) order or listed twice",
            ),
            (
                "NaN activation time",
                |s| s.checkpoints.activated_at[0] = Some(f64::NAN),
                "snapshot checkpoints: node 0: activated_at NaN is not finite",
            ),
            (
                "infinite stabilization time",
                |s| s.checkpoints.stable_at[0] = Some(f64::INFINITY),
                "snapshot checkpoints: node 0: stable_at inf is not finite",
            ),
            (
                "unknown attribution code",
                |s| s.ledger.code[0] = 6,
                "snapshot ledger code[0] = 6 is not an attribution code",
            ),
            (
                "ledger vehicle past the population",
                |s| s.ledger.len.push(1),
                "snapshot ledger len has ",
            ),
            (
                "ledger lengths past the codes",
                |s| s.ledger.len[0] += 1,
                "snapshot ledger len sums to ",
            ),
            (
                "carried label on a vehicle past the population",
                |s| s.exchange.carried_label.push((VehicleId(999_999), vec![])),
                "snapshot exchange: carried label row ",
            ),
            (
                "carried report on a vehicle past the population",
                |s| {
                    let env = Envelope {
                        to: NodeId(0),
                        payload: vec![],
                    };
                    s.exchange.carried_reports.push((VehicleId(999_999), env));
                },
                "snapshot exchange: carried report row ",
            ),
            (
                "carried labels out of vehicle order",
                |s| {
                    let rows = &mut s.exchange.carried_label;
                    rows.push((VehicleId(0), vec![]));
                    assert!(rows.len() > 1, "no carried label to precede");
                },
                "snapshot exchange: carried label row ",
            ),
            (
                "relay envelope addressed to another node than its payload",
                |s| {
                    let report = Message::Report(Report {
                        from: NodeId(0),
                        to: NodeId(2),
                        subtree_total: 1,
                        seq: 1,
                    });
                    let env = Envelope {
                        to: NodeId(1),
                        payload: report.encode().to_vec(),
                    };
                    s.exchange.relay.push(RelayInFlight { due_s: 1e9, env });
                },
                "snapshot exchange: relay or patrol envelope names node 1 but its payload \
                 is addressed to node 2",
            ),
            (
                "watch on a vehicle past the population",
                |s| {
                    let sw = SegmentWatch::new(AdjustMode::NetInversion, VehicleId(999_999), []);
                    let watch = Watch {
                        origin: NodeId(0),
                        sw,
                    };
                    s.exchange.watches.insert(EdgeId(0), watch);
                },
                "snapshot exchange: segment watch on edge 0 names vehicle 999999 past the ",
            ),
            (
                "patrol status of a vehicle past the population",
                |s| {
                    let status = PatrolStatus::default();
                    s.exchange.patrol_status.insert(VehicleId(999_999), status);
                },
                "snapshot exchange: patrol table names vehicle 999999 past the ",
            ),
            (
                "fault image pred off the map",
                |s| {
                    let images = &mut s.faults.as_mut().unwrap().images;
                    let image = images[0].as_mut().expect("a recovery image of node 0");
                    image.pred = Some(NodeId(999_999));
                },
                "snapshot faults: images[0]: pred names node 999999 outside the 16-node map",
            ),
            (
                "fault image without inbound directions",
                |s| {
                    let images = &mut s.faults.as_mut().unwrap().images;
                    images[5].as_mut().unwrap().inbound_state.clear();
                },
                "snapshot faults: images[5]: inbound_state does not list the node's 4 inbound",
            ),
        ],
    );
}

/// The recovery-image schedule catches up with any clock in bounded time:
/// a plan cadence of 1e-300 s, a resumed schedule at -1e300 s and a batch
/// stamped 1e300 s each get their answer. Stepped one tick at a time,
/// each kept the owner thread in the refresh loop for good.
#[test]
fn image_refresh_ends_whatever_the_clock_says() {
    let worker = std::thread::spawn(|| {
        let scen = grid_scenario(ProtocolVariant::Simple, 156);
        let plan = FaultPlan {
            image_every_s: 1e-300,
            ..fault_plan()
        };
        let mut mgr = RunManager::new(ServiceConfig::default());
        let mut events = Vec::new();
        let mut call = |req| call(&mut mgr, req, &mut events);
        assert!(matches!(
            call(faulted_start("fine", &scen, Some(plan))),
            ServiceResponse::Started { .. }
        ));
        let mut source = SimulatorSource::from_scenario(&scen, 1);
        let mut batch = ObservationBatch::default();
        for _ in 0..10 {
            assert!(source.next_batch(&mut batch));
            let answer = call(observe("fine", &batch));
            assert!(
                matches!(answer, ServiceResponse::Accepted { .. }),
                "{answer:?}"
            );
        }
        let mut snap = match call(ServiceRequest::Snapshot {
            run: "fine".into(),
            sim: source.sim_state(),
        }) {
            ServiceResponse::Snapshot { snapshot, .. } => snapshot,
            other => panic!("Snapshot answered with {other:?}"),
        };
        snap.faults.as_mut().unwrap().next_image_s = -1e300;
        let answer = call(ServiceRequest::Resume {
            run: "behind".into(),
            snapshot: snap,
            goal: Some(Goal::Collection),
            trace: None,
        });
        assert!(
            matches!(answer, ServiceResponse::Resumed { .. }),
            "{answer:?}"
        );
        for now in [None, Some(1e300)] {
            assert!(source.next_batch(&mut batch));
            batch.now = now.unwrap_or(batch.now);
            let answer = call(observe("behind", &batch));
            assert!(
                matches!(answer, ServiceResponse::Accepted { .. }),
                "{answer:?}"
            );
        }
    });
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while !worker.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "an image refresh never ended"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    worker.join().expect("the refresh test panicked");
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
        bad.in_transit_edges.push(EdgeId(0));
        bad.in_transit_lens.push(u32::MAX);
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
