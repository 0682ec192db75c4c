//! Snapshot/resume determinism: freezing a run mid-flight, serializing the
//! snapshot to JSON, and resuming from the parsed copy must replay the
//! exact event stream the uninterrupted run produces — byte for byte —
//! under all three protocol variants (DESIGN.md §6quater). A snapshot
//! whose traffic state does not fit its map is refused, naming the field.

mod common;

use std::sync::{Arc, Mutex};

use common::{
    first_on_edge, fnv_digest, grid_scenario, open_scenario, small_grid_scenario, VecSink,
};
use vcount_core::ProtocolVariant;
use vcount_roadnet::builders::ManhattanConfig;
use vcount_roadnet::{EdgeId, NodeId};
use vcount_sim::{
    CrashFault, EngineSnapshot, FaultPlan, Goal, MapSpec, Runner, RunnerBuilder, Scenario,
    TransportMode,
};
use vcount_traffic::{SimSnapshot, Spot};
use vcount_v2x::VehicleId;

/// Runs `prefix_steps`, snapshots through a JSON round-trip, resumes, and
/// checks the stitched prefix+tail stream is byte-identical (same FNV
/// digest, same lines) to an uninterrupted run of the same total length.
fn roundtrip(variant: ProtocolVariant, seed: u64) {
    roundtrip_scenario(&small_grid_scenario(variant, seed), &format!("{variant:?}"));
}

/// [`roundtrip`] for any scenario. The resumed run also freezes again at
/// once, to JSON byte-identical to the snapshot it resumed from: restore
/// rebuilds exactly the state the snapshot stores.
fn roundtrip_scenario(scen: &Scenario, variant: &str) {
    let total_steps = 600usize;
    let prefix_steps = 217usize;

    // Uninterrupted reference run.
    let full = Arc::new(Mutex::new(Vec::new()));
    let mut reference = Runner::builder(scen)
        .sink(Box::new(VecSink(full.clone())))
        .build();
    for _ in 0..total_steps {
        reference.step();
    }
    reference.flush_sinks();
    let full = full.lock().unwrap().clone();
    assert!(
        !full.is_empty(),
        "{variant:?}: reference run emitted no events"
    );

    // Interrupted run: prefix, freeze, JSON round-trip, resume, tail.
    let prefix = Arc::new(Mutex::new(Vec::new()));
    let mut first = Runner::builder(scen)
        .sink(Box::new(VecSink(prefix.clone())))
        .build();
    for _ in 0..prefix_steps {
        first.step();
    }
    first.flush_sinks();
    let snap_json = first.snapshot().to_json();
    drop(first);

    let snap = EngineSnapshot::from_json(&snap_json).expect("snapshot JSON parses");
    let tail = Arc::new(Mutex::new(Vec::new()));
    let frozen_at = snap.sim.time_s;
    let mut resumed = RunnerBuilder::from_snapshot(snap)
        .sink(Box::new(VecSink(tail.clone())))
        .build();
    assert_eq!(resumed.time_s(), frozen_at, "resume restores the clock");
    assert!(
        resumed.snapshot().to_json() == snap_json,
        "{variant}: a resumed run froze to different JSON"
    );
    for _ in 0..(total_steps - prefix_steps) {
        resumed.step();
    }
    resumed.flush_sinks();

    let mut stitched = prefix.lock().unwrap().clone();
    stitched.extend(tail.lock().unwrap().iter().cloned());

    assert_eq!(
        fnv_digest(&full),
        fnv_digest(&stitched),
        "{variant:?}: resumed stream digest diverged from the reference"
    );
    assert_eq!(full, stitched, "{variant:?}: resumed stream diverged");

    // The resumed run's end state must match the reference's too.
    assert_eq!(reference.time_s(), resumed.time_s(), "{variant:?}");
    assert_eq!(
        reference.distributed_count(),
        resumed.distributed_count(),
        "{variant:?}"
    );
    assert_eq!(
        reference.verify().len(),
        resumed.verify().len(),
        "{variant:?}: oracle verdicts diverged"
    );
}

#[test]
fn simple_variant_resumes_byte_identical() {
    roundtrip(ProtocolVariant::Simple, 11);
}

#[test]
fn extended_variant_with_patrol_resumes_byte_identical() {
    roundtrip(ProtocolVariant::Extended, 22);
}

#[test]
fn open_variant_resumes_byte_identical() {
    roundtrip(ProtocolVariant::Open, 33);
}

/// The JSON round trip and the stitched stream hold on three maps: a grid
/// with two patrol cars, a one-way ring, and the open midtown map, where
/// vehicles have left the region.
#[test]
fn snapshots_round_trip_on_three_maps() {
    let mut patrolled = grid_scenario(ProtocolVariant::Extended, 41);
    patrolled.patrol.cars = 2;
    let mut ring = small_grid_scenario(ProtocolVariant::Extended, 42);
    ring.map = MapSpec::DirectedRing {
        nodes: 8,
        spacing_m: 120.0,
        speed_mps: 10.0,
    };
    let midtown = open_scenario(43);
    let mut runner = Runner::builder(&midtown).build();
    for _ in 0..217 {
        runner.step();
    }
    assert!(
        runner.snapshot().sim.vehicles.at.contains(&Spot::Out),
        "no vehicle left the open map; the open case is vacuous"
    );
    for (scen, what) in [
        (patrolled, "grid with two patrol cars"),
        (ring, "one-way ring"),
        (midtown, "open midtown"),
    ] {
        roundtrip_scenario(&scen, what);
    }
}

/// The v6 layout keeps a midtown snapshot small: 50 steps into the
/// paper's closed run it serializes to at most 0.6x the v5 layout, which
/// took 1,120,780 bytes on this run (seed 1).
#[test]
fn midtown_snapshot_stays_within_its_size_budget() {
    const V5_BYTES: usize = 1_120_780;
    let scen = Scenario::paper_closed(ManhattanConfig::default(), 60.0, 2, 1);
    let mut runner = Runner::builder(&scen).build();
    for _ in 0..50 {
        runner.step();
    }
    let bytes = runner.snapshot().to_json().len();
    assert!(
        bytes * 10 <= V5_BYTES * 6,
        "the snapshot takes {bytes} bytes, over 0.6x the v5 layout's {V5_BYTES}"
    );
}

/// The v7 engine half (checkpoint table, exchange, ledger and dedup
/// baseline) as JSON bytes.
fn engine_half_bytes(snap: &EngineSnapshot) -> usize {
    [
        serde_json::to_string(&snap.checkpoints),
        serde_json::to_string(&snap.exchange),
        serde_json::to_string(&snap.ledger),
        serde_json::to_string(&snap.dedup),
    ]
    .into_iter()
    .map(|json| json.expect("the engine half serializes").len())
    .sum()
}

/// The v7 columns keep the engine half small: 2,000 steps into the
/// paper's closed midtown run (seed 1) it takes at most 0.35x the v6
/// layout, whose engine half took 336,078 bytes on this run.
#[test]
fn midtown_engine_half_stays_within_its_size_budget() {
    const V6_BYTES: usize = 336_078;
    let scen = Scenario::paper_closed(ManhattanConfig::default(), 60.0, 2, 1);
    let mut runner = Runner::builder(&scen).build();
    for _ in 0..2000 {
        runner.step();
    }
    let bytes = engine_half_bytes(&runner.snapshot());
    assert!(
        bytes * 100 <= V6_BYTES * 35,
        "the engine half takes {bytes} bytes, over 0.35x the v6 layout's {V6_BYTES}"
    );
}

/// Decoding a v7 snapshot and encoding it again is the identity, and a
/// run resumed from it holds exactly the checkpoint states it froze: on
/// closed and open midtown, a relay-only ring with patrol cars, and
/// faulted Fig. 1 frozen while its crashed checkpoint is down.
#[test]
fn v7_snapshots_decode_and_encode_to_the_same_state() {
    let mut ring = small_grid_scenario(ProtocolVariant::Extended, 44);
    ring.map = MapSpec::DirectedRing {
        nodes: 12,
        spacing_m: 100.0,
        speed_mps: 10.0,
    };
    ring.transport = TransportMode::RelayOnly {
        relay_speed_mps: 50.0,
    };
    ring.patrol.cars = 4;
    let plan = FaultPlan {
        seed: 7,
        crashes: vec![CrashFault {
            node: 1,
            at_s: 120.0,
            recover_s: 300.0,
        }],
        blackouts: vec![],
        chaos: None,
        image_every_s: 60.0,
    };
    let cases = [
        (
            Scenario::paper_closed(ManhattanConfig::default(), 60.0, 2, 3),
            None,
            "closed midtown",
        ),
        (open_scenario(3), None, "open midtown"),
        (ring, None, "relay-only patrol ring"),
        (Scenario::fig1_walkthrough(5), Some(plan), "faulted fig1"),
    ];
    for (scen, plan, what) in cases {
        let mut builder = Runner::builder(&scen);
        if let Some(plan) = plan {
            builder = builder.faults(plan);
        }
        let mut runner = builder.build();
        while runner.time_s() < 200.0 {
            runner.step();
        }
        let json = runner.snapshot().to_json();
        let snap = EngineSnapshot::from_json(&json).expect("a v7 snapshot parses");
        assert!(
            snap.to_json() == json,
            "{what}: JSON -> snapshot -> JSON changed"
        );
        let resumed = RunnerBuilder::from_snapshot(snap).build();
        for node in runner.net().node_ids() {
            assert_eq!(
                resumed.checkpoint(node).state(),
                runner.checkpoint(node).state(),
                "{what}: node {} restored to a different state",
                node.0
            );
        }
    }
}

#[test]
fn snapshot_rejects_wrong_schema() {
    let scen = small_grid_scenario(ProtocolVariant::Simple, 5);
    let mut runner = Runner::builder(&scen).build();
    runner.step();
    let mut snap = runner.snapshot();
    assert!(EngineSnapshot::from_json(&snap.to_json()).is_ok());
    // Every retired tag is refused, not just an invented one.
    for v in 0..=6 {
        snap.schema = format!("vcount-engine-snapshot/v{v}");
        let err = EngineSnapshot::from_json(&snap.to_json()).unwrap_err();
        assert!(err.contains("unsupported snapshot schema"), "v{v}: {err}");
    }
}

#[test]
fn goal_run_after_resume_matches_reference() {
    // Beyond fixed-step stitching: resume mid-run, then drive both to the
    // constitution goal and compare the final metrics.
    let scen = small_grid_scenario(ProtocolVariant::Extended, 77);
    let mut reference = Runner::builder(&scen).build();
    let m_ref = reference.run(Goal::Constitution, scen.max_time_s);

    let mut first = Runner::builder(&scen).build();
    for _ in 0..150 {
        first.step();
    }
    let mut resumed = RunnerBuilder::from_snapshot(first.snapshot()).build();
    let m_res = resumed.run(Goal::Constitution, scen.max_time_s);
    assert_eq!(m_ref.constitution_done_s, m_res.constitution_done_s);
    assert_eq!(m_ref.global_count, m_res.global_count);
    assert_eq!(m_ref.true_population, m_res.true_population);
    assert_eq!(m_ref.oracle_violations, 0);
    assert_eq!(m_res.oracle_violations, 0);
    assert_eq!(m_ref.checkpoint_stable_s, m_res.checkpoint_stable_s);
}

/// Resumes a snapshot taken 50 steps into a closed grid run after
/// `mutate` corrupts it: the refusal, or "accepted".
fn refusal(mutate: impl FnOnce(&mut EngineSnapshot)) -> String {
    refusal_under(None, mutate)
}

/// [`refusal`] for a run under a fault plan.
fn refusal_under(plan: Option<FaultPlan>, mutate: impl FnOnce(&mut EngineSnapshot)) -> String {
    refusal_on(
        small_grid_scenario(ProtocolVariant::Simple, 9),
        plan,
        mutate,
    )
}

/// [`refusal`] for a run of `scen`.
fn refusal_on(
    scen: Scenario,
    plan: Option<FaultPlan>,
    mutate: impl FnOnce(&mut EngineSnapshot),
) -> String {
    let mut builder = Runner::builder(&scen);
    if let Some(plan) = plan {
        builder = builder.faults(plan);
    }
    let mut runner = builder.build();
    for _ in 0..50 {
        runner.step();
    }
    let mut snap = runner.snapshot();
    mutate(&mut snap);
    match RunnerBuilder::from_snapshot(snap).try_build() {
        Ok(_) => "accepted".to_string(),
        Err(e) => e,
    }
}

/// The first non-empty stop-line queue.
fn first_queue(sim: &mut SimSnapshot) -> &mut Vec<(VehicleId, EdgeId)> {
    let queue = sim.queues.iter_mut().find(|q| !q.is_empty());
    queue.expect("a vehicle queued at a stop line")
}

#[test]
fn resume_rejects_a_vehicle_column_one_entry_short() {
    let err = refusal(|snap| {
        snap.sim.vehicles.speed_mps.pop();
    });
    assert!(err.contains("vehicles.speed_mps has"), "{err}");
}

#[test]
fn resume_rejects_an_on_edge_vehicle_off_the_map() {
    let err = refusal(|snap| *first_on_edge(&mut snap.sim).1 = EdgeId(999_999));
    assert!(err.contains("edge 999999 is not on the"), "{err}");
    assert!(err.contains("vehicles.at["), "{err}");
}

#[test]
fn resume_rejects_a_lane_its_edge_lacks() {
    // The grid has two lanes per direction.
    let err = refusal(|snap| *first_on_edge(&mut snap.sim).2 = 2);
    assert!(err.contains("has no lane 2"), "{err}");
    assert!(err.contains("vehicles.at["), "{err}");
}

#[test]
fn resume_rejects_a_nan_position() {
    let err = refusal(|snap| *first_on_edge(&mut snap.sim).3 = f64::NAN);
    assert!(err.contains("position NaN is not in"), "{err}");
    assert!(err.contains("vehicles.at["), "{err}");
}

#[test]
fn resume_rejects_a_position_past_the_edge() {
    let err = refusal(|snap| *first_on_edge(&mut snap.sim).3 = 1e6);
    assert!(err.contains("position 1000000.0 is not in [0, "), "{err}");
}

#[test]
fn resume_rejects_a_nan_speed_factor() {
    let err = refusal(|snap| snap.sim.vehicles.speed_factor[0] = f64::NAN);
    assert!(
        err.contains("vehicles.speed_factor[0] = NaN is not finite and positive"),
        "{err}"
    );
}

/// A grid dense enough that vehicles wait at stop lines between steps.
fn queueing_scenario() -> Scenario {
    let mut scen = small_grid_scenario(ProtocolVariant::Simple, 9);
    scen.sim.admit_per_step = 1;
    scen.demand.volume_pct = 200.0;
    scen
}

#[test]
fn resume_rejects_a_queued_vehicle_missing_from_its_queue() {
    let err = refusal_on(queueing_scenario(), None, |snap| {
        first_queue(&mut snap.sim).pop();
    });
    assert!(err.contains("is Queued, but no queue lists it"), "{err}");
    assert!(err.contains("vehicles.at["), "{err}");
}

#[test]
fn resume_rejects_a_queued_vehicle_listed_twice() {
    let err = refusal_on(queueing_scenario(), None, |snap| {
        let queue = first_queue(&mut snap.sim);
        queue.push(queue[0]);
    });
    assert!(err.contains("snapshot queues list vehicle"), "{err}");
    assert!(err.contains("twice"), "{err}");
}

/// A patrol car whose loop points past its edges: before v6 this passed
/// `try_build` and panicked indexing the loop at the car's next admission.
#[test]
fn resume_rejects_a_loop_with_next_out_of_range() {
    let scen = small_grid_scenario(ProtocolVariant::Extended, 9);
    let err = refusal_on(scen, None, |snap| snap.sim.vehicles.loops[0].2 = 999);
    assert!(
        err.contains("vehicles.loops[0]: next 999 is past its"),
        "{err}"
    );
}

#[test]
fn resume_rejects_an_empty_loop() {
    let scen = small_grid_scenario(ProtocolVariant::Extended, 9);
    let err = refusal_on(scen, None, |snap| {
        let patrol = &mut snap.sim.vehicles.loops[0];
        patrol.1.clear();
        patrol.2 = 0;
    });
    assert!(err.contains("vehicles.loops[0] is empty"), "{err}");
}

#[test]
fn resume_rejects_a_nan_clock() {
    let err = refusal(|snap| snap.sim.time_s = f64::NAN);
    assert!(
        err.contains("snapshot time_s NaN is not a finite time >= 0"),
        "{err}"
    );
}

#[test]
fn resume_rejects_a_queue_table_missing_a_node() {
    let err = refusal(|snap| {
        snap.sim.queues.pop();
    });
    assert!(err.contains("queue table has"), "{err}");
}

#[test]
fn resume_rejects_an_unknown_vehicle_in_an_overtake_order() {
    let err = refusal(|snap| {
        let order = snap.sim.prev_order.iter_mut().find(|o| !o.is_empty());
        order.expect("an edge with traffic")[0] = VehicleId(999_999);
    });
    assert!(err.contains("overtake orders"), "{err}");
}

#[test]
fn resume_rejects_garbage_label_bytes() {
    let err = refusal(|snap| {
        let labels = snap.exchange.carried_label.iter_mut();
        let bytes: Vec<&mut u8> = labels.flat_map(|(_, payload)| payload).collect();
        assert!(!bytes.is_empty(), "no carried label to corrupt");
        bytes.into_iter().for_each(|b| *b = 0xFF);
    });
    assert!(
        err.contains("carried label payload does not decode"),
        "{err}"
    );
}

#[test]
fn resume_rejects_a_seed_outside_the_map() {
    let err = refusal(|snap| snap.seeds.push(NodeId(9999)));
    assert!(err.contains("snapshot seed 9999 is not a node"), "{err}");
}

/// A faulted run's fault state must fit its plan and map, and a plan
/// never comes without its state: each poison is refused at build.
#[test]
fn resume_rejects_fault_state_that_does_not_fit() {
    let plan = FaultPlan {
        seed: 7,
        crashes: vec![CrashFault {
            node: 1,
            at_s: 120.0,
            recover_s: 300.0,
        }],
        blackouts: vec![],
        chaos: None,
        image_every_s: 60.0,
    };
    type Poison = (fn(&mut EngineSnapshot), &'static str);
    let poisons: [Poison; 4] = [
        (
            |s| s.faults.as_mut().unwrap().down.clear(),
            "fault state has 0 down entries, the plan needs 9",
        ),
        (
            |s| {
                s.faults.as_mut().unwrap().images.pop();
            },
            "fault state has 8 images entries, the plan needs 9",
        ),
        (
            |s| s.fault_plan.as_mut().unwrap().crashes[0].node = 9999,
            "crash node 9999 out of range (9 nodes)",
        ),
        (
            |s| s.faults = None,
            "plan without state or state without plan",
        ),
    ];
    for (poison, want) in poisons {
        let err = refusal_under(Some(plan.clone()), poison);
        assert_eq!(err, format!("snapshot faults: {want}"));
    }
}
