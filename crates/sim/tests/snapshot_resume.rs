//! Snapshot/resume determinism: freezing a run mid-flight, serializing the
//! snapshot to JSON, and resuming from the parsed copy must replay the
//! exact event stream the uninterrupted run produces — byte for byte —
//! under all three protocol variants (DESIGN.md §6quater). A snapshot
//! whose traffic tables contradict its map or vehicle table is refused.

mod common;

use std::sync::{Arc, Mutex};

use common::{fnv_digest, small_grid_scenario, VecSink};
use vcount_core::ProtocolVariant;
use vcount_roadnet::NodeId;
use vcount_sim::{CrashFault, EngineSnapshot, FaultPlan, Goal, Runner, RunnerBuilder};
use vcount_traffic::SimSnapshot;
use vcount_v2x::VehicleId;

/// Runs `prefix_steps`, snapshots through a JSON round-trip, resumes, and
/// checks the stitched prefix+tail stream is byte-identical (same FNV
/// digest, same lines) to an uninterrupted run of the same total length.
fn roundtrip(variant: ProtocolVariant, seed: u64) {
    let scen = small_grid_scenario(variant, seed);
    let total_steps = 600usize;
    let prefix_steps = 217usize;

    // Uninterrupted reference run.
    let full = Arc::new(Mutex::new(Vec::new()));
    let mut reference = Runner::builder(&scen)
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
    let mut first = Runner::builder(&scen)
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

#[test]
fn snapshot_rejects_wrong_schema() {
    let scen = small_grid_scenario(ProtocolVariant::Simple, 5);
    let mut runner = Runner::builder(&scen).build();
    runner.step();
    let mut snap = runner.snapshot();
    assert!(EngineSnapshot::from_json(&snap.to_json()).is_ok());
    // Every retired tag is refused, not just an invented one.
    for v in 0..=4 {
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
    let scen = small_grid_scenario(ProtocolVariant::Simple, 9);
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

/// The first lane holding at least `vehicles` vehicles.
fn lane_with(sim: &mut SimSnapshot, vehicles: usize) -> &mut Vec<VehicleId> {
    let mut lanes = sim.lanes.iter_mut().flatten();
    lanes
        .find(|l| l.len() >= vehicles)
        .expect("a lane this full")
}

#[test]
fn resume_rejects_an_unknown_vehicle_in_a_lane() {
    let err = refusal(|snap| lane_with(&mut snap.sim, 1)[0] = VehicleId(999_999));
    assert!(err.contains("unknown vehicle 999999"), "{err}");
}

#[test]
fn resume_rejects_a_lane_table_missing_an_edge() {
    let err = refusal(|snap| {
        snap.sim.lanes.remove(3);
    });
    assert!(err.contains("lane table has"), "{err}");
}

#[test]
fn resume_rejects_a_lane_out_of_leader_first_order() {
    let err = refusal(|snap| lane_with(&mut snap.sim, 2).swap(0, 1));
    assert!(err.contains("not ordered leader first"), "{err}");
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
        let labels = snap.exchange.carried_label.iter_mut().flatten();
        let bytes: Vec<&mut u8> = labels.flatten().collect();
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
