//! Stateful-channel snapshot/resume: a run over the bursty
//! Gilbert–Elliott channel carries loss-model state (current burst mode)
//! inside the snapshot, so a resumed run must replay the exact event
//! stream of an uninterrupted one — byte for byte. This pins the channel
//! half of the DESIGN.md §6quater determinism contract that
//! `snapshot_resume.rs` pins for the protocol state machines.

mod common;

use std::sync::{Arc, Mutex};

use common::{fnv_digest, VecSink};
use vcount_core::{CheckpointConfig, ProtocolVariant};
use vcount_sim::{EngineSnapshot, Runner, RunnerBuilder, Scenario};
use vcount_sim::{MapSpec, PatrolSpec, SeedSpec, TransportMode};
use vcount_traffic::{Demand, SimConfig};
use vcount_v2x::ChannelKind;

fn bursty_scenario(seed: u64) -> Scenario {
    Scenario {
        map: MapSpec::Grid {
            cols: 3,
            rows: 3,
            spacing_m: 120.0,
            lanes: 2,
            speed_mps: 10.0,
        },
        closed: true,
        sim: SimConfig {
            seed,
            detect_overtakes: true,
            speed_factor_range: (0.6, 1.0),
            ..Default::default()
        },
        demand: Demand::at_volume(60.0),
        protocol: CheckpointConfig::for_variant(ProtocolVariant::Simple),
        channel: ChannelKind::BURSTY,
        seeds: SeedSpec::Random { count: 2 },
        transport: TransportMode::default(),
        patrol: PatrolSpec::default(),
        max_time_s: 1200.0,
    }
}

#[test]
fn gilbert_elliott_run_resumes_byte_identical() {
    let scen = bursty_scenario(19);
    let total_steps = 600usize;
    let prefix_steps = 301usize;

    let full = Arc::new(Mutex::new(Vec::new()));
    let mut reference = Runner::builder(&scen)
        .sink(Box::new(VecSink(full.clone())))
        .build();
    for _ in 0..total_steps {
        reference.step();
    }
    reference.flush_sinks();
    let full = full.lock().unwrap().clone();
    assert!(!full.is_empty(), "bursty reference run emitted no events");
    // The bursty channel must actually bite during the prefix, or this
    // test is not exercising loss-model state at all.
    assert!(
        reference.metrics_now().handoff_failures > 0,
        "Gilbert–Elliott channel never failed a handoff; scenario too calm"
    );

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
    let mut resumed = RunnerBuilder::from_snapshot(snap)
        .sink(Box::new(VecSink(tail.clone())))
        .build();
    for _ in 0..(total_steps - prefix_steps) {
        resumed.step();
    }
    resumed.flush_sinks();

    let mut stitched = prefix.lock().unwrap().clone();
    stitched.extend(tail.lock().unwrap().iter().cloned());

    assert_eq!(
        fnv_digest(&full),
        fnv_digest(&stitched),
        "bursty resumed stream digest diverged from the reference"
    );
    assert_eq!(full, stitched, "bursty resumed stream diverged");
    assert_eq!(reference.time_s(), resumed.time_s());
    assert_eq!(reference.distributed_count(), resumed.distributed_count());
}
