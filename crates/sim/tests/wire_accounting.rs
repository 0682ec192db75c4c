//! Pins whole runs' wire accounting, where `wire_counter_semantics.rs`
//! checks a bare exchange.
//!
//! The first run is vbench's smoke ring: a 30-node one-way ring at 20 %
//! volume whose collection messages all travel by relay, with 36 patrol
//! cars radioing their status at every stop. Its constants were measured
//! at commit `ab5149d`, when the exchange still encoded each patrol status
//! and handoff ack into a payload slab only to free it unparsed.
//!
//! The fault runs drive every discard path: labels and carried reports
//! dropped at down checkpoints, relay deliveries to a down recipient, and
//! chaos duplicates, delays and reorders on the relay. Their constants
//! were measured at commit `aec066e`, when every queued message was still
//! encoded on send and decoded on delivery. The exchange now queues typed
//! messages and counts the codec from `Message::encoded_len`, and every
//! counter and event must read as it did.

mod common;

use std::sync::{Arc, Mutex};

use common::{fnv_digest, grid_scenario, VecSink};
use vcount_core::{CheckpointConfig, ProtocolVariant};
use vcount_sim::{
    Blackout, ChaosFault, CrashFault, FaultPlan, Goal, MapSpec, PatrolSpec, Runner, Scenario,
    SeedSpec, TransportMode,
};
use vcount_traffic::{Demand, SimConfig};
use vcount_v2x::ChannelKind;

fn smoke_ring() -> Scenario {
    Scenario {
        map: MapSpec::DirectedRing {
            nodes: 30,
            spacing_m: 100.0,
            speed_mps: 10.0,
        },
        closed: true,
        sim: SimConfig {
            detect_overtakes: false,
            speed_factor_range: (0.5, 1.0),
            seed: 1,
            ..Default::default()
        },
        demand: Demand::at_volume(20.0),
        protocol: CheckpointConfig::default(),
        channel: ChannelKind::PAPER,
        seeds: SeedSpec::Explicit(vec![0]),
        transport: TransportMode::RelayOnly {
            relay_speed_mps: 50.0,
        },
        patrol: PatrolSpec { cars: 36 },
        max_time_s: 4.0 * 3600.0,
    }
}

#[test]
fn relay_only_patrol_ring_wire_counters_are_pinned() {
    let scn = smoke_ring();
    let mut runner = Runner::builder(&scn).build();
    let metrics = runner.run(Goal::Collection, scn.max_time_s);
    assert!(
        metrics.collection_done_s.is_some(),
        "collection not reached"
    );
    assert_eq!(
        metrics.global_count,
        Some(metrics.true_population as i64),
        "the ring's count must be exact"
    );
    let t = runner.telemetry();
    let got = (
        t.messages_encoded,
        t.messages_decoded,
        t.wire_bytes,
        t.events_total(),
        t.patrol_relays,
    );
    assert_eq!(
        got,
        (1_680, 1_680, 164_294, 1_748, 1_591),
        "(encoded, decoded, wire bytes, events, patrol relays)"
    );
}

/// The chaos window's duplicate, delay and reorder probabilities, all 0.3
/// with delays of up to 12 s, over `from_s..until_s`.
fn chaos(from_s: f64, until_s: f64) -> ChaosFault {
    ChaosFault {
        from_s,
        until_s,
        duplicate_p: 0.3,
        delay_p: 0.3,
        max_delay_s: 12.0,
        reorder_p: 0.3,
    }
}

/// Nodes 1 and 2 black out over 150–280 s.
fn blackout() -> Blackout {
    Blackout {
        nodes: vec![1, 2],
        from_s: 150.0,
        until_s: 280.0,
    }
}

/// Two crash windows on the 4×4 grid (queued messages, carried reports
/// and carried labels dropped at down nodes), the blackout, and chaos
/// over 30–600 s.
fn grid_chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 23,
        crashes: vec![
            CrashFault {
                node: 5,
                at_s: 60.0,
                recover_s: 300.0,
            },
            CrashFault {
                node: 10,
                at_s: 120.0,
                recover_s: 420.0,
            },
        ],
        blackouts: vec![blackout()],
        chaos: Some(chaos(30.0, 600.0)),
        image_every_s: 60.0,
    }
}

/// One crash of ring node 1 over 525–700 s, the blackout, and chaos over
/// the ring's whole time budget.
fn ring_chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 23,
        crashes: vec![CrashFault {
            node: 1,
            at_s: 525.0,
            recover_s: 700.0,
        }],
        blackouts: vec![blackout()],
        chaos: Some(chaos(0.0, 4.0 * 3600.0)),
        image_every_s: 60.0,
    }
}

/// Each row: a run, its steps, (encoded, decoded, skipped_decode, wire
/// bytes, relay messages, events) after them and the FNV digest of its
/// event stream. The grid run discards seven labels and carried reports
/// at down checkpoints; the ring run duplicates, delays and reorders relay
/// messages and discards one relay delivery at a down checkpoint.
#[test]
fn fault_runs_wire_counters_are_pinned() {
    type Counters = (u64, u64, u64, u64, u64, u64);
    let rows: [(&str, Scenario, FaultPlan, usize, Counters, u64); 2] = [
        (
            "grid under crashes, a blackout and chaos",
            grid_scenario(ProtocolVariant::Simple, 45),
            grid_chaos_plan(),
            900,
            (113, 106, 7, 1_413, 0, 418),
            0x49ee_57ff_392c_0bef,
        ),
        (
            "relay ring under a crash, a blackout and chaos",
            smoke_ring(),
            ring_chaos_plan(),
            1_600,
            (2_142, 2_141, 1, 233_835, 74, 2_197),
            0x2dd3_0766_0649_6e86,
        ),
    ];
    for (what, scn, plan, steps, want, digest) in rows {
        let lines = Arc::new(Mutex::new(Vec::new()));
        let mut runner = Runner::builder(&scn)
            .sink(Box::new(VecSink(lines.clone())))
            .faults(plan)
            .build();
        for _ in 0..steps {
            runner.step();
        }
        runner.flush_sinks();
        let t = runner.telemetry();
        let got = (
            t.messages_encoded,
            t.messages_decoded,
            t.messages_skipped_decode,
            t.wire_bytes,
            t.relay_messages,
            t.events_total(),
        );
        assert_eq!(
            got, want,
            "{what}: (encoded, decoded, skipped_decode, wire bytes, relay messages, events)"
        );
        let stream = lines.lock().unwrap();
        assert_eq!(fnv_digest(&stream), digest, "{what}: event digest");
    }
}
