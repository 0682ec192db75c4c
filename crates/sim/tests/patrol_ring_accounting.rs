//! Pins a whole patrol ring's wire accounting, where
//! `wire_counter_semantics.rs` checks a bare exchange.
//!
//! The run is vbench's smoke ring: a 30-node one-way ring at 20 % volume
//! whose collection messages all travel by relay, with 36 patrol cars
//! radioing their status at every stop. The constants were measured at
//! commit `ab5149d`, when the exchange still encoded each patrol status
//! and handoff ack into its payload slab only to free it unparsed. The
//! exchange now counts those two transmissions from
//! `Message::encoded_len` without encoding them, and every counter must
//! read as it did.

use vcount_core::CheckpointConfig;
use vcount_sim::{Goal, MapSpec, PatrolSpec, Runner, Scenario, SeedSpec, TransportMode};
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
