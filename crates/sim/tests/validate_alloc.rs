//! Guards the allocation-free check of a valid wire batch.
//!
//! [`ObservationBatch::validate`] runs on the daemon's one owner thread
//! for every Observe request. It builds its error text only when a check
//! fails, so validating a valid batch must not touch the allocator; a
//! per-event label string once cost about one allocation per event.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;
use vcount_roadnet::{EdgeId, NodeId};
use vcount_sim::{EventRow, ObservationBatch};
use vcount_traffic::TrafficEvent;
use vcount_v2x::{VehicleClass, VehicleId};

#[test]
fn validating_a_valid_batch_does_not_allocate() {
    const EVENTS: u64 = 100;
    let mut batch = ObservationBatch {
        now: 50.0,
        steps: 100,
        new_classes: vec![VehicleClass::WHITE_VAN.code(); EVENTS as usize],
        in_transit_edges: vec![EdgeId(1), EdgeId(2)],
        in_transit_lens: vec![2, 1],
        in_transit_vehicles: vec![VehicleId(3), VehicleId(4), VehicleId(5)],
        ..ObservationBatch::default()
    };
    for v in 0..EVENTS {
        let (vehicle, node) = (VehicleId(v), NodeId((v % 9) as u32));
        let ev = match v % 5 {
            0 => TrafficEvent::Entered {
                vehicle,
                node,
                from: Some(EdgeId(3)),
            },
            1 => TrafficEvent::Entered {
                vehicle,
                node,
                from: None,
            },
            2 => TrafficEvent::Departed {
                vehicle,
                node,
                onto: EdgeId(1 + (v % 2) as u32),
            },
            3 => TrafficEvent::Exited { vehicle, node },
            _ => TrafficEvent::Overtake {
                edge: EdgeId(2),
                overtaker: vehicle,
                overtaken: VehicleId(0),
            },
        };
        batch.events.push(EventRow::of(ev));
    }

    let (verdict, allocations) = allocations_in(|| batch.validate(0, 9, 4));
    assert_eq!(verdict, Ok(()));
    assert_eq!(
        allocations, 0,
        "validating a valid {EVENTS}-event batch allocated {allocations} times"
    );
}
