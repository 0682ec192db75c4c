//! The observation stream the simulator emits — exactly what real
//! checkpoint surveillance plus the V2V collaboration would observe, and
//! nothing more. The counting layer is driven solely by these events.

use vcount_roadnet::{EdgeId, NodeId};
use vcount_v2x::VehicleId;

/// One observable traffic occurrence, stamped with the simulation step it
/// happened in (events within a step are emitted in deterministic order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficEvent {
    /// A vehicle entered the surveillance of intersection `node` —
    /// admitted from segment `from`, or from outside the region
    /// (`from == None`, inbound interaction at a border checkpoint).
    Entered {
        /// The vehicle under surveillance.
        vehicle: VehicleId,
        /// The checkpoint it entered.
        node: NodeId,
        /// Arrival segment direction, `None` for border entries.
        from: Option<EdgeId>,
    },
    /// The vehicle left intersection `node` onto segment `onto` ("joining
    /// an outbound traffic" — the labelling opportunity of Alg. 1 phase 2).
    Departed {
        /// The departing vehicle.
        vehicle: VehicleId,
        /// The checkpoint it departs.
        node: NodeId,
        /// The outbound segment direction joined.
        onto: EdgeId,
    },
    /// The vehicle left the open system at border checkpoint `node`
    /// (outbound interaction, observed by the border surveillance).
    Exited {
        /// The leaving vehicle.
        vehicle: VehicleId,
        /// The border checkpoint it left through.
        node: NodeId,
    },
    /// `overtaker` passed `overtaken` on segment `edge` (emitted only when
    /// [`crate::SimConfig::detect_overtakes`] is on; used by the per-event
    /// adjustment ablation).
    Overtake {
        /// Segment where the pass completed.
        edge: EdgeId,
        /// The faster vehicle, now ahead.
        overtaker: VehicleId,
        /// The slower vehicle, now behind.
        overtaken: VehicleId,
    },
}

impl TrafficEvent {
    /// The vehicle primarily concerned by the event (the overtaker for
    /// overtake events).
    pub fn vehicle(&self) -> VehicleId {
        match *self {
            TrafficEvent::Entered { vehicle, .. }
            | TrafficEvent::Departed { vehicle, .. }
            | TrafficEvent::Exited { vehicle, .. } => vehicle,
            TrafficEvent::Overtake { overtaker, .. } => overtaker,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vehicle_accessor_covers_all_variants() {
        let v = VehicleId(3);
        let w = VehicleId(4);
        assert_eq!(
            TrafficEvent::Entered {
                vehicle: v,
                node: NodeId(0),
                from: None
            }
            .vehicle(),
            v
        );
        assert_eq!(
            TrafficEvent::Departed {
                vehicle: v,
                node: NodeId(0),
                onto: EdgeId(1)
            }
            .vehicle(),
            v
        );
        assert_eq!(
            TrafficEvent::Exited {
                vehicle: v,
                node: NodeId(0)
            }
            .vehicle(),
            v
        );
        assert_eq!(
            TrafficEvent::Overtake {
                edge: EdgeId(0),
                overtaker: v,
                overtaken: w
            }
            .vehicle(),
            v
        );
    }
}
