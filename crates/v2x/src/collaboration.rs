//! Collaborative V2V overtake accounting (the extension of Alg. 3
//! lines 5–8, built on the relative-position collaboration of ref \[8\]).
//!
//! When a labeled vehicle `L` traverses a multi-lane segment `u -> v`,
//! overtakes can reorder vehicles relative to `L`, breaking the FIFO
//! assumption the label-wave correctness rests on. The paper corrects the
//! counter at `u` per overtake. The paper notes the detection only needs to
//! complete "before the labeled vehicle reappears in the surveillance of the
//! next checkpoint" — i.e. only the *final* relative order matters. We
//! therefore support two accounting modes:
//!
//! * [`AdjustMode::NetInversion`] (default, provably correct): at `L`'s
//!   arrival, **+1** for every vehicle that departed `u` before `L` but
//!   arrives after `L` (it fell behind the frontier wave: its one pending
//!   future count — a first count for uncounted vehicles, an anticipated and
//!   already-compensated double count for counted ones — is cancelled), and
//!   **−1** for every vehicle that departed after `L` but arrives before `L`
//!   (it jumped ahead of the wave and will be double-counted downstream).
//! * [`AdjustMode::PerEvent`] (the paper's literal lines 7–8): adjust at each
//!   overtake event, +1 only when `L` overtakes an *uncounted* vehicle, −1
//!   when a *counted* vehicle overtakes `L`. This miscounts when a vehicle
//!   overtakes `L` and is later re-overtaken (net order unchanged, but a −1
//!   sticks) — the `ablation_adjust_mode` bench quantifies this.

use crate::ids::VehicleId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Overtake accounting mode (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AdjustMode {
    /// Correct net accounting from the final arrival order.
    #[default]
    NetInversion,
    /// The paper's literal per-event rule (ablation only).
    PerEvent,
}

/// The counter corrections produced by one labeled segment traversal,
/// attributed to the labelling checkpoint's counter `c(u)`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Adjustment {
    /// Vehicles contributing +1 each.
    pub plus: Vec<VehicleId>,
    /// Vehicles contributing −1 each.
    pub minus: Vec<VehicleId>,
}

impl Adjustment {
    /// Net counter delta.
    pub fn net(&self) -> i64 {
        self.plus.len() as i64 - self.minus.len() as i64
    }

    /// True when no correction is needed.
    pub fn is_empty(&self) -> bool {
        self.plus.is_empty() && self.minus.is_empty()
    }
}

/// Tracks one labeled vehicle's traversal of a directed segment and
/// produces the counter [`Adjustment`] when the label arrives.
///
/// Lifecycle (driven by the traffic simulator / real V2V collaboration):
///
/// 1. [`SegmentWatch::new`] when the label departs `u`, with a snapshot of
///    the vehicles currently on the segment ahead of the label.
/// 2. [`SegmentWatch::record_arrival`] for every (non-patrol) vehicle that
///    reaches `v` while the label is still en route.
/// 3. In [`AdjustMode::PerEvent`], overtake events are additionally fed via
///    [`SegmentWatch::label_overtakes`] / [`SegmentWatch::label_overtaken_by`].
/// 4. [`SegmentWatch::finalize`] when the label reaches `v`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentWatch {
    mode: AdjustMode,
    label_vehicle: VehicleId,
    /// Vehicles ahead of the label at its departure → counted status then.
    ahead: BTreeMap<VehicleId, bool>,
    /// Vehicles that arrived at the far end before the label → counted
    /// status at arrival.
    arrived_before: BTreeMap<VehicleId, bool>,
    /// Accumulated per-event adjustments (PerEvent mode only).
    per_event: Adjustment,
}

impl SegmentWatch {
    /// Starts a watch for `label_vehicle`, which is departing with the
    /// label; `ahead` lists each vehicle currently on the segment in front
    /// of it along with its counted status.
    pub fn new(
        mode: AdjustMode,
        label_vehicle: VehicleId,
        ahead: impl IntoIterator<Item = (VehicleId, bool)>,
    ) -> Self {
        SegmentWatch {
            mode,
            label_vehicle,
            ahead: ahead.into_iter().collect(),
            arrived_before: BTreeMap::new(),
            per_event: Adjustment::default(),
        }
    }

    /// The labeled vehicle under watch.
    pub fn label_vehicle(&self) -> VehicleId {
        self.label_vehicle
    }

    /// Every vehicle the watch names: the label's carrier, the vehicles
    /// ahead at departure and those that arrived first, and any per-event
    /// adjustment's.
    pub fn vehicles(&self) -> impl Iterator<Item = VehicleId> + '_ {
        let per_event = self.per_event.plus.iter().chain(&self.per_event.minus);
        std::iter::once(self.label_vehicle)
            .chain(self.ahead.keys().copied())
            .chain(self.arrived_before.keys().copied())
            .chain(per_event.copied())
    }

    /// Records that `vehicle` reached the far end of the segment before the
    /// label did.
    pub fn record_arrival(&mut self, vehicle: VehicleId, counted: bool) {
        debug_assert_ne!(vehicle, self.label_vehicle);
        self.arrived_before.insert(vehicle, counted);
    }

    /// PerEvent mode: the label overtook `vehicle` (paper line 7: +1 when
    /// the overtaken vehicle is uncounted). Ignored in NetInversion mode.
    pub fn label_overtakes(&mut self, vehicle: VehicleId, vehicle_counted: bool) {
        if self.mode == AdjustMode::PerEvent && !vehicle_counted {
            self.per_event.plus.push(vehicle);
        }
    }

    /// PerEvent mode: `vehicle` overtook the label (paper line 8: −1 when
    /// the overtaker is counted). Ignored in NetInversion mode.
    pub fn label_overtaken_by(&mut self, vehicle: VehicleId, vehicle_counted: bool) {
        if self.mode == AdjustMode::PerEvent && vehicle_counted {
            self.per_event.minus.push(vehicle);
        }
    }

    /// The label reached the far end: produce the counter adjustment.
    pub fn finalize(self) -> Adjustment {
        match self.mode {
            AdjustMode::PerEvent => self.per_event,
            AdjustMode::NetInversion => {
                let mut adj = Adjustment::default();
                // Fell behind the wave: ahead at departure, not yet arrived.
                for &v in self.ahead.keys() {
                    if !self.arrived_before.contains_key(&v) {
                        adj.plus.push(v);
                    }
                }
                // Jumped ahead of the wave: arrived early without having
                // been ahead at departure.
                for &v in self.arrived_before.keys() {
                    if !self.ahead.contains_key(&v) {
                        adj.minus.push(v);
                    }
                }
                adj
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: VehicleId = VehicleId(100);
    const A: VehicleId = VehicleId(1);
    const B: VehicleId = VehicleId(2);

    #[test]
    fn fifo_traversal_needs_no_adjustment() {
        // A ahead, arrives before the label; B departs after and arrives
        // after: order preserved.
        let mut w = SegmentWatch::new(AdjustMode::NetInversion, L, [(A, false)]);
        w.record_arrival(A, false);
        let adj = w.finalize();
        assert!(adj.is_empty());
    }

    #[test]
    fn uncounted_vehicle_falling_behind_label_gets_plus_one() {
        // Fig. 1(g): the label overtakes an uncounted vehicle.
        let w = SegmentWatch::new(AdjustMode::NetInversion, L, [(A, false)]);
        // A never arrives before the label.
        let adj = w.finalize();
        assert_eq!(adj.plus, vec![A]);
        assert!(adj.minus.is_empty());
        assert_eq!(adj.net(), 1);
    }

    #[test]
    fn counted_vehicle_jumping_ahead_gets_minus_one() {
        // Fig. 1(h): a counted vehicle from behind overtakes the label.
        let mut w = SegmentWatch::new(AdjustMode::NetInversion, L, []);
        w.record_arrival(B, true);
        let adj = w.finalize();
        assert_eq!(adj.minus, vec![B]);
        assert_eq!(adj.net(), -1);
    }

    #[test]
    fn compensated_counted_vehicle_falling_behind_also_gets_plus_one() {
        // A counted vehicle can only be ahead of a label after a failed
        // handoff (already compensated −1 at u) or an earlier overtake
        // (compensated at that segment); if the label passes it, its pending
        // future double-count is cancelled and must be restored.
        let w = SegmentWatch::new(AdjustMode::NetInversion, L, [(A, true)]);
        let adj = w.finalize();
        assert_eq!(adj.plus, vec![A]);
        assert_eq!(adj.net(), 1);
    }

    #[test]
    fn overtake_then_reovertake_nets_zero_in_net_mode() {
        // B departs after the label, overtakes it, then the label
        // re-overtakes B: final order unchanged, B arrives after the label.
        let w = SegmentWatch::new(AdjustMode::NetInversion, L, []);
        // B never recorded as arriving before the label.
        let adj = w.finalize();
        assert!(adj.is_empty());
    }

    #[test]
    fn overtake_then_reovertake_miscounts_in_per_event_mode() {
        // Same physical scenario, paper's literal per-event rule: the −1
        // from B's overtake sticks because the re-overtake of a *counted*
        // vehicle earns no +1 (line 7 requires "uncounted").
        let mut w = SegmentWatch::new(AdjustMode::PerEvent, L, []);
        w.label_overtaken_by(B, true);
        w.label_overtakes(B, true);
        let adj = w.finalize();
        assert_eq!(adj.net(), -1, "per-event rule leaves a stuck -1");
    }

    #[test]
    fn per_event_matches_net_on_simple_cases() {
        // Single overtake of an uncounted vehicle: both modes agree.
        let mut pe = SegmentWatch::new(AdjustMode::PerEvent, L, [(A, false)]);
        pe.label_overtakes(A, false);
        let net = SegmentWatch::new(AdjustMode::NetInversion, L, [(A, false)]).finalize();
        assert_eq!(pe.finalize().net(), net.net());
    }

    #[test]
    fn mixed_traffic_adjustments_compose() {
        // A (uncounted, ahead) falls behind; B (counted, behind) jumps
        // ahead; C (ahead, counted) stays ahead.
        let c = VehicleId(3);
        let mut w = SegmentWatch::new(AdjustMode::NetInversion, L, [(A, false), (c, true)]);
        w.record_arrival(c, true);
        w.record_arrival(B, true);
        let adj = w.finalize();
        assert_eq!(adj.plus, vec![A]);
        assert_eq!(adj.minus, vec![B]);
        assert_eq!(adj.net(), 0);
    }

    #[test]
    fn per_event_ignores_events_in_net_mode() {
        let mut w = SegmentWatch::new(AdjustMode::NetInversion, L, []);
        w.label_overtaken_by(B, true);
        w.label_overtakes(B, true);
        // Net mode derives everything from arrivals; events are no-ops.
        assert!(w.finalize().is_empty());
    }
}
