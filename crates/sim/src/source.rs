//! Pluggable observation sources: where the engine's surveillance events
//! come from.
//!
//! The engine (see [`crate::engine`]) is a step-driven core: each step it
//! consumes one [`ObservationBatch`] — the traffic events of one tick plus
//! the side information the protocol stages need — and it does not care
//! who produced it. [`ObservationSource`] is the supplier trait;
//! [`SimulatorSource`] wraps the traffic microsimulator (the classic
//! `vcount run` shape), and [`ExternalSource`] accepts batches pushed from
//! outside the process (the `vcountd` service shape, see
//! [`crate::service`]).
//!
//! The source is a deployment knob, never a semantics knob: a scenario
//! driven through an [`ExternalSource`] fed by a remote [`SimulatorSource`]
//! produces a byte-identical event stream to the same scenario run
//! in-process (pinned by `tests/service_identity.rs`).

use serde::{Deserialize, Serialize};
use vcount_roadnet::{edge_covering_cycle, EdgeId, NodeId, RoadNetwork};
use vcount_traffic::{SimSnapshot, Simulator, TrafficEvent};
use vcount_v2x::{ClassFilter, VehicleClass, VehicleId};

use crate::scenario::Scenario;

/// One step's observations, in the producer's deterministic order. This is
/// the unit that crosses the source boundary — serializable so a feeder
/// process can ship it as one JSON line.
///
/// All buffers are reused across steps via [`ObservationBatch::clear`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ObservationBatch {
    /// Simulated time at the end of the step, seconds (event timestamp).
    pub now: f64,
    /// Monotone step counter at the end of the step.
    pub steps: u64,
    /// The step's surveillance events, in deterministic order.
    pub events: Vec<TrafficEvent>,
    /// Classes of vehicles first observed this step, in id order. Vehicle
    /// ids are dense append-only indices, so each batch announces exactly
    /// the ids from the previous population size up to the new one.
    pub new_classes: Vec<(VehicleId, VehicleClass)>,
    /// Per-edge end-of-step in-transit capture: `(edge, start, len)` slices
    /// into [`ObservationBatch::in_transit_vehicles`], one entry per edge
    /// that appears as a departure target (`onto`) this step. The observe
    /// stage reconstructs segment-watch "ahead" sets from these (see the
    /// runner's module docs).
    pub in_transit_index: Vec<(EdgeId, u32, u32)>,
    /// Flat storage behind [`ObservationBatch::in_transit_index`], leader
    /// first within each slice.
    pub in_transit_vehicles: Vec<VehicleId>,
}

impl ObservationBatch {
    /// Resets the batch for reuse, keeping every buffer's capacity.
    pub fn clear(&mut self) {
        self.now = 0.0;
        self.steps = 0;
        self.events.clear();
        self.new_classes.clear();
        self.in_transit_index.clear();
        self.in_transit_vehicles.clear();
    }

    /// The captured end-of-step in-transit order on `edge`, leader first.
    /// Panics if the producer did not capture that edge — every `Departed
    /// { onto }` edge of the step must be covered. These panics are
    /// *debug contracts* against the in-process [`SimulatorSource`]; a
    /// batch arriving over the wire is checked first by
    /// [`ObservationBatch::validate`] at the service boundary.
    pub fn in_transit(&self, edge: EdgeId) -> &[VehicleId] {
        let (_, start, len) = self
            .in_transit_index
            .iter()
            .find(|(e, _, _)| *e == edge)
            .unwrap_or_else(|| panic!("batch carries no in-transit capture for edge {edge:?}"));
        // usize arithmetic: a hostile (start, len) pair must not overflow
        // u32 on its way to the slice bounds check.
        &self.in_transit_vehicles[*start as usize..*start as usize + *len as usize]
    }

    /// Validates a batch that crossed a trust boundary (the `vcountd`
    /// wire) against the engine's indexing contracts, so that a malformed
    /// feeder is answered with an error instead of panicking the process:
    ///
    /// * `now` is finite (event timestamps and the completion predicate
    ///   do arithmetic with it);
    /// * [`Self::new_classes`] announces dense vehicle ids in order,
    ///   starting at `announced` (the engine's current population);
    /// * every vehicle id referenced anywhere is below the announced-after
    ///   population, every node id below `nodes`, every edge id below
    ///   `edges`;
    /// * every [`Self::in_transit_index`] slice lies inside
    ///   [`Self::in_transit_vehicles`] (checked without u32 overflow);
    /// * every `Departed { onto }` edge of the step is covered by an
    ///   in-transit capture (the observe stage's reconstruction demands
    ///   it).
    ///
    /// The engine-internal panics on these same conditions remain as
    /// debug contracts for in-process sources, which are trusted.
    pub fn validate(&self, announced: usize, nodes: usize, edges: usize) -> Result<(), String> {
        if !self.now.is_finite() {
            return Err(format!("non-finite batch timestamp {:?}", self.now));
        }
        for (i, &(v, _)) in self.new_classes.iter().enumerate() {
            let expect = announced + i;
            if v.index() != expect {
                return Err(format!(
                    "class announcements must be dense and in id order: \
                     position {i} announces vehicle {} but {expect} is next",
                    v.index()
                ));
            }
        }
        let population = announced + self.new_classes.len();
        let check_vehicle = |v: VehicleId, what: &str| -> Result<(), String> {
            if v.index() >= population {
                return Err(format!(
                    "{what} references vehicle {} but only {population} are announced",
                    v.index()
                ));
            }
            Ok(())
        };
        let check_node = |n: NodeId, what: &str| -> Result<(), String> {
            if n.index() >= nodes {
                return Err(format!(
                    "{what} references node {} but the map has {nodes} nodes",
                    n.index()
                ));
            }
            Ok(())
        };
        let check_edge = |e: EdgeId, what: &str| -> Result<(), String> {
            if e.index() >= edges {
                return Err(format!(
                    "{what} references edge {} but the map has {edges} edges",
                    e.index()
                ));
            }
            Ok(())
        };
        for (i, ev) in self.events.iter().enumerate() {
            let what = format!("event {i}");
            match *ev {
                TrafficEvent::Entered {
                    vehicle,
                    node,
                    from,
                } => {
                    check_vehicle(vehicle, &what)?;
                    check_node(node, &what)?;
                    if let Some(e) = from {
                        check_edge(e, &what)?;
                    }
                }
                TrafficEvent::Departed {
                    vehicle,
                    node,
                    onto,
                } => {
                    check_vehicle(vehicle, &what)?;
                    check_node(node, &what)?;
                    check_edge(onto, &what)?;
                    if !self.in_transit_index.iter().any(|(e, _, _)| *e == onto) {
                        return Err(format!(
                            "{what} departs onto edge {} with no in-transit capture",
                            onto.index()
                        ));
                    }
                }
                TrafficEvent::Exited { vehicle, node } => {
                    check_vehicle(vehicle, &what)?;
                    check_node(node, &what)?;
                }
                TrafficEvent::Overtake {
                    edge,
                    overtaker,
                    overtaken,
                } => {
                    check_edge(edge, &what)?;
                    check_vehicle(overtaker, &what)?;
                    check_vehicle(overtaken, &what)?;
                }
            }
        }
        for &(edge, start, len) in &self.in_transit_index {
            check_edge(edge, "in-transit capture")?;
            // u64 arithmetic: `start + len` must not overflow u32 before
            // the bounds comparison.
            if u64::from(start) + u64::from(len) > self.in_transit_vehicles.len() as u64 {
                return Err(format!(
                    "in-transit capture for edge {} spans {start}..{start}+{len} \
                     but only {} vehicles are stored",
                    edge.index(),
                    self.in_transit_vehicles.len()
                ));
            }
        }
        for &v in &self.in_transit_vehicles {
            check_vehicle(v, "in-transit capture")?;
        }
        Ok(())
    }
}

/// Derived per-batch indices the observe stage needs for watch "ahead"
/// reconstruction. Rebuilt by the engine from the batch's event list (never
/// trusted from the wire), with flat reused buffers: a step carries few
/// events, so a linear filter beats a map of fresh vectors every step.
#[derive(Debug, Default)]
pub struct BatchIndex {
    /// Same-step `(edge, event index, vehicle)` departures onto each edge.
    pub departures_onto: Vec<(EdgeId, usize, VehicleId)>,
    /// Same-step `(edge, event index, vehicle)` entries via each edge.
    pub entries_via: Vec<(EdgeId, usize, VehicleId)>,
}

impl BatchIndex {
    /// Re-derives the indices from `events`, reusing the buffers.
    pub fn rebuild(&mut self, events: &[TrafficEvent]) {
        self.departures_onto.clear();
        self.entries_via.clear();
        for (i, ev) in events.iter().enumerate() {
            match *ev {
                TrafficEvent::Departed { vehicle, onto, .. } => {
                    self.departures_onto.push((onto, i, vehicle));
                }
                TrafficEvent::Entered {
                    vehicle,
                    from: Some(e),
                    ..
                } => {
                    self.entries_via.push((e, i, vehicle));
                }
                _ => {}
            }
        }
    }
}

/// The engine's view of every vehicle's camera-visible class, learned from
/// batch announcements ([`ObservationBatch::new_classes`]). Vehicle ids are
/// dense indices, so the table is a plain `Vec` and a lookup is one index.
#[derive(Debug, Default)]
pub struct ClassTable {
    classes: Vec<VehicleClass>,
}

impl ClassTable {
    /// An empty table (vehicles are announced by the first batches).
    pub fn new() -> Self {
        ClassTable::default()
    }

    /// Rebuilds the table from a snapshot's class column (resume path; the
    /// snapshot passed [`SimSnapshot::validate`]).
    pub fn from_snapshot(snap: &SimSnapshot) -> Self {
        ClassTable {
            classes: snap.vehicles.classes().collect(),
        }
    }

    /// Number of vehicles ever announced.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether no vehicle was announced yet.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Absorbs one batch's announcements. Ids must arrive dense and in
    /// order — each new vehicle's id is exactly the previous population
    /// size, which is what a well-formed producer emits.
    pub fn learn(&mut self, new_classes: &[(VehicleId, VehicleClass)]) {
        for &(v, class) in new_classes {
            assert_eq!(
                v.index(),
                self.classes.len(),
                "vehicle classes must be announced densely in id order"
            );
            self.classes.push(class);
        }
    }

    /// The class of `v`. Panics if `v` was never announced — the engine
    /// must not observe a vehicle before its class.
    pub fn class(&self, v: VehicleId) -> VehicleClass {
        self.classes[v.index()]
    }
}

/// Ground truth at one instant: every matching civilian vehicle the
/// producer ever created, with its currently-inside flag. Feeds the
/// [`crate::oracle::Oracle`] verification and the reported true
/// population; serializable so a feeder can ship it with the final
/// metrics request.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TruthSnapshot {
    /// `(vehicle, currently inside)` for every civilian vehicle matching
    /// the scenario's class filter.
    pub vehicles: Vec<(VehicleId, bool)>,
}

impl TruthSnapshot {
    /// Matching civilian vehicles currently inside the region.
    pub fn population(&self) -> usize {
        self.vehicles.iter().filter(|(_, inside)| *inside).count()
    }
}

/// A supplier of observation batches driving the engine.
///
/// `next_batch` is the pull face (used by [`crate::Runner::step`]);
/// externally fed runners skip it and push batches straight into
/// [`crate::Runner::ingest`]. The remaining methods expose what only the
/// observation side can know: ground truth (for verification) and the
/// traffic substrate's serialized state (for snapshots).
pub trait ObservationSource: Send {
    /// Produces the next step's batch into `batch` (cleared first).
    /// Returns `false` when this source cannot advance on its own — the
    /// pull loop ends and batches must be pushed via
    /// [`crate::Runner::ingest`] instead.
    fn next_batch(&mut self, batch: &mut ObservationBatch) -> bool;

    /// Ground truth at the current instant, if this source knows it.
    fn truth(&self) -> Option<TruthSnapshot>;

    /// The traffic substrate's serialized state, if this source holds it
    /// (needed to freeze the run into an [`crate::EngineSnapshot`]).
    fn sim_state(&self) -> Option<SimSnapshot>;

    /// Supplies ground truth from outside (push-fed sources only).
    fn provide_truth(&mut self, _truth: TruthSnapshot) {}

    /// Supplies traffic state from outside (push-fed sources only).
    fn provide_sim_state(&mut self, _snap: SimSnapshot) {}

    /// Read access to the in-process simulator, when there is one
    /// (examples and benches that inspect the population).
    fn simulator(&self) -> Option<&Simulator> {
        None
    }
}

/// The in-process source: owns the traffic [`Simulator`] and produces one
/// batch per tick — the classic `vcount run` deployment shape.
pub struct SimulatorSource {
    sim: Simulator,
    filter: ClassFilter,
    /// Vehicles announced so far; ids are dense, so the tail
    /// `sim.vehicles()[announced..]` is exactly the new arrivals.
    announced: usize,
    /// Scratch: unique departure-target edges of the current step.
    edge_scratch: Vec<EdgeId>,
    /// Scratch: one edge's in-transit order before batch append.
    order_scratch: Vec<VehicleId>,
}

impl SimulatorSource {
    /// Builds the simulator a scenario describes — map, demand, patrol
    /// cars — ready to produce batch 1. The second parameter is ignored;
    /// it stays so existing two-argument callers keep compiling.
    pub fn from_scenario(scenario: &Scenario, _shards: usize) -> Self {
        let net = scenario.map.build(scenario.closed);
        net.validate().expect("scenario map must be valid");
        let mut sim = Simulator::new(net, scenario.sim.clone(), scenario.demand.clone());
        if scenario.patrol.cars > 0 {
            let cycle = edge_covering_cycle(sim.net(), NodeId(0))
                .expect("validated map admits an edge-covering patrol cycle");
            for off in cycle.even_offsets(scenario.patrol.cars) {
                sim.add_patrol_car(cycle.edges.clone(), off);
            }
        }
        // The pre-placed population was never announced: batch 1 carries
        // it, so an externally fed engine learns the same classes the same
        // way an in-process one does.
        SimulatorSource::wrap(sim, scenario.protocol.filter, 0)
    }

    /// Restores the simulator from a snapshot (resume path) on `net`, the
    /// map [`Scenario::validate`] built, or reports why the snapshot's
    /// traffic state does not fit it (see [`Simulator::restore`]). The
    /// restored population counts as already announced — the engine
    /// rebuilds its class table from the same snapshot.
    pub fn resume_from(
        scenario: &Scenario,
        net: RoadNetwork,
        snap: &SimSnapshot,
    ) -> Result<Self, String> {
        let sim = Simulator::restore(net, scenario.sim.clone(), scenario.demand.clone(), snap)?;
        let announced = sim.vehicles().len();
        Ok(SimulatorSource::wrap(
            sim,
            scenario.protocol.filter,
            announced,
        ))
    }

    fn wrap(sim: Simulator, filter: ClassFilter, announced: usize) -> Self {
        SimulatorSource {
            sim,
            filter,
            announced,
            edge_scratch: Vec::new(),
            order_scratch: Vec::new(),
        }
    }
}

impl ObservationSource for SimulatorSource {
    fn next_batch(&mut self, batch: &mut ObservationBatch) -> bool {
        batch.clear();
        let events = self.sim.step();
        batch.events.extend_from_slice(events);
        batch.now = self.sim.time_s();
        batch.steps = self.sim.steps();
        let vehicles = self.sim.vehicles();
        for v in &vehicles[self.announced..] {
            batch.new_classes.push((v.id, v.class));
        }
        self.announced = vehicles.len();
        // Capture the end-of-step in-transit order of every edge departed
        // onto this step — the conservative superset of what the observe
        // stage's watch reconstruction may need (whether a watch opens
        // depends on engine-side channel draws the producer cannot see).
        self.edge_scratch.clear();
        for ev in &batch.events {
            if let TrafficEvent::Departed { onto, .. } = *ev {
                if !self.edge_scratch.contains(&onto) {
                    self.edge_scratch.push(onto);
                }
            }
        }
        let mut edges = std::mem::take(&mut self.edge_scratch);
        let mut order = std::mem::take(&mut self.order_scratch);
        for &edge in &edges {
            self.sim.in_transit_into(edge, &mut order);
            let start = batch.in_transit_vehicles.len() as u32;
            batch.in_transit_vehicles.extend_from_slice(&order);
            batch
                .in_transit_index
                .push((edge, start, order.len() as u32));
        }
        edges.clear();
        self.edge_scratch = edges;
        self.order_scratch = order;
        true
    }

    fn truth(&self) -> Option<TruthSnapshot> {
        let filter = self.filter;
        Some(TruthSnapshot {
            vehicles: self
                .sim
                .vehicles()
                .iter()
                .filter(|v| !v.is_patrol() && filter.matches(&v.class))
                .map(|v| (v.id, v.is_inside()))
                .collect(),
        })
    }

    fn sim_state(&self) -> Option<SimSnapshot> {
        Some(self.sim.snapshot())
    }

    fn simulator(&self) -> Option<&Simulator> {
        Some(&self.sim)
    }
}

/// The push-fed source: produces nothing on its own ([`Self::next_batch`]
/// returns `false`); batches arrive from outside via
/// [`crate::Runner::ingest`]. Ground truth and traffic state are whatever
/// the feeder last supplied — `None` until then, so snapshots and
/// verification require the feeder's cooperation.
#[derive(Debug, Default)]
pub struct ExternalSource {
    truth: Option<TruthSnapshot>,
    sim_state: Option<SimSnapshot>,
}

impl ExternalSource {
    /// A source with no truth and no traffic state yet.
    pub fn new() -> Self {
        ExternalSource::default()
    }
}

impl ObservationSource for ExternalSource {
    fn next_batch(&mut self, _batch: &mut ObservationBatch) -> bool {
        false
    }

    fn truth(&self) -> Option<TruthSnapshot> {
        self.truth.clone()
    }

    fn sim_state(&self) -> Option<SimSnapshot> {
        self.sim_state.clone()
    }

    fn provide_truth(&mut self, truth: TruthSnapshot) {
        self.truth = Some(truth);
    }

    fn provide_sim_state(&mut self, snap: SimSnapshot) {
        self.sim_state = Some(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_table_learns_densely() {
        let mut t = ClassTable::new();
        t.learn(&[
            (VehicleId(0), VehicleClass::WHITE_VAN),
            (VehicleId(1), VehicleClass::WHITE_VAN),
        ]);
        assert_eq!(t.len(), 2);
        t.learn(&[(VehicleId(2), VehicleClass::WHITE_VAN)]);
        assert_eq!(t.class(VehicleId(2)), VehicleClass::WHITE_VAN);
    }

    #[test]
    #[should_panic(expected = "densely")]
    fn class_table_rejects_gaps() {
        let mut t = ClassTable::new();
        t.learn(&[(VehicleId(5), VehicleClass::WHITE_VAN)]);
    }

    #[test]
    fn truth_population_counts_inside_only() {
        let truth = TruthSnapshot {
            vehicles: vec![
                (VehicleId(0), true),
                (VehicleId(1), false),
                (VehicleId(2), true),
            ],
        };
        assert_eq!(truth.population(), 2);
    }

    #[test]
    fn batch_round_trips_through_json() {
        let mut batch = ObservationBatch {
            now: 12.5,
            steps: 25,
            events: vec![TrafficEvent::Departed {
                vehicle: VehicleId(3),
                node: vcount_roadnet::NodeId(1),
                onto: EdgeId(4),
            }],
            new_classes: vec![(VehicleId(3), VehicleClass::WHITE_VAN)],
            in_transit_index: vec![(EdgeId(4), 0, 2)],
            in_transit_vehicles: vec![VehicleId(7), VehicleId(3)],
        };
        let json = serde_json::to_string(&batch).expect("batch serializes");
        let back: ObservationBatch = serde_json::from_str(&json).expect("batch parses");
        assert_eq!(back.events, batch.events);
        assert_eq!(back.in_transit(EdgeId(4)), &[VehicleId(7), VehicleId(3)]);
        batch.clear();
        assert!(batch.events.is_empty() && batch.in_transit_index.is_empty());
    }
}
