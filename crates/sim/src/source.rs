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
/// the unit that crosses the source boundary: a feeder process ships it as
/// one JSON line. Beside the step's clock its fields are integer columns
/// (DESIGN.md §10), so that line is short and cheap to parse, and the
/// engine reads the same struct through its typed accessors.
///
/// All buffers are reused across steps via [`ObservationBatch::clear`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ObservationBatch {
    /// Simulated time at the end of the step, seconds (event timestamp).
    pub now: f64,
    /// Monotone step counter at the end of the step.
    pub steps: u64,
    /// The step's surveillance events, in deterministic order, one row
    /// each (read through [`ObservationBatch::traffic_events`]).
    pub events: Vec<EventRow>,
    /// The [`VehicleClass::code`] of each vehicle first observed this
    /// step. Vehicle ids are dense append-only indices, so entry `i` is
    /// vehicle `announced + i`, where `announced` is the population before
    /// this batch.
    pub new_classes: Vec<u8>,
    /// The edges whose end-of-step in-transit order is captured: each edge
    /// that appears as a departure target (`onto`) this step, once. The
    /// observe stage reconstructs segment-watch "ahead" sets from these
    /// (see the runner's module docs and [`ObservationBatch::in_transit`]).
    pub in_transit_edges: Vec<EdgeId>,
    /// How many vehicles each captured edge holds, one entry per
    /// [`ObservationBatch::in_transit_edges`] entry.
    pub in_transit_lens: Vec<u32>,
    /// The captured vehicles, edge after edge (each edge's run starts where
    /// the previous one ends), leader first within each edge.
    pub in_transit_vehicles: Vec<VehicleId>,
}

/// One surveillance event as a fixed-arity integer row `(kind, a, b, c)`.
/// The kind code says which event it is and what the other columns hold:
///
/// | kind | event | `a` | `b` | `c` |
/// |------|-------|-----|-----|-----|
/// | [`EventRow::ENTERED`] | `Entered` from a segment | vehicle | node | arrival edge |
/// | [`EventRow::BORDER_ENTERED`] | `Entered` from outside the region | vehicle | node | 0 |
/// | [`EventRow::DEPARTED`] | `Departed` | vehicle | node | outbound edge |
/// | [`EventRow::EXITED`] | `Exited` | vehicle | node | 0 |
/// | [`EventRow::OVERTAKE`] | `Overtake` | overtaker | overtaken | edge |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRow(pub u8, pub u64, pub u64, pub u32);

impl EventRow {
    /// `Entered { from: Some(edge) }`.
    pub const ENTERED: u8 = 0;
    /// `Entered { from: None }`: an inbound interaction at a border node.
    pub const BORDER_ENTERED: u8 = 1;
    /// `Departed`.
    pub const DEPARTED: u8 = 2;
    /// `Exited`.
    pub const EXITED: u8 = 3;
    /// `Overtake`, the one event with two vehicles.
    pub const OVERTAKE: u8 = 4;

    /// The row of `ev`.
    pub fn of(ev: TrafficEvent) -> EventRow {
        match ev {
            TrafficEvent::Entered {
                vehicle,
                node,
                from: Some(from),
            } => EventRow(Self::ENTERED, vehicle.0, node.0.into(), from.0),
            TrafficEvent::Entered {
                vehicle,
                node,
                from: None,
            } => EventRow(Self::BORDER_ENTERED, vehicle.0, node.0.into(), 0),
            TrafficEvent::Departed {
                vehicle,
                node,
                onto,
            } => EventRow(Self::DEPARTED, vehicle.0, node.0.into(), onto.0),
            TrafficEvent::Exited { vehicle, node } => {
                EventRow(Self::EXITED, vehicle.0, node.0.into(), 0)
            }
            TrafficEvent::Overtake {
                edge,
                overtaker,
                overtaken,
            } => EventRow(Self::OVERTAKE, overtaker.0, overtaken.0, edge.0),
        }
    }

    /// The event this row holds, or `None` for an unknown kind code. A node
    /// column past `u32` is truncated; [`ObservationBatch::validate`]
    /// refuses it before any row is read.
    pub fn event(self) -> Option<TrafficEvent> {
        let EventRow(kind, a, b, c) = self;
        let (vehicle, node, edge) = (VehicleId(a), NodeId(b as u32), EdgeId(c));
        Some(match kind {
            Self::ENTERED => TrafficEvent::Entered {
                vehicle,
                node,
                from: Some(edge),
            },
            Self::BORDER_ENTERED => TrafficEvent::Entered {
                vehicle,
                node,
                from: None,
            },
            Self::DEPARTED => TrafficEvent::Departed {
                vehicle,
                node,
                onto: edge,
            },
            Self::EXITED => TrafficEvent::Exited { vehicle, node },
            Self::OVERTAKE => TrafficEvent::Overtake {
                edge,
                overtaker: vehicle,
                overtaken: VehicleId(b),
            },
            _ => return None,
        })
    }
}

impl ObservationBatch {
    /// Resets the batch for reuse, keeping every buffer's capacity.
    pub fn clear(&mut self) {
        self.now = 0.0;
        self.steps = 0;
        self.events.clear();
        self.new_classes.clear();
        self.in_transit_edges.clear();
        self.in_transit_lens.clear();
        self.in_transit_vehicles.clear();
    }

    /// The step's events, in order. Panics on a row with an unknown kind
    /// code, which [`ObservationBatch::validate`] refuses.
    pub fn traffic_events(&self) -> impl Iterator<Item = TrafficEvent> + '_ {
        self.events
            .iter()
            .map(|row| row.event().expect("an event row of a known kind"))
    }

    /// The classes [`ObservationBatch::new_classes`] announces, in id
    /// order. Panics on a code past the 245 classes, which
    /// [`ObservationBatch::validate`] refuses.
    pub fn classes(&self) -> impl Iterator<Item = VehicleClass> + '_ {
        self.new_classes
            .iter()
            .map(|&c| VehicleClass::from_code(c).expect("a known class code"))
    }

    /// The captured end-of-step in-transit order on `edge`, leader first.
    /// Panics if the producer did not capture that edge — every `Departed
    /// { onto }` edge of the step must be covered. These panics are
    /// *debug contracts* against the in-process [`SimulatorSource`]; a
    /// batch arriving over the wire is checked first by
    /// [`ObservationBatch::validate`] at the service boundary.
    pub fn in_transit(&self, edge: EdgeId) -> &[VehicleId] {
        let i = self
            .in_transit_edges
            .iter()
            .position(|&e| e == edge)
            .unwrap_or_else(|| panic!("batch carries no in-transit capture for edge {edge:?}"));
        let start: usize = self.in_transit_lens[..i].iter().map(|&n| n as usize).sum();
        &self.in_transit_vehicles[start..start + self.in_transit_lens[i] as usize]
    }

    /// Validates a batch that crossed a trust boundary (the `vcountd`
    /// wire) against the engine's indexing contracts, so that a malformed
    /// feeder is answered with an error instead of panicking the process.
    /// Each column is checked once:
    ///
    /// * `now` is finite (event timestamps and the completion predicate
    ///   do arithmetic with it);
    /// * every [`Self::new_classes`] code names one of the 245 classes;
    /// * every event row has a known kind; its vehicle ids are below the
    ///   announced-after population (`announced` is the engine's current
    ///   population), its node id below `nodes`, its edge id below
    ///   `edges`, and a column its kind leaves unused holds 0;
    /// * every `Departed { onto }` edge of the step is among the captured
    ///   edges (the observe stage's reconstruction demands it);
    /// * the in-transit edge and length columns are equally long, every
    ///   captured edge is on the map, the lengths sum (in `u64`) to the
    ///   vehicle column's length, and every captured vehicle is announced.
    ///
    /// Dense vehicle ids and in-range slice starts need no check: the
    /// layout cannot express anything else. The engine-internal panics on
    /// these same conditions remain as debug contracts for in-process
    /// sources, which are trusted. A valid batch is checked without
    /// allocating; error text is built only on failure.
    pub fn validate(&self, announced: usize, nodes: usize, edges: usize) -> Result<(), String> {
        if !self.now.is_finite() {
            return Err(format!("non-finite batch timestamp {:?}", self.now));
        }
        if let Some(i) = self
            .new_classes
            .iter()
            .position(|&c| VehicleClass::from_code(c).is_none())
        {
            return Err(format!(
                "new class {i} has code {} but there are only 245 classes",
                self.new_classes[i]
            ));
        }
        let population = announced + self.new_classes.len();
        // Each check names the failing entry as `what i`, formatted only
        // into an error.
        let check_vehicle = |v: u64, what: &str, i: usize| -> Result<(), String> {
            if v >= population as u64 {
                return Err(format!(
                    "{what} {i} references vehicle {v} but only {population} are announced"
                ));
            }
            Ok(())
        };
        let check_node = |n: u64, i: usize| -> Result<(), String> {
            if n >= nodes as u64 {
                return Err(format!(
                    "event {i} references node {n} but the map has {nodes} nodes"
                ));
            }
            Ok(())
        };
        let check_edge = |e: u32, what: &str, i: usize| -> Result<(), String> {
            if e as usize >= edges {
                return Err(format!(
                    "{what} {i} references edge {e} but the map has {edges} edges"
                ));
            }
            Ok(())
        };
        for (i, &EventRow(kind, a, b, c)) in self.events.iter().enumerate() {
            check_vehicle(a, "event", i)?;
            match kind {
                EventRow::ENTERED | EventRow::DEPARTED => {
                    check_node(b, i)?;
                    check_edge(c, "event", i)?;
                }
                EventRow::BORDER_ENTERED | EventRow::EXITED => {
                    check_node(b, i)?;
                    if c != 0 {
                        return Err(format!(
                            "event {i} (kind {kind}) has {c} in its unused column"
                        ));
                    }
                }
                EventRow::OVERTAKE => {
                    check_vehicle(b, "event", i)?;
                    check_edge(c, "event", i)?;
                }
                _ => return Err(format!("event {i} has unknown kind code {kind}")),
            }
            if kind == EventRow::DEPARTED && !self.in_transit_edges.contains(&EdgeId(c)) {
                return Err(format!(
                    "event {i} departs onto edge {c} with no in-transit capture"
                ));
            }
        }
        if self.in_transit_lens.len() != self.in_transit_edges.len() {
            return Err(format!(
                "{} in-transit edges but {} in-transit lengths",
                self.in_transit_edges.len(),
                self.in_transit_lens.len()
            ));
        }
        for (i, e) in self.in_transit_edges.iter().enumerate() {
            check_edge(e.0, "in-transit edge", i)?;
        }
        let captured: u64 = self.in_transit_lens.iter().map(|&n| u64::from(n)).sum();
        if captured != self.in_transit_vehicles.len() as u64 {
            return Err(format!(
                "in-transit lengths sum to {captured} but {} vehicles are stored",
                self.in_transit_vehicles.len()
            ));
        }
        for (i, v) in self.in_transit_vehicles.iter().enumerate() {
            check_vehicle(v.0, "in-transit vehicle", i)?;
        }
        Ok(())
    }
}

/// Derived per-batch indices the observe stage needs for watch "ahead"
/// reconstruction. Rebuilt by the engine from the batch's event rows (never
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
    /// Re-derives the indices from `batch`'s events, reusing the buffers.
    pub fn rebuild(&mut self, batch: &ObservationBatch) {
        self.departures_onto.clear();
        self.entries_via.clear();
        for (i, ev) in batch.traffic_events().enumerate() {
            match ev {
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

    /// Absorbs one batch's announcements ([`ObservationBatch::classes`]):
    /// the next vehicles in id order.
    pub fn learn(&mut self, classes: impl IntoIterator<Item = VehicleClass>) {
        self.classes.extend(classes);
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
            order_scratch: Vec::new(),
        }
    }
}

impl ObservationSource for SimulatorSource {
    fn next_batch(&mut self, batch: &mut ObservationBatch) -> bool {
        batch.clear();
        // Capture the end-of-step in-transit order of every edge departed
        // onto this step — the conservative superset of what the observe
        // stage's watch reconstruction may need (whether a watch opens
        // depends on engine-side channel draws the producer cannot see).
        for &ev in self.sim.step() {
            if let TrafficEvent::Departed { onto, .. } = ev {
                if !batch.in_transit_edges.contains(&onto) {
                    batch.in_transit_edges.push(onto);
                }
            }
            batch.events.push(EventRow::of(ev));
        }
        batch.now = self.sim.time_s();
        batch.steps = self.sim.steps();
        let vehicles = self.sim.vehicles();
        batch
            .new_classes
            .extend(vehicles[self.announced..].iter().map(|v| v.class.code()));
        self.announced = vehicles.len();
        let mut order = std::mem::take(&mut self.order_scratch);
        for &edge in &batch.in_transit_edges {
            self.sim.in_transit_into(edge, &mut order);
            batch.in_transit_lens.push(order.len() as u32);
            batch.in_transit_vehicles.extend_from_slice(&order);
        }
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
    fn class_table_learns_in_id_order() {
        let mut t = ClassTable::new();
        t.learn([VehicleClass::WHITE_VAN, VehicleClass::PATROL]);
        assert_eq!(t.len(), 2);
        t.learn([VehicleClass::WHITE_VAN]);
        assert_eq!(t.class(VehicleId(1)), VehicleClass::PATROL);
        assert_eq!(t.class(VehicleId(2)), VehicleClass::WHITE_VAN);
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
        let departed = TrafficEvent::Departed {
            vehicle: VehicleId(3),
            node: vcount_roadnet::NodeId(1),
            onto: EdgeId(4),
        };
        let mut batch = ObservationBatch {
            now: 12.5,
            steps: 25,
            events: vec![EventRow::of(departed)],
            new_classes: vec![VehicleClass::WHITE_VAN.code()],
            in_transit_edges: vec![EdgeId(9), EdgeId(4)],
            in_transit_lens: vec![1, 2],
            in_transit_vehicles: vec![VehicleId(1), VehicleId(7), VehicleId(3)],
        };
        let json = serde_json::to_string(&batch).expect("batch serializes");
        assert!(json.contains(r#""events":[[2,3,1,4]]"#), "{json}");
        let back: ObservationBatch = serde_json::from_str(&json).expect("batch parses");
        assert_eq!(back.traffic_events().collect::<Vec<_>>(), vec![departed]);
        assert_eq!(back.in_transit(EdgeId(4)), &[VehicleId(7), VehicleId(3)]);
        assert_eq!(back.in_transit(EdgeId(9)), &[VehicleId(1)]);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        batch.clear();
        assert!(batch.events.is_empty() && batch.in_transit_edges.is_empty());
    }
}
