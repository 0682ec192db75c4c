//! The simulator's serialized dynamic state. Each fact is stored once:
//! the vehicle table is a set of columns indexed by vehicle id, a lane is
//! not stored at all (it is the on-edge vehicles of that lane in lane
//! order), and a queued vehicle's node and arrival edge live only in the
//! queue table. So a snapshot is checked field by field
//! ([`SimSnapshot::validate`]), not one copy against another.

use crate::vehicle::{RoutePolicy, VehState, Vehicle};
use serde::{Deserialize, Serialize};
use vcount_roadnet::{EdgeId, NodeId, RoadNetwork};
use vcount_v2x::{VehicleClass, VehicleId};

/// Serializable dynamic state of a [`crate::Simulator`], produced by
/// [`crate::Simulator::snapshot`] and consumed by
/// [`crate::Simulator::restore`]. The static inputs (network, config,
/// demand) are *not* included — the caller re-supplies them, and the RNG
/// stream is captured as its draw count (see [`crate::ReplayRng`]), so a
/// restored simulator replays bit-identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimSnapshot {
    /// RNG state advances performed so far (seed comes from the config).
    pub rng_draws: u64,
    /// Simulated time, seconds.
    pub time_s: f64,
    /// Steps executed.
    pub steps: u64,
    /// Every vehicle ever created, including exited ones.
    pub vehicles: VehicleTable,
    /// node -> FIFO of (vehicle, arrival edge) at the stop line: the only
    /// record of where a [`Spot::Queued`] vehicle waits.
    pub queues: Vec<Vec<(VehicleId, EdgeId)>>,
    /// Previous cross-lane order per edge (overtake detection). It is the
    /// order before the last step's admissions and spawns, so it cannot
    /// be derived from the rest.
    pub prev_order: Vec<Vec<VehicleId>>,
}

/// Every vehicle ever created, one column per field: vehicle `i`'s id is
/// `i`, and every column has one entry per vehicle but the sparse
/// [`VehicleTable::loops`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct VehicleTable {
    /// Each vehicle's class, as its [`VehicleClass::code`].
    pub class: Vec<u8>,
    /// Each vehicle's desired speed as a fraction of the speed limit.
    pub speed_factor: Vec<f64>,
    /// Each vehicle's current speed, m/s.
    pub speed_mps: Vec<f64>,
    /// Where each vehicle is.
    pub at: Vec<Spot>,
    /// The vehicles that drive a fixed loop (patrol cars), in id order;
    /// every other vehicle turns at random.
    pub loops: Vec<Loop>,
}

/// Where a vehicle is, as a snapshot stores it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Spot {
    /// Outside the region (exited, or never entered).
    Out,
    /// At a stop line: its node and arrival edge are its entry in
    /// [`SimSnapshot::queues`].
    Queued,
    /// On a segment: (edge, lane, metres from the edge's start).
    On(EdgeId, u8, f64),
}

/// A fixed-loop route: (vehicle, the loop's edges, index of the next edge
/// to take).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Loop(pub VehicleId, pub Vec<EdgeId>, pub usize);

impl VehicleTable {
    /// Number of vehicles in the table.
    pub fn len(&self) -> usize {
        self.class.len()
    }

    /// Whether the table holds no vehicle.
    pub fn is_empty(&self) -> bool {
        self.class.is_empty()
    }

    /// Each vehicle's class, in id order. Panics on a code past the 245
    /// classes, which [`SimSnapshot::validate`] refuses.
    pub fn classes(&self) -> impl Iterator<Item = VehicleClass> + '_ {
        self.class
            .iter()
            .map(|&c| VehicleClass::from_code(c).expect("a validated class code"))
    }

    /// The table of `vehicles`, whose ids are their indices.
    pub(crate) fn of(vehicles: &[Vehicle]) -> Self {
        VehicleTable {
            class: vehicles.iter().map(|v| v.class.code()).collect(),
            speed_factor: vehicles.iter().map(|v| v.speed_factor).collect(),
            speed_mps: vehicles.iter().map(|v| v.speed_mps).collect(),
            at: vehicles
                .iter()
                .map(|v| match v.state {
                    VehState::OnEdge { edge, lane, pos_m } => Spot::On(edge, lane, pos_m),
                    VehState::Queued { .. } => Spot::Queued,
                    VehState::Outside => Spot::Out,
                })
                .collect(),
            loops: vehicles
                .iter()
                .filter_map(|v| match &v.policy {
                    RoutePolicy::FixedLoop { edges, next } => {
                        Some(Loop(v.id, edges.clone(), *next))
                    }
                    RoutePolicy::RandomTurn => None,
                })
                .collect(),
        }
    }

    /// The vehicles this table and `queues` describe. Panics on a table
    /// [`SimSnapshot::validate`] refuses.
    pub(crate) fn vehicles(&self, queues: &[Vec<(VehicleId, EdgeId)>]) -> Vec<Vehicle> {
        let mut vehicles: Vec<Vehicle> = self
            .classes()
            .enumerate()
            .map(|(i, class)| Vehicle {
                id: VehicleId(i as u64),
                class,
                speed_factor: self.speed_factor[i],
                policy: RoutePolicy::RandomTurn,
                // Queued vehicles get their place from `queues` below.
                state: match self.at[i] {
                    Spot::On(edge, lane, pos_m) => VehState::OnEdge { edge, lane, pos_m },
                    Spot::Queued | Spot::Out => VehState::Outside,
                },
                speed_mps: self.speed_mps[i],
            })
            .collect();
        for (node, queue) in queues.iter().enumerate() {
            for &(id, from) in queue {
                vehicles[id.index()].state = VehState::Queued {
                    node: NodeId(node as u32),
                    from,
                };
            }
        }
        for Loop(id, edges, next) in &self.loops {
            vehicles[id.index()].policy = RoutePolicy::FixedLoop {
                edges: edges.clone(),
                next: *next,
            };
        }
        vehicles
    }
}

impl SimSnapshot {
    /// The one check of a simulator snapshot from outside the process,
    /// against the map it claims to run on. Each field is checked on its
    /// own: `time_s` finite and >= 0; every vehicle column as long as
    /// `class`; each class a known code, each speed finite and each speed
    /// factor finite and positive; each on-edge spot on the map, in a lane
    /// its edge has, at a finite position in [0, length]; one queue per
    /// node, listing each queued vehicle exactly once, at the head of its
    /// arrival edge; one overtake order per edge naming known vehicles;
    /// and each loop non-empty, on the map, a closed walk whose vehicle is
    /// on (or queued from) the edge before `next`. The error names the
    /// field.
    pub fn validate(&self, net: &RoadNetwork) -> Result<(), String> {
        if !(self.time_s.is_finite() && self.time_s >= 0.0) {
            return Err(format!(
                "snapshot time_s {:?} is not a finite time >= 0",
                self.time_s
            ));
        }
        let table = &self.vehicles;
        let n = table.len();
        for (column, len) in [
            ("speed_factor", table.speed_factor.len()),
            ("speed_mps", table.speed_mps.len()),
            ("at", table.at.len()),
        ] {
            if len != n {
                return Err(format!(
                    "snapshot vehicles.{column} has {len} entries, vehicles.class has {n}"
                ));
            }
        }
        if let Some(i) = table
            .class
            .iter()
            .position(|&c| VehicleClass::from_code(c).is_none())
        {
            return Err(format!(
                "snapshot vehicles.class[{i}] = {} is not a class code",
                table.class[i]
            ));
        }
        if let Some(i) = table
            .speed_factor
            .iter()
            .position(|f| !(f.is_finite() && *f > 0.0))
        {
            return Err(format!(
                "snapshot vehicles.speed_factor[{i}] = {:?} is not finite and positive",
                table.speed_factor[i]
            ));
        }
        if let Some(i) = table.speed_mps.iter().position(|v| !v.is_finite()) {
            return Err(format!(
                "snapshot vehicles.speed_mps[{i}] = {:?} is not finite",
                table.speed_mps[i]
            ));
        }
        let edges = net.edge_count();
        // The edge each vehicle is on or queued from.
        let mut edge_of: Vec<Option<EdgeId>> = vec![None; n];
        for (i, spot) in table.at.iter().enumerate() {
            let Spot::On(edge, lane, pos) = *spot else {
                continue;
            };
            if edge.index() >= edges {
                return Err(format!(
                    "snapshot vehicles.at[{i}]: edge {} is not on the {edges}-edge map",
                    edge.0
                ));
            }
            let e = net.edge(edge);
            if lane >= e.lanes {
                return Err(format!(
                    "snapshot vehicles.at[{i}]: edge {} has no lane {lane}",
                    edge.0
                ));
            }
            if !(0.0..=e.length_m).contains(&pos) {
                return Err(format!(
                    "snapshot vehicles.at[{i}]: position {pos:?} is not in [0, {:?}] on edge {}",
                    e.length_m, edge.0
                ));
            }
            edge_of[i] = Some(edge);
        }
        if self.queues.len() != net.node_count() {
            return Err(format!(
                "snapshot queues: the queue table has {} nodes, the map has {}",
                self.queues.len(),
                net.node_count()
            ));
        }
        for (node, queue) in self.queues.iter().enumerate() {
            for &(id, from) in queue {
                let v = id.0;
                if table.at.get(id.index()) != Some(&Spot::Queued) {
                    return Err(format!(
                        "snapshot queues[{node}] lists vehicle {v}, which vehicles.at \
                         does not mark Queued"
                    ));
                }
                if from.index() >= edges || net.edge(from).to.index() != node {
                    return Err(format!(
                        "snapshot queues[{node}]: vehicle {v} arrived by edge {}, \
                         which does not end at node {node}",
                        from.0
                    ));
                }
                if edge_of[id.index()].replace(from).is_some() {
                    return Err(format!("snapshot queues list vehicle {v} twice"));
                }
            }
        }
        if let Some(i) = (0..n).find(|&i| table.at[i] == Spot::Queued && edge_of[i].is_none()) {
            return Err(format!(
                "snapshot vehicles.at[{i}] is Queued, but no queue lists it"
            ));
        }
        if self.prev_order.len() != edges
            || self.prev_order.iter().flatten().any(|v| v.index() >= n)
        {
            return Err(
                "snapshot prev_order: the overtake orders do not fit the map and vehicle table"
                    .into(),
            );
        }
        let mut last: Option<VehicleId> = None;
        for (k, Loop(id, route, next)) in table.loops.iter().enumerate() {
            let what = format!("snapshot vehicles.loops[{k}]");
            if id.index() >= n || last.is_some_and(|l| l >= *id) {
                return Err(format!(
                    "{what}: vehicle {} is not a vehicle listed once in id order",
                    id.0
                ));
            }
            last = Some(*id);
            if route.is_empty() {
                return Err(format!("{what} is empty"));
            }
            if *next >= route.len() {
                return Err(format!(
                    "{what}: next {next} is past its {} edges",
                    route.len()
                ));
            }
            if let Some(e) = route.iter().find(|e| e.index() >= edges) {
                return Err(format!(
                    "{what}: edge {} is not on the {edges}-edge map",
                    e.0
                ));
            }
            let meets = |(a, b): (&EdgeId, &EdgeId)| net.edge(*a).to == net.edge(*b).from;
            if !route.iter().zip(route.iter().cycle().skip(1)).all(meets) {
                return Err(format!("{what} is not a closed walk"));
            }
            let behind = route[(next + route.len() - 1) % route.len()];
            if edge_of[id.index()] != Some(behind) {
                return Err(format!(
                    "{what}: vehicle {} is not on edge {}, the one before next",
                    id.0, behind.0
                ));
            }
        }
        Ok(())
    }
}
