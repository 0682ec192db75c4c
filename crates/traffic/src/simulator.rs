//! The time-stepped traffic microsimulator (SUMO substitute).
//!
//! Per step: (1) lane changes by blocked vehicles on multi-lane segments,
//! (2) gap-constrained car following, (3) optional overtake detection,
//! (4) intersection admission with routing, (5) open-border Poisson
//! arrivals. Everything draws from one seeded RNG in a fixed iteration
//! order, so a `(network, config, demand, seed)` tuple reproduces the exact
//! event stream.

use crate::config::{Demand, SimConfig};
use crate::events::TrafficEvent;
use crate::order::{count_inversions, for_each_inversion};
use crate::rng::ReplayRng;
use crate::snapshot::{SimSnapshot, VehicleTable};
use crate::vehicle::{sample_class, RoutePolicy, VehState, Vehicle};
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::VecDeque;
use vcount_roadnet::{EdgeId, NodeId, NodeKind, RoadNetwork};
use vcount_v2x::{VehicleClass, VehicleId};

/// The microsimulator. See module docs for the step structure.
pub struct Simulator {
    net: RoadNetwork,
    cfg: SimConfig,
    demand: Demand,
    rng: ReplayRng,
    time_s: f64,
    steps: u64,
    vehicles: Vec<Vehicle>,
    /// edge -> lane -> slots in [`Slot::lane_order`] (leader first).
    lanes: Vec<Vec<Vec<Slot>>>,
    /// node -> FIFO of (vehicle, arrival edge) waiting at the stop line.
    queues: Vec<VecDeque<(VehicleId, EdgeId)>>,
    events: Vec<TrafficEvent>,
    /// Previous cross-lane order per edge (overtake detection only).
    prev_order: Vec<Vec<VehicleId>>,
    /// Overtake-detection scratch.
    detect: DetectScratch,
    /// Scratch: route candidates under consideration at an intersection.
    route_scratch: Vec<EdgeId>,
}

/// One on-edge vehicle's place in its lane: the car-following inputs,
/// stored in the lane so a lane sweep reads one contiguous array instead of
/// looking up each vehicle. `pos` and `factor` always equal the vehicle's
/// `pos_m` and `speed_factor`: every position a slot takes is written
/// through to the [`Vehicle`] in the same step.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: VehicleId,
    pos: f64,
    factor: f64,
}

impl Slot {
    /// The lane order: position descending (leader first), then id
    /// ascending. It is total, so inserting at the partition point of a
    /// sorted lane gives the same lane as a full sort.
    fn lane_order(&self, other: &Slot) -> Ordering {
        other.pos.total_cmp(&self.pos).then(self.id.cmp(&other.id))
    }

    /// Inserts `self` at its place in a lane already in lane order.
    fn insert_into(self, lane: &mut Vec<Slot>) {
        let at = lane.partition_point(|s| s.lane_order(&self).is_lt());
        lane.insert(at, self);
    }
}

/// Scratch for overtake detection: everything [`DetectScratch::detect`]
/// needs besides the simulator view. Excluded from snapshots like every other scratch buffer — the
/// epoch-stamped rank table is self-validating, so a fresh instance
/// produces the same events as a warmed one.
#[derive(Debug, Default)]
struct DetectScratch {
    /// The current per-edge order being built; swapped with
    /// `prev_order[e]` each edge so both buffers keep their capacity.
    order: Vec<VehicleId>,
    /// Rank table keyed by vehicle index, validated by epoch stamp
    /// (no per-edge clearing or hashing).
    rank_of: Vec<u32>,
    /// Epoch stamp per vehicle slot; a rank is live iff its stamp equals
    /// `rank_epoch`.
    rank_stamp: Vec<u64>,
    /// Current rank-table epoch (bumped per edge per step).
    rank_epoch: u64,
    /// Scratch: current ranks of the previous order's surviving vehicles.
    inv_ranks: Vec<u32>,
    /// Scratch: the vehicles parallel to `inv_ranks`.
    inv_vehicles: Vec<VehicleId>,
    /// Scratch: sort copy of `inv_ranks` consumed by the merge count.
    inv_sort: Vec<u32>,
    /// Scratch: merge buffer of the inversion count.
    inv_merge: Vec<u32>,
}

impl DetectScratch {
    /// Detects overtakes on every edge, in edge order, replacing each
    /// `prev_order` slot with the edge's current order and appending the
    /// overtake events to `events`.
    fn detect(
        &mut self,
        sim: &Simulator,
        prev_order: &mut [Vec<VehicleId>],
        events: &mut Vec<TrafficEvent>,
    ) {
        if self.rank_of.len() < sim.vehicles.len() {
            self.rank_of.resize(sim.vehicles.len(), 0);
            self.rank_stamp.resize(sim.vehicles.len(), 0);
        }
        let mut order = std::mem::take(&mut self.order);
        for (ei, slot) in prev_order.iter_mut().enumerate() {
            let edge = EdgeId(ei as u32);
            sim.in_transit_into(edge, &mut order);
            // `slot` now holds the current order; `order` holds the
            // previous one (and donates its capacity to the next edge).
            std::mem::swap(slot, &mut order);
            let (prev, now) = (&order, &*slot);
            if prev.len() < 2 || now.len() < 2 {
                continue;
            }
            // Rank of each vehicle now, stamped with a fresh epoch.
            self.rank_epoch += 1;
            for (i, v) in now.iter().enumerate() {
                self.rank_of[v.index()] = i as u32;
                self.rank_stamp[v.index()] = self.rank_epoch;
            }
            // The previous order, projected onto current ranks (vehicles
            // that left the edge drop out, preserving relative order).
            self.inv_ranks.clear();
            self.inv_vehicles.clear();
            for &v in prev {
                if self.rank_stamp[v.index()] == self.rank_epoch {
                    self.inv_ranks.push(self.rank_of[v.index()]);
                    self.inv_vehicles.push(v);
                }
            }
            self.inv_sort.clear();
            self.inv_sort.extend_from_slice(&self.inv_ranks);
            let inversions = count_inversions(&mut self.inv_sort, &mut self.inv_merge);
            if inversions == 0 {
                continue;
            }
            let vehicles = &self.inv_vehicles;
            for_each_inversion(&self.inv_ranks, inversions, |i, j| {
                // prev: i ahead of j; inversion means j is now ahead.
                events.push(TrafficEvent::Overtake {
                    edge,
                    overtaker: vehicles[j],
                    overtaken: vehicles[i],
                });
            });
        }
        self.order = order;
    }
}

impl Simulator {
    /// Builds a simulator and places the initial population according to
    /// `demand` (uniformly over lane-metres). Panics on invalid config.
    pub fn new(net: RoadNetwork, cfg: SimConfig, demand: Demand) -> Self {
        cfg.validate().expect("invalid simulator config");
        let rng = ReplayRng::seed_from_u64(cfg.seed);
        let lanes = net
            .edges()
            .map(|e| vec![Vec::new(); e.lanes as usize])
            .collect();
        let queues = vec![VecDeque::new(); net.node_count()];
        let prev_order = vec![Vec::new(); net.edge_count()];
        let mut sim = Simulator {
            net,
            cfg,
            demand,
            rng,
            time_s: 0.0,
            steps: 0,
            vehicles: Vec::new(),
            lanes,
            queues,
            events: Vec::new(),
            prev_order,
            detect: DetectScratch::default(),
            route_scratch: Vec::new(),
        };
        sim.populate();
        sim
    }

    /// Captures the dynamic state at a step boundary. Scratch buffers and
    /// the per-step event list are excluded: both are rebuilt from scratch
    /// by the next [`Simulator::step`] regardless. Lanes are excluded too:
    /// each is its on-edge vehicles in lane order.
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            rng_draws: self.rng.draws(),
            time_s: self.time_s,
            steps: self.steps,
            vehicles: VehicleTable::of(&self.vehicles),
            queues: self
                .queues
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
            prev_order: self.prev_order.clone(),
        }
    }

    /// Rebuilds a simulator from static inputs plus a [`SimSnapshot`]. The
    /// initial population draw is skipped; the RNG is fast-forwarded to the
    /// captured position, so the restored simulator produces the exact
    /// event stream the original would have from this point on.
    ///
    /// The snapshot is outside input, so it is checked against the map
    /// ([`SimSnapshot::validate`]) before anything steps: an inconsistent
    /// snapshot is an error here, not a panic or a silently wrong
    /// trajectory later. Each lane is rebuilt by sorting its on-edge
    /// vehicles in lane order (position descending, then id), the total
    /// order stepping keeps every lane in.
    pub fn restore(
        net: RoadNetwork,
        cfg: SimConfig,
        demand: Demand,
        snap: &SimSnapshot,
    ) -> Result<Self, String> {
        cfg.validate()
            .map_err(|e| format!("invalid simulator config: {e}"))?;
        snap.validate(&net)?;
        let vehicles = snap.vehicles.vehicles(&snap.queues);
        let mut lanes: Vec<Vec<Vec<Slot>>> = net
            .edges()
            .map(|e| vec![Vec::new(); e.lanes as usize])
            .collect();
        for v in &vehicles {
            if let VehState::OnEdge { edge, lane, pos_m } = v.state {
                lanes[edge.index()][usize::from(lane)].push(Slot {
                    id: v.id,
                    pos: pos_m,
                    factor: v.speed_factor,
                });
            }
        }
        for lane in lanes.iter_mut().flatten() {
            lane.sort_unstable_by(Slot::lane_order);
        }
        Ok(Simulator {
            rng: ReplayRng::resume(cfg.seed, snap.rng_draws),
            time_s: snap.time_s,
            steps: snap.steps,
            vehicles,
            lanes,
            queues: snap
                .queues
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
            prev_order: snap.prev_order.clone(),
            events: Vec::new(),
            net,
            cfg,
            demand,
            detect: DetectScratch::default(),
            route_scratch: Vec::new(),
        })
    }

    /// The road network being simulated.
    pub fn net(&self) -> &RoadNetwork {
        &self.net
    }

    /// Simulated time, seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// All vehicles ever created (including exited ones).
    pub fn vehicles(&self) -> &[Vehicle] {
        &self.vehicles
    }

    /// A vehicle by id.
    pub fn vehicle(&self, id: VehicleId) -> &Vehicle {
        &self.vehicles[id.index()]
    }

    /// Number of vehicles currently inside the region (excluding patrol
    /// cars, which the paper exempts from counting).
    pub fn civilian_population(&self) -> usize {
        self.vehicles
            .iter()
            .filter(|v| v.is_inside() && !v.is_patrol())
            .count()
    }

    /// Vehicles currently in transit on `edge` — queued at the stop line of
    /// its head (earliest first) followed by on-segment vehicles
    /// leader-first. Exactly the set ahead of a vehicle departing onto
    /// `edge` right now.
    pub fn in_transit(&self, edge: EdgeId) -> Vec<VehicleId> {
        let mut out = Vec::new();
        self.in_transit_into(edge, &mut out);
        out
    }

    /// [`Simulator::in_transit`] into a caller-provided buffer (cleared
    /// first). Reusing the buffer keeps per-step order maintenance
    /// allocation-free; the sort is unstable (no heap) over a total order,
    /// so the result is still deterministic.
    pub fn in_transit_into(&self, edge: EdgeId, out: &mut Vec<VehicleId>) {
        out.clear();
        let head = self.net.edge(edge).to;
        out.extend(
            self.queues[head.index()]
                .iter()
                .filter(|(_, from)| *from == edge)
                .map(|(v, _)| *v),
        );
        let queued = out.len();
        for lane in &self.lanes[edge.index()] {
            out.extend(lane.iter().map(|s| s.id));
        }
        // Merge lanes by position, leader first; lane lists hold only
        // on-edge vehicles, so every position lookup succeeds.
        let vehicles = &self.vehicles;
        let pos = |v: VehicleId| match vehicles[v.index()].state {
            VehState::OnEdge { pos_m, .. } => pos_m,
            _ => f64::MAX,
        };
        out[queued..].sort_unstable_by(|a, b| pos(*b).total_cmp(&pos(*a)).then(a.cmp(b)));
    }

    /// Adds a police patrol car driving `route` (a closed walk of edges)
    /// starting at the tail of `route[start_index]`. Returns its id.
    pub fn add_patrol_car(&mut self, route: Vec<EdgeId>, start_index: usize) -> VehicleId {
        assert!(!route.is_empty(), "patrol route must not be empty");
        let start = start_index % route.len();
        let edge = route[start];
        let id = VehicleId(self.vehicles.len() as u64);
        let vehicle = Vehicle {
            id,
            class: VehicleClass::PATROL,
            speed_factor: 1.0,
            policy: RoutePolicy::FixedLoop {
                edges: route,
                next: (start + 1) % usize::MAX, // fixed below
            },
            state: VehState::OnEdge {
                edge,
                lane: 0,
                pos_m: 0.0,
            },
            speed_mps: 0.0,
        };
        self.vehicles.push(vehicle);
        if let RoutePolicy::FixedLoop { edges, next } = &mut self.vehicles[id.index()].policy {
            *next = (start + 1) % edges.len();
        }
        Slot {
            id,
            pos: 0.0,
            factor: 1.0,
        }
        .insert_into(&mut self.lanes[edge.index()][0]);
        id
    }

    /// Places a civilian vehicle on `edge` at `pos_m` (testing and
    /// scenario construction). Returns its id.
    pub fn add_vehicle_on_edge(
        &mut self,
        edge: EdgeId,
        lane: u8,
        pos_m: f64,
        class: VehicleClass,
        speed_factor: f64,
    ) -> VehicleId {
        let id = VehicleId(self.vehicles.len() as u64);
        assert!((lane as usize) < self.lanes[edge.index()].len());
        debug_assert!(pos_m.is_finite(), "vehicle position must be finite");
        assert!(pos_m >= 0.0 && pos_m <= self.net.edge(edge).length_m);
        self.vehicles.push(Vehicle {
            id,
            class,
            speed_factor,
            policy: RoutePolicy::RandomTurn,
            state: VehState::OnEdge { edge, lane, pos_m },
            speed_mps: 0.0,
        });
        Slot {
            id,
            pos: pos_m,
            factor: speed_factor,
        }
        .insert_into(&mut self.lanes[edge.index()][lane as usize]);
        id
    }

    fn populate(&mut self) {
        let n = self.demand.initial_vehicles(self.net.lane_km());
        // Cumulative lane-metre weights over (edge, lane) slots.
        let mut slots: Vec<(EdgeId, u8, f64)> = Vec::new();
        let mut total = 0.0;
        for e in self.net.edges() {
            for lane in 0..e.lanes {
                total += e.length_m;
                slots.push((e.id, lane, total));
            }
        }
        for _ in 0..n {
            let x = self.rng.gen_range(0.0..total);
            let idx = slots
                .partition_point(|&(_, _, cum)| cum < x)
                .min(slots.len() - 1);
            let (edge, lane, _) = slots[idx];
            let pos = self.rng.gen_range(0.0..self.net.edge(edge).length_m);
            let (lo, hi) = self.cfg.speed_factor_range;
            let factor = if hi > lo {
                self.rng.gen_range(lo..hi)
            } else {
                lo
            };
            let class = sample_class(&mut self.rng, self.demand.white_van_fraction);
            self.add_vehicle_on_edge(edge, lane, pos, class, factor);
        }
    }

    /// Advances one time step and returns the events it produced, in
    /// deterministic order.
    pub fn step(&mut self) -> &[TrafficEvent] {
        self.events.clear();
        if self.cfg.lane_change_prob > 0.0 {
            self.lane_changes();
        }
        self.move_vehicles();
        if self.cfg.detect_overtakes {
            self.detect_overtakes();
        }
        self.admissions();
        self.spawns();
        self.time_s += self.cfg.dt_s;
        self.steps += 1;
        &self.events
    }

    fn lane_changes(&mut self) {
        for ei in 0..self.lanes.len() {
            let n_lanes = self.lanes[ei].len();
            if n_lanes < 2 {
                continue;
            }
            let limit = self.net.edge(EdgeId(ei as u32)).speed_mps;
            for li in 0..n_lanes {
                // Walk followers (index >= 1): leaders have nobody to pass.
                let mut idx = 1;
                while idx < self.lanes[ei][li].len() {
                    let (me, lead) = (self.lanes[ei][li][idx], self.lanes[ei][li][idx - 1]);
                    let desired = me.factor * limit;
                    // Short-circuit: the leader's record is read only when
                    // the gap is tight.
                    let blocked = lead.pos - me.pos < 3.0 * self.cfg.min_gap_m
                        && self.vehicles[lead.id.index()].speed_mps + 0.1 < desired;
                    if !blocked || !self.rng.gen_bool(self.cfg.lane_change_prob) {
                        idx += 1;
                        continue;
                    }
                    // Try adjacent lanes in a deterministic order.
                    let target = [li.wrapping_sub(1), li + 1]
                        .into_iter()
                        .find(|&t| t < n_lanes && self.lane_has_space(ei, t, me.pos));
                    let Some(target) = target else {
                        idx += 1;
                        continue;
                    };
                    self.lanes[ei][li].remove(idx);
                    if let VehState::OnEdge { lane, .. } = &mut self.vehicles[me.id.index()].state {
                        *lane = target as u8;
                    }
                    me.insert_into(&mut self.lanes[ei][target]);
                }
            }
        }
    }

    fn lane_has_space(&self, ei: usize, lane: usize, pos: f64) -> bool {
        let gap = self.cfg.min_gap_m;
        !self.lanes[ei][lane]
            .iter()
            .any(|s| (s.pos - pos).abs() < gap)
    }

    /// Car following, one pass per lane. Every vehicle is limited by its
    /// leader's *old* position (synchronous update), which the pass keeps
    /// in `lead_pos` because the lane is compacted in place as it goes.
    /// A follower ends where it was or `min_gap_m` short of its leader's
    /// old position, never past it, so the lane stays in lane order
    /// without re-sorting.
    fn move_vehicles(&mut self) {
        let dt = self.cfg.dt_s;
        let gap_min = self.cfg.min_gap_m;
        for (ei, edge_lanes) in self.lanes.iter_mut().enumerate() {
            let from = EdgeId(ei as u32);
            let edge = self.net.edge(from);
            let (edge_len, limit, head) = (edge.length_m, edge.speed_mps, edge.to);
            for lane in edge_lanes.iter_mut() {
                let mut lead_pos = f64::MAX;
                let mut kept = 0usize;
                for i in 0..lane.len() {
                    let slot = lane[i];
                    let desired = (slot.factor * limit).min(limit);
                    let v = if i == 0 {
                        desired
                    } else {
                        let gap = lead_pos - slot.pos - gap_min;
                        desired.min((gap / dt).max(0.0))
                    };
                    let new_pos = slot.pos + v * dt;
                    debug_assert!(new_pos.is_finite(), "non-finite position for {:?}", slot.id);
                    lead_pos = slot.pos;
                    // Crossers leave the lane into the head queue, in lane
                    // order; survivors write their new position through.
                    let veh = &mut self.vehicles[slot.id.index()];
                    if new_pos >= edge_len {
                        veh.state = VehState::Queued { node: head, from };
                        veh.speed_mps = 0.0;
                        self.queues[head.index()].push_back((slot.id, from));
                    } else {
                        veh.speed_mps = (new_pos - slot.pos) / dt;
                        if let VehState::OnEdge { pos_m, .. } = &mut veh.state {
                            *pos_m = new_pos;
                        }
                        lane[kept] = Slot {
                            pos: new_pos,
                            ..slot
                        };
                        kept += 1;
                    }
                }
                lane.truncate(kept);
            }
        }
    }

    /// Overtake detection without steady-state allocation: each edge's
    /// order is rebuilt into a reusable buffer and swapped with the cached
    /// previous order; previous-order vehicles are mapped to current ranks
    /// through an epoch-stamped table (no per-step `HashMap`), and an
    /// O(n log n) merge-based inversion count decides whether anything
    /// changed. Only on steps with inversions — rare by construction —
    /// are the inverted pairs enumerated, in the exact order of the
    /// historical all-pairs scan so the event stream is byte-identical.
    fn detect_overtakes(&mut self) {
        // Take the mutable pieces out so the simulator itself can be
        // reborrowed immutably by the scan.
        let mut prev = std::mem::take(&mut self.prev_order);
        let mut scratch = std::mem::take(&mut self.detect);
        let mut events = std::mem::take(&mut self.events);
        scratch.detect(self, &mut prev, &mut events);
        self.events = events;
        self.detect = scratch;
        self.prev_order = prev;
    }

    fn admissions(&mut self) {
        for ni in 0..self.queues.len() {
            let node = NodeId(ni as u32);
            let quota = match self.net.node(node).kind {
                NodeKind::Roundabout { .. } => self.cfg.admit_per_step_roundabout,
                NodeKind::Plain => self.cfg.admit_per_step,
            };
            let mut admitted = 0;
            while admitted < quota {
                let Some(&(vid, from_edge)) = self.queues[ni].front() else {
                    break;
                };
                match self.decide_route(vid, node, Some(from_edge)) {
                    RouteDecision::Exit => {
                        self.queues[ni].pop_front();
                        self.events.push(TrafficEvent::Entered {
                            vehicle: vid,
                            node,
                            from: Some(from_edge),
                        });
                        self.events
                            .push(TrafficEvent::Exited { vehicle: vid, node });
                        self.vehicles[vid.index()].state = VehState::Outside;
                    }
                    RouteDecision::Onto(edge, lane) => {
                        self.queues[ni].pop_front();
                        self.events.push(TrafficEvent::Entered {
                            vehicle: vid,
                            node,
                            from: Some(from_edge),
                        });
                        self.events.push(TrafficEvent::Departed {
                            vehicle: vid,
                            node,
                            onto: edge,
                        });
                        self.place_on_edge(vid, edge, lane);
                    }
                    RouteDecision::Blocked => break, // head-of-line waits; FIFO kept
                }
                admitted += 1;
            }
        }
    }

    fn place_on_edge(&mut self, vid: VehicleId, edge: EdgeId, lane: u8) {
        let veh = &mut self.vehicles[vid.index()];
        veh.state = VehState::OnEdge {
            edge,
            lane,
            pos_m: 0.0,
        };
        veh.speed_mps = 0.0;
        Slot {
            id: vid,
            pos: 0.0,
            factor: veh.speed_factor,
        }
        .insert_into(&mut self.lanes[edge.index()][lane as usize]);
    }

    fn decide_route(
        &mut self,
        vid: VehicleId,
        node: NodeId,
        from_edge: Option<EdgeId>,
    ) -> RouteDecision {
        // Patrol cars follow their loop and are always admitted (emergency
        // priority; overlaps at pos 0 resolve via car following).
        if let RoutePolicy::FixedLoop { .. } = self.vehicles[vid.index()].policy {
            let next_edge = {
                let RoutePolicy::FixedLoop { edges, next } = &mut self.vehicles[vid.index()].policy
                else {
                    unreachable!()
                };
                let e = edges[*next];
                *next = (*next + 1) % edges.len();
                e
            };
            debug_assert_eq!(self.net.edge(next_edge).from, node);
            return RouteDecision::Onto(next_edge, 0);
        }

        // Exit the open system?
        let interaction = self.net.interaction(node);
        if interaction.outbound && self.rng.gen_bool(self.cfg.exit_prob) {
            return RouteDecision::Exit;
        }

        // Random turn among outbound edges with entry space, avoiding an
        // immediate U-turn when possible — but occasionally (u_turn_prob) a
        // driver deliberately turns around and takes the twin directly (see
        // SimConfig docs).
        let twin_back = from_edge.and_then(|e| self.net.edge(e).twin);
        if let Some(back) = twin_back {
            if self.cfg.u_turn_prob > 0.0 && self.rng.gen_bool(self.cfg.u_turn_prob) {
                if let Some(lane) = self.entry_lane(back) {
                    return RouteDecision::Onto(back, lane);
                }
            }
        }
        let forbidden = twin_back;
        let out = self.net.out_edges(node);
        // Reused candidate buffer: route decisions happen for every
        // admission every step, so this must not allocate.
        let mut candidates = std::mem::take(&mut self.route_scratch);
        candidates.clear();
        candidates.extend(out.iter().copied().filter(|e| Some(*e) != forbidden));
        if candidates.is_empty() {
            candidates.extend_from_slice(out);
        }
        // Fisher-Yates shuffle for unbiased random preference order.
        for i in (1..candidates.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            candidates.swap(i, j);
        }
        let mut decision = RouteDecision::Blocked;
        for &e in &candidates {
            if let Some(lane) = self.entry_lane(e) {
                decision = RouteDecision::Onto(e, lane);
                break;
            }
        }
        self.route_scratch = candidates;
        decision
    }

    /// The entry lane with the most rear space, or `None` when every lane's
    /// rearmost vehicle is within the minimum gap of the stop line.
    fn entry_lane(&self, edge: EdgeId) -> Option<u8> {
        let mut best: Option<(f64, u8)> = None;
        for (li, lane) in self.lanes[edge.index()].iter().enumerate() {
            let rear_space = lane.last().map_or(f64::MAX, |s| s.pos);
            if rear_space >= self.cfg.min_gap_m {
                match best {
                    Some((s, _)) if s >= rear_space => {}
                    _ => best = Some((rear_space, li as u8)),
                }
            }
        }
        best.map(|(_, l)| l)
    }

    fn spawns(&mut self) {
        if self.cfg.spawn_rate_hz <= 0.0 {
            return;
        }
        let lambda = self.cfg.spawn_rate_hz * self.demand.volume_factor() * self.cfg.dt_s;
        if lambda <= 0.0 {
            return;
        }
        for ni in 0..self.net.node_count() {
            let node = NodeId(ni as u32);
            if !self.net.interaction(node).inbound {
                continue;
            }
            let k = poisson(&mut self.rng, lambda);
            for _ in 0..k {
                // Route first: a blocked border drops the arrival (the
                // outside world balks), so we never emit a phantom entry.
                let id = VehicleId(self.vehicles.len() as u64);
                let (lo, hi) = self.cfg.speed_factor_range;
                let factor = if hi > lo {
                    self.rng.gen_range(lo..hi)
                } else {
                    lo
                };
                let class = sample_class(&mut self.rng, self.demand.white_van_fraction);
                self.vehicles.push(Vehicle {
                    id,
                    class,
                    speed_factor: factor,
                    policy: RoutePolicy::RandomTurn,
                    state: VehState::Outside,
                    speed_mps: 0.0,
                });
                match self.decide_route(id, node, None) {
                    RouteDecision::Onto(edge, lane) => {
                        self.events.push(TrafficEvent::Entered {
                            vehicle: id,
                            node,
                            from: None,
                        });
                        self.events.push(TrafficEvent::Departed {
                            vehicle: id,
                            node,
                            onto: edge,
                        });
                        self.place_on_edge(id, edge, lane);
                    }
                    RouteDecision::Exit | RouteDecision::Blocked => {
                        // Balked arrival: vehicle never entered; keep the
                        // record as Outside so ids stay dense.
                    }
                }
            }
        }
    }
}

enum RouteDecision {
    Onto(EdgeId, u8),
    Exit,
    Blocked,
}

/// Knuth's Poisson sampler (fine for the small per-step rates used here).
fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> usize {
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // defensive cap; unreachable for sane lambda
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcount_roadnet::builders::{fig1_triangle, grid, manhattan, ManhattanConfig};

    fn sim_on_grid(seed: u64) -> Simulator {
        let net = grid(4, 4, 200.0, 2, 10.0);
        Simulator::new(
            net,
            SimConfig {
                seed,
                ..Default::default()
            },
            Demand::at_volume(50.0),
        )
    }

    #[test]
    fn population_matches_demand() {
        let net = grid(4, 4, 200.0, 2, 10.0);
        let lane_km: f64 = net
            .edges()
            .map(|e| e.length_m * e.lanes as f64 / 1000.0)
            .sum();
        let demand = Demand::at_volume(50.0);
        let expect = demand.initial_vehicles(lane_km);
        let sim = Simulator::new(net, SimConfig::default(), demand);
        assert_eq!(sim.civilian_population(), expect);
        assert!(expect > 0);
    }

    #[test]
    fn steps_are_deterministic_per_seed() {
        let run = |seed| {
            let mut sim = sim_on_grid(seed);
            let mut log = Vec::new();
            for _ in 0..200 {
                log.extend(sim.step().iter().copied());
            }
            log
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn snapshot_restore_replays_identical_events() {
        let net = grid(4, 4, 200.0, 2, 10.0);
        let cfg = SimConfig {
            seed: 21,
            detect_overtakes: true,
            spawn_rate_hz: 0.1,
            speed_factor_range: (0.5, 1.0),
            ..Default::default()
        };
        let mut full = Simulator::new(net.clone(), cfg.clone(), Demand::at_volume(60.0));
        let mut interrupted = Simulator::new(net.clone(), cfg.clone(), Demand::at_volume(60.0));
        for _ in 0..150 {
            full.step();
            interrupted.step();
        }
        let snap = interrupted.snapshot();
        // Round-trip through JSON like the engine snapshot does.
        let json = serde_json::to_string(&snap).unwrap();
        let snap: SimSnapshot = serde_json::from_str(&json).unwrap();
        let mut resumed =
            Simulator::restore(net, cfg, Demand::at_volume(60.0), &snap).expect("snapshot fits");
        for _ in 0..250 {
            let a = full.step().to_vec();
            let b = resumed.step().to_vec();
            assert_eq!(a, b, "resumed stream diverged at step {}", resumed.steps());
        }
    }

    #[test]
    fn closed_system_conserves_population() {
        let mut sim = sim_on_grid(2);
        let before = sim.civilian_population();
        for _ in 0..500 {
            sim.step();
        }
        assert_eq!(sim.civilian_population(), before);
    }

    #[test]
    fn vehicles_keep_moving_and_entering_intersections() {
        let mut sim = sim_on_grid(3);
        let mut entered = 0usize;
        for _ in 0..600 {
            entered += sim
                .step()
                .iter()
                .filter(|e| matches!(e, TrafficEvent::Entered { .. }))
                .count();
        }
        assert!(
            entered > sim.civilian_population(),
            "expected sustained intersection traffic, saw {entered} entries"
        );
    }

    #[test]
    fn entered_and_departed_pair_up_in_closed_system() {
        let mut sim = sim_on_grid(4);
        for _ in 0..300 {
            let events = sim.step();
            let entered = events
                .iter()
                .filter(|e| matches!(e, TrafficEvent::Entered { .. }))
                .count();
            let departed = events
                .iter()
                .filter(|e| matches!(e, TrafficEvent::Departed { .. }))
                .count();
            assert_eq!(entered, departed, "closed system: every entry departs");
        }
    }

    #[test]
    fn no_overtakes_in_simple_model() {
        let net = fig1_triangle(300.0, 1, 6.7);
        let mut sim = Simulator::new(
            net,
            SimConfig {
                detect_overtakes: true,
                ..SimConfig::simple_model(8)
            },
            Demand::at_volume(80.0),
        );
        for _ in 0..2000 {
            for ev in sim.step() {
                assert!(
                    !matches!(ev, TrafficEvent::Overtake { .. }),
                    "simple model must be FIFO"
                );
            }
        }
    }

    #[test]
    fn heterogeneous_speeds_produce_overtakes_on_multilane() {
        let net = grid(3, 3, 400.0, 3, 12.0);
        let mut sim = Simulator::new(
            net,
            SimConfig {
                detect_overtakes: true,
                speed_factor_range: (0.4, 1.0),
                seed: 11,
                ..Default::default()
            },
            Demand {
                volume_pct: 100.0,
                vehicles_per_lane_km: 18.0,
                white_van_fraction: 0.0,
            },
        );
        let mut overtakes = 0usize;
        for _ in 0..1500 {
            overtakes += sim
                .step()
                .iter()
                .filter(|e| matches!(e, TrafficEvent::Overtake { .. }))
                .count();
        }
        assert!(
            overtakes > 0,
            "multi-lane heterogeneous traffic must overtake"
        );
    }

    #[test]
    fn open_system_exchanges_vehicles_with_outside() {
        let net = manhattan(&ManhattanConfig::small());
        let mut sim = Simulator::new(
            net,
            SimConfig {
                seed: 13,
                spawn_rate_hz: 0.2,
                ..Default::default()
            },
            Demand::at_volume(60.0),
        );
        let mut spawned = 0usize;
        let mut exited = 0usize;
        for _ in 0..1200 {
            for ev in sim.step() {
                match ev {
                    TrafficEvent::Entered { from: None, .. } => spawned += 1,
                    TrafficEvent::Exited { .. } => exited += 1,
                    _ => {}
                }
            }
        }
        assert!(spawned > 0, "border must admit outside arrivals");
        assert!(exited > 0, "border must let vehicles leave");
    }

    #[test]
    fn patrol_car_follows_its_loop() {
        let net = grid(3, 3, 150.0, 1, 10.0);
        let cycle = vcount_roadnet::covering_cycle(&net, NodeId(0)).unwrap();
        let mut sim = Simulator::new(
            net,
            SimConfig {
                seed: 17,
                ..Default::default()
            },
            Demand::at_volume(0.0),
        );
        let pid = sim.add_patrol_car(cycle.edges.clone(), 0);
        // Drive long enough for a full lap; the patrol must visit every
        // node on the cycle.
        let mut visited = std::collections::BTreeSet::new();
        for _ in 0..5000 {
            for ev in sim.step() {
                if let TrafficEvent::Entered { vehicle, node, .. } = ev {
                    if *vehicle == pid {
                        visited.insert(*node);
                    }
                }
            }
        }
        assert_eq!(visited.len(), sim.net().node_count());
        assert!(sim.vehicle(pid).is_patrol());
    }

    #[test]
    fn in_transit_orders_queued_before_on_edge() {
        let net = grid(2, 2, 100.0, 1, 10.0);
        let e = net.edge_between(NodeId(0), NodeId(1)).unwrap();
        let mut sim = Simulator::new(
            net,
            SimConfig {
                seed: 19,
                admit_per_step: 1,
                ..SimConfig::simple_model(19)
            },
            Demand::at_volume(0.0),
        );
        let a = sim.add_vehicle_on_edge(e, 0, 95.0, VehicleClass::WHITE_VAN, 1.0);
        let b = sim.add_vehicle_on_edge(e, 0, 50.0, VehicleClass::WHITE_VAN, 1.0);
        let c = sim.add_vehicle_on_edge(e, 0, 5.0, VehicleClass::WHITE_VAN, 1.0);
        // a crosses into the queue and is admitted in the same step.
        let events = sim.step().to_vec();
        assert!(events
            .iter()
            .any(|ev| matches!(ev, TrafficEvent::Entered { vehicle, .. } if *vehicle == a)));
        let order = sim.in_transit(e);
        assert!(order.contains(&b) && order.contains(&c) && !order.contains(&a));
        let ib = order.iter().position(|v| *v == b).unwrap();
        let ic = order.iter().position(|v| *v == c).unwrap();
        assert!(ib < ic, "b is ahead of c on the segment");
    }

    #[test]
    fn followers_never_pass_leaders_within_a_lane() {
        let net = grid(2, 2, 500.0, 1, 15.0);
        let e = net.edge_between(NodeId(0), NodeId(1)).unwrap();
        let mut sim = Simulator::new(
            net,
            SimConfig {
                seed: 23,
                lane_change_prob: 0.0,
                speed_factor_range: (0.3, 1.0),
                ..Default::default()
            },
            Demand::at_volume(0.0),
        );
        // Slow leader, fast follower.
        let lead = sim.add_vehicle_on_edge(e, 0, 50.0, VehicleClass::WHITE_VAN, 0.3);
        let chase = sim.add_vehicle_on_edge(e, 0, 0.0, VehicleClass::WHITE_VAN, 1.0);
        for _ in 0..200 {
            sim.step();
            // Compare only while both are still on the original segment.
            let lp = match sim.vehicle(lead).state {
                VehState::OnEdge { edge, pos_m, .. } if edge == e => pos_m,
                _ => break,
            };
            let cp = match sim.vehicle(chase).state {
                VehState::OnEdge { edge, pos_m, .. } if edge == e => pos_m,
                _ => break,
            };
            assert!(cp < lp, "single-lane follower overtook its leader");
        }
    }

    /// Checks the slot layout against the vehicle table: every slot holds
    /// its vehicle's exact position and speed factor, the vehicle is on
    /// that edge and lane, each lane is strictly in lane order, and every
    /// on-edge vehicle sits in exactly one slot.
    fn assert_slots_mirror_vehicles(sim: &Simulator) {
        let step = sim.steps();
        let mut slots_of = vec![0u32; sim.vehicles.len()];
        for (ei, edge_lanes) in sim.lanes.iter().enumerate() {
            for (li, lane) in edge_lanes.iter().enumerate() {
                for (i, slot) in lane.iter().enumerate() {
                    let veh = &sim.vehicles[slot.id.index()];
                    let VehState::OnEdge {
                        edge,
                        lane: l,
                        pos_m,
                    } = veh.state
                    else {
                        panic!(
                            "step {step}: {:?} has a slot but is {:?}",
                            slot.id, veh.state
                        );
                    };
                    assert_eq!(
                        (edge.index(), usize::from(l)),
                        (ei, li),
                        "step {step}: {:?} sits in another lane's slots",
                        slot.id
                    );
                    assert_eq!(
                        (slot.pos.to_bits(), slot.factor.to_bits()),
                        (pos_m.to_bits(), veh.speed_factor.to_bits()),
                        "step {step}: slot of {:?} is stale",
                        slot.id
                    );
                    if i > 0 {
                        assert!(
                            lane[i - 1].lane_order(slot).is_lt(),
                            "step {step}: lane {li} of edge {ei} is out of order at {:?}",
                            slot.id
                        );
                    }
                    slots_of[slot.id.index()] += 1;
                }
            }
        }
        for (veh, &n) in sim.vehicles.iter().zip(&slots_of) {
            let on_edge = matches!(veh.state, VehState::OnEdge { .. });
            assert_eq!(
                n,
                u32::from(on_edge),
                "step {step}: {:?} has {n} slots",
                veh.id
            );
        }
    }

    #[test]
    fn lane_slots_mirror_the_vehicle_table() {
        let open_midtown = Simulator::new(
            manhattan(&ManhattanConfig::small()),
            SimConfig {
                seed: 29,
                ..Default::default()
            },
            Demand::at_volume(60.0),
        );
        let overtaking_grid = Simulator::new(
            grid(5, 5, 150.0, 3, 10.0),
            SimConfig {
                detect_overtakes: true,
                speed_factor_range: (0.5, 1.0),
                seed: 77,
                ..Default::default()
            },
            Demand::at_volume(100.0),
        );
        for mut sim in [open_midtown, overtaking_grid] {
            assert_slots_mirror_vehicles(&sim);
            let mut lane_changes = 0usize;
            for _ in 0..1500 {
                let before: Vec<_> = sim.vehicles.iter().map(|v| v.state).collect();
                sim.step();
                lane_changes += before
                    .iter()
                    .zip(&sim.vehicles)
                    .filter(|(was, veh)| {
                        matches!((was, veh.state), (
                            VehState::OnEdge { edge: e0, lane: l0, .. },
                            VehState::OnEdge { edge: e1, lane: l1, .. },
                        ) if *e0 == e1 && *l0 != l1)
                    })
                    .count();
                assert_slots_mirror_vehicles(&sim);
            }
            assert!(lane_changes > 0, "no lane change happened; test is vacuous");
        }
    }

    #[test]
    fn poisson_mean_is_lambda() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let lambda = 2.5;
        let n = 50_000;
        let total: usize = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - lambda).abs() < 0.05, "poisson mean {mean}");
    }

    #[test]
    fn zero_volume_spawns_nothing_initially() {
        let sim = sim_with_volume(0.0);
        assert_eq!(sim.civilian_population(), 0);
    }

    fn sim_with_volume(v: f64) -> Simulator {
        let net = grid(3, 3, 100.0, 1, 10.0);
        Simulator::new(net, SimConfig::default(), Demand::at_volume(v))
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;
    use vcount_roadnet::builders::grid;
    use vcount_roadnet::{NodeKind, Point};

    /// A tiny cross with a roundabout in the middle.
    fn roundabout_cross() -> RoadNetwork {
        let mut net = RoadNetwork::new();
        let c = net.add_node_kind(
            Point::new(0.0, 0.0),
            NodeKind::Roundabout { radius_m: 20.0 },
        );
        let arms = [
            net.add_node(Point::new(150.0, 0.0)),
            net.add_node(Point::new(-150.0, 0.0)),
            net.add_node(Point::new(0.0, 150.0)),
            net.add_node(Point::new(0.0, -150.0)),
        ];
        for a in arms {
            net.add_two_way(c, a, 1, 9.0);
        }
        net
    }

    #[test]
    fn roundabout_admits_more_vehicles_per_step() {
        let cfg = SimConfig {
            admit_per_step: 1,
            admit_per_step_roundabout: 4,
            seed: 3,
            ..Default::default()
        };
        let mut sim = Simulator::new(roundabout_cross(), cfg, Demand::at_volume(0.0));
        // Queue four vehicles at the roundabout simultaneously.
        let centre = NodeId(0);
        for (i, arm) in [1u32, 2, 3, 4].into_iter().enumerate() {
            let e = sim.net().edge_between(NodeId(arm), centre).unwrap();
            let len = sim.net().edge(e).length_m;
            sim.add_vehicle_on_edge(e, 0, len - 1.0, VehicleClass::WHITE_VAN, 1.0);
            let _ = i;
        }
        let events = sim.step().to_vec();
        let admitted = events
            .iter()
            .filter(|ev| matches!(ev, TrafficEvent::Entered { node, .. } if *node == centre))
            .count();
        assert_eq!(admitted, 4, "roundabout handles simultaneous entries");
    }

    #[test]
    fn plain_intersection_respects_admission_quota() {
        let net = grid(2, 2, 100.0, 1, 9.0);
        // Give node 3 (two inbound edges) four queued vehicles.
        let cfg = SimConfig {
            admit_per_step: 1,
            lane_change_prob: 0.0,
            seed: 5,
            ..Default::default()
        };
        let mut sim = Simulator::new(net, cfg, Demand::at_volume(0.0));
        let n3 = NodeId(3);
        for from in [NodeId(1), NodeId(2)] {
            let e = sim.net().edge_between(from, n3).unwrap();
            let len = sim.net().edge(e).length_m;
            sim.add_vehicle_on_edge(e, 0, len - 1.0, VehicleClass::WHITE_VAN, 1.0);
            sim.add_vehicle_on_edge(e, 0, len - 9.0, VehicleClass::WHITE_VAN, 1.0);
        }
        let admitted: usize = (0..2)
            .map(|_| {
                sim.step()
                    .iter()
                    .filter(|ev| matches!(ev, TrafficEvent::Entered { node, .. } if *node == n3))
                    .count()
            })
            .sum();
        assert!(
            admitted <= 2,
            "one admission per step allowed, got {admitted} over 2 steps"
        );
    }
}
