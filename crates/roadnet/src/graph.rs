//! The road network: a directed multigraph of intersections and road
//! segments, mirroring the paper's notation.
//!
//! * An intersection (checkpoint site) `u` is a [`Node`].
//! * A road segment `{u, v}` is one [`Edge`] per driving direction; a
//!   bidirectional segment is a pair of *twin* edges, a one-way street is an
//!   edge without a twin (Section IV-B, "Extension for counting along
//!   one-way streets").
//! * `no(u)` / `ni(u)` — the outbound / inbound neighbour sets of Table I —
//!   are [`RoadNetwork::outbound_neighbors`] and
//!   [`RoadNetwork::inbound_neighbors`].
//! * Open-system *interaction* flows (Definition 2) are per-node
//!   [`Interaction`] flags marking where traffic crosses the region border.

use crate::geometry::{Bounds, Point};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an intersection (checkpoint site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index into dense per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of one *directed* driving direction of a road segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge's index into dense per-edge arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Intersection kind. Roundabouts are surveilled as a single multi-target
/// checkpoint (Section IV-B, "Extension to multi-target tracking").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum NodeKind {
    /// Ordinary signalised or uncontrolled intersection.
    #[default]
    Plain,
    /// A roundabout; `radius_m` only affects traversal time.
    Roundabout {
        /// Roundabout radius in metres.
        radius_m: f64,
    },
}

/// An intersection of the road network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Stable identifier (also the dense index).
    pub id: NodeId,
    /// Location in the local plane.
    pub pos: Point,
    /// Intersection kind.
    pub kind: NodeKind,
}

/// One driving direction of a road segment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Stable identifier (also the dense index).
    pub id: EdgeId,
    /// Tail intersection (traffic flows `from -> to`).
    pub from: NodeId,
    /// Head intersection.
    pub to: NodeId,
    /// Driving length in metres.
    pub length_m: f64,
    /// Number of lanes in this direction (≥ 1). More than one lane permits
    /// overtaking in the extended road model.
    pub lanes: u8,
    /// Speed limit in metres per second.
    pub speed_mps: f64,
    /// The opposite driving direction of the same physical segment, if the
    /// segment is bidirectional. `None` marks a one-way street.
    pub twin: Option<EdgeId>,
}

impl Edge {
    /// Free-flow traversal time in seconds.
    pub fn travel_time_s(&self) -> f64 {
        self.length_m / self.speed_mps
    }

    /// Whether this direction belongs to a one-way street.
    pub fn is_one_way(&self) -> bool {
        self.twin.is_none()
    }
}

/// Border interaction flags of a node (Definition 2): which exogenous flows
/// cross the region border at this intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Interaction {
    /// Vehicles may enter the region from outside at this node.
    pub inbound: bool,
    /// Vehicles may leave the region to the outside at this node.
    pub outbound: bool,
}

impl Interaction {
    /// True when either flow direction crosses the border here.
    pub fn any(&self) -> bool {
        self.inbound || self.outbound
    }
}

/// Errors surfaced by [`RoadNetwork::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// The network has no intersections.
    Empty,
    /// An edge refers to a node id outside the network.
    DanglingEdge(EdgeId),
    /// An edge has a non-positive length or speed.
    BadEdgeMetric(EdgeId),
    /// A twin pair is inconsistent (wrong endpoints or non-mutual).
    BadTwin(EdgeId),
    /// An edge is a self loop, which the road model forbids.
    SelfLoop(EdgeId),
    /// The network is not strongly connected, so neither the counting wave
    /// nor a covering patrol cycle (Theorem 4) can reach every checkpoint.
    NotStronglyConnected {
        /// Number of strongly connected components found.
        components: usize,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Empty => write!(f, "road network has no intersections"),
            NetError::DanglingEdge(e) => write!(f, "edge {e} references a missing node"),
            NetError::BadEdgeMetric(e) => {
                write!(f, "edge {e} has non-positive length or speed")
            }
            NetError::BadTwin(e) => write!(f, "edge {e} has an inconsistent twin"),
            NetError::SelfLoop(e) => write!(f, "edge {e} is a self loop"),
            NetError::NotStronglyConnected { components } => write!(
                f,
                "road network is not strongly connected ({components} components)"
            ),
        }
    }
}

impl std::error::Error for NetError {}

/// A directed road network of intersections and segment directions.
///
/// Node and edge ids are dense indices, so per-node and per-edge protocol
/// state downstream lives in plain `Vec`s.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RoadNetwork {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    out: Vec<Vec<EdgeId>>,
    inc: Vec<Vec<EdgeId>>,
    interactions: Vec<Interaction>,
}

impl RoadNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a plain intersection at `pos`.
    pub fn add_node(&mut self, pos: Point) -> NodeId {
        self.add_node_kind(pos, NodeKind::Plain)
    }

    /// Adds an intersection of the given kind at `pos`.
    pub fn add_node_kind(&mut self, pos: Point, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { id, pos, kind });
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        self.interactions.push(Interaction::default());
        id
    }

    /// Adds a one-way segment direction `from -> to` with geometric length.
    pub fn add_one_way(&mut self, from: NodeId, to: NodeId, lanes: u8, speed_mps: f64) -> EdgeId {
        let length = self.nodes[from.index()]
            .pos
            .distance(&self.nodes[to.index()].pos);
        self.add_one_way_with_length(from, to, length, lanes, speed_mps)
    }

    /// Adds a one-way segment direction with an explicit driving length
    /// (e.g. a curved street longer than the crow-fly distance).
    pub fn add_one_way_with_length(
        &mut self,
        from: NodeId,
        to: NodeId,
        length_m: f64,
        lanes: u8,
        speed_mps: f64,
    ) -> EdgeId {
        assert!(from != to, "self loops are not valid road segments");
        assert!(lanes >= 1, "a driving direction needs at least one lane");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            id,
            from,
            to,
            length_m,
            lanes,
            speed_mps,
            twin: None,
        });
        self.out[from.index()].push(id);
        self.inc[to.index()].push(id);
        id
    }

    /// Adds both directions of a bidirectional segment and links them as
    /// twins. Returns `(a_to_b, b_to_a)`.
    pub fn add_two_way(
        &mut self,
        a: NodeId,
        b: NodeId,
        lanes: u8,
        speed_mps: f64,
    ) -> (EdgeId, EdgeId) {
        let ab = self.add_one_way(a, b, lanes, speed_mps);
        let ba = self.add_one_way(b, a, lanes, speed_mps);
        self.edges[ab.index()].twin = Some(ba);
        self.edges[ba.index()].twin = Some(ab);
        (ab, ba)
    }

    /// Upgrades a one-way edge to a bidirectional segment by adding the
    /// reverse direction; no-op when a twin already exists. Returns the
    /// reverse edge. (Used by the strong-connectivity repair pass, and
    /// mirroring the real-world "return of the two-way street" the paper
    /// cites as ref \[10\].)
    pub fn twin_edge(&mut self, e: EdgeId) -> EdgeId {
        if let Some(t) = self.edges[e.index()].twin {
            return t;
        }
        let (from, to, length, lanes, speed) = {
            let ed = &self.edges[e.index()];
            (ed.from, ed.to, ed.length_m, ed.lanes, ed.speed_mps)
        };
        let rev = self.add_one_way_with_length(to, from, length, lanes, speed);
        self.edges[e.index()].twin = Some(rev);
        self.edges[rev.index()].twin = Some(e);
        rev
    }

    /// Re-tags an intersection's kind (e.g. marking a roundabout after grid
    /// construction).
    pub fn set_node_kind(&mut self, node: NodeId, kind: NodeKind) {
        self.nodes[node.index()].kind = kind;
    }

    /// Number of intersections.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed segment directions.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All intersections.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All directed edges.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    /// All edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Looks up an intersection.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Looks up a directed edge.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Directed edges leaving `u` (the outbound traffic directions `u -> v`).
    pub fn out_edges(&self, u: NodeId) -> &[EdgeId] {
        &self.out[u.index()]
    }

    /// Directed edges entering `u` (the inbound traffic directions `u <- v`).
    pub fn in_edges(&self, u: NodeId) -> &[EdgeId] {
        &self.inc[u.index()]
    }

    /// `no(u)`: adjacent intersections reachable via outbound traffic.
    pub fn outbound_neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out[u.index()].iter().map(|e| self.edges[e.index()].to)
    }

    /// `ni(u)`: adjacent intersections at the far end of each inbound flow.
    pub fn inbound_neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.inc[u.index()]
            .iter()
            .map(|e| self.edges[e.index()].from)
    }

    /// The directed edge `from -> to`, if one exists. With at most one edge
    /// per ordered node pair (all builders guarantee this) the result is
    /// unique.
    pub fn edge_between(&self, from: NodeId, to: NodeId) -> Option<EdgeId> {
        self.out[from.index()]
            .iter()
            .copied()
            .find(|e| self.edges[e.index()].to == to)
    }

    /// Marks the border interaction flows at `node` (open road systems).
    pub fn set_interaction(&mut self, node: NodeId, interaction: Interaction) {
        self.interactions[node.index()] = interaction;
    }

    /// The border interaction flags of `node`.
    pub fn interaction(&self, node: NodeId) -> Interaction {
        self.interactions[node.index()]
    }

    /// Whether any node has border interaction, i.e. the system is *open*.
    pub fn is_open(&self) -> bool {
        self.interactions.iter().any(Interaction::any)
    }

    /// All border intersections (Definition 2).
    pub fn border_nodes(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|n| self.interactions[n.index()].any())
            .collect()
    }

    /// Closes the border by removing all interaction flows, turning an open
    /// system into the closed system used in the first half of the paper's
    /// evaluation ("we first close the traffic lanes along the border").
    pub fn close_border(&mut self) {
        for i in &mut self.interactions {
            *i = Interaction::default();
        }
    }

    /// Bounding box of the intersections, or `None` for an empty network.
    pub fn bounds(&self) -> Option<Bounds> {
        Bounds::of(self.nodes.iter().map(|n| n.pos))
    }

    /// Fraction of directed edges that belong to one-way streets.
    pub fn one_way_fraction(&self) -> f64 {
        if self.edges.is_empty() {
            return 0.0;
        }
        let ones = self.edges.iter().filter(|e| e.is_one_way()).count();
        ones as f64 / self.edges.len() as f64
    }

    /// Structural validation: endpoint sanity, metric sanity, twin
    /// consistency, no self loops, and strong connectivity (required by the
    /// counting wave and by Theorem 4's patrol cycle).
    pub fn validate(&self) -> Result<(), NetError> {
        if self.nodes.is_empty() {
            return Err(NetError::Empty);
        }
        for e in &self.edges {
            if e.from.index() >= self.nodes.len() || e.to.index() >= self.nodes.len() {
                return Err(NetError::DanglingEdge(e.id));
            }
            if e.from == e.to {
                return Err(NetError::SelfLoop(e.id));
            }
            if e.length_m.is_nan()
                || e.length_m <= 0.0
                || e.speed_mps.is_nan()
                || e.speed_mps <= 0.0
            {
                return Err(NetError::BadEdgeMetric(e.id));
            }
            if let Some(t) = e.twin {
                let tw = self.edges.get(t.index()).ok_or(NetError::BadTwin(e.id))?;
                if tw.twin != Some(e.id) || tw.from != e.to || tw.to != e.from {
                    return Err(NetError::BadTwin(e.id));
                }
            }
        }
        let comps = crate::connectivity::strongly_connected_components(self);
        if comps.len() != 1 {
            return Err(NetError::NotStronglyConnected {
                components: comps.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (RoadNetwork, [NodeId; 3]) {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(100.0, 0.0));
        let c = net.add_node(Point::new(50.0, 80.0));
        net.add_two_way(a, b, 1, 6.7);
        net.add_two_way(b, c, 1, 6.7);
        net.add_two_way(c, a, 1, 6.7);
        (net, [a, b, c])
    }

    #[test]
    fn two_way_creates_consistent_twins() {
        let (net, [a, b, _]) = triangle();
        let ab = net.edge_between(a, b).unwrap();
        let ba = net.edge_between(b, a).unwrap();
        assert_eq!(net.edge(ab).twin, Some(ba));
        assert_eq!(net.edge(ba).twin, Some(ab));
        assert!(!net.edge(ab).is_one_way());
    }

    #[test]
    fn neighbors_match_paper_notation() {
        let (net, [a, b, c]) = triangle();
        let mut no: Vec<_> = net.outbound_neighbors(a).collect();
        no.sort();
        let mut ni: Vec<_> = net.inbound_neighbors(a).collect();
        ni.sort();
        assert_eq!(no, vec![b, c]);
        // Bidirectional roads: no(u) == ni(u) (Section III-A).
        assert_eq!(no, ni);
    }

    #[test]
    fn one_way_breaks_symmetry() {
        let mut net = RoadNetwork::new();
        let u = net.add_node(Point::new(0.0, 0.0));
        let v = net.add_node(Point::new(10.0, 0.0));
        net.add_one_way(u, v, 1, 5.0);
        assert_eq!(net.outbound_neighbors(u).count(), 1);
        assert_eq!(net.inbound_neighbors(u).count(), 0);
        assert!(net.edge(EdgeId(0)).is_one_way());
    }

    #[test]
    fn edge_lengths_follow_geometry() {
        let (net, [a, b, _]) = triangle();
        let ab = net.edge_between(a, b).unwrap();
        assert!((net.edge(ab).length_m - 100.0).abs() < 1e-9);
        assert!((net.edge(ab).travel_time_s() - 100.0 / 6.7).abs() < 1e-9);
    }

    #[test]
    fn validate_accepts_triangle() {
        let (net, _) = triangle();
        net.validate().unwrap();
    }

    #[test]
    fn validate_rejects_empty() {
        assert_eq!(RoadNetwork::new().validate(), Err(NetError::Empty));
    }

    #[test]
    fn validate_rejects_disconnected() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(10.0, 0.0));
        net.add_node(Point::new(99.0, 99.0)); // isolated
        net.add_two_way(a, b, 1, 5.0);
        assert!(matches!(
            net.validate(),
            Err(NetError::NotStronglyConnected { .. })
        ));
    }

    #[test]
    fn validate_rejects_one_way_pair_without_return() {
        // u -> v only: v cannot reach u.
        let mut net = RoadNetwork::new();
        let u = net.add_node(Point::new(0.0, 0.0));
        let v = net.add_node(Point::new(10.0, 0.0));
        net.add_one_way(u, v, 1, 5.0);
        assert!(matches!(
            net.validate(),
            Err(NetError::NotStronglyConnected { components: 2 })
        ));
    }

    #[test]
    fn twin_edge_is_idempotent() {
        let mut net = RoadNetwork::new();
        let u = net.add_node(Point::new(0.0, 0.0));
        let v = net.add_node(Point::new(10.0, 0.0));
        let e = net.add_one_way(u, v, 2, 5.0);
        let r1 = net.twin_edge(e);
        let r2 = net.twin_edge(e);
        assert_eq!(r1, r2);
        assert_eq!(net.edge_count(), 2);
        assert_eq!(net.edge(r1).lanes, 2);
        net.validate().unwrap();
    }

    #[test]
    fn interactions_default_closed() {
        let (mut net, [a, _, _]) = triangle();
        assert!(!net.is_open());
        net.set_interaction(
            a,
            Interaction {
                inbound: true,
                outbound: true,
            },
        );
        assert!(net.is_open());
        assert_eq!(net.border_nodes(), vec![a]);
        net.close_border();
        assert!(!net.is_open());
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loop_panics() {
        let mut net = RoadNetwork::new();
        let u = net.add_node(Point::new(0.0, 0.0));
        net.add_one_way(u, u, 1, 5.0);
    }

    #[test]
    fn one_way_fraction_counts_directions() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(10.0, 0.0));
        let c = net.add_node(Point::new(20.0, 0.0));
        net.add_two_way(a, b, 1, 5.0);
        net.add_one_way(b, c, 1, 5.0);
        net.add_one_way(c, a, 1, 5.0);
        assert!((net.one_way_fraction() - 0.5).abs() < 1e-12);
    }
}
