//! Routing over the road network: [`shortest_path`], Dijkstra by free-flow
//! travel time, used by patrol cycle construction and trip-based demand,
//! and the travel-time tables built on it.

use crate::graph::{EdgeId, NodeId, RoadNetwork};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A travel-time-ordered heap entry (min-heap via reversed ordering).
#[derive(Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; costs are finite non-NaN by construction.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A directed path: consecutive edges where each edge's head is the next
/// edge's tail.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Path {
    /// Edges in driving order. Empty for a zero-length path.
    pub edges: Vec<EdgeId>,
}

impl Path {
    /// Total free-flow travel time in seconds.
    pub fn travel_time_s(&self, net: &RoadNetwork) -> f64 {
        self.edges
            .iter()
            .map(|e| net.edge(*e).travel_time_s())
            .sum()
    }

    /// Total driving length in metres.
    pub fn length_m(&self, net: &RoadNetwork) -> f64 {
        self.edges.iter().map(|e| net.edge(*e).length_m).sum()
    }

    /// Node sequence of the path starting at `origin` (needed because an
    /// empty path carries no endpoint information).
    pub fn node_sequence(&self, net: &RoadNetwork, origin: NodeId) -> Vec<NodeId> {
        let mut seq = Vec::with_capacity(self.edges.len() + 1);
        seq.push(origin);
        for e in &self.edges {
            debug_assert_eq!(net.edge(*e).from, *seq.last().unwrap());
            seq.push(net.edge(*e).to);
        }
        seq
    }
}

/// Dijkstra by free-flow travel time from `from` to `to`. Returns `None`
/// when `to` is unreachable. `from == to` yields an empty path.
pub fn shortest_path(net: &RoadNetwork, from: NodeId, to: NodeId) -> Option<Path> {
    let (dist, prev) = dijkstra(net, from, Some(to));
    if from == to {
        return Some(Path::default());
    }
    if dist[to.index()].is_infinite() {
        return None;
    }
    let mut edges = Vec::new();
    let mut cur = to;
    while cur != from {
        let e = prev[cur.index()].expect("finite distance implies a predecessor");
        edges.push(e);
        cur = net.edge(e).from;
    }
    edges.reverse();
    Some(Path { edges })
}

/// Single-source travel times to every node. Unreachable nodes get
/// `f64::INFINITY`.
pub fn travel_times_from(net: &RoadNetwork, from: NodeId) -> Vec<f64> {
    dijkstra(net, from, None).0
}

/// The network's travel-time diameter estimated over a node sample: the
/// maximum over sampled sources of the maximum finite shortest-path time.
/// The paper's observation 5 says counting time tracks this diameter.
pub fn travel_time_diameter(net: &RoadNetwork, sample_every: usize) -> f64 {
    let step = sample_every.max(1);
    let mut diameter: f64 = 0.0;
    for (i, u) in net.node_ids().enumerate() {
        if i % step != 0 {
            continue;
        }
        let times = travel_times_from(net, u);
        for t in times {
            if t.is_finite() {
                diameter = diameter.max(t);
            }
        }
    }
    diameter
}

fn dijkstra(
    net: &RoadNetwork,
    from: NodeId,
    stop_at: Option<NodeId>,
) -> (Vec<f64>, Vec<Option<EdgeId>>) {
    let n = net.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<EdgeId>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[from.index()] = 0.0;
    heap.push(HeapEntry {
        cost: 0.0,
        node: from,
    });
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if done[node.index()] {
            continue;
        }
        done[node.index()] = true;
        if stop_at == Some(node) {
            break;
        }
        for &e in net.out_edges(node) {
            let edge = net.edge(e);
            let next = cost + edge.travel_time_s();
            if next < dist[edge.to.index()] {
                dist[edge.to.index()] = next;
                prev[edge.to.index()] = Some(e);
                heap.push(HeapEntry {
                    cost: next,
                    node: edge.to,
                });
            }
        }
    }
    (dist, prev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::grid;
    use crate::geometry::Point;

    fn small_grid() -> RoadNetwork {
        grid(4, 4, 100.0, 1, 10.0)
    }

    #[test]
    fn shortest_path_on_grid_has_manhattan_time() {
        let net = small_grid();
        // Corner (0,0) -> corner (3,3): 6 edges of 10 s each.
        let from = NodeId(0);
        let to = NodeId(15);
        let p = shortest_path(&net, from, to).unwrap();
        assert_eq!(p.edges.len(), 6);
        assert!((p.travel_time_s(&net) - 60.0).abs() < 1e-9);
        assert!((p.length_m(&net) - 600.0).abs() < 1e-9);
    }

    #[test]
    fn path_node_sequence_is_contiguous() {
        let net = small_grid();
        let p = shortest_path(&net, NodeId(0), NodeId(15)).unwrap();
        let seq = p.node_sequence(&net, NodeId(0));
        assert_eq!(seq.first(), Some(&NodeId(0)));
        assert_eq!(seq.last(), Some(&NodeId(15)));
        for (i, w) in p.edges.iter().enumerate() {
            assert_eq!(net.edge(*w).from, seq[i]);
            assert_eq!(net.edge(*w).to, seq[i + 1]);
        }
    }

    #[test]
    fn trivial_path_is_empty() {
        let net = small_grid();
        let p = shortest_path(&net, NodeId(5), NodeId(5)).unwrap();
        assert!(p.edges.is_empty());
        assert_eq!(p.travel_time_s(&net), 0.0);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(10.0, 0.0));
        net.add_one_way(a, b, 1, 5.0);
        assert!(shortest_path(&net, b, a).is_none());
        let times = travel_times_from(&net, b);
        assert!(times[a.index()].is_infinite());
    }

    #[test]
    fn travel_times_match_shortest_paths() {
        let net = small_grid();
        let times = travel_times_from(&net, NodeId(0));
        for target in net.node_ids() {
            let p = shortest_path(&net, NodeId(0), target).unwrap();
            assert!((times[target.index()] - p.travel_time_s(&net)).abs() < 1e-9);
        }
    }

    #[test]
    fn diameter_of_grid() {
        let net = small_grid();
        let d = travel_time_diameter(&net, 1);
        assert!((d - 60.0).abs() < 1e-9);
    }
}
