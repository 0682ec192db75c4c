//! Covering patrol cycles (Theorem 4).
//!
//! For the odd-traffic-pattern extension, the paper resorts to police patrol
//! cars driving a fixed closed walk that visits every checkpoint at least
//! once; each patrol car relays checkpoint statuses so that every inbound
//! counter eventually receives its stop condition (Theorem 3). Theorem 4
//! shows such a cycle exists in any (strongly) connected closed road system,
//! though not necessarily a Hamiltonian one — checkpoints may be visited
//! multiple times.
//!
//! Construction here: visit nodes in DFS preorder and stitch consecutive
//! visits (and the return to the start) with shortest paths. The result is a
//! closed directed walk covering all nodes with length at most
//! `n * diameter`.

use crate::graph::{EdgeId, NodeId, RoadNetwork};
use crate::routing::shortest_path;

/// A closed directed walk that visits every intersection at least once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatrolCycle {
    /// Starting (and ending) intersection.
    pub start: NodeId,
    /// Edges of the closed walk in driving order.
    pub edges: Vec<EdgeId>,
}

impl PatrolCycle {
    /// Total driving length of one lap, metres.
    pub fn length_m(&self, net: &RoadNetwork) -> f64 {
        self.edges.iter().map(|e| net.edge(*e).length_m).sum()
    }

    /// Node visit sequence (length = edges + 1; first == last == start).
    pub fn node_sequence(&self, net: &RoadNetwork) -> Vec<NodeId> {
        let mut seq = Vec::with_capacity(self.edges.len() + 1);
        seq.push(self.start);
        for e in &self.edges {
            seq.push(net.edge(*e).to);
        }
        seq
    }

    /// Checks the covering-cycle invariants: contiguity, closure, and full
    /// node coverage. Used by tests and by debug assertions downstream.
    pub fn verify(&self, net: &RoadNetwork) -> Result<(), String> {
        let mut at = self.start;
        let mut covered = vec![false; net.node_count()];
        covered[self.start.index()] = true;
        for e in &self.edges {
            let edge = net.edge(*e);
            if edge.from != at {
                return Err(format!("edge {e} does not start at {at}"));
            }
            at = edge.to;
            covered[at.index()] = true;
        }
        if at != self.start {
            return Err(format!("walk ends at {at}, not at start {}", self.start));
        }
        if let Some(missing) = covered.iter().position(|c| !c) {
            return Err(format!("node n{missing} is never visited"));
        }
        Ok(())
    }

    /// Evenly spaced starting offsets (in edge index) for `k` patrol cars
    /// sharing the cycle ("every police car will evenly be distributed").
    ///
    /// With more cars than edges (`k > edges.len()`) the offsets wrap
    /// around the cycle round-robin, so the per-offset load differs by at
    /// most one car; the naive `i * len / k` would stack several cars at
    /// offset 0 (and other duplicates) while leaving positions empty.
    pub fn even_offsets(&self, k: usize) -> Vec<usize> {
        if self.edges.is_empty() || k == 0 {
            return vec![0; k];
        }
        let len = self.edges.len();
        if k <= len {
            (0..k).map(|i| i * len / k).collect()
        } else {
            (0..k).map(|i| i % len).collect()
        }
    }
}

/// Builds a covering patrol cycle starting at `start`. Returns `None` when
/// the network is not strongly connected (Theorem 4's precondition fails).
pub fn covering_cycle(net: &RoadNetwork, start: NodeId) -> Option<PatrolCycle> {
    if net.node_count() == 0 {
        return None;
    }
    // DFS preorder over the directed graph.
    let mut order = Vec::with_capacity(net.node_count());
    let mut seen = vec![false; net.node_count()];
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        if seen[v.index()] {
            continue;
        }
        seen[v.index()] = true;
        order.push(v);
        for &e in net.out_edges(v) {
            let w = net.edge(e).to;
            if !seen[w.index()] {
                stack.push(w);
            }
        }
    }
    if order.len() != net.node_count() {
        return None; // not all nodes reachable from start
    }

    let mut edges = Vec::new();
    for w in order.windows(2) {
        let p = shortest_path(net, w[0], w[1])?;
        edges.extend(p.edges);
    }
    let back = shortest_path(net, *order.last().unwrap(), start)?;
    edges.extend(back.edges);

    // Degenerate single-node "network" cannot form a closed walk with edges;
    // callers treat an empty cycle as "already everywhere".
    let cycle = PatrolCycle { start, edges };
    debug_assert!(cycle.verify(net).is_ok());
    Some(cycle)
}

/// Builds a closed walk covering every *directed edge* at least once
/// (a relaxed Chinese-postman tour). Patrol cars driving this cycle act as
/// label carriers on every direction, so even an "orphan" direction that no
/// civilian vehicle ever uses (the deadlock of Section IV-B) receives its
/// stop signal. Returns `None` when the network is not strongly connected.
///
/// Greedy construction: from the current node, take an unvisited outbound
/// edge when one exists, otherwise drive the shortest path to the nearest
/// node that still has one; finally return to the start.
pub fn edge_covering_cycle(net: &RoadNetwork, start: NodeId) -> Option<PatrolCycle> {
    if net.node_count() == 0 || !crate::connectivity::is_strongly_connected(net) {
        return None;
    }
    let mut visited = vec![false; net.edge_count()];
    let mut remaining = net.edge_count();
    let mut edges = Vec::with_capacity(net.edge_count() * 2);
    let mut at = start;
    while remaining > 0 {
        if let Some(&e) = net.out_edges(at).iter().find(|e| !visited[e.index()]) {
            visited[e.index()] = true;
            remaining -= 1;
            edges.push(e);
            at = net.edge(e).to;
            continue;
        }
        // Drive toward the nearest node with an unvisited outbound edge.
        let times = crate::routing::travel_times_from(net, at);
        let target = net
            .node_ids()
            .filter(|n| net.out_edges(*n).iter().any(|e| !visited[e.index()]))
            .min_by(|a, b| times[a.index()].partial_cmp(&times[b.index()]).unwrap())?;
        let p = shortest_path(net, at, target)?;
        for e in &p.edges {
            if !visited[e.index()] {
                visited[e.index()] = true;
                remaining -= 1;
            }
        }
        at = target;
        edges.extend(p.edges);
    }
    let back = shortest_path(net, at, start)?;
    edges.extend(back.edges);
    let cycle = PatrolCycle { start, edges };
    debug_assert!(cycle.verify(net).is_ok());
    Some(cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{directed_ring, grid, random_city, RandomCityConfig};

    #[test]
    fn grid_cycle_covers_everything() {
        let net = grid(5, 4, 100.0, 1, 5.0);
        let cycle = covering_cycle(&net, NodeId(0)).unwrap();
        cycle.verify(&net).unwrap();
    }

    #[test]
    fn directed_ring_cycle_is_hamiltonian() {
        let net = directed_ring(7, 100.0, 1, 5.0);
        let cycle = covering_cycle(&net, NodeId(0)).unwrap();
        cycle.verify(&net).unwrap();
        // On a one-way ring the only closed covering walk is laps of the
        // ring itself; DFS+stitching finds exactly one lap.
        assert_eq!(cycle.edges.len(), 7);
    }

    #[test]
    fn cycle_from_any_start() {
        let net = grid(4, 4, 100.0, 1, 5.0);
        for s in net.node_ids() {
            let cycle = covering_cycle(&net, s).unwrap();
            cycle.verify(&net).unwrap();
            assert_eq!(cycle.start, s);
        }
    }

    #[test]
    fn not_strongly_connected_returns_none() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(crate::geometry::Point::new(0.0, 0.0));
        let b = net.add_node(crate::geometry::Point::new(10.0, 0.0));
        net.add_one_way(a, b, 1, 5.0);
        assert!(covering_cycle(&net, a).is_none());
    }

    #[test]
    fn random_cities_always_admit_cycles() {
        for seed in 0..10 {
            let net = random_city(&RandomCityConfig {
                seed,
                nodes: 30,
                ..Default::default()
            });
            let cycle = covering_cycle(&net, NodeId(0)).unwrap();
            cycle.verify(&net).unwrap();
        }
    }

    #[test]
    fn even_offsets_are_spread() {
        let net = grid(4, 4, 100.0, 1, 5.0);
        let cycle = covering_cycle(&net, NodeId(0)).unwrap();
        let offs = cycle.even_offsets(4);
        assert_eq!(offs.len(), 4);
        assert_eq!(offs[0], 0);
        for w in offs.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(*offs.last().unwrap() < cycle.edges.len());
    }

    #[test]
    fn even_offsets_with_more_cars_than_edges_balance_load() {
        // Regression: with k > len the old `i * len / k` computed duplicate
        // offsets (several cars at 0) while leaving positions unused.
        let net = directed_ring(5, 100.0, 1, 5.0);
        let cycle = covering_cycle(&net, NodeId(0)).unwrap();
        let len = cycle.edges.len();
        assert_eq!(len, 5);
        for k in [len + 1, 2 * len, 2 * len + 3] {
            let offs = cycle.even_offsets(k);
            assert_eq!(offs.len(), k);
            let mut load = vec![0usize; len];
            for o in &offs {
                assert!(*o < len, "offset {o} out of range for {len} edges");
                load[*o] += 1;
            }
            let (min, max) = (*load.iter().min().unwrap(), *load.iter().max().unwrap());
            assert!(min >= 1, "k={k}: some cycle position left empty");
            assert!(max - min <= 1, "k={k}: uneven load {load:?}");
        }
    }

    #[test]
    fn even_offsets_at_len_plus_one_stay_unique_modulo_wrap() {
        let net = directed_ring(7, 100.0, 1, 5.0);
        let cycle = covering_cycle(&net, NodeId(0)).unwrap();
        let len = cycle.edges.len();
        let offs = cycle.even_offsets(len + 1);
        // Exactly one offset is doubled (the wraparound car); the rest are
        // distinct.
        let unique: std::collections::BTreeSet<_> = offs.iter().collect();
        assert_eq!(unique.len(), len);
        // k == len remains the identity spread.
        assert_eq!(cycle.even_offsets(len), (0..len).collect::<Vec<_>>());
    }

    #[test]
    fn edge_cycle_covers_every_direction() {
        let net = grid(4, 3, 100.0, 1, 5.0);
        let cycle = edge_covering_cycle(&net, NodeId(0)).unwrap();
        cycle.verify(&net).unwrap();
        let mut covered = vec![false; net.edge_count()];
        for e in &cycle.edges {
            covered[e.index()] = true;
        }
        assert!(covered.iter().all(|c| *c), "every directed edge visited");
    }

    #[test]
    fn edge_cycle_on_random_mixed_maps() {
        for seed in 0..6 {
            let net = random_city(&RandomCityConfig {
                seed,
                nodes: 20,
                one_way_fraction: 0.5,
                ..Default::default()
            });
            let cycle = edge_covering_cycle(&net, NodeId(0)).unwrap();
            cycle.verify(&net).unwrap();
            let covered: std::collections::BTreeSet<_> = cycle.edges.iter().collect();
            assert_eq!(covered.len(), net.edge_count());
        }
    }

    #[test]
    fn edge_cycle_none_when_not_strong() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(crate::geometry::Point::new(0.0, 0.0));
        let b = net.add_node(crate::geometry::Point::new(10.0, 0.0));
        net.add_one_way(a, b, 1, 5.0);
        assert!(edge_covering_cycle(&net, a).is_none());
    }

    #[test]
    fn node_sequence_closes() {
        let net = grid(3, 3, 100.0, 1, 5.0);
        let cycle = covering_cycle(&net, NodeId(4)).unwrap();
        let seq = cycle.node_sequence(&net);
        assert_eq!(seq.first(), seq.last());
        let unique: std::collections::BTreeSet<_> = seq.iter().collect();
        assert_eq!(unique.len(), net.node_count());
    }
}
