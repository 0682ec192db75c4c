//! # vcount-roadnet — road-network substrate
//!
//! Directed road graphs, map builders, routing and covering patrol cycles
//! for the infrastructure-less vehicle-counting reproduction (Wu, Sabatino,
//! Tsan, Jiang — ICPP 2014).
//!
//! The paper's evaluation runs on an OpenStreetMap extract of midtown
//! Manhattan; this crate provides the structural substitute: a synthetic
//! midtown grid ([`builders::manhattan`]) plus regular and random maps used
//! by tests and ablations. See the workspace `DESIGN.md` for the
//! substitution rationale.
//!
//! Terminology follows the paper's Table I:
//!
//! * checkpoint / intersection `u` → [`graph::NodeId`]
//! * road segment `{u, v}` → a twin pair of directed [`graph::Edge`]s
//!   (one-way streets have no twin)
//! * `no(u)`, `ni(u)` → [`graph::RoadNetwork::outbound_neighbors`] /
//!   [`graph::RoadNetwork::inbound_neighbors`]
//! * border *interaction* (Definition 2) → [`graph::Interaction`]
//! * patrol cycle (Theorem 4) → [`patrol::PatrolCycle`]

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builders;
pub mod connectivity;
pub mod geometry;
pub mod graph;
pub mod patrol;
pub mod routing;

pub use geometry::{mph_to_mps, Bounds, Point};
pub use graph::{Edge, EdgeId, Interaction, NetError, Node, NodeId, NodeKind, RoadNetwork};
pub use patrol::{covering_cycle, edge_covering_cycle, PatrolCycle};
pub use routing::{shortest_path, travel_time_diameter, travel_times_from, Path};
