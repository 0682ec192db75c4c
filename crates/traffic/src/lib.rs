//! # vcount-traffic — traffic microsimulation substrate
//!
//! A deterministic, seeded, time-stepped microsimulator standing in for the
//! SUMO trace generation the paper uses (see DESIGN.md §2). It produces
//! exactly the observables the counting protocol consumes:
//!
//! * intersection entry/departure/exit events (checkpoint surveillance),
//! * overtake (order-inversion) events on segments (V2V collaboration),
//! * unpredictable trajectories (uniform random turns), heterogeneous
//!   speeds, multi-lane overtaking, per-node admission control, open-border
//!   Poisson demand, and police patrol cars on fixed cycles.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod events;
pub mod order;
pub mod rng;
pub mod simulator;
pub mod snapshot;
pub mod vehicle;

pub use config::{Demand, SimConfig};
pub use events::TrafficEvent;
pub use rng::ReplayRng;
pub use simulator::Simulator;
pub use snapshot::{Loop, SimSnapshot, Spot, VehicleTable};
pub use vehicle::{sample_class, RoutePolicy, VehState, Vehicle};
