//! # vcount-core — the infrastructure-less vehicle counting protocol
//!
//! Reproduction of the primary contribution of Wu, Sabatino, Tsan, Jiang —
//! *An Infrastructure-less Vehicle Counting without Disruption* (ICPP
//! 2014): a fully-distributed, Chandy–Lamport-style protocol that counts
//! every vehicle in a region exactly once using only checkpoint
//! surveillance and the traffic flow as the message carrier.
//!
//! * [`machine::CheckpointMachine`] — the pure per-intersection state
//!   machine covering Alg. 1 (simple closed systems), Alg. 3 (overtakes,
//!   lossy channels, one-way streets, patrol) and Alg. 5 (open systems),
//!   plus the collection logic of Alg. 2/4 (spanning-tree aggregation to
//!   the seed). `process(state, action) → dispatches` performs no IO,
//!   draws no RNG and reads no clock; every effectful input arrives
//!   inside the [`machine::Action`].
//! * [`checkpoint::Checkpoint`] — the effectful shell deployments drive:
//!   it feeds [`machine::Action`]s to its machine and buffers the emitted
//!   events.
//! * [`machine::Replayer`] — re-drives recorded action streams without
//!   any simulator, pinning determinism via [`machine::DispatchDigest`].
//! * [`config`] — protocol variants and the specified-type filter.
//! * [`counter::Counters`] — `c(u, v)` with overtake/loss/interaction
//!   components.
//! * [`baseline`] — the unsynchronized baselines the paper argues against.
//!
//! A harness feeds [`machine::Action`]s to
//! [`checkpoint::Checkpoint::apply`] and performs the transport
//! [`command::Command`]s appended to its scratch buffer; alongside, the
//! machine buffers structured [`vcount_obs::ProtocolEvent`]s for
//! observability sinks. `vcount-sim` wires it to the traffic and V2X
//! substrates; the unit tests here drive it directly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod checkpoint;
pub mod command;
pub mod config;
pub mod counter;
pub mod machine;
pub mod table;

pub use baseline::{ClassDedupCounter, NaiveIntervalCounter};
pub use checkpoint::{Checkpoint, CheckpointState, InboundState, LabelState};
pub use command::Command;
pub use config::{CheckpointConfig, ProtocolVariant};
pub use counter::Counters;
pub use machine::{Action, ActionKind, CheckpointMachine, DispatchDigest, Dispatches, Replayer};
pub use table::CheckpointTable;
pub use vcount_obs::{EventKind, ProtocolEvent};
