//! # vcount-sim — deployment orchestration and evaluation harness
//!
//! Wires the three substrates (road network, traffic microsimulation, V2X
//! channel) to one [`vcount_core::Checkpoint`] per intersection, exactly as
//! the paper's simulation does, and adds what a reproduction needs on top:
//!
//! * [`runner::Runner`] — event-driven integration: labels ride vehicles,
//!   handoffs go through the lossy channel, segment watches convert
//!   overtakes into counter adjustments, reports ride vehicles (or the
//!   directional relay / patrol cars) back up the spanning tree;
//! * [`oracle::Oracle`] — per-vehicle ground-truth attribution proving the
//!   no-mis/double-counting claims on every run;
//! * [`scenario`] — serializable run descriptions, including the paper's
//!   closed and open midtown setups;
//! * [`experiment`] — the volume × seed-count sweep grid behind
//!   Figs. 2–5, parallelized across worker threads;
//! * [`metrics`] — the reported quantities;
//! * [`engine`] — the five named per-step stages (source, `observe`,
//!   `dispatch`, `exchange`, `audit`), the [`engine::Exchange`]
//!   message layer that owns every in-flight payload, and
//!   [`engine::EngineSnapshot`] for freezing and resuming runs;
//! * [`source`] — pluggable observation sources: the engine consumes
//!   [`source::ObservationBatch`]es and never asks who produced them —
//!   the in-process simulator ([`source::SimulatorSource`]) and pushed
//!   external streams ([`source::ExternalSource`]) are interchangeable,
//!   byte for byte;
//! * [`service`] — the `vcountd` multi-tenant run manager: many
//!   independent runs keyed by run id, newline-delimited JSON commands,
//!   bounded ingest queues with explicit backpressure, wire-input
//!   validation (a malformed feeder gets an `Error`, never a panic),
//!   live per-run snapshot/restart;
//! * [`server`] — the daemon around the manager: Unix-socket and TCP
//!   listeners behind one framing contract, one owner thread answering
//!   every request while per-connection threads do only socket I/O (one
//!   write per response frame), disconnect and shutdown flush guards;
//! * [`replay`] — action record/replay: a recorded run's protocol-input
//!   stream re-drives the pure machines without the simulator, pinning
//!   byte-identical dispatches and final counts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod experiment;
pub mod faults;
pub mod metrics;
pub mod oracle;
pub mod replay;
pub mod runner;
pub mod scenario;
pub mod server;
pub mod service;
pub mod source;

pub use engine::{EngineSnapshot, Exchange};
pub use experiment::{sweep, sweep_with_faults, Cell, CellResult, SweepConfig};
pub use faults::{Blackout, ChaosFault, CrashFault, FaultCounters, FaultLayer, FaultPlan};
pub use metrics::{ProgressSnapshot, RunMetrics, RunTelemetry, Summary};
pub use oracle::{Attribution, LedgerTable, Oracle, Violation};
pub use replay::{
    replay_trace, ActionRecord, ActionRecorder, ActionTrace, ReplayReport, TRACE_SCHEMA,
};
pub use runner::{Goal, Runner, RunnerBuilder};
pub use scenario::{MapSpec, PatrolSpec, Scenario, SeedSpec, TransportMode};
pub use server::{serve_connections, serve_stream, Conn, Listener, WireClient};
pub use service::{RunManager, ServiceConfig, ServiceRequest, ServiceResponse};
pub use source::{
    BatchIndex, ClassTable, EventRow, ExternalSource, ObservationBatch, ObservationSource,
    SimulatorSource, TruthSnapshot,
};
