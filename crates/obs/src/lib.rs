//! # vcount-obs — protocol observability: structured events and sinks
//!
//! Every paper-relevant transition of the counting protocol — activations,
//! label handoffs and their failures, direction stops, overtake
//! adjustments, loss compensations, report traffic, patrol relays, border
//! interaction — is modelled as a [`ProtocolEvent`]. The pure state machine
//! in `vcount-core` emits them alongside its transport `Command`s; the
//! runner in `vcount-sim` stamps each with simulated time and the run's
//! seed epoch (an [`EventRecord`]), counts it into the run's
//! `RunTelemetry`, and fans it into any number of [`EventSink`]s.
//!
//! Shipped sinks:
//!
//! * [`NullSink`] — discards everything; the zero-cost default;
//! * [`RingBufferSink`] — keeps the last N records for post-mortems (the
//!   runner dumps a vehicle's attribution chain from one on an oracle
//!   violation);
//! * [`JsonlSink`] — streams records as JSON Lines to any writer,
//!   optionally filtered by [`EventKind`].
//!
//! The crate is dependency-free by design (ids are plain `u32`/`u64`, JSON
//! is hand-rolled) so it can sit below every other crate in the workspace,
//! including `vcount-core`, without widening the core's footprint.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod sink;

pub use event::{EventFilter, EventKind, EventRecord, ProtocolEvent};
pub use sink::{EventSink, JsonlSink, NullSink, RingBufferSink};
