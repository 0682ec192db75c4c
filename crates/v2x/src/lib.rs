//! # vcount-v2x — wireless communication substrate
//!
//! Everything the counting protocol needs from the VANET radio layer
//! (paper refs \[6\]–\[8\]), rebuilt from scratch:
//!
//! * [`ids`] — VANET node identity and the exterior characteristics
//!   checkpoints may observe (no VIN, no ownership data);
//! * [`message`] — the label / report / patrol payloads with a binary wire
//!   codec, the form a message takes on the air and in a snapshot;
//! * [`channel`] — loss models including the paper's 30% Bernoulli channel
//!   and ack-confirmed handoff semantics;
//! * [`collaboration`] — relative-position collaboration turning overtakes
//!   into counter adjustments (Alg. 3 lines 5–8), in both the provably
//!   correct net form and the paper's literal per-event form (ablation).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod collaboration;
pub mod ids;
pub mod message;

pub use channel::{Bernoulli, ChannelKind, GilbertElliott, Handoff, LossModel, Perfect};
pub use collaboration::{AdjustMode, Adjustment, SegmentWatch};
pub use ids::{BodyType, Brand, ClassFilter, Color, VehicleClass, VehicleId};
pub use message::{Announce, DecodeError, Label, Message, PatrolStatus, Report};
