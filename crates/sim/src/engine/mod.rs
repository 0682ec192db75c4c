//! The layered deterministic engine behind [`crate::runner::Runner`].
//!
//! One simulation step decomposes into five single-responsibility stages,
//! each a named free function over the one owned [`Engine`] and the
//! step's inputs:
//!
//! 1. *source* — produce the step's [`crate::source::ObservationBatch`].
//!    This stage lives behind the [`crate::source::ObservationSource`]
//!    trait: the in-process traffic simulator is one implementation, a
//!    network feeder another — the engine consumes batches and never asks
//!    who made them;
//! 2. [`observe()`] — feed each surveillance event to the checkpoint state
//!    machines (label delivery, lossy handoffs, segment watches,
//!    baselines);
//! 3. [`dispatch()`] — route the transport commands checkpoints emit into
//!    the [`Exchange`] as typed messages, counting each one's
//!    [`vcount_v2x::Message`] wire cost;
//! 4. [`exchange()`] — deliver relay messages that came due to their
//!    receiving checkpoints;
//! 5. [`audit()`] — drain buffered protocol events into the ground-truth
//!    oracle and the observability sinks.
//!
//! Stages 3 and 5 are also invoked *within* stage 2 after every checkpoint
//! interaction: the protocol is event-driven, and a command produced
//! mid-step (say, a report posted at a node) can be picked up by a later
//! event of the same step. The decomposition preserves that interleaving
//! exactly — the stages are units of responsibility, not barriers.
//!
//! All in-flight message state lives in the [`Exchange`] — the sole path
//! between checkpoints — and the whole engine state serializes as an
//! [`EngineSnapshot`] for byte-identical snapshot/resume (DESIGN.md
//! §6quater).

pub mod audit;
pub mod dispatch;
pub mod exchange;
pub mod observe;
pub mod snapshot;

pub use audit::{audit, AuditLog};
pub use dispatch::dispatch;
pub use exchange::{exchange, Envelope, Exchange, ExchangeSnapshot, Routed, Watch, WireCounters};
pub use observe::observe;
pub use snapshot::{EngineSnapshot, SNAPSHOT_SCHEMA};

use crate::oracle::Oracle;
use crate::replay::ActionRecorder;
use crate::scenario::TransportMode;
use crate::source::ClassTable;
use vcount_core::{
    Action, ActionKind, Checkpoint, ClassDedupCounter, Command, NaiveIntervalCounter,
};
use vcount_roadnet::{NodeId, RoadNetwork};
use vcount_traffic::ReplayRng;
use vcount_v2x::{AdjustMode, ClassFilter, LossModel};

/// The engine's state: everything the stages read and mutate, owned in
/// one place. Every stage is a free function over `&mut Engine` that
/// touches only the fields its responsibility covers, so stages can call
/// each other (observe → dispatch → audit) without hidden cross-stage
/// mutation.
pub struct Engine {
    /// Event timestamp: simulated time at the end of the last ingested
    /// batch (0 during seed activation).
    pub(crate) now: f64,
    /// The road graph the deployment runs on (the traffic substrate itself
    /// lives behind the observation source and is never visible to the
    /// protocol stages).
    pub(crate) net: RoadNetwork,
    /// Camera-visible class of every announced vehicle.
    pub(crate) classes: ClassTable,
    /// One checkpoint state machine per intersection.
    pub(crate) cps: Vec<Checkpoint>,
    /// The message layer owning every in-flight message.
    pub(crate) exchange: Exchange,
    /// Ground-truth attribution ledger.
    pub(crate) oracle: Oracle,
    /// Lossy handoff channel.
    pub(crate) channel: Box<dyn LossModel + Send>,
    /// Protocol-side RNG (channel and seed-selection draws), draw-counted
    /// so a resumed run continues the identical stream.
    pub(crate) proto_rng: ReplayRng,
    /// Collection transport selection.
    pub(crate) transport: TransportMode,
    /// The specified-type filter checkpoints count against.
    pub(crate) filter: ClassFilter,
    /// Overtake adjustment mode.
    pub(crate) adjust_mode: AdjustMode,
    /// Naive per-checkpoint interval baseline.
    pub(crate) naive: NaiveIntervalCounter,
    /// Image-recognition dedup baseline.
    pub(crate) dedup: ClassDedupCounter,
    /// Event audit trail: oracle mirroring and observability sinks.
    pub(crate) audit: AuditLog,
    /// Deterministic fault injection (inactive unless a plan is loaded).
    pub(crate) faults: crate::faults::FaultLayer,
    /// Action-trace recorder (inert unless `--record-actions` is on).
    pub(crate) recorder: ActionRecorder,
    /// Reused command scratch for [`apply_action`] (allocation-free once
    /// warmed up).
    pub(crate) cmd_scratch: Vec<Command>,
}

/// The single funnel every protocol input passes through: mints the
/// [`Action`] at `engine.now`, records it, feeds it to `node`'s pure machine,
/// audits the emitted events, and dispatches the emitted commands into
/// the exchange. Keeping one funnel guarantees the recorded action stream
/// is complete — a machine-only replay of it reproduces every dispatch.
pub fn apply_action(engine: &mut Engine, node: NodeId, kind: ActionKind) {
    let action = Action {
        at_s: engine.now,
        kind,
    };
    engine.recorder.push(node, &action);
    let mut cmds = std::mem::take(&mut engine.cmd_scratch);
    debug_assert!(cmds.is_empty(), "command scratch must drain every action");
    engine.cps[node.index()].apply(&action, &mut cmds);
    // Events first, then commands — the recorder's digest lines follow the
    // same order (see `AuditLog`/`ActionRecorder`).
    audit::audit(engine, node);
    engine.recorder.absorb_commands(node, &cmds);
    dispatch::dispatch(engine, node, &mut cmds);
    engine.cmd_scratch = cmds;
}
