//! Action record/replay: the millisecond determinism pin.
//!
//! During a run, the engine funnels every protocol input through
//! [`crate::engine::apply_action`]; with recording on, the
//! [`ActionRecorder`] captures the per-checkpoint [`Action`] stream and an
//! incremental [`DispatchDigest`] over everything each action dispatched.
//! The finished [`ActionTrace`] is schema-tagged JSON (like
//! [`crate::engine::EngineSnapshot`]) embedding the scenario, the full
//! action stream, the dispatch digest, and the final counts.
//!
//! [`replay_trace`] then re-drives the *pure machines only* — no
//! simulator, no traffic, no channel, no RNG — from the recorded stream
//! via [`vcount_core::Replayer`], and checks that the dispatch digest and
//! the final per-checkpoint counts come out byte-identical. Because every
//! effectful input was frozen inside the actions at record time, any
//! divergence means the protocol core itself became nondeterministic or
//! semantically drifted — the exact regression class golden traces pin,
//! at a fraction of the cost.

use crate::scenario::Scenario;
use serde::{Deserialize, Serialize};
use vcount_core::{Action, Command, DispatchDigest, ProtocolEvent, Replayer};
use vcount_roadnet::NodeId;

/// Schema tag stamped on every serialized action trace; rejected on
/// mismatch when loading.
pub const TRACE_SCHEMA: &str = "vcount-action-trace/v1";

/// One recorded protocol input: which checkpoint processed which action.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionRecord {
    /// The processing checkpoint's node id.
    pub node: u32,
    /// The action it processed, with every effectful input frozen inside.
    pub action: Action,
}

/// Captures the engine's action stream and dispatch digest while a run
/// executes. Inert by default: every hook is a no-op until recording is
/// enabled, so fault-free hot paths pay one branch per action.
#[derive(Debug, Default)]
pub struct ActionRecorder {
    state: Option<RecorderState>,
}

#[derive(Debug)]
struct RecorderState {
    records: Vec<ActionRecord>,
    digest: DispatchDigest,
}

impl ActionRecorder {
    /// A recorder; `enabled` decides whether it captures anything.
    pub fn new(enabled: bool) -> Self {
        ActionRecorder {
            state: enabled.then(|| RecorderState {
                records: Vec::new(),
                digest: DispatchDigest::new(),
            }),
        }
    }

    /// Records one action about to be processed at `node`.
    pub fn push(&mut self, node: NodeId, action: &Action) {
        if let Some(s) = &mut self.state {
            s.records.push(ActionRecord {
                node: node.0,
                action: action.clone(),
            });
        }
    }

    /// Absorbs the events the last pushed action emitted (the audit stage
    /// calls this with the drained buffer, before the sink fan-out).
    pub fn absorb_events(&mut self, node: NodeId, events: &[(f64, ProtocolEvent)]) {
        if let Some(s) = &mut self.state {
            s.digest.absorb_events(node, events);
        }
    }

    /// Absorbs the commands the last pushed action dispatched.
    pub fn absorb_commands(&mut self, node: NodeId, commands: &[Command]) {
        if let Some(s) = &mut self.state {
            s.digest.absorb_commands(node, commands);
        }
    }

    /// Takes the recorded stream, leaving the recorder disabled.
    pub fn take(&mut self) -> Option<(Vec<ActionRecord>, u64)> {
        self.state.take().map(|s| (s.records, s.digest.value()))
    }
}

/// A finished, self-contained recording of a run's protocol inputs:
/// everything needed to re-drive the pure machines and verify the outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActionTrace {
    /// Schema tag ([`TRACE_SCHEMA`]); rejected on mismatch.
    pub schema: String,
    /// The recorded run's scenario (the map and protocol config rebuild
    /// the machines; traffic/channel fields document provenance).
    pub scenario: Scenario,
    /// The per-checkpoint action stream, in processing order.
    pub records: Vec<ActionRecord>,
    /// FNV-1a digest over every action's dispatched events and commands.
    pub dispatch_digest: u64,
    /// Final non-interaction local count per checkpoint, in node order.
    pub final_local_counts: Vec<i64>,
    /// Final net border interaction per checkpoint, in node order.
    pub final_interaction_nets: Vec<i64>,
    /// Final collected tree total per checkpoint, in node order.
    pub final_tree_totals: Vec<Option<i64>>,
}

impl ActionTrace {
    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("action traces always serialize")
    }

    /// Parses a trace, validating the schema tag.
    pub fn from_json(s: &str) -> Result<ActionTrace, String> {
        let trace: ActionTrace = serde_json::from_str(s).map_err(|e| e.to_string())?;
        if trace.schema != TRACE_SCHEMA {
            return Err(format!(
                "unsupported action-trace schema {:?} (expected {TRACE_SCHEMA:?})",
                trace.schema
            ));
        }
        Ok(trace)
    }
}

/// The outcome of one machine-only replay, comparing against what the
/// recording engine produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Actions applied.
    pub actions: u64,
    /// The digest the recording run computed.
    pub recorded_digest: u64,
    /// The digest the machine-only replay computed.
    pub replayed_digest: u64,
    /// Whether the dispatch streams were byte-identical.
    pub digests_match: bool,
    /// Whether every final per-checkpoint count matched.
    pub counts_match: bool,
}

impl ReplayReport {
    /// `Ok` iff the replay reproduced the recording exactly.
    pub fn check(&self) -> Result<(), String> {
        if !self.digests_match {
            return Err(format!(
                "dispatch digest mismatch: recorded {:#018x}, replayed {:#018x}",
                self.recorded_digest, self.replayed_digest
            ));
        }
        if !self.counts_match {
            return Err("final per-checkpoint counts diverged".into());
        }
        Ok(())
    }
}

/// Re-drives the pure machines from `trace` — without the simulator — and
/// reports whether dispatches and final counts are byte-identical to the
/// recording. `Err` is reserved for traces that cannot be replayed at all
/// (a scenario failing [`crate::Scenario::validate`], an out-of-range
/// node); a clean replay with divergent outcomes returns `Ok` with the
/// mismatch flags set.
pub fn replay_trace(trace: &ActionTrace) -> Result<ReplayReport, String> {
    let net = trace.scenario.validate()?;
    let nodes = net.node_count();
    let mut rp = Replayer::new(&net, trace.scenario.protocol);
    for rec in &trace.records {
        if rec.node as usize >= nodes {
            return Err(format!(
                "trace references node {} but the map has {nodes} nodes",
                rec.node
            ));
        }
        rp.apply(NodeId(rec.node), &rec.action);
    }
    let replayed_digest = rp.digest();
    let counts_match = rp.local_counts() == trace.final_local_counts
        && rp.interaction_nets() == trace.final_interaction_nets
        && rp.tree_totals() == trace.final_tree_totals;
    Ok(ReplayReport {
        actions: rp.actions_applied(),
        recorded_digest: trace.dispatch_digest,
        replayed_digest,
        digests_match: replayed_digest == trace.dispatch_digest,
        counts_match,
    })
}
