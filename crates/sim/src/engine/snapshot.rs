//! Whole-engine snapshots: serialize a mid-run deployment, resume it
//! later, and replay a byte-identical event stream (DESIGN.md §6quater).

use super::ExchangeSnapshot;
use crate::oracle::LedgerTable;
use crate::scenario::Scenario;
use serde::{Deserialize, Serialize};
use vcount_core::{CheckpointTable, ClassDedupCounter, NaiveIntervalCounter};
use vcount_roadnet::NodeId;
use vcount_traffic::SimSnapshot;

/// Schema tag stamped on every serialized snapshot, and the only one
/// accepted on read ([`EngineSnapshot::check_schema`]).
pub const SNAPSHOT_SCHEMA: &str = "vcount-engine-snapshot/v7";

/// Protocol-side RNG seed derivation: decoupled from the traffic stream
/// but derived from the same scenario seed for whole-run reproducibility.
pub(crate) fn proto_seed(sim_seed: u64) -> u64 {
    sim_seed.wrapping_mul(0x9E37_79B9).wrapping_add(7)
}

/// Everything needed to resume a run exactly where it left off: the full
/// scenario, the simulator's dynamic state, every checkpoint state
/// machine, the exchange's in-flight queues, the oracle ledger, both
/// baselines, and the positions of both RNG streams.
///
/// The run's telemetry and its sinks (post-mortem ring, user sinks) are
/// *not* captured — a resumed run audits its own tail.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Schema tag ([`SNAPSHOT_SCHEMA`]); rejected on mismatch.
    pub schema: String,
    /// The complete scenario, making the snapshot self-contained.
    pub scenario: Scenario,
    /// The seed checkpoints selected at assembly (an RNG-dependent choice
    /// that must not be redrawn on resume).
    pub seeds: Vec<NodeId>,
    /// Draws consumed from the protocol RNG stream.
    pub proto_rng_draws: u64,
    /// Opaque interior state of the loss model (Gilbert–Elliott burst
    /// phase; `0` for memoryless models).
    pub channel_state: u64,
    /// The traffic simulator's dynamic state.
    pub sim: SimSnapshot,
    /// Every checkpoint's dynamic state, in columns.
    pub checkpoints: CheckpointTable,
    /// The exchange's in-flight queues and wire counters.
    pub exchange: ExchangeSnapshot,
    /// The ground-truth oracle's attribution ledger, in columns.
    pub ledger: LedgerTable,
    /// The naive interval-counting baseline.
    pub naive: NaiveIntervalCounter,
    /// The image-recognition dedup baseline.
    pub dedup: ClassDedupCounter,
    /// The fault plan driving the run, if any (absent in fault-free
    /// runs).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fault_plan: Option<crate::faults::FaultPlan>,
    /// The fault layer's mid-run state, if a plan is active.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<crate::faults::FaultSnapshot>,
}

impl EngineSnapshot {
    /// Serializes to compact JSON (one line, no whitespace).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("engine snapshots always serialize")
    }

    /// Parses a snapshot, validating the schema tag.
    pub fn from_json(s: &str) -> Result<EngineSnapshot, String> {
        let snap: EngineSnapshot = serde_json::from_str(s).map_err(|e| e.to_string())?;
        snap.check_schema()?;
        Ok(snap)
    }

    /// Rejects any tag but [`SNAPSHOT_SCHEMA`]. Every path that accepts a
    /// snapshot from outside the process — a file or a service `Resume` —
    /// goes through this check.
    pub fn check_schema(&self) -> Result<(), String> {
        if self.schema == SNAPSHOT_SCHEMA {
            Ok(())
        } else {
            Err(format!(
                "unsupported snapshot schema {:?} (expected {SNAPSHOT_SCHEMA:?})",
                self.schema
            ))
        }
    }
}
