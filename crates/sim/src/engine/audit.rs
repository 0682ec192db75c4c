//! Stage 5: drain buffered protocol events into the oracle and the sinks.

use super::Engine;
use crate::metrics::RunTelemetry;
use crate::oracle::Attribution;
use vcount_obs::{EventRecord, EventSink, ProtocolEvent, RingBufferSink};
use vcount_roadnet::NodeId;
use vcount_v2x::VehicleId;

/// The audit stage's own state: the run's event stamp, the run's one
/// telemetry accumulator, the always-on post-mortem ring, the
/// user-configured sinks, and the reused drain buffer.
pub struct AuditLog {
    /// The run's RNG seed, stamped on every emitted event record.
    pub(crate) seed_epoch: u64,
    /// Per-kind event counts, the record total and the phase timings.
    pub(crate) telemetry: RunTelemetry,
    /// Always-on last-N ring for post-mortem attribution chains.
    pub(crate) ring: RingBufferSink,
    /// User-configured sinks (JSONL export, custom consumers).
    pub(crate) sinks: Vec<Box<dyn EventSink + Send>>,
    /// Scratch buffer for draining checkpoint events.
    event_drain: Vec<(f64, ProtocolEvent)>,
}

impl AuditLog {
    /// An empty audit trail stamping records with `seed_epoch`.
    pub fn new(
        seed_epoch: u64,
        ring_capacity: usize,
        sinks: Vec<Box<dyn EventSink + Send>>,
    ) -> Self {
        AuditLog {
            seed_epoch,
            telemetry: RunTelemetry::default(),
            ring: RingBufferSink::new(ring_capacity),
            sinks,
            event_drain: Vec::new(),
        }
    }

    /// Stamps `event` with `time_s` and the run's seed epoch, counts it,
    /// and fans the record into the ring and the user sinks — the one path
    /// every audited event takes, checkpoint-emitted or injected fault.
    pub(crate) fn record(&mut self, time_s: f64, event: ProtocolEvent) {
        let rec = EventRecord {
            time_s,
            seed_epoch: self.seed_epoch,
            event,
        };
        self.telemetry.count(&event);
        self.ring.record(&rec);
        for sink in &mut self.sinks {
            sink.record(&rec);
        }
    }
}

/// Drains the protocol events `node`'s checkpoint buffered, derives the
/// oracle attributions they imply, and records each through
/// `AuditLog::record`. Invoked after every checkpoint interaction, so
/// checkpoint event buffers are provably empty at step boundaries (which
/// is what makes [`super::EngineSnapshot`] complete). Fault events bypass
/// this stage and its oracle mirroring — injected faults are environment,
/// not protocol attributions.
pub fn audit(engine: &mut Engine, node: NodeId) {
    let mut drained = std::mem::take(&mut engine.audit.event_drain);
    engine.cps[node.index()].drain_events_into(&mut drained);
    // The recorder's digest absorbs the events line before the commands
    // line (see [`super::apply_action`]); a no-op when recording is off.
    engine.recorder.absorb_events(node, &drained);
    for &(t, event) in &drained {
        // The oracle ledger mirrors exactly what the protocol applied;
        // attribution-bearing events carry the vehicle they concern.
        match event {
            ProtocolEvent::VehicleCounted { vehicle, .. } => {
                engine
                    .oracle
                    .record(VehicleId(vehicle), Attribution::Counted);
            }
            ProtocolEvent::BorderEntry { vehicle, .. } => {
                engine
                    .oracle
                    .record(VehicleId(vehicle), Attribution::InteractionIn);
            }
            ProtocolEvent::BorderExit { vehicle, .. } => {
                engine
                    .oracle
                    .record(VehicleId(vehicle), Attribution::InteractionOut);
            }
            ProtocolEvent::LossCompensation { vehicle, .. } => {
                engine
                    .oracle
                    .record(VehicleId(vehicle), Attribution::LossCompensation);
            }
            _ => {}
        }
        engine.audit.record(t, event);
    }
    drained.clear();
    engine.audit.event_drain = drained;
}
