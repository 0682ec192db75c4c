//! Run metrics: the quantities the paper's figures report.

use serde::{Deserialize, Serialize};
use vcount_obs::ProtocolEvent;

/// Simple summary statistics over a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Summary {
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarizes a sample; `None` when empty.
    pub fn of(samples: impl IntoIterator<Item = f64>) -> Option<Summary> {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut n = 0usize;
        for s in samples {
            min = min.min(s);
            max = max.max(s);
            sum += s;
            n += 1;
        }
        (n > 0).then(|| Summary {
            min,
            max,
            mean: sum / n as f64,
            n,
        })
    }
}

/// A point-in-time view of a running deployment (see
/// [`crate::runner::Runner::progress`]): how far the wave and the
/// collection have spread. Useful for live dashboards and the wave-trace
/// example.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProgressSnapshot {
    /// Simulated time, seconds.
    pub time_s: f64,
    /// Checkpoints activated so far.
    pub active: usize,
    /// Checkpoints whose local count stabilized.
    pub stable: usize,
    /// Seeds holding a tree total.
    pub collected_seeds: usize,
    /// Total checkpoints.
    pub checkpoints: usize,
    /// Current distributed count (Σ local + interaction net).
    pub distributed_count: i64,
    /// Ground-truth matching population inside.
    pub population: usize,
}

/// Observability telemetry attached to a run's metrics: protocol event
/// counts, relay transport usage, and wall-clock phase attribution of the
/// driving loop. The audit stage counts every record it stamps into the
/// run's one `RunTelemetry`; [`crate::runner::Runner::telemetry`] adds the
/// wire and fault-injection counters at call time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunTelemetry {
    /// Protocol event records audited, of every kind — exactly the records
    /// every sink saw.
    #[serde(default)]
    pub events: u64,
    /// Checkpoint activations (seeds included).
    pub activations: u64,
    /// Checkpoints whose counting stabilized.
    pub stabilizations: u64,
    /// Label handoff attempts.
    pub labels_emitted: u64,
    /// Acknowledged handoffs.
    pub handoff_acks: u64,
    /// Failed handoffs (each is a retry with the next vehicle).
    pub handoff_retries: u64,
    /// −1 loss compensations applied.
    pub compensations: u64,
    /// Inbound directions stopped by an arriving label.
    pub inbound_stops: u64,
    /// Phase-5 vehicle counts.
    pub vehicles_counted: u64,
    /// Finalized overtake-adjustment events (not net magnitude).
    pub overtake_adjustment_events: u64,
    /// Subtree reports sent toward predecessors (re-reports included).
    pub reports_sent: u64,
    /// Child reports superseded by a higher sequence number.
    pub reports_superseded: u64,
    /// Patrol status snapshots relayed to checkpoints.
    pub patrol_relays: u64,
    /// Border entries counted (+1 live interaction).
    pub border_entries: u64,
    /// Border exits counted (−1 live interaction).
    pub border_exits: u64,
    /// Messages delivered through the directional V2V relay.
    pub relay_messages: u64,
    /// Payloads encoded to the wire format by the exchange.
    pub messages_encoded: u64,
    /// Payloads decoded from the wire format on delivery.
    pub messages_decoded: u64,
    /// Payloads discarded without decoding (lazy decode: the recipient
    /// was down or the message was a dropped duplicate).
    #[serde(default)]
    pub messages_skipped_decode: u64,
    /// Total wire bytes produced by the exchange's encoder.
    pub wire_bytes: u64,
    /// Carried labels overwritten by a double handoff (always an anomaly).
    #[serde(default)]
    pub label_overwrites: u64,
    /// Injected checkpoint crashes.
    #[serde(default)]
    pub crashes: u64,
    /// Crashed checkpoints that rejoined from their state image.
    #[serde(default)]
    pub recoveries: u64,
    /// Messages dropped because their destination or holder was down.
    #[serde(default)]
    pub fault_messages_dropped: u64,
    /// Handoffs forced to fail by a regional radio blackout.
    #[serde(default)]
    pub blackout_failures: u64,
    /// Relay/patrol messages duplicated by chaos injection.
    #[serde(default)]
    pub chaos_duplicates: u64,
    /// Relay messages delayed by chaos injection.
    #[serde(default)]
    pub chaos_delays: u64,
    /// Relay/patrol deliveries reordered by chaos injection.
    #[serde(default)]
    pub chaos_reorders: u64,
    /// Open segment watches closed because their origin checkpoint
    /// crashed (each is an explicit degradation, never a silent miscount).
    #[serde(default)]
    pub watches_dropped: u64,
    /// Wall-clock seconds advancing the traffic microsimulation.
    pub traffic_step_secs: f64,
    /// Wall-clock seconds driving checkpoint state machines and sinks.
    pub protocol_secs: f64,
    /// Wall-clock seconds delivering relay / patrol-carried messages.
    pub relay_secs: f64,
}

impl RunTelemetry {
    /// Counts one audited record: bumps [`RunTelemetry::events`] and its
    /// kind's field. A fault-watch drop has no per-kind field: the watches
    /// it closed surface as `watches_dropped`, from the fault layer.
    pub(crate) fn count(&mut self, event: &ProtocolEvent) {
        self.events += 1;
        let kind = match event {
            ProtocolEvent::CheckpointActivated { .. } => &mut self.activations,
            ProtocolEvent::CheckpointStable { .. } => &mut self.stabilizations,
            ProtocolEvent::LabelEmitted { .. } => &mut self.labels_emitted,
            ProtocolEvent::LabelHandoffAcked { .. } => &mut self.handoff_acks,
            ProtocolEvent::LabelHandoffFailed { .. } => &mut self.handoff_retries,
            ProtocolEvent::LossCompensation { .. } => &mut self.compensations,
            ProtocolEvent::InboundStopped { .. } => &mut self.inbound_stops,
            ProtocolEvent::VehicleCounted { .. } => &mut self.vehicles_counted,
            ProtocolEvent::OvertakeAdjustment { .. } => &mut self.overtake_adjustment_events,
            ProtocolEvent::ReportSent { .. } => &mut self.reports_sent,
            ProtocolEvent::ReportSuperseded { .. } => &mut self.reports_superseded,
            ProtocolEvent::PatrolStatusRelay { .. } => &mut self.patrol_relays,
            ProtocolEvent::BorderEntry { .. } => &mut self.border_entries,
            ProtocolEvent::BorderExit { .. } => &mut self.border_exits,
            ProtocolEvent::CheckpointCrashed { .. } => &mut self.crashes,
            ProtocolEvent::CheckpointRecovered { .. } => &mut self.recoveries,
            ProtocolEvent::FaultMessageDropped { .. } => &mut self.fault_messages_dropped,
            ProtocolEvent::ChannelBlackout { .. } => &mut self.blackout_failures,
            ProtocolEvent::FaultWatchDropped { .. } => return,
        };
        *kind += 1;
    }

    /// Total protocol events counted (see [`RunTelemetry::events`]).
    pub fn events_total(&self) -> u64 {
        self.events
    }

    /// Field-wise sum, for aggregating replicates of a sweep cell.
    pub fn merge(&mut self, other: &RunTelemetry) {
        self.events += other.events;
        self.activations += other.activations;
        self.stabilizations += other.stabilizations;
        self.labels_emitted += other.labels_emitted;
        self.handoff_acks += other.handoff_acks;
        self.handoff_retries += other.handoff_retries;
        self.compensations += other.compensations;
        self.inbound_stops += other.inbound_stops;
        self.vehicles_counted += other.vehicles_counted;
        self.overtake_adjustment_events += other.overtake_adjustment_events;
        self.reports_sent += other.reports_sent;
        self.reports_superseded += other.reports_superseded;
        self.patrol_relays += other.patrol_relays;
        self.border_entries += other.border_entries;
        self.border_exits += other.border_exits;
        self.relay_messages += other.relay_messages;
        self.messages_encoded += other.messages_encoded;
        self.messages_decoded += other.messages_decoded;
        self.messages_skipped_decode += other.messages_skipped_decode;
        self.wire_bytes += other.wire_bytes;
        self.label_overwrites += other.label_overwrites;
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.fault_messages_dropped += other.fault_messages_dropped;
        self.blackout_failures += other.blackout_failures;
        self.chaos_duplicates += other.chaos_duplicates;
        self.chaos_delays += other.chaos_delays;
        self.chaos_reorders += other.chaos_reorders;
        self.watches_dropped += other.watches_dropped;
        self.traffic_step_secs += other.traffic_step_secs;
        self.protocol_secs += other.protocol_secs;
        self.relay_secs += other.relay_secs;
    }
}

/// The outcome of one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Simulated time when every checkpoint's non-interaction counting
    /// stabilized (Alg. 3 constitution / Alg. 5 "complete status"), or
    /// `None` if the run hit its time limit first.
    pub constitution_done_s: Option<f64>,
    /// Simulated time when every seed held its tree's global view
    /// (Alg. 2/4 collection), or `None`.
    pub collection_done_s: Option<f64>,
    /// Per-checkpoint stabilization times, seconds (Fig. 2's max/min/avg
    /// are statistics over these).
    pub checkpoint_stable_s: Vec<f64>,
    /// Per-checkpoint activation times, seconds.
    pub checkpoint_activated_s: Vec<f64>,
    /// The global count collected at the seeds (sum of tree totals plus
    /// live interaction net for open systems).
    pub global_count: Option<i64>,
    /// Ground-truth matching civilian population inside at evaluation time.
    pub true_population: usize,
    /// Number of per-vehicle oracle violations (0 = mis/double-counting
    /// free, the paper's headline claim).
    pub oracle_violations: usize,
    /// Total label handoff failures compensated (30% channel).
    pub handoff_failures: u64,
    /// Net overtake adjustments applied across all checkpoints.
    pub overtake_adjustments: i64,
    /// Naive per-checkpoint interval counting baseline (double-counts).
    pub baseline_naive: u64,
    /// Image-recognition dedup baseline (undercounts).
    pub baseline_dedup: u64,
    /// Simulated seconds actually run.
    pub elapsed_s: f64,
    /// Simulation steps executed.
    pub steps: u64,
    /// Whether injected faults may have cost protocol information (see
    /// [`crate::faults`]). Always `false` for fault-free runs; when `true`
    /// the count is not guaranteed exact — but the flag is what makes the
    /// inexactness explicit rather than silent.
    #[serde(default)]
    pub degraded: bool,
    /// Protocol event counts and phase timings (absent in metrics
    /// serialized before the observability layer existed).
    #[serde(default)]
    pub telemetry: RunTelemetry,
}

impl RunMetrics {
    /// Whether the protocol's global view matches ground truth exactly.
    pub fn exact(&self) -> bool {
        self.oracle_violations == 0 && self.global_count == Some(self.true_population as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_samples() {
        let s = Summary::of([2.0, 4.0, 6.0]).unwrap();
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.n, 3);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(std::iter::empty()).is_none());
    }

    #[test]
    fn exactness_requires_zero_violations_and_matching_count() {
        let m = RunMetrics {
            constitution_done_s: Some(100.0),
            collection_done_s: Some(200.0),
            checkpoint_stable_s: vec![50.0, 100.0],
            checkpoint_activated_s: vec![10.0, 20.0],
            global_count: Some(42),
            true_population: 42,
            oracle_violations: 0,
            handoff_failures: 3,
            overtake_adjustments: -1,
            baseline_naive: 400,
            baseline_dedup: 17,
            elapsed_s: 300.0,
            steps: 600,
            degraded: false,
            telemetry: RunTelemetry::default(),
        };
        assert!(m.exact());
        let bad = RunMetrics {
            global_count: Some(41),
            ..m.clone()
        };
        assert!(!bad.exact());
        let viol = RunMetrics {
            oracle_violations: 1,
            ..m
        };
        assert!(!viol.exact());
    }

    /// One event of every kind through the counting path: each per-kind
    /// field reads 1 (the fault-watch kind has none), the record total
    /// reads 19, and a merge doubles both.
    #[test]
    fn counts_by_kind() {
        let events = [
            ProtocolEvent::CheckpointActivated {
                node: 0,
                pred: None,
                wave_seed: 0,
                is_seed: true,
            },
            ProtocolEvent::CheckpointStable { node: 0 },
            ProtocolEvent::LabelEmitted {
                node: 0,
                edge: 0,
                vehicle: 1,
            },
            ProtocolEvent::LabelHandoffAcked {
                node: 0,
                edge: 0,
                vehicle: 1,
            },
            ProtocolEvent::LabelHandoffFailed {
                node: 0,
                edge: 0,
                vehicle: 1,
            },
            ProtocolEvent::LossCompensation {
                node: 0,
                edge: 0,
                vehicle: 1,
            },
            ProtocolEvent::InboundStopped { node: 0, edge: 0 },
            ProtocolEvent::VehicleCounted {
                node: 0,
                edge: 0,
                vehicle: 1,
            },
            ProtocolEvent::OvertakeAdjustment {
                node: 0,
                plus: 1,
                minus: 0,
            },
            ProtocolEvent::ReportSent {
                node: 0,
                to: 1,
                total: 3,
                seq: 1,
            },
            ProtocolEvent::ReportSuperseded {
                node: 0,
                child: 1,
                old_seq: 1,
                new_seq: 2,
            },
            ProtocolEvent::PatrolStatusRelay {
                node: 0,
                vehicle: 1,
                observed: 2,
            },
            ProtocolEvent::BorderEntry {
                node: 0,
                vehicle: 1,
            },
            ProtocolEvent::BorderExit {
                node: 0,
                vehicle: 1,
            },
            ProtocolEvent::CheckpointCrashed {
                node: 0,
                state_lost: false,
            },
            ProtocolEvent::CheckpointRecovered { node: 0 },
            ProtocolEvent::FaultMessageDropped {
                node: 0,
                messages: 2,
            },
            ProtocolEvent::ChannelBlackout {
                node: 0,
                edge: 0,
                vehicle: 1,
            },
            ProtocolEvent::FaultWatchDropped {
                node: 0,
                watches: 2,
            },
        ];
        let mut once = RunTelemetry::default();
        for event in &events {
            once.count(event);
        }
        let per_kind = |t: &RunTelemetry| {
            [
                t.activations,
                t.stabilizations,
                t.labels_emitted,
                t.handoff_acks,
                t.handoff_retries,
                t.compensations,
                t.inbound_stops,
                t.vehicles_counted,
                t.overtake_adjustment_events,
                t.reports_sent,
                t.reports_superseded,
                t.patrol_relays,
                t.border_entries,
                t.border_exits,
                t.crashes,
                t.recoveries,
                t.fault_messages_dropped,
                t.blackout_failures,
            ]
        };
        assert_eq!(per_kind(&once), [1; 18]);
        assert_eq!(once.watches_dropped, 0, "watches come from the fault layer");
        assert_eq!(once.events_total(), 19);

        let mut twice = once;
        twice.merge(&once);
        assert_eq!(per_kind(&twice), [2; 18]);
        assert_eq!(twice.events_total(), 38);
    }
}
