//! The protocol event taxonomy.
//!
//! Ids are primitive (`u32` checkpoints/edges, `u64` vehicles) so the crate
//! stays dependency-free; emitters convert their typed ids at the boundary.

use std::fmt;
use std::str::FromStr;

/// One observable protocol transition. See DESIGN.md §6bis for how each
/// variant maps onto the paper's algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolEvent {
    /// A checkpoint turned active: phase 1 at a seed, phase 3 elsewhere.
    CheckpointActivated {
        /// The checkpoint.
        node: u32,
        /// Its predecessor `p(u)` (`None` at a seed).
        pred: Option<u32>,
        /// The seed whose wave activated it.
        wave_seed: u32,
        /// Whether this is a seed activation.
        is_seed: bool,
    },
    /// Phase 6: every inbound direction of the checkpoint has stopped; the
    /// local count `c(u)` is final.
    CheckpointStable {
        /// The checkpoint.
        node: u32,
    },
    /// Phase 2 / Alg. 3: a pending label was handed to a departing vehicle
    /// (the attempt; followed by an ack or a failure).
    LabelEmitted {
        /// The labelling checkpoint.
        node: u32,
        /// The outbound direction.
        edge: u32,
        /// The carrier vehicle.
        vehicle: u64,
    },
    /// The handoff was acknowledged: exactly one label is in flight on the
    /// direction, which is done labelling.
    LabelHandoffAcked {
        /// The labelling checkpoint.
        node: u32,
        /// The outbound direction.
        edge: u32,
        /// The carrier vehicle.
        vehicle: u64,
    },
    /// The lossy exchange failed (Alg. 3 line 3); the direction stays
    /// pending and retries with the next vehicle.
    LabelHandoffFailed {
        /// The labelling checkpoint.
        node: u32,
        /// The outbound direction.
        edge: u32,
        /// The vehicle that escaped unlabelled.
        vehicle: u64,
    },
    /// The −1 compensation for a failed handoff to a vehicle the deployment
    /// counts (applied only when compensation is enabled).
    LossCompensation {
        /// The compensating checkpoint.
        node: u32,
        /// The outbound direction of the failed handoff.
        edge: u32,
        /// The escaping vehicle (it may be counted again downstream).
        vehicle: u64,
    },
    /// Phase 4: an arriving label stopped counting on an inbound direction.
    InboundStopped {
        /// The checkpoint.
        node: u32,
        /// The inbound direction that stopped.
        edge: u32,
    },
    /// Phase 5: an unlabelled matching vehicle was counted (+1 to `c(u)`).
    VehicleCounted {
        /// The counting checkpoint.
        node: u32,
        /// The inbound direction it arrived on.
        edge: u32,
        /// The counted vehicle.
        vehicle: u64,
    },
    /// Alg. 3 lines 5–8: a finalized segment watch adjusted `c(u)`.
    OvertakeAdjustment {
        /// The adjusted checkpoint.
        node: u32,
        /// Vehicles that fell behind the label after being counted (+1
        /// each).
        plus: u32,
        /// Vehicles that jumped ahead of the label uncounted (−1 each).
        minus: u32,
    },
    /// Alg. 2/4: a subtree total left for the predecessor.
    ReportSent {
        /// The reporting checkpoint.
        node: u32,
        /// The predecessor it reports to.
        to: u32,
        /// The subtree total.
        total: i64,
        /// The report's sequence number (re-reports increment it).
        seq: u32,
    },
    /// A child's earlier report was superseded by one with a higher
    /// sequence number (late loss compensation or overtake adjustment).
    ReportSuperseded {
        /// The receiving checkpoint.
        node: u32,
        /// The child whose report was replaced.
        child: u32,
        /// Sequence number of the replaced report.
        old_seq: u32,
        /// Sequence number of the replacement.
        new_seq: u32,
    },
    /// Theorem 3 integration: a patrol car relayed its status snapshot to a
    /// checkpoint.
    PatrolStatusRelay {
        /// The receiving checkpoint.
        node: u32,
        /// The patrol car.
        vehicle: u64,
        /// Checkpoints covered by the snapshot.
        observed: u32,
    },
    /// Alg. 5: +1 live interaction, a matching vehicle entered the region
    /// at an active border checkpoint.
    BorderEntry {
        /// The border checkpoint.
        node: u32,
        /// The entering vehicle.
        vehicle: u64,
    },
    /// Alg. 5: −1 live interaction, a matching vehicle left the region at
    /// an active border checkpoint.
    BorderExit {
        /// The border checkpoint.
        node: u32,
        /// The leaving vehicle.
        vehicle: u64,
    },
    /// Fault injection: a checkpoint crashed, dropping its volatile message
    /// queues and (when `state_lost`) the protocol state accrued since its
    /// last state image.
    CheckpointCrashed {
        /// The crashed checkpoint.
        node: u32,
        /// Whether the recovery image is stale (state accrued since the
        /// last image is lost).
        state_lost: bool,
    },
    /// Fault injection: a crashed checkpoint rejoined from its last state
    /// image.
    CheckpointRecovered {
        /// The recovered checkpoint.
        node: u32,
    },
    /// Fault injection: messages addressed to (or queued at) a down
    /// checkpoint were dropped.
    FaultMessageDropped {
        /// The down checkpoint.
        node: u32,
        /// How many messages were lost.
        messages: u32,
    },
    /// Fault injection: a regional radio blackout forced a handoff attempt
    /// to fail without consulting the loss model.
    ChannelBlackout {
        /// The checkpoint whose handoff was suppressed.
        node: u32,
        /// The outbound direction of the suppressed handoff.
        edge: u32,
        /// The vehicle that escaped unlabelled.
        vehicle: u64,
    },
    /// Fault injection: open segment watches originated by a crashed
    /// checkpoint were closed (their pending overtake adjustments are
    /// lost — an explicit degradation).
    FaultWatchDropped {
        /// The crashed origin checkpoint.
        node: u32,
        /// How many watches closed.
        watches: u32,
    },
}

impl ProtocolEvent {
    /// The event's kind tag.
    pub fn kind(&self) -> EventKind {
        match self {
            ProtocolEvent::CheckpointActivated { .. } => EventKind::CheckpointActivated,
            ProtocolEvent::CheckpointStable { .. } => EventKind::CheckpointStable,
            ProtocolEvent::LabelEmitted { .. } => EventKind::LabelEmitted,
            ProtocolEvent::LabelHandoffAcked { .. } => EventKind::LabelHandoffAcked,
            ProtocolEvent::LabelHandoffFailed { .. } => EventKind::LabelHandoffFailed,
            ProtocolEvent::LossCompensation { .. } => EventKind::LossCompensation,
            ProtocolEvent::InboundStopped { .. } => EventKind::InboundStopped,
            ProtocolEvent::VehicleCounted { .. } => EventKind::VehicleCounted,
            ProtocolEvent::OvertakeAdjustment { .. } => EventKind::OvertakeAdjustment,
            ProtocolEvent::ReportSent { .. } => EventKind::ReportSent,
            ProtocolEvent::ReportSuperseded { .. } => EventKind::ReportSuperseded,
            ProtocolEvent::PatrolStatusRelay { .. } => EventKind::PatrolStatusRelay,
            ProtocolEvent::BorderEntry { .. } => EventKind::BorderEntry,
            ProtocolEvent::BorderExit { .. } => EventKind::BorderExit,
            ProtocolEvent::CheckpointCrashed { .. } => EventKind::CheckpointCrashed,
            ProtocolEvent::CheckpointRecovered { .. } => EventKind::CheckpointRecovered,
            ProtocolEvent::FaultMessageDropped { .. } => EventKind::FaultMessageDropped,
            ProtocolEvent::ChannelBlackout { .. } => EventKind::ChannelBlackout,
            ProtocolEvent::FaultWatchDropped { .. } => EventKind::FaultWatchDropped,
        }
    }

    /// The checkpoint the event happened at.
    pub fn node(&self) -> u32 {
        match *self {
            ProtocolEvent::CheckpointActivated { node, .. }
            | ProtocolEvent::CheckpointStable { node }
            | ProtocolEvent::LabelEmitted { node, .. }
            | ProtocolEvent::LabelHandoffAcked { node, .. }
            | ProtocolEvent::LabelHandoffFailed { node, .. }
            | ProtocolEvent::LossCompensation { node, .. }
            | ProtocolEvent::InboundStopped { node, .. }
            | ProtocolEvent::VehicleCounted { node, .. }
            | ProtocolEvent::OvertakeAdjustment { node, .. }
            | ProtocolEvent::ReportSent { node, .. }
            | ProtocolEvent::ReportSuperseded { node, .. }
            | ProtocolEvent::PatrolStatusRelay { node, .. }
            | ProtocolEvent::BorderEntry { node, .. }
            | ProtocolEvent::BorderExit { node, .. }
            | ProtocolEvent::CheckpointCrashed { node, .. }
            | ProtocolEvent::CheckpointRecovered { node }
            | ProtocolEvent::FaultMessageDropped { node, .. }
            | ProtocolEvent::ChannelBlackout { node, .. }
            | ProtocolEvent::FaultWatchDropped { node, .. } => node,
        }
    }

    /// The vehicle involved, when the event names one.
    pub fn vehicle(&self) -> Option<u64> {
        match *self {
            ProtocolEvent::LabelEmitted { vehicle, .. }
            | ProtocolEvent::LabelHandoffAcked { vehicle, .. }
            | ProtocolEvent::LabelHandoffFailed { vehicle, .. }
            | ProtocolEvent::LossCompensation { vehicle, .. }
            | ProtocolEvent::VehicleCounted { vehicle, .. }
            | ProtocolEvent::PatrolStatusRelay { vehicle, .. }
            | ProtocolEvent::BorderEntry { vehicle, .. }
            | ProtocolEvent::BorderExit { vehicle, .. }
            | ProtocolEvent::ChannelBlackout { vehicle, .. } => Some(vehicle),
            _ => None,
        }
    }
}

/// Fieldless tag for every [`ProtocolEvent`] variant, used by trace filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// [`ProtocolEvent::CheckpointActivated`].
    CheckpointActivated = 0,
    /// [`ProtocolEvent::CheckpointStable`].
    CheckpointStable = 1,
    /// [`ProtocolEvent::LabelEmitted`].
    LabelEmitted = 2,
    /// [`ProtocolEvent::LabelHandoffAcked`].
    LabelHandoffAcked = 3,
    /// [`ProtocolEvent::LabelHandoffFailed`].
    LabelHandoffFailed = 4,
    /// [`ProtocolEvent::LossCompensation`].
    LossCompensation = 5,
    /// [`ProtocolEvent::InboundStopped`].
    InboundStopped = 6,
    /// [`ProtocolEvent::VehicleCounted`].
    VehicleCounted = 7,
    /// [`ProtocolEvent::OvertakeAdjustment`].
    OvertakeAdjustment = 8,
    /// [`ProtocolEvent::ReportSent`].
    ReportSent = 9,
    /// [`ProtocolEvent::ReportSuperseded`].
    ReportSuperseded = 10,
    /// [`ProtocolEvent::PatrolStatusRelay`].
    PatrolStatusRelay = 11,
    /// [`ProtocolEvent::BorderEntry`].
    BorderEntry = 12,
    /// [`ProtocolEvent::BorderExit`].
    BorderExit = 13,
    /// [`ProtocolEvent::CheckpointCrashed`].
    CheckpointCrashed = 14,
    /// [`ProtocolEvent::CheckpointRecovered`].
    CheckpointRecovered = 15,
    /// [`ProtocolEvent::FaultMessageDropped`].
    FaultMessageDropped = 16,
    /// [`ProtocolEvent::ChannelBlackout`].
    ChannelBlackout = 17,
    /// [`ProtocolEvent::FaultWatchDropped`].
    FaultWatchDropped = 18,
}

/// All kinds, in declaration order.
pub const ALL_KINDS: [EventKind; 19] = [
    EventKind::CheckpointActivated,
    EventKind::CheckpointStable,
    EventKind::LabelEmitted,
    EventKind::LabelHandoffAcked,
    EventKind::LabelHandoffFailed,
    EventKind::LossCompensation,
    EventKind::InboundStopped,
    EventKind::VehicleCounted,
    EventKind::OvertakeAdjustment,
    EventKind::ReportSent,
    EventKind::ReportSuperseded,
    EventKind::PatrolStatusRelay,
    EventKind::BorderEntry,
    EventKind::BorderExit,
    EventKind::CheckpointCrashed,
    EventKind::CheckpointRecovered,
    EventKind::FaultMessageDropped,
    EventKind::ChannelBlackout,
    EventKind::FaultWatchDropped,
];

impl EventKind {
    /// The kind's stable snake_case name (the `"kind"` field of the JSONL
    /// export and the accepted `--trace-filter` spelling).
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::CheckpointActivated => "checkpoint_activated",
            EventKind::CheckpointStable => "checkpoint_stable",
            EventKind::LabelEmitted => "label_emitted",
            EventKind::LabelHandoffAcked => "label_handoff_acked",
            EventKind::LabelHandoffFailed => "label_handoff_failed",
            EventKind::LossCompensation => "loss_compensation",
            EventKind::InboundStopped => "inbound_stopped",
            EventKind::VehicleCounted => "vehicle_counted",
            EventKind::OvertakeAdjustment => "overtake_adjustment",
            EventKind::ReportSent => "report_sent",
            EventKind::ReportSuperseded => "report_superseded",
            EventKind::PatrolStatusRelay => "patrol_status_relay",
            EventKind::BorderEntry => "border_entry",
            EventKind::BorderExit => "border_exit",
            EventKind::CheckpointCrashed => "checkpoint_crashed",
            EventKind::CheckpointRecovered => "checkpoint_recovered",
            EventKind::FaultMessageDropped => "fault_message_dropped",
            EventKind::ChannelBlackout => "channel_blackout",
            EventKind::FaultWatchDropped => "fault_watch_dropped",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for EventKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ALL_KINDS
            .into_iter()
            .find(|k| k.as_str() == s)
            .ok_or_else(|| format!("unknown event kind `{s}`"))
    }
}

/// A stamped event: what happened, when (simulated seconds), and in which
/// run (the seed epoch — the scenario's RNG seed — so merged traces from a
/// sweep stay attributable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Simulated time of the transition, seconds.
    pub time_s: f64,
    /// The run's RNG seed.
    pub seed_epoch: u64,
    /// The transition.
    pub event: ProtocolEvent,
}

impl EventRecord {
    /// One-line JSON encoding (no trailing newline). Hand-rolled so the
    /// crate stays dependency-free; every value is a number, boolean or a
    /// fixed snake_case string, so no escaping is needed.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"t\":{},\"epoch\":{},\"kind\":\"{}\"",
            json_f64(self.time_s),
            self.seed_epoch,
            self.event.kind()
        );
        let _ = write!(s, ",\"node\":{}", self.event.node());
        match self.event {
            ProtocolEvent::CheckpointActivated {
                pred,
                wave_seed,
                is_seed,
                ..
            } => {
                match pred {
                    Some(p) => {
                        let _ = write!(s, ",\"pred\":{p}");
                    }
                    None => s.push_str(",\"pred\":null"),
                }
                let _ = write!(s, ",\"wave_seed\":{wave_seed},\"is_seed\":{is_seed}");
            }
            ProtocolEvent::CheckpointStable { .. } => {}
            ProtocolEvent::LabelEmitted { edge, vehicle, .. }
            | ProtocolEvent::LabelHandoffAcked { edge, vehicle, .. }
            | ProtocolEvent::LabelHandoffFailed { edge, vehicle, .. }
            | ProtocolEvent::LossCompensation { edge, vehicle, .. } => {
                let _ = write!(s, ",\"edge\":{edge},\"vehicle\":{vehicle}");
            }
            ProtocolEvent::InboundStopped { edge, .. } => {
                let _ = write!(s, ",\"edge\":{edge}");
            }
            ProtocolEvent::VehicleCounted { edge, vehicle, .. } => {
                let _ = write!(s, ",\"edge\":{edge},\"vehicle\":{vehicle}");
            }
            ProtocolEvent::OvertakeAdjustment { plus, minus, .. } => {
                let _ = write!(s, ",\"plus\":{plus},\"minus\":{minus}");
            }
            ProtocolEvent::ReportSent { to, total, seq, .. } => {
                let _ = write!(s, ",\"to\":{to},\"total\":{total},\"seq\":{seq}");
            }
            ProtocolEvent::ReportSuperseded {
                child,
                old_seq,
                new_seq,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"child\":{child},\"old_seq\":{old_seq},\"new_seq\":{new_seq}"
                );
            }
            ProtocolEvent::PatrolStatusRelay {
                vehicle, observed, ..
            } => {
                let _ = write!(s, ",\"vehicle\":{vehicle},\"observed\":{observed}");
            }
            ProtocolEvent::BorderEntry { vehicle, .. }
            | ProtocolEvent::BorderExit { vehicle, .. } => {
                let _ = write!(s, ",\"vehicle\":{vehicle}");
            }
            ProtocolEvent::CheckpointCrashed { state_lost, .. } => {
                let _ = write!(s, ",\"state_lost\":{state_lost}");
            }
            ProtocolEvent::CheckpointRecovered { .. } => {}
            ProtocolEvent::FaultMessageDropped { messages, .. } => {
                let _ = write!(s, ",\"messages\":{messages}");
            }
            ProtocolEvent::ChannelBlackout { edge, vehicle, .. } => {
                let _ = write!(s, ",\"edge\":{edge},\"vehicle\":{vehicle}");
            }
            ProtocolEvent::FaultWatchDropped { watches, .. } => {
                let _ = write!(s, ",\"watches\":{watches}");
            }
        }
        s.push('}');
        s
    }
}

/// Formats an `f64` as a JSON number (non-finite values, which stamped
/// times never are, degrade to `null`).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        // `{}` prints the shortest representation that round-trips, which
        // is valid JSON for finite values.
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A set of [`EventKind`]s, as a bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventFilter(u32);

impl EventFilter {
    /// Allows every kind.
    pub fn all() -> Self {
        EventFilter(u32::MAX)
    }

    /// Allows nothing.
    pub fn none() -> Self {
        EventFilter(0)
    }

    /// A filter allowing exactly `kinds`.
    pub fn of(kinds: impl IntoIterator<Item = EventKind>) -> Self {
        let mut f = EventFilter::none();
        for k in kinds {
            f.0 |= 1 << (k as u8);
        }
        f
    }

    /// Parses a comma-separated kind list (`"report_sent,inbound_stopped"`).
    /// An empty string means "all kinds".
    pub fn parse(spec: &str) -> Result<Self, String> {
        if spec.trim().is_empty() {
            return Ok(EventFilter::all());
        }
        let mut f = EventFilter::none();
        for part in spec.split(',') {
            let kind: EventKind = part.trim().parse()?;
            f.0 |= 1 << (kind as u8);
        }
        Ok(f)
    }

    /// Whether the filter admits `kind`.
    pub fn allows(self, kind: EventKind) -> bool {
        self.0 & (1 << (kind as u8)) != 0
    }
}

impl Default for EventFilter {
    fn default() -> Self {
        EventFilter::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for k in ALL_KINDS {
            assert_eq!(k.as_str().parse::<EventKind>().unwrap(), k);
        }
        assert!("no_such_kind".parse::<EventKind>().is_err());
    }

    #[test]
    fn filter_parses_lists_and_rejects_typos() {
        let f = EventFilter::parse("report_sent, inbound_stopped").unwrap();
        assert!(f.allows(EventKind::ReportSent));
        assert!(f.allows(EventKind::InboundStopped));
        assert!(!f.allows(EventKind::VehicleCounted));
        assert!(EventFilter::parse("report_sent,bogus").is_err());
        assert!(EventFilter::parse("")
            .unwrap()
            .allows(EventKind::BorderExit));
    }

    #[test]
    fn filter_covers_kinds_beyond_sixteen() {
        // Fault kinds sit at bit positions 14–17; a u16 mask would silently
        // drop the last two.
        let f = EventFilter::of([EventKind::FaultMessageDropped, EventKind::ChannelBlackout]);
        assert!(f.allows(EventKind::ChannelBlackout));
        assert!(f.allows(EventKind::FaultMessageDropped));
        assert!(!f.allows(EventKind::CheckpointCrashed));
        for k in ALL_KINDS {
            assert!(EventFilter::all().allows(k));
        }
    }

    #[test]
    fn fault_events_encode_their_fields() {
        let rec = EventRecord {
            time_s: 60.0,
            seed_epoch: 3,
            event: ProtocolEvent::CheckpointCrashed {
                node: 4,
                state_lost: true,
            },
        };
        assert_eq!(
            rec.to_json(),
            "{\"t\":60,\"epoch\":3,\"kind\":\"checkpoint_crashed\",\"node\":4,\"state_lost\":true}"
        );
        let rec = EventRecord {
            time_s: 61.5,
            seed_epoch: 3,
            event: ProtocolEvent::ChannelBlackout {
                node: 2,
                edge: 7,
                vehicle: 19,
            },
        };
        assert_eq!(
            rec.to_json(),
            "{\"t\":61.5,\"epoch\":3,\"kind\":\"channel_blackout\",\"node\":2,\"edge\":7,\"vehicle\":19}"
        );
        assert_eq!(rec.event.vehicle(), Some(19));
    }

    #[test]
    fn json_lines_carry_kind_and_ids() {
        let rec = EventRecord {
            time_s: 12.5,
            seed_epoch: 7,
            event: ProtocolEvent::VehicleCounted {
                node: 3,
                edge: 9,
                vehicle: 41,
            },
        };
        let js = rec.to_json();
        assert_eq!(
            js,
            "{\"t\":12.5,\"epoch\":7,\"kind\":\"vehicle_counted\",\"node\":3,\"edge\":9,\"vehicle\":41}"
        );
    }

    #[test]
    fn json_activation_encodes_null_pred_at_seeds() {
        let rec = EventRecord {
            time_s: 0.0,
            seed_epoch: 1,
            event: ProtocolEvent::CheckpointActivated {
                node: 0,
                pred: None,
                wave_seed: 0,
                is_seed: true,
            },
        };
        assert!(rec.to_json().contains("\"pred\":null"));
        assert!(rec.to_json().contains("\"is_seed\":true"));
    }

    #[test]
    fn accessors_expose_node_and_vehicle() {
        let ev = ProtocolEvent::LabelHandoffFailed {
            node: 5,
            edge: 2,
            vehicle: 99,
        };
        assert_eq!(ev.node(), 5);
        assert_eq!(ev.vehicle(), Some(99));
        assert_eq!(ev.kind(), EventKind::LabelHandoffFailed);
        assert_eq!(ProtocolEvent::CheckpointStable { node: 1 }.vehicle(), None);
    }
}
