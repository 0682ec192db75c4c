//! The message Exchange: the engine's only inter-checkpoint path.
//!
//! Every message between checkpoints — the vehicle-carried activation
//! label, vehicle-carried subtree reports, directional V2V relay traffic,
//! and patrol-carried circuitous messages — waits here as a typed value:
//! a carrier holds an `Option<Label>`, report queues hold [`Report`]s, and
//! the relay and patrol queues hold [`Routed`] announces and reports. Each
//! message names its own destination, and every entry is `Copy`, so queue
//! shuffles (compaction, chaos duplication, the due-scratch buffers) never
//! clone and the steady-state send path allocates nothing (pinned by
//! `tests/send_alloc.rs`).
//!
//! The messages leave the process only inside a snapshot, so the wire
//! codec is counted, not run: a send counts one `encoded` and
//! [`Message::encoded_len`] bytes, a delivery its recipient consumes
//! counts one `decoded`, and one whose recipient never consumes it (a
//! down checkpoint) counts one `skipped_decode`. Debug builds round-trip
//! every send through the codec and check the decode and the length.
//!
//! The exchange also owns the segment watches (in-flight overtake
//! collaboration state) and the wire counters surfaced through
//! [`crate::metrics::RunTelemetry`]. Everything here serializes into an
//! [`ExchangeSnapshot`] for snapshot/resume: [`Exchange::snapshot`] is the
//! only encoder of a queued message and [`Exchange::restore`] the only
//! decoder, and each payload keeps the wire form it has on the air.

use super::Engine;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vcount_core::ActionKind;
use vcount_roadnet::{EdgeId, NodeId, RoadNetwork};
use vcount_v2x::{Announce, Label, Message, PatrolStatus, Report, SegmentWatch, VehicleId};

/// A queued message in wire form plus its destination: the snapshot
/// image of a queued report or [`Routed`] message. In-memory queues hold
/// typed values; envelopes exist only inside an [`ExchangeSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Envelope {
    /// Destination checkpoint: the one the payload names.
    pub to: NodeId,
    /// The payload in [`vcount_v2x::Message`] wire form.
    pub payload: Vec<u8>,
}

/// A relay message in flight, due for delivery at `due_s` (serde image;
/// see [`Envelope`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RelayInFlight {
    /// Simulated delivery time, seconds.
    pub due_s: f64,
    /// The routed payload.
    pub env: Envelope,
}

/// A message the relay or a patrol car carries from checkpoint to
/// checkpoint: a predecessor announcement or a subtree report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routed {
    /// A predecessor announcement.
    Announce(Announce),
    /// A subtree report.
    Report(Report),
}

impl Routed {
    /// The destination checkpoint the message names.
    pub(crate) fn to(self) -> NodeId {
        match self {
            Routed::Announce(a) => a.to,
            Routed::Report(r) => r.to,
        }
    }

    /// The message as it goes on the air.
    fn message(self) -> Message {
        match self {
            Routed::Announce(a) => Message::Announce(a),
            Routed::Report(r) => Message::Report(r),
        }
    }
}

/// A relay entry in memory (the serde image is [`RelayInFlight`]).
#[derive(Debug, Clone, Copy)]
struct RelayEntry {
    due_s: f64,
    msg: Routed,
}

/// An open segment watch: the label's origin checkpoint plus the V2V
/// collaboration state accumulating overtake adjustments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Watch {
    /// The checkpoint that handed off the watched label.
    pub origin: NodeId,
    /// The relative-position collaboration state machine.
    pub sw: SegmentWatch,
}

/// Wire-level traffic counters (surfaced as telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireCounters {
    /// Messages sent on the wire.
    pub encoded: u64,
    /// Messages whose recipient consumed them.
    pub decoded: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Messages delivered through the directional relay.
    pub relay_messages: u64,
    /// Carried labels silently overwritten by a second handoff to the same
    /// vehicle — always a protocol anomaly (each overwrite loses a label).
    pub label_overwrites: u64,
    /// Messages whose recipient never consumed them: delivered to a down
    /// (crashed or blacked-out) checkpoint.
    pub skipped_decode: u64,
}

/// The in-flight message store. See the module docs for the invariants.
#[derive(Debug)]
pub struct Exchange {
    /// Carried activation label per vehicle (phase 2).
    carried_label: Vec<Option<Label>>,
    /// Reports carried per vehicle.
    carried_reports: Vec<Vec<Report>>,
    /// Reports waiting at a node for a carrier onto a specific edge.
    pending_reports: Vec<Vec<(EdgeId, Report)>>,
    /// Circuitous messages waiting at a node for a patrol car (Alg. 4).
    pending_patrol: Vec<Vec<Routed>>,
    /// Directional V2V relay traffic in flight.
    relay: Vec<RelayEntry>,
    /// Open segment watches, keyed by the watched edge.
    watches: BTreeMap<EdgeId, Watch>,
    /// Patrol cars' accumulated status snapshots.
    patrol_status: BTreeMap<VehicleId, PatrolStatus>,
    /// Messages riding each patrol car.
    patrol_carried: BTreeMap<VehicleId, Vec<Routed>>,
    /// Reused due-relay buffer (taken and recycled by stage 4).
    due_relay_scratch: Vec<Routed>,
    /// Reused due-report buffer (taken and recycled by the observe stage).
    /// Distinct from `due_patrol_scratch`: a patrol arrival takes both
    /// buffers in the same interaction, and a single shared slot would
    /// hand the second take a fresh allocation every time.
    due_reports_scratch: Vec<Report>,
    /// Reused due-patrol buffer (see `due_reports_scratch`).
    due_patrol_scratch: Vec<Routed>,
    /// Reused encode buffer of the debug builds' round-trip check in
    /// [`Exchange::count_send`]; not simulation state.
    wire_check: Vec<u8>,
    counters: WireCounters,
}

/// Serializable image of an [`Exchange`] (every queue and counter, each
/// queued message in wire form; the scratch buffers are rebuilt empty on
/// restore). What vehicles carry is stored as sparse rows keyed by
/// vehicle: a vehicle that carries nothing has no row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExchangeSnapshot {
    /// `[vehicle, payload]`, one row per vehicle carrying a label, in
    /// ascending vehicle order.
    pub carried_label: Vec<(VehicleId, Vec<u8>)>,
    /// `[vehicle, envelope]`, one row per carried report, in ascending
    /// vehicle order; each vehicle's rows keep their queue order.
    pub carried_reports: Vec<(VehicleId, Envelope)>,
    /// Per-node reports awaiting a carrier, with their required edge.
    pub pending_reports: Vec<Vec<(EdgeId, Envelope)>>,
    /// Per-node circuitous messages awaiting a patrol car.
    pub pending_patrol: Vec<Vec<Envelope>>,
    /// Relay messages in flight.
    pub relay: Vec<RelayInFlight>,
    /// Open segment watches.
    pub watches: BTreeMap<EdgeId, Watch>,
    /// Patrol status snapshots.
    pub patrol_status: BTreeMap<VehicleId, PatrolStatus>,
    /// Patrol-carried messages.
    pub patrol_carried: BTreeMap<VehicleId, Vec<Envelope>>,
    /// Wire counters at snapshot time.
    pub counters: WireCounters,
}

impl Exchange {
    /// An empty exchange sized for `vehicles` vehicles and `nodes`
    /// checkpoints.
    pub fn new(vehicles: usize, nodes: usize) -> Self {
        Exchange {
            carried_label: vec![None; vehicles],
            carried_reports: vec![Vec::new(); vehicles],
            pending_reports: vec![Vec::new(); nodes],
            pending_patrol: vec![Vec::new(); nodes],
            relay: Vec::new(),
            watches: BTreeMap::new(),
            patrol_status: BTreeMap::new(),
            patrol_carried: BTreeMap::new(),
            due_relay_scratch: Vec::new(),
            due_reports_scratch: Vec::new(),
            due_patrol_scratch: Vec::new(),
            wire_check: Vec::new(),
            counters: WireCounters::default(),
        }
    }

    /// Grows the per-vehicle queues to cover `n` vehicles (open-system
    /// demand spawns new vehicles mid-run).
    pub fn ensure_vehicle_capacity(&mut self, n: usize) {
        if self.carried_label.len() < n {
            self.carried_label.resize(n, None);
            self.carried_reports.resize(n, Vec::new());
        }
    }

    /// The wire counters so far.
    pub fn counters(&self) -> WireCounters {
        self.counters
    }

    /// Counts one transmission of `msg`: one encode and its
    /// [`Message::encoded_len`] bytes, with no payload written. Debug
    /// builds encode it into one reused buffer and check the length and
    /// the decode, so the counted codec stays the real one and the send
    /// path stays allocation-free.
    fn count_send(&mut self, msg: &Message) {
        let len = msg.encoded_len();
        self.counters.encoded += 1;
        self.counters.bytes += len as u64;
        if cfg!(debug_assertions) {
            let buf = &mut self.wire_check;
            buf.clear();
            msg.encode_into(buf);
            assert_eq!(buf.len(), len, "encoded_len mismatch");
            let back = Message::decode(&mut buf.as_slice());
            assert_eq!(back.as_ref(), Ok(msg), "wire round-trip mismatch");
        }
    }

    /// Counts `n` delivered messages their recipient consumes: one decode
    /// each.
    pub fn count_consumed(&mut self, n: usize) {
        self.counters.decoded += n as u64;
    }

    /// Counts `n` delivered messages whose recipient never consumes them
    /// (a down checkpoint): one skipped decode each.
    pub fn count_discarded(&mut self, n: usize) {
        self.counters.skipped_decode += n as u64;
    }

    /// Stores a delivered label on its carrier vehicle. A vehicle must
    /// never already hold a label (a checkpoint hands off one label per
    /// direction, and the carrier surrenders it at the next checkpoint);
    /// an overwrite would silently lose the first label, so it is counted
    /// as a telemetry anomaly rather than ignored.
    pub fn hand_label(&mut self, vehicle: VehicleId, label: Label) {
        self.count_send(&Message::Label(label));
        let prev = self.carried_label[vehicle.index()].replace(label);
        debug_assert!(
            prev.is_none(),
            "vehicle {vehicle} already carries a label — double handoff overwrites it"
        );
        if prev.is_some() {
            self.counters.label_overwrites += 1;
        }
    }

    /// Takes the label `vehicle` carries, if any, counting its decode.
    pub fn take_label(&mut self, vehicle: VehicleId) -> Option<Label> {
        let label = self.carried_label[vehicle.index()].take()?;
        self.count_consumed(1);
        Some(label)
    }

    /// Drops the label `vehicle` carries (the carrier reached a down
    /// checkpoint — nobody will consume the label), counting a skipped
    /// decode. Returns whether a label was dropped.
    pub fn discard_label(&mut self, vehicle: VehicleId) -> bool {
        let dropped = self.carried_label[vehicle.index()].take().is_some();
        if dropped {
            self.count_discarded(1);
        }
        dropped
    }

    /// The handoff acknowledgement a civilian vehicle radios back on
    /// successful label receipt (the codec's ack leg), counted as one
    /// encode and one decode of its 9 wire bytes: the exchange both sends
    /// and consumes it.
    pub fn ack_handoff(&mut self, vehicle: VehicleId) {
        self.count_send(&Message::Ack { vehicle });
        self.count_consumed(1);
    }

    /// Opens a segment watch for a label handed off onto `edge`.
    pub fn insert_watch(&mut self, edge: EdgeId, origin: NodeId, sw: SegmentWatch) {
        self.watches.insert(edge, Watch { origin, sw });
    }

    /// The open watch on `edge`, if any.
    pub fn watch_mut(&mut self, edge: EdgeId) -> Option<&mut Watch> {
        self.watches.get_mut(&edge)
    }

    /// Closes and returns the watch on `edge`.
    pub fn remove_watch(&mut self, edge: EdgeId) -> Option<Watch> {
        self.watches.remove(&edge)
    }

    /// Posts `report` at `from`, waiting for a vehicle departing onto
    /// `edge` toward the report's destination.
    pub fn post_report(&mut self, from: NodeId, edge: EdgeId, report: Report) {
        self.count_send(&Message::Report(report));
        self.pending_reports[from.index()].push((edge, report));
    }

    /// Posts a circuitous message at `from`, waiting for a patrol car.
    pub fn post_patrol(&mut self, from: NodeId, msg: Routed) {
        self.count_send(&msg.message());
        self.pending_patrol[from.index()].push(msg);
    }

    /// Queues a message on the directional relay, due at `due_s`.
    pub fn queue_relay(&mut self, due_s: f64, msg: Routed) {
        self.count_send(&msg.message());
        self.relay.push(RelayEntry { due_s, msg });
    }

    /// Moves the reports waiting at `node` for edge `onto` into the
    /// departing vehicle's carried queue (stable in-place compaction).
    pub fn load_reports(&mut self, node: NodeId, vehicle: VehicleId, onto: EdgeId) {
        let pending = &mut self.pending_reports[node.index()];
        if pending.is_empty() {
            return;
        }
        let carried = &mut self.carried_reports[vehicle.index()];
        let mut kept = 0usize;
        for i in 0..pending.len() {
            if pending[i].0 == onto {
                carried.push(pending[i].1);
            } else {
                pending.swap(kept, i);
                kept += 1;
            }
        }
        pending.truncate(kept);
    }

    /// Takes the reports `vehicle` carries that are addressed to `node`,
    /// preserving order on both sides. Return the buffer with
    /// [`Exchange::recycle_reports`] when done.
    pub fn take_due_reports(&mut self, vehicle: VehicleId, node: NodeId) -> Vec<Report> {
        let mut due = std::mem::take(&mut self.due_reports_scratch);
        due.clear();
        split_due(
            &mut self.carried_reports[vehicle.index()],
            |r| r.to == node,
            &mut due,
        );
        due
    }

    /// Takes the patrol-carried messages addressed to `node`. Return the
    /// buffer with [`Exchange::recycle_patrol`] when done. Safe to call
    /// while a [`Exchange::take_due_reports`] buffer is still outstanding:
    /// the two takes use distinct scratch slots.
    pub fn take_due_patrol(&mut self, vehicle: VehicleId, node: NodeId) -> Vec<Routed> {
        let mut due = std::mem::take(&mut self.due_patrol_scratch);
        due.clear();
        if let Some(list) = self.patrol_carried.get_mut(&vehicle) {
            split_due(list, |m| m.to() == node, &mut due);
        }
        due
    }

    /// Returns a [`Exchange::take_due_reports`] buffer for reuse.
    pub fn recycle_reports(&mut self, mut scratch: Vec<Report>) {
        scratch.clear();
        self.due_reports_scratch = scratch;
    }

    /// Returns a [`Exchange::take_due_patrol`] buffer for reuse.
    pub fn recycle_patrol(&mut self, mut scratch: Vec<Routed>) {
        scratch.clear();
        self.due_patrol_scratch = scratch;
    }

    /// Drops every message queued *at* `node` (reports awaiting a carrier
    /// and circuitous messages awaiting a patrol car), returning how many
    /// were lost — a crashed checkpoint loses its volatile queues. The
    /// messages were never delivered, so they never enter the
    /// `decoded`/`skipped_decode` split.
    pub fn drop_node_queues(&mut self, node: NodeId) -> usize {
        let (reports, patrol) = (
            &mut self.pending_reports[node.index()],
            &mut self.pending_patrol[node.index()],
        );
        let n = reports.len() + patrol.len();
        reports.clear();
        patrol.clear();
        n
    }

    /// Drops every open segment watch whose origin is `node`, returning
    /// how many closed. A crashed checkpoint loses the volatile handoff
    /// context its watches adjust against — a watch finalizing after
    /// recovery would apply adjustments to a restored state image that
    /// never saw the handoff, so the crash closes the watch and the loss
    /// is counted as explicit degradation instead.
    pub fn drop_origin_watches(&mut self, node: NodeId) -> usize {
        let before = self.watches.len();
        self.watches.retain(|_, w| w.origin != node);
        before - self.watches.len()
    }

    /// Chaos injection: swaps the due times of the two most recently
    /// queued relay messages, flipping their delivery order. No-op with
    /// fewer than two messages in flight.
    pub fn swap_relay_due_tail(&mut self) {
        let n = self.relay.len();
        if n >= 2 {
            let a = self.relay[n - 2].due_s;
            self.relay[n - 2].due_s = self.relay[n - 1].due_s;
            self.relay[n - 1].due_s = a;
        }
    }

    /// Chaos injection on the patrol-carried path: duplicates the most
    /// recently picked-up message and/or reverses the carried queue. The
    /// protocol tolerates both (announces are idempotent, reports are
    /// highest-sequence-wins). The duplicate is a copy the air never
    /// carried, so it counts no send.
    pub fn chaos_patrol_carried(&mut self, vehicle: VehicleId, duplicate: bool, reverse: bool) {
        let Some(list) = self.patrol_carried.get_mut(&vehicle) else {
            return;
        };
        if duplicate {
            if let Some(&last) = list.last() {
                list.push(last);
            }
        }
        if reverse {
            list.reverse();
        }
    }

    /// A patrol car picks up every circuitous message waiting at `node`.
    pub fn pickup_patrol(&mut self, vehicle: VehicleId, node: NodeId) {
        let pending = &mut self.pending_patrol[node.index()];
        if pending.is_empty() {
            return;
        }
        self.patrol_carried
            .entry(vehicle)
            .or_default()
            .append(pending);
    }

    /// Records a patrol car's status observation of `node`.
    pub fn observe_status(&mut self, vehicle: VehicleId, node: NodeId, active: bool) {
        self.patrol_status
            .entry(vehicle)
            .or_default()
            .observe(node, active);
    }

    /// The status snapshot a patrol car radios to the checkpoint it is
    /// visiting. The exchange both sends and consumes it in this call, so
    /// — like [`Exchange::ack_handoff`] — it is counted as one encode and
    /// one decode of its full wire length.
    pub fn relay_status(&mut self, vehicle: VehicleId) -> PatrolStatus {
        let msg = Message::Patrol(self.patrol_status.entry(vehicle).or_default().clone());
        self.count_send(&msg);
        self.count_consumed(1);
        let Message::Patrol(status) = msg else {
            unreachable!("built as a patrol status above")
        };
        status
    }

    /// Takes every relay message due by `now` in one `swap_remove` sweep,
    /// counting each as relayed; the returned order is the delivery
    /// order. Return the buffer with [`Exchange::recycle_relay`] when
    /// done.
    pub(crate) fn take_due_relay(&mut self, now: f64) -> Vec<Routed> {
        let mut due = std::mem::take(&mut self.due_relay_scratch);
        let mut i = 0;
        while i < self.relay.len() {
            if self.relay[i].due_s <= now {
                self.counters.relay_messages += 1;
                due.push(self.relay.swap_remove(i).msg);
            } else {
                i += 1;
            }
        }
        due
    }

    /// Returns a [`Exchange::take_due_relay`] buffer for reuse.
    pub(crate) fn recycle_relay(&mut self, mut scratch: Vec<Routed>) {
        scratch.clear();
        self.due_relay_scratch = scratch;
    }

    /// Whether `vehicle` carries no reports (border-exit invariant: every
    /// report is delivered at the node before an exit).
    pub fn carried_is_empty(&self, vehicle: VehicleId) -> bool {
        self.carried_reports[vehicle.index()].is_empty()
    }

    /// Whether any report is still in transit anywhere (on a vehicle,
    /// waiting at a node, in the relay, or on a patrol car). Collection is
    /// final only when the last re-report has landed.
    pub fn reports_in_flight(&self) -> bool {
        let is_report = |m: &Routed| matches!(m, Routed::Report(_));
        self.carried_reports.iter().any(|list| !list.is_empty())
            || self.pending_reports.iter().any(|list| !list.is_empty())
            || self.relay.iter().any(|e| is_report(&e.msg))
            || self.pending_patrol.iter().flatten().any(is_report)
            || self.patrol_carried.values().flatten().any(is_report)
    }

    /// Serializable image of every queue and counter, each queued message
    /// encoded in its wire form.
    pub fn snapshot(&self) -> ExchangeSnapshot {
        let report = |r: &Report| Envelope {
            to: r.to,
            payload: wire(&Message::Report(*r)),
        };
        let routed = |m: &Routed| Envelope {
            to: m.to(),
            payload: wire(&m.message()),
        };
        let carriers = (0..).map(VehicleId);
        ExchangeSnapshot {
            carried_label: carriers
                .clone()
                .zip(&self.carried_label)
                .filter_map(|(v, slot)| slot.map(|l| (v, wire(&Message::Label(l)))))
                .collect(),
            carried_reports: carriers
                .zip(&self.carried_reports)
                .flat_map(|(v, list)| list.iter().map(move |r| (v, report(r))))
                .collect(),
            pending_reports: self
                .pending_reports
                .iter()
                .map(|list| list.iter().map(|(e, r)| (*e, report(r))).collect())
                .collect(),
            pending_patrol: self
                .pending_patrol
                .iter()
                .map(|list| list.iter().map(routed).collect())
                .collect(),
            relay: self
                .relay
                .iter()
                .map(|e| RelayInFlight {
                    due_s: e.due_s,
                    env: routed(&e.msg),
                })
                .collect(),
            watches: self.watches.clone(),
            patrol_status: self.patrol_status.clone(),
            patrol_carried: self
                .patrol_carried
                .iter()
                .map(|(v, list)| (*v, list.iter().map(routed).collect()))
                .collect(),
            counters: self.counters,
        }
    }

    /// Rebuilds an exchange from a snapshot taken on `net` over a
    /// population of `population` vehicles, decoding every payload once
    /// into the type its queue holds (scratch buffers start empty). A
    /// snapshot is outside input, so a payload that does not decode to the
    /// kind its queue carries, an envelope whose destination is not the
    /// one its payload names, a node or edge outside `net`, a vehicle past
    /// the population, carrier rows out of order, or a table of the wrong
    /// shape is an error, not a panic on some later step.
    pub fn restore(
        snap: &ExchangeSnapshot,
        net: &RoadNetwork,
        population: usize,
    ) -> Result<Self, String> {
        validate(snap, net, population)?;
        let nodes = net.node_count();
        let report = |env: &Envelope, what: &str| {
            decode(&env.payload, Some(env.to), nodes, what, |m| match m {
                Message::Report(r) => Ok(r),
                other => Err(other),
            })
        };
        let routed = |env: &Envelope| {
            decode(
                &env.payload,
                Some(env.to),
                nodes,
                "relay or patrol",
                |m| match m {
                    Message::Announce(a) => Ok(Routed::Announce(a)),
                    Message::Report(r) => Ok(Routed::Report(r)),
                    other => Err(other),
                },
            )
        };
        let routed_list = |list: &Vec<Envelope>| -> Result<Vec<Routed>, String> {
            list.iter().map(routed).collect()
        };

        let mut carried_label = vec![None; population];
        for (v, bytes) in &snap.carried_label {
            let label = decode(bytes, None, nodes, "carried label", |m| match m {
                Message::Label(l) => Ok(l),
                other => Err(other),
            })?;
            carried_label[v.index()] = Some(label);
        }
        let mut carried_reports = vec![Vec::new(); population];
        for (v, env) in &snap.carried_reports {
            carried_reports[v.index()].push(report(env, "carried report")?);
        }
        let pending_reports = snap
            .pending_reports
            .iter()
            .map(|list| {
                list.iter()
                    .map(|(e, env)| Ok((*e, report(env, "pending report")?)))
                    .collect::<Result<Vec<_>, String>>()
            })
            .collect::<Result<_, String>>()?;
        let pending_patrol = snap
            .pending_patrol
            .iter()
            .map(routed_list)
            .collect::<Result<_, String>>()?;
        let patrol_carried = snap
            .patrol_carried
            .iter()
            .map(|(v, list)| Ok((*v, routed_list(list)?)))
            .collect::<Result<_, String>>()?;
        let relay = snap
            .relay
            .iter()
            .map(|r| {
                let msg = routed(&r.env)?;
                Ok(RelayEntry {
                    due_s: r.due_s,
                    msg,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Exchange {
            carried_label,
            carried_reports,
            pending_reports,
            pending_patrol,
            relay,
            watches: snap.watches.clone(),
            patrol_status: snap.patrol_status.clone(),
            patrol_carried,
            due_relay_scratch: Vec::new(),
            due_reports_scratch: Vec::new(),
            due_patrol_scratch: Vec::new(),
            wire_check: Vec::new(),
            counters: snap.counters,
        })
    }
}

/// Stable in-place split: entries `is_due` accepts move into `due`, the
/// rest compact in place — no per-arrival allocation.
fn split_due<T: Copy>(list: &mut Vec<T>, is_due: impl Fn(&T) -> bool, due: &mut Vec<T>) {
    let mut kept = 0usize;
    for i in 0..list.len() {
        if is_due(&list[i]) {
            due.push(list[i]);
        } else {
            list.swap(kept, i);
            kept += 1;
        }
    }
    list.truncate(kept);
}

/// The wire form of `msg`, as a snapshot stores it.
fn wire(msg: &Message) -> Vec<u8> {
    let mut payload = Vec::with_capacity(msg.encoded_len());
    msg.encode_into(&mut payload);
    payload
}

/// Decodes one snapshot payload into the type its queue holds: `typed`
/// accepts the kinds the queue carries and hands any other back. The
/// bytes must hold exactly one such message, every node it names must be
/// one of the map's `nodes`, and an envelope's destination `to` must be
/// on the map and be the one the message names.
fn decode<T>(
    bytes: &[u8],
    to: Option<NodeId>,
    nodes: usize,
    what: &str,
    typed: fn(Message) -> Result<T, Message>,
) -> Result<T, String> {
    let node = |n: NodeId| in_map(n.index(), nodes, "node", what);
    to.map_or(Ok(()), node)?;
    let mut buf = bytes;
    let msg =
        Message::decode(&mut buf).map_err(|e| format!("{what} payload does not decode: {e}"))?;
    if !buf.is_empty() {
        return Err(format!("{what} payload has {} trailing bytes", buf.len()));
    }
    let (dest, named) = match &msg {
        Message::Label(l) => (None, [Some(l.origin), l.origin_pred, Some(l.seed)]),
        Message::Report(r) => (Some(r.to), [Some(r.from), Some(r.to), None]),
        Message::Announce(a) => (Some(a.to), [Some(a.to), Some(a.from), a.pred]),
        Message::Patrol(_) | Message::Ack { .. } => (None, [None; 3]),
    };
    let value = typed(msg).map_err(|other| format!("{what} queue holds {other:?}"))?;
    named.into_iter().flatten().try_for_each(node)?;
    match (to, dest) {
        (Some(to), Some(dest)) if to != dest => Err(format!(
            "{what} envelope names node {} but its payload is addressed to node {}",
            to.0, dest.0
        )),
        _ => Ok(value),
    }
}

/// The restore-time checks behind [`Exchange::restore`] that need no
/// payload: table shapes, carrier rows, edges, vehicles and watches.
fn validate(snap: &ExchangeSnapshot, net: &RoadNetwork, population: usize) -> Result<(), String> {
    let nodes = net.node_count();
    let edges = net.edge_count();
    for (what, len) in [
        ("pending report", snap.pending_reports.len()),
        ("pending patrol", snap.pending_patrol.len()),
    ] {
        if len != nodes {
            return Err(format!("{what} table has {len} entries for {nodes} nodes"));
        }
    }
    let labels = snap.carried_label.iter().map(|(v, _)| *v);
    carriers(labels, population, "carried label", true)?;
    let reports = snap.carried_reports.iter().map(|(v, _)| *v);
    carriers(reports, population, "carried report", false)?;
    let patrol_cars = snap.patrol_status.keys().chain(snap.patrol_carried.keys());
    if let Some(v) = patrol_cars.copied().find(|v| v.index() >= population) {
        return Err(format!(
            "patrol table names vehicle {} past the {population} vehicles",
            v.0
        ));
    }
    for (e, _) in snap.pending_reports.iter().flatten() {
        in_map(e.index(), edges, "edge", "pending report")?;
    }
    for (e, w) in &snap.watches {
        in_map(e.index(), edges, "edge", "segment watch")?;
        in_map(w.origin.index(), nodes, "node", "segment watch")?;
        if let Some(v) = w.sw.vehicles().find(|v| v.index() >= population) {
            return Err(format!(
                "segment watch on edge {} names vehicle {} past the {population} vehicles",
                e.0, v.0
            ));
        }
    }
    Ok(())
}

/// Checks the carrier column of sparse per-vehicle rows: each vehicle is
/// one of the `population`, in ascending order, and listed once when
/// `once` (a vehicle carries at most one label).
fn carriers(
    vehicles: impl Iterator<Item = VehicleId>,
    population: usize,
    what: &str,
    once: bool,
) -> Result<(), String> {
    let mut last = None;
    for (i, v) in vehicles.enumerate() {
        if v.index() >= population {
            return Err(format!(
                "{what} row {i} names vehicle {} past the {population} vehicles",
                v.0
            ));
        }
        if last > Some(v) || (once && last == Some(v)) {
            return Err(format!(
                "{what} row {i} is out of vehicle order or listed twice"
            ));
        }
        last = Some(v);
    }
    Ok(())
}

/// `Ok` when `i` indexes one of the map's `count` `kind`s.
fn in_map(i: usize, count: usize, kind: &str, what: &str) -> Result<(), String> {
    if i < count {
        return Ok(());
    }
    Err(format!(
        "{what} names {kind} {i} outside the {count}-{kind} map"
    ))
}

/// Stage 4: delivers every relay message that came due this step, in the
/// order `Exchange::take_due_relay` took them. A delivery can queue
/// further relay traffic (a report triggered by an announce), but its due
/// time always lands in a later step, so taking the due list before
/// delivering changes no delivery order.
pub fn exchange(engine: &mut Engine) {
    let due = engine.exchange.take_due_relay(engine.now);
    for &msg in &due {
        deliver_routed(engine, msg);
    }
    engine.exchange.recycle_relay(due);
}

/// Delivers a routed message at its destination checkpoint and feeds it
/// through the machine (shared by the relay and the patrol delivery
/// paths). A message addressed to a crashed (down) checkpoint is
/// discarded and counted — the run becomes explicitly degraded rather
/// than silently miscounting.
pub(crate) fn deliver_routed(engine: &mut Engine, msg: Routed) {
    let to = msg.to();
    if engine.faults.down(to) {
        crate::faults::drop_messages(engine, to, 1);
        engine.exchange.count_discarded(1);
        return;
    }
    engine.exchange.count_consumed(1);
    let kind = match msg {
        Routed::Announce(a) => ActionKind::Announce {
            from: a.from,
            pred: a.pred,
        },
        Routed::Report(r) => ActionKind::Report {
            from: r.from,
            total: r.subtree_total,
            seq: r.seq,
        },
    };
    super::apply_action(engine, to, kind);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(to: NodeId) -> Report {
        Report {
            from: NodeId(0),
            to,
            subtree_total: 1,
            seq: 1,
        }
    }

    fn routed(to: NodeId) -> Routed {
        Routed::Report(report(to))
    }

    fn label() -> Label {
        Label {
            origin: NodeId(0),
            origin_pred: None,
            seed: NodeId(0),
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "already carries a label")]
    fn double_handoff_is_a_debug_assertion() {
        let mut ex = Exchange::new(1, 2);
        ex.hand_label(VehicleId(0), label());
        ex.hand_label(VehicleId(0), label());
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn double_handoff_is_counted_in_release() {
        let mut ex = Exchange::new(1, 2);
        ex.hand_label(VehicleId(0), label());
        ex.hand_label(VehicleId(0), label());
        assert_eq!(ex.counters().label_overwrites, 1);
        // The second label wins; the loss is visible in telemetry.
        assert!(ex.take_label(VehicleId(0)).is_some());
        assert!(ex.take_label(VehicleId(0)).is_none());
    }

    #[test]
    fn handoff_then_surrender_never_counts_an_overwrite() {
        let mut ex = Exchange::new(1, 2);
        ex.hand_label(VehicleId(0), label());
        assert!(ex.take_label(VehicleId(0)).is_some());
        ex.hand_label(VehicleId(0), label());
        assert_eq!(ex.counters().label_overwrites, 0);
    }

    #[test]
    fn discard_label_skips_the_decode() {
        let mut ex = Exchange::new(1, 2);
        ex.hand_label(VehicleId(0), label());
        assert!(ex.discard_label(VehicleId(0)));
        assert!(!ex.discard_label(VehicleId(0)), "slot already empty");
        let c = ex.counters();
        assert_eq!((c.decoded, c.skipped_decode), (0, 1));
    }

    #[test]
    fn due_scratch_slots_survive_simultaneous_takes() {
        let mut ex = Exchange::new(1, 3);
        let v = VehicleId(0);
        let n = NodeId(1);
        // One carried report and one patrol-carried message, both due at n.
        ex.post_report(NodeId(0), EdgeId(0), report(n));
        ex.load_reports(NodeId(0), v, EdgeId(0));
        ex.post_patrol(NodeId(0), routed(n));
        ex.pickup_patrol(v, NodeId(0));

        // A patrol arrival holds both buffers at once.
        let r = ex.take_due_reports(v, n);
        let p = ex.take_due_patrol(v, n);
        assert_eq!((r.len(), p.len()), (1, 1));
        ex.recycle_reports(r);
        ex.recycle_patrol(p);

        // Both slots kept their capacity: nothing is due any more, yet the
        // returned buffers are the previously grown scratch vectors. With a
        // single shared slot the second take would come back fresh
        // (capacity 0), i.e. a new allocation on every patrol arrival.
        let r = ex.take_due_reports(v, n);
        let p = ex.take_due_patrol(v, n);
        assert!(r.is_empty() && r.capacity() > 0, "reports scratch was lost");
        assert!(p.is_empty() && p.capacity() > 0, "patrol scratch was lost");
        ex.recycle_reports(r);
        ex.recycle_patrol(p);
    }

    #[test]
    fn drop_node_queues_counts_and_clears_only_that_node() {
        let mut ex = Exchange::new(1, 3);
        ex.post_report(NodeId(1), EdgeId(0), report(NodeId(2)));
        ex.post_patrol(NodeId(1), routed(NodeId(2)));
        ex.post_patrol(NodeId(0), routed(NodeId(2)));
        assert_eq!(ex.drop_node_queues(NodeId(1)), 2);
        assert_eq!(ex.drop_node_queues(NodeId(1)), 0);
        // Node 0's queue is untouched.
        ex.pickup_patrol(VehicleId(0), NodeId(0));
        assert_eq!(ex.take_due_patrol(VehicleId(0), NodeId(2)).len(), 1);
    }

    #[test]
    fn drop_origin_watches_closes_only_the_crashed_origin() {
        use vcount_v2x::{AdjustMode, SegmentWatch};
        let sw = || SegmentWatch::new(AdjustMode::NetInversion, VehicleId(0), []);
        let mut ex = Exchange::new(1, 3);
        ex.insert_watch(EdgeId(0), NodeId(1), sw());
        ex.insert_watch(EdgeId(1), NodeId(2), sw());
        ex.insert_watch(EdgeId(2), NodeId(1), sw());
        assert_eq!(ex.drop_origin_watches(NodeId(1)), 2);
        assert_eq!(ex.drop_origin_watches(NodeId(1)), 0);
        assert!(ex.watch_mut(EdgeId(0)).is_none());
        assert!(ex.watch_mut(EdgeId(1)).is_some(), "other origin survives");
    }

    #[test]
    fn swap_relay_due_tail_flips_delivery_order() {
        let mut ex = Exchange::new(1, 3);
        ex.queue_relay(10.0, routed(NodeId(1)));
        ex.queue_relay(20.0, routed(NodeId(2)));
        ex.swap_relay_due_tail();
        // The later-queued message is now due first.
        let early = ex.take_due_relay(15.0);
        assert_eq!(
            early.iter().map(|m| m.to()).collect::<Vec<_>>(),
            [NodeId(2)]
        );
        ex.recycle_relay(early);
        ex.swap_relay_due_tail(); // single message: no-op
        assert!(ex.take_due_relay(15.0).is_empty());
    }

    #[test]
    fn chaos_patrol_carried_duplicates_and_reverses() {
        let mut ex = Exchange::new(1, 4);
        let v = VehicleId(0);
        ex.post_patrol(NodeId(0), routed(NodeId(2)));
        ex.post_patrol(NodeId(0), routed(NodeId(3)));
        ex.pickup_patrol(v, NodeId(0));
        let sent = ex.counters();
        ex.chaos_patrol_carried(v, true, true);
        assert_eq!(ex.counters(), sent, "a chaos duplicate is never sent");
        // Duplicate of the newest (to node 3), then reversed.
        let due3 = ex.take_due_patrol(v, NodeId(3));
        assert_eq!(*due3, [routed(NodeId(3)); 2]);
        ex.recycle_patrol(due3);
        let due2 = ex.take_due_patrol(v, NodeId(2));
        assert_eq!(due2.len(), 1);
        // No carried queue for an unknown vehicle: no-op.
        ex.chaos_patrol_carried(VehicleId(99), true, true);
    }

    #[test]
    fn batch_preserves_drain_order_across_checkpoints() {
        let mut ex = Exchange::new(1, 4);
        // Interleaved destinations, all due.
        for &(due, to) in &[(1.0, 2u32), (2.0, 1), (3.0, 2), (4.0, 3)] {
            ex.queue_relay(due, routed(NodeId(to)));
        }
        let due = ex.take_due_relay(10.0);
        let seen: Vec<u32> = due.iter().map(|m| m.to().0).collect();
        ex.recycle_relay(due);
        // swap_remove drain order: take index 0 (to 2); the swap brings the
        // newest entry (to 3) to the front — take it; the next swap brings
        // the second to-2 forward — take it; finally to 1.
        assert_eq!(seen, vec![2, 3, 2, 1]);
        assert_eq!(ex.counters().relay_messages, 4);
    }

    /// The three-node map the unit tests' exchanges stand on.
    fn net() -> RoadNetwork {
        vcount_roadnet::builders::fig1_triangle(100.0, 1, 10.0)
    }

    #[test]
    fn snapshot_round_trips_through_the_codec() {
        let mut ex = Exchange::new(2, 3);
        ex.hand_label(VehicleId(1), label());
        ex.post_report(NodeId(0), EdgeId(0), report(NodeId(1)));
        let announce = Routed::Announce(Announce {
            to: NodeId(0),
            from: NodeId(2),
            pred: Some(NodeId(1)),
        });
        ex.post_patrol(NodeId(2), announce);
        ex.queue_relay(5.0, routed(NodeId(2)));
        ex.pickup_patrol(VehicleId(0), NodeId(2));
        let snap = ex.snapshot();
        let mut back = Exchange::restore(&snap, &net(), 2).unwrap();
        assert_eq!(back.counters(), ex.counters());
        assert!(back.reports_in_flight());
        assert_eq!(back.take_label(VehicleId(1)), Some(label()));
        assert_eq!(*back.take_due_patrol(VehicleId(0), NodeId(0)), [announce]);
        assert_eq!(*back.take_due_relay(5.0), [routed(NodeId(2))]);
        // Re-snapshotting the restored exchange reproduces the image.
        let again = Exchange::restore(&snap, &net(), 2).unwrap().snapshot();
        assert_eq!(
            serde_json::to_string(&snap).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    /// Each kind of inconsistency a snapshot can carry is refused by name.
    #[test]
    fn restore_refuses_an_inconsistent_image() {
        use vcount_v2x::{AdjustMode, SegmentWatch};
        let mut ex = Exchange::new(2, 3);
        ex.hand_label(VehicleId(1), label());
        ex.post_report(NodeId(0), EdgeId(0), report(NodeId(1)));
        ex.queue_relay(5.0, routed(NodeId(2)));
        let sw = SegmentWatch::new(AdjustMode::NetInversion, VehicleId(0), []);
        ex.insert_watch(EdgeId(1), NodeId(0), sw);
        let good = ex.snapshot();
        assert!(Exchange::restore(&good, &net(), 2).is_ok());

        type Poison = (&'static str, fn(&mut ExchangeSnapshot));
        let poisons: &[Poison] = &[
            ("does not decode", |s| s.carried_label[0].1 = vec![0xFF; 9]),
            ("trailing bytes", |s| s.carried_label[0].1.push(0)),
            ("carried label queue holds Report", |s| {
                s.carried_label[0].1 = s.relay[0].env.payload.clone();
            }),
            ("names node 7", |s| s.relay[0].env.to = NodeId(7)),
            ("names node 9", |s| {
                s.relay[0].env.payload = wire(&Message::Report(report(NodeId(9))));
            }),
            (
                "relay or patrol envelope names node 1 but its payload is addressed to node 2",
                |s| s.relay[0].env.to = NodeId(1),
            ),
            ("pending report names edge 99", |s| {
                s.pending_reports[0][0].0 = EdgeId(99)
            }),
            ("segment watch names edge 99", |s| {
                let w = s.watches.remove(&EdgeId(1)).unwrap();
                s.watches.insert(EdgeId(99), w);
            }),
            ("segment watch names node 5", |s| {
                s.watches.get_mut(&EdgeId(1)).unwrap().origin = NodeId(5)
            }),
            ("pending patrol table has 2 entries for 3 nodes", |s| {
                s.pending_patrol.pop();
            }),
            (
                "carried label row 0 names vehicle 2 past the 2 vehicles",
                |s| s.carried_label[0].0 = VehicleId(2),
            ),
            (
                "carried label row 1 is out of vehicle order or listed twice",
                |s| s.carried_label.push(s.carried_label[0].clone()),
            ),
            ("carried report row 1 is out of vehicle order", |s| {
                let env = s.relay[0].env.clone();
                s.carried_reports = vec![(VehicleId(1), env.clone()), (VehicleId(0), env)];
            }),
            (
                "segment watch on edge 1 names vehicle 5 past the 2 vehicles",
                |s| {
                    let w = s.watches.get_mut(&EdgeId(1)).unwrap();
                    w.sw = SegmentWatch::new(AdjustMode::NetInversion, VehicleId(5), []);
                },
            ),
            ("patrol table names vehicle 9 past the 2 vehicles", |s| {
                s.patrol_status
                    .insert(VehicleId(9), PatrolStatus::default());
            }),
        ];
        for (expected, poison) in poisons {
            let mut bad = good.clone();
            poison(&mut bad);
            let err = Exchange::restore(&bad, &net(), 2).unwrap_err();
            assert!(err.contains(expected), "{expected}: got {err:?}");
        }
    }
}
