//! The message Exchange: the engine's only inter-checkpoint path.
//!
//! Every message between checkpoints — the vehicle-carried activation
//! label, vehicle-carried subtree reports, directional V2V relay traffic,
//! and patrol-carried circuitous messages — is encoded once on send into
//! a slab-backed [`PayloadStore`] and queued as a copyable [`Routed`]
//! key. Slots are recycled, so the steady-state send path allocates
//! nothing (pinned by `tests/hotpath_alloc.rs`). Decode is lazy: a
//! payload is parsed only when its recipient actually consumes it —
//! deliveries to crashed checkpoints and chaos-dropped duplicates are
//! discarded unparsed and counted under `skipped_decode` instead of
//! `decoded` ([`Exchange::set_eager_decode`] forces the old
//! parse-everything behavior as a reference path;
//! `tests/lazy_decode_identity.rs` proves the event stream cannot tell
//! the difference).
//!
//! The exchange also owns the segment watches (in-flight overtake
//! collaboration state) and the wire counters surfaced through
//! [`crate::metrics::RunTelemetry`]. Everything here serializes into an
//! [`ExchangeSnapshot`] for snapshot/resume: payload refs are resolved
//! to owned bytes on snapshot and re-interned into a fresh store on
//! restore, so the snapshot wire format is unchanged from the owned-
//! payload era.

use super::Engine;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vcount_core::ActionKind;
use vcount_roadnet::{EdgeId, NodeId, RoadNetwork};
use vcount_v2x::message::TAG_REPORT;
use vcount_v2x::{Label, Message, PatrolStatus, PayloadRef, PayloadStore, SegmentWatch, VehicleId};

/// A wire-encoded message plus its routing header, in owned form — the
/// snapshot/serde image of a queued message. In-memory queues hold
/// [`Routed`] slab keys instead; envelopes are materialized only when an
/// [`ExchangeSnapshot`] is taken.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Envelope {
    /// Destination checkpoint.
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

/// A queued message in memory: destination plus a slab key into the
/// exchange's [`PayloadStore`]. Copyable — queue shuffles (compaction,
/// chaos reorder, patrol pickup) move 12 bytes instead of a heap buffer.
#[derive(Debug, Clone, Copy)]
pub struct Routed {
    /// Destination checkpoint.
    pub to: NodeId,
    /// Slab key of the wire payload.
    pub payload: PayloadRef,
}

/// A relay entry in memory (the serde image is [`RelayInFlight`]).
#[derive(Debug, Clone, Copy)]
struct RelayEntry {
    due_s: f64,
    routed: Routed,
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
    /// Messages encoded onto the wire.
    pub encoded: u64,
    /// Messages decoded off the wire (actually parsed by a consumer).
    pub decoded: u64,
    /// Total payload bytes encoded.
    pub bytes: u64,
    /// Messages delivered through the directional relay.
    pub relay_messages: u64,
    /// Carried labels silently overwritten by a second handoff to the same
    /// vehicle — always a protocol anomaly (each overwrite loses a label).
    pub label_overwrites: u64,
    /// Messages discarded without parsing — lazy decode's dividend. A
    /// message lands here instead of `decoded` when its recipient was
    /// down (crashed/blacked out) or the payload was a dropped duplicate.
    pub skipped_decode: u64,
}

/// The in-flight message store. See the module docs for the invariants.
#[derive(Debug)]
pub struct Exchange {
    /// Slab-backed payload bytes behind every queued [`Routed`] key.
    store: PayloadStore,
    /// Carried activation label per vehicle (phase 2).
    carried_label: Vec<Option<PayloadRef>>,
    /// Reports carried per vehicle.
    carried_reports: Vec<Vec<Routed>>,
    /// Reports waiting at a node for a carrier onto a specific edge.
    pending_reports: Vec<Vec<(EdgeId, Routed)>>,
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
    due_reports_scratch: Vec<Routed>,
    /// Reused due-patrol buffer (see `due_reports_scratch`).
    due_patrol_scratch: Vec<Routed>,
    /// Parse discarded deliveries anyway (the reference path the lazy
    /// plane is tested against): not simulation state — never
    /// serialized, and the event stream is byte-identical either way.
    eager_decode: bool,
    counters: WireCounters,
}

/// Serializable image of an [`Exchange`] (every queue and counter; slab
/// refs are resolved to owned payload bytes, and the scratch buffers are
/// rebuilt empty on restore). What vehicles carry is stored as sparse
/// rows keyed by vehicle: a vehicle that carries nothing has no row.
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
            store: PayloadStore::new(),
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
            eager_decode: false,
            counters: WireCounters::default(),
        }
    }

    /// Forces discarded deliveries to be parsed anyway, restoring the
    /// pre-lazy decode behavior. Affects only the `decoded` /
    /// `skipped_decode` counter split and the work done — never the
    /// event stream (`tests/lazy_decode_identity.rs`).
    pub fn set_eager_decode(&mut self, eager: bool) {
        self.eager_decode = eager;
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

    /// Encodes `msg` into a recycled slab slot, counting the wire
    /// traffic. Steady state allocates nothing: the slot's buffer keeps
    /// its capacity across messages.
    fn encode(&mut self, msg: &Message) -> PayloadRef {
        let r = self.store.insert_with(|buf| msg.encode_into(buf));
        self.counters.encoded += 1;
        self.counters.bytes += self.store.get(r).len() as u64;
        r
    }

    /// Parses a queued payload at its consumption point and releases the
    /// slot. The only path that pays a decode in the lazy (default) mode.
    /// Payloads are self-produced, so a decode failure is a codec bug, not
    /// bad input; the decode reads straight from the slab slot, so the
    /// per-delivery hot path stays allocation-free (pinned by
    /// `tests/send_alloc.rs`).
    pub fn consume_payload(&mut self, r: PayloadRef) -> Message {
        self.counters.decoded += 1;
        let msg = self
            .store
            .lazy(r)
            .decode()
            .expect("exchange-owned payloads always decode");
        self.store.free(r);
        msg
    }

    /// Drops a queued payload whose recipient will never consume it
    /// (down checkpoint, discarded duplicate). Lazy mode releases the
    /// slot unparsed and counts `skipped_decode`; eager mode pays the
    /// decode it would have cost, keeping `decoded` comparable to the
    /// pre-lazy plane.
    pub fn discard_payload(&mut self, r: PayloadRef) {
        if self.eager_decode {
            self.counters.decoded += 1;
            self.store
                .lazy(r)
                .decode()
                .expect("exchange-owned payloads always decode");
        } else {
            self.counters.skipped_decode += 1;
        }
        self.store.free(r);
    }

    /// Stores a delivered label on its carrier vehicle. A vehicle must
    /// never already hold a label (a checkpoint hands off one label per
    /// direction, and the carrier surrenders it at the next checkpoint);
    /// an overwrite would silently lose the first label, so it is counted
    /// as a telemetry anomaly rather than ignored.
    pub fn hand_label(&mut self, vehicle: VehicleId, label: Label) {
        let r = self.encode(&Message::Label(label));
        let prev = self.carried_label[vehicle.index()].replace(r);
        debug_assert!(
            prev.is_none(),
            "vehicle {vehicle} already carries a label — double handoff overwrites it"
        );
        if let Some(p) = prev {
            self.counters.label_overwrites += 1;
            self.store.free(p);
        }
    }

    /// Takes and decodes the label `vehicle` carries, if any.
    pub fn take_label(&mut self, vehicle: VehicleId) -> Option<Label> {
        let r = self.carried_label[vehicle.index()].take()?;
        match self.consume_payload(r) {
            Message::Label(l) => Some(l),
            other => unreachable!("label slot held {other:?}"),
        }
    }

    /// Drops the label `vehicle` carries without parsing it (the carrier
    /// reached a down checkpoint — nobody will consume the label).
    /// Returns whether a label was dropped.
    pub fn discard_label(&mut self, vehicle: VehicleId) -> bool {
        match self.carried_label[vehicle.index()].take() {
            Some(r) => {
                self.discard_payload(r);
                true
            }
            None => false,
        }
    }

    /// Counts a transmission this exchange both produces and consumes in
    /// the same call: one encode, one decode and the message's
    /// [`Message::encoded_len`] bytes, exactly as if it had crossed the
    /// air, while no payload is written or parsed. Debug builds still
    /// round-trip the message through the slab and check that the decode
    /// matches and that the length is the one counted.
    fn self_transmit(&mut self, msg: &Message) {
        let len = msg.encoded_len();
        self.counters.encoded += 1;
        self.counters.decoded += 1;
        self.counters.bytes += len as u64;
        if cfg!(debug_assertions) {
            let r = self.store.insert_with(|buf| msg.encode_into(buf));
            assert_eq!(self.store.get(r).len(), len, "encoded_len mismatch");
            let back = self.store.lazy(r).decode();
            assert_eq!(back.as_ref(), Ok(msg), "self-transmit round-trip mismatch");
            self.store.free(r);
        }
    }

    /// The handoff acknowledgement a civilian vehicle radios back on
    /// successful label receipt (the codec's ack leg). The ack is
    /// produced and consumed by the same exchange, so it is counted as
    /// one encode and one decode of its 9 wire bytes, and never encoded
    /// (see `self_transmit`).
    pub fn ack_handoff(&mut self, vehicle: VehicleId) {
        self.self_transmit(&Message::Ack { vehicle });
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

    /// Posts a report at `from`, waiting for a vehicle departing onto
    /// `edge` toward `to`.
    pub fn post_report(&mut self, from: NodeId, edge: EdgeId, to: NodeId, msg: &Message) {
        let payload = self.encode(msg);
        self.pending_reports[from.index()].push((edge, Routed { to, payload }));
    }

    /// Posts a circuitous message at `from`, waiting for a patrol car.
    pub fn post_patrol(&mut self, from: NodeId, to: NodeId, msg: &Message) {
        let payload = self.encode(msg);
        self.pending_patrol[from.index()].push(Routed { to, payload });
    }

    /// Queues a message on the directional relay, due at `due_s`.
    pub fn queue_relay(&mut self, due_s: f64, to: NodeId, msg: &Message) {
        let payload = self.encode(msg);
        self.relay.push(RelayEntry {
            due_s,
            routed: Routed { to, payload },
        });
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
    pub fn take_due_reports(&mut self, vehicle: VehicleId, node: NodeId) -> Vec<Routed> {
        let mut due = std::mem::take(&mut self.due_reports_scratch);
        due.clear();
        Self::split_due(&mut self.carried_reports[vehicle.index()], node, &mut due);
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
            Self::split_due(list, node, &mut due);
        }
        due
    }

    /// Stable in-place split: messages addressed to `node` move into
    /// `due`, the rest compact in place — no per-arrival allocation.
    fn split_due(list: &mut Vec<Routed>, node: NodeId, due: &mut Vec<Routed>) {
        let mut kept = 0usize;
        for i in 0..list.len() {
            if list[i].to == node {
                due.push(list[i]);
            } else {
                list.swap(kept, i);
                kept += 1;
            }
        }
        list.truncate(kept);
    }

    /// Returns a [`Exchange::take_due_reports`] buffer for reuse.
    pub fn recycle_reports(&mut self, mut scratch: Vec<Routed>) {
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
    /// payloads were never delivered, so they never enter the
    /// `decoded`/`skipped_decode` split; their slots return to the slab.
    pub fn drop_node_queues(&mut self, node: NodeId) -> usize {
        let i = node.index();
        let n = self.pending_reports[i].len() + self.pending_patrol[i].len();
        for (_, r) in self.pending_reports[i].drain(..) {
            self.store.free(r.payload);
        }
        for r in self.pending_patrol[i].drain(..) {
            self.store.free(r.payload);
        }
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
    /// highest-sequence-wins). Duplication byte-copies the payload into
    /// its own slot — two queue entries must never share one slab key,
    /// or the first consume would invalidate the second.
    pub fn chaos_patrol_carried(&mut self, vehicle: VehicleId, duplicate: bool, reverse: bool) {
        if duplicate {
            let last = self
                .patrol_carried
                .get(&vehicle)
                .and_then(|list| list.last().copied());
            if let Some(last) = last {
                let dup = Routed {
                    to: last.to,
                    payload: self.store.duplicate(last.payload),
                };
                self.patrol_carried
                    .get_mut(&vehicle)
                    .expect("checked above")
                    .push(dup);
            }
        }
        if reverse {
            if let Some(list) = self.patrol_carried.get_mut(&vehicle) {
                list.reverse();
            }
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
    /// visiting. The transmission is self-produced and consumed in the
    /// same call, so — like [`Exchange::ack_handoff`] — it is counted as
    /// one encode and one decode of its full wire length without being
    /// encoded: the status handed back *is* the status a decoder would
    /// have produced (see `self_transmit`).
    pub fn relay_status(&mut self, vehicle: VehicleId) -> PatrolStatus {
        let msg = Message::Patrol(self.patrol_status.entry(vehicle).or_default().clone());
        self.self_transmit(&msg);
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
                due.push(self.relay.swap_remove(i).routed);
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

    /// Whether any report payload is still in transit anywhere (on a
    /// vehicle, waiting at a node, in the relay, or on a patrol car).
    /// Collection is final only when the last re-report has landed.
    /// Inspects only the lazy tag byte — no payload is parsed.
    pub fn reports_in_flight(&self) -> bool {
        let store = &self.store;
        let is_report = |r: &Routed| store.lazy(r.payload).tag() == Some(TAG_REPORT);
        self.carried_reports.iter().flatten().any(is_report)
            || self
                .pending_reports
                .iter()
                .flatten()
                .any(|(_, r)| is_report(r))
            || self.relay.iter().any(|e| is_report(&e.routed))
            || self.pending_patrol.iter().flatten().any(is_report)
            || self.patrol_carried.values().flatten().any(is_report)
    }

    /// Serializable image of every queue and counter (slab refs resolve
    /// to owned payload bytes — the snapshot format is identical to the
    /// owned-payload era's).
    pub fn snapshot(&self) -> ExchangeSnapshot {
        let env = |r: &Routed| Envelope {
            to: r.to,
            payload: self.store.get(r.payload).to_vec(),
        };
        let carriers = (0..).map(VehicleId);
        ExchangeSnapshot {
            carried_label: carriers
                .clone()
                .zip(&self.carried_label)
                .filter_map(|(v, slot)| slot.map(|r| (v, self.store.get(r).to_vec())))
                .collect(),
            carried_reports: carriers
                .zip(&self.carried_reports)
                .flat_map(|(v, list)| list.iter().map(move |r| (v, env(r))))
                .collect(),
            pending_reports: self
                .pending_reports
                .iter()
                .map(|list| list.iter().map(|(e, r)| (*e, env(r))).collect())
                .collect(),
            pending_patrol: self
                .pending_patrol
                .iter()
                .map(|list| list.iter().map(env).collect())
                .collect(),
            relay: self
                .relay
                .iter()
                .map(|e| RelayInFlight {
                    due_s: e.due_s,
                    env: env(&e.routed),
                })
                .collect(),
            watches: self.watches.clone(),
            patrol_status: self.patrol_status.clone(),
            patrol_carried: self
                .patrol_carried
                .iter()
                .map(|(v, list)| (*v, list.iter().map(env).collect()))
                .collect(),
            counters: self.counters,
        }
    }

    /// Rebuilds an exchange from a snapshot taken on `net` over a
    /// population of `population` vehicles, interning every payload into
    /// a fresh slab (scratch buffers start empty). A snapshot is outside
    /// input, so it is checked before anything is interned: a payload that
    /// does not decode to the kind its queue carries, a node or edge
    /// outside `net`, a vehicle past the population, carrier rows out of
    /// order, or a table of the wrong shape is an error, not a panic on
    /// some later step.
    pub fn restore(
        snap: &ExchangeSnapshot,
        net: &RoadNetwork,
        population: usize,
    ) -> Result<Self, String> {
        validate(snap, net, population)?;
        let mut store = PayloadStore::new();
        let mut carried_label: Vec<Option<PayloadRef>> = vec![None; population];
        for (v, payload) in &snap.carried_label {
            carried_label[v.index()] = Some(store.insert(payload));
        }
        let mut routed = |env: &Envelope| Routed {
            to: env.to,
            payload: store.insert(&env.payload),
        };
        let mut carried_reports: Vec<Vec<Routed>> = vec![Vec::new(); population];
        for (v, env) in &snap.carried_reports {
            carried_reports[v.index()].push(routed(env));
        }
        let pending_reports = snap
            .pending_reports
            .iter()
            .map(|list| list.iter().map(|(e, env)| (*e, routed(env))).collect())
            .collect();
        let pending_patrol = snap
            .pending_patrol
            .iter()
            .map(|list| list.iter().map(&mut routed).collect())
            .collect();
        let relay = snap
            .relay
            .iter()
            .map(|r| RelayEntry {
                due_s: r.due_s,
                routed: routed(&r.env),
            })
            .collect();
        let patrol_carried = snap
            .patrol_carried
            .iter()
            .map(|(v, list)| (*v, list.iter().map(&mut routed).collect()))
            .collect();
        Ok(Exchange {
            store,
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
            eager_decode: false,
            counters: snap.counters,
        })
    }
}

/// The messages an exchange queue may hold.
#[derive(Clone, Copy)]
enum Carries {
    /// A vehicle's carried activation label.
    Label,
    /// Carried and pending reports.
    Report,
    /// The relay and the patrol queues.
    AnnounceOrReport,
}

/// The restore-time checks behind [`Exchange::restore`].
fn validate(snap: &ExchangeSnapshot, net: &RoadNetwork, population: usize) -> Result<(), String> {
    let nodes = net.node_count();
    let edges = net.edge_count();
    let node = |n: NodeId, what: &str| in_map(n.index(), nodes, "node", what);
    let edge = |e: EdgeId, what: &str| in_map(e.index(), edges, "edge", what);
    let payload = |bytes: &[u8], what: &str, carries: Carries| -> Result<(), String> {
        let mut buf = bytes;
        let msg = Message::decode(&mut buf)
            .map_err(|e| format!("{what} payload does not decode: {e}"))?;
        if !buf.is_empty() {
            return Err(format!("{what} payload has {} trailing bytes", buf.len()));
        }
        let named = match (carries, msg) {
            (Carries::Label, Message::Label(l)) => [Some(l.origin), l.origin_pred, Some(l.seed)],
            (Carries::Report | Carries::AnnounceOrReport, Message::Report(r)) => {
                [Some(r.from), Some(r.to), None]
            }
            (Carries::AnnounceOrReport, Message::Announce(a)) => [Some(a.to), Some(a.from), a.pred],
            (_, other) => return Err(format!("{what} queue holds {other:?}")),
        };
        named.into_iter().flatten().try_for_each(|n| node(n, what))
    };
    let envelope = |env: &Envelope, what: &str, carries: Carries| {
        node(env.to, what)?;
        payload(&env.payload, what, carries)
    };

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
    for (_, bytes) in &snap.carried_label {
        payload(bytes, "carried label", Carries::Label)?;
    }
    for (_, env) in &snap.carried_reports {
        envelope(env, "carried report", Carries::Report)?;
    }
    let patrol_cars = snap.patrol_status.keys().chain(snap.patrol_carried.keys());
    if let Some(v) = patrol_cars.copied().find(|v| v.index() >= population) {
        return Err(format!(
            "patrol table names vehicle {} past the {population} vehicles",
            v.0
        ));
    }
    for (e, env) in snap.pending_reports.iter().flatten() {
        edge(*e, "pending report")?;
        envelope(env, "pending report", Carries::Report)?;
    }
    let routed = snap.pending_patrol.iter().flatten();
    let routed = routed.chain(snap.patrol_carried.values().flatten());
    for env in routed.chain(snap.relay.iter().map(|r| &r.env)) {
        envelope(env, "relay or patrol", Carries::AnnounceOrReport)?;
    }
    for (e, w) in &snap.watches {
        edge(*e, "segment watch")?;
        node(w.origin, "segment watch")?;
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
    for r in &due {
        deliver_routed(engine, r.to, r.payload);
    }
    engine.exchange.recycle_relay(due);
}

/// Consumes a routed payload at its destination checkpoint and feeds the
/// resulting observation through the machine (shared by the relay and
/// the patrol delivery paths). A message addressed to a crashed (down)
/// checkpoint is discarded unparsed and counted — the run becomes
/// explicitly degraded rather than silently miscounting.
pub(crate) fn deliver_routed(engine: &mut Engine, to: NodeId, payload: PayloadRef) {
    if engine.faults.down(to) {
        crate::faults::drop_messages(engine, to, 1);
        engine.exchange.discard_payload(payload);
        return;
    }
    let kind = match engine.exchange.consume_payload(payload) {
        Message::Announce(a) => ActionKind::Announce {
            from: a.from,
            pred: a.pred,
        },
        Message::Report(r) => ActionKind::Report {
            from: r.from,
            total: r.subtree_total,
            seq: r.seq,
        },
        other => unreachable!("exchange routes only announces and reports, got {other:?}"),
    };
    super::apply_action(engine, to, kind);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcount_v2x::Report;

    fn report_msg(to: NodeId) -> Message {
        Message::Report(Report {
            from: NodeId(0),
            to,
            subtree_total: 1,
            seq: 1,
        })
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
    fn eager_mode_decodes_discards() {
        let mut ex = Exchange::new(1, 2);
        ex.set_eager_decode(true);
        ex.hand_label(VehicleId(0), label());
        assert!(ex.discard_label(VehicleId(0)));
        let c = ex.counters();
        assert_eq!((c.decoded, c.skipped_decode), (1, 0));
    }

    #[test]
    fn due_scratch_slots_survive_simultaneous_takes() {
        let mut ex = Exchange::new(1, 3);
        let v = VehicleId(0);
        let n = NodeId(1);
        // One carried report and one patrol-carried message, both due at n.
        let msg = report_msg(n);
        ex.post_report(NodeId(0), EdgeId(0), n, &msg);
        ex.load_reports(NodeId(0), v, EdgeId(0));
        ex.post_patrol(NodeId(0), n, &msg);
        ex.pickup_patrol(v, NodeId(0));

        // A patrol arrival holds both buffers at once.
        let r = ex.take_due_reports(v, n);
        let p = ex.take_due_patrol(v, n);
        assert_eq!((r.len(), p.len()), (1, 1));
        for routed in r.iter().chain(p.iter()) {
            ex.discard_payload(routed.payload);
        }
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
        let msg = report_msg(NodeId(2));
        ex.post_report(NodeId(1), EdgeId(0), NodeId(2), &msg);
        ex.post_patrol(NodeId(1), NodeId(2), &msg);
        ex.post_patrol(NodeId(0), NodeId(2), &msg);
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
        ex.queue_relay(10.0, NodeId(1), &report_msg(NodeId(1)));
        ex.queue_relay(20.0, NodeId(2), &report_msg(NodeId(2)));
        ex.swap_relay_due_tail();
        // The later-queued message is now due first.
        let early = ex.take_due_relay(15.0);
        assert_eq!(early.iter().map(|r| r.to).collect::<Vec<_>>(), [NodeId(2)]);
        ex.recycle_relay(early);
        ex.swap_relay_due_tail(); // single message: no-op
        assert!(ex.take_due_relay(15.0).is_empty());
    }

    #[test]
    fn chaos_patrol_carried_duplicates_and_reverses() {
        let mut ex = Exchange::new(1, 4);
        let v = VehicleId(0);
        ex.post_patrol(NodeId(0), NodeId(2), &report_msg(NodeId(2)));
        ex.post_patrol(NodeId(0), NodeId(3), &report_msg(NodeId(3)));
        ex.pickup_patrol(v, NodeId(0));
        ex.chaos_patrol_carried(v, true, true);
        // Duplicate of the newest (to node 3), then reversed.
        let due3 = ex.take_due_patrol(v, NodeId(3));
        assert_eq!(due3.len(), 2);
        // The duplicate got its own slab slot: consuming the original must
        // not invalidate the copy.
        let first = ex.consume_payload(due3[0].payload);
        let second = ex.consume_payload(due3[1].payload);
        assert_eq!(first, second);
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
            ex.queue_relay(due, NodeId(to), &report_msg(NodeId(to)));
        }
        let due = ex.take_due_relay(10.0);
        let mut seen = Vec::new();
        for r in &due {
            seen.push(r.to.0);
            ex.discard_payload(r.payload);
        }
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
    fn snapshot_round_trips_through_the_slab() {
        let mut ex = Exchange::new(2, 3);
        ex.hand_label(VehicleId(1), label());
        ex.post_report(NodeId(0), EdgeId(0), NodeId(1), &report_msg(NodeId(1)));
        ex.post_patrol(NodeId(2), NodeId(0), &report_msg(NodeId(0)));
        ex.queue_relay(5.0, NodeId(2), &report_msg(NodeId(2)));
        ex.pickup_patrol(VehicleId(0), NodeId(2));
        let snap = ex.snapshot();
        let mut back = Exchange::restore(&snap, &net(), 2).unwrap();
        assert_eq!(back.counters(), ex.counters());
        assert!(back.reports_in_flight());
        assert_eq!(back.take_label(VehicleId(1)), Some(label()));
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
        ex.post_report(NodeId(0), EdgeId(0), NodeId(1), &report_msg(NodeId(1)));
        ex.queue_relay(5.0, NodeId(2), &report_msg(NodeId(2)));
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
                let mut buf = Vec::new();
                report_msg(NodeId(9)).encode_into(&mut buf);
                s.relay[0].env.payload = buf;
            }),
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
