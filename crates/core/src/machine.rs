//! The pure protocol state machine: `process(state, action) → dispatches`.
//!
//! This module is the IO-free core of the counting protocol (Algorithms
//! 1, 3 and 5). Everything effectful — clocks, channel outcomes, RNG
//! draws, recovery images — is carried *inside* the [`Action`] by the
//! caller, so [`CheckpointMachine::process`] is a total function of
//! `(topology, state, action)`:
//!
//! * the machine topology ([`CheckpointMachine`]) is an immutable pure
//!   function of the road network, built once per checkpoint;
//! * the dynamic state ([`CheckpointState`]) is plain serializable data;
//! * the outputs ([`Dispatches`]) are appended to caller-owned buffers —
//!   transport [`Command`]s and timestamped [`ProtocolEvent`]s — and the
//!   effectful shell (`Checkpoint`, the engine stages) translates them
//!   into wire messages and sink records.
//!
//! Because every input is in the action, a recorded action stream replays
//! the protocol exactly, without the simulator: [`Replayer`] re-drives the
//! machines from a trace and folds each action's dispatches into a
//! [`DispatchDigest`], a determinism pin that runs in milliseconds. The
//! no-IO property is enforced by a unit test that scans this module's
//! source for clock/RNG/IO imports.

use crate::command::Command;
use crate::config::{CheckpointConfig, ProtocolVariant};
use crate::counter::Counters;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use vcount_obs::ProtocolEvent;
use vcount_roadnet::{EdgeId, Interaction, NodeId, RoadNetwork};
use vcount_v2x::{Label, PatrolStatus, VehicleClass, VehicleId};

/// Counting state of one inbound direction `u ← v` (phase 1/3/4/5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InboundState {
    /// Not yet activated (checkpoint inactive).
    Idle,
    /// Counting every unlabeled matching vehicle (phase 5).
    Counting,
    /// Counting ended: the direction's label arrived (phase 4), or the
    /// direction comes from the predecessor and never started (phase 3).
    Stopped,
}

/// Labelling state of one outbound direction (phase 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LabelState {
    /// Checkpoint inactive — nothing to propagate yet.
    Idle,
    /// Waiting for the next vehicle to join this direction (retrying after
    /// failed handoffs, Alg. 3 line 3).
    Pending,
    /// Exactly one label was delivered on this direction.
    Done,
}

impl InboundState {
    /// The state's code in a snapshot's checkpoint table: `Idle` 0,
    /// `Counting` 1, `Stopped` 2.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The state whose [`InboundState::code`] is `code`, or `None` past 2.
    pub fn from_code(code: u8) -> Option<Self> {
        use InboundState::*;
        [Idle, Counting, Stopped].get(usize::from(code)).copied()
    }
}

impl LabelState {
    /// The state's code in a snapshot's checkpoint table: `Idle` 0,
    /// `Pending` 1, `Done` 2.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The state whose [`LabelState::code`] is `code`, or `None` past 2.
    pub fn from_code(code: u8) -> Option<Self> {
        use LabelState::*;
        [Idle, Pending, Done].get(usize::from(code)).copied()
    }
}

/// Serializable dynamic state of one checkpoint at a step boundary,
/// produced by `Checkpoint::export_state` and re-applied with
/// `Checkpoint::restore_state`. The topology view (inbound/outbound
/// directions, one-way neighbours, interaction flags) is *not* included —
/// it is a pure function of the network and is rebuilt by
/// [`CheckpointMachine::new`] on restore. Fault images and action traces
/// serialize the state as it is; an engine snapshot stores every
/// checkpoint's in one [`crate::CheckpointTable`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointState {
    /// Whether the checkpoint has been activated (phase 1/3).
    pub active: bool,
    /// Whether it was activated as a seed.
    pub is_seed: bool,
    /// `p(u)` — the spanning-tree predecessor.
    pub pred: Option<NodeId>,
    /// The seed whose wave activated this checkpoint.
    pub wave_seed: Option<NodeId>,
    /// Per-inbound-direction counting state.
    pub inbound_state: BTreeMap<EdgeId, InboundState>,
    /// Per-outbound-direction labelling state.
    pub label_state: BTreeMap<EdgeId, LabelState>,
    /// The local counter components `c(u)`.
    pub counters: Counters,
    /// Learned predecessor per neighbour.
    pub known_preds: BTreeMap<NodeId, Option<NodeId>>,
    /// Highest-sequence report per child: `(seq, total)`.
    pub child_reports: BTreeMap<NodeId, (u32, i64)>,
    /// Last subtree total reported upward.
    pub last_report: Option<i64>,
    /// Next outgoing report sequence number.
    pub report_seq: u32,
    /// Collected tree total (seeds only).
    pub tree_total: Option<i64>,
    /// Activation time, if activated.
    pub activated_at: Option<f64>,
    /// Local stabilization time, if stable.
    pub stable_at: Option<f64>,
    /// Collection time (seeds only).
    pub collected_at: Option<f64>,
}

impl CheckpointState {
    /// The one check of a state from outside the process (a snapshot's
    /// checkpoint table or a fault image) as node `node` of `net`: its
    /// inbound and outbound directions are exactly the node's, each
    /// per-direction count is nonzero and on an inbound direction, every
    /// node it names (`pred`, `wave_seed`, `known_preds`,
    /// `child_reports`) is on the map, its activation fields agree (an
    /// active state has a wave seed, and a predecessor unless it is a
    /// seed; an inactive one has neither and is no seed), and its times
    /// are finite. The error names the field.
    pub fn check(&self, net: &RoadNetwork, node: NodeId) -> Result<(), String> {
        let ins = net.in_edges(node);
        if self.inbound_state.len() != ins.len()
            || !ins.iter().all(|e| self.inbound_state.contains_key(e))
        {
            return Err(format!(
                "inbound_state does not list the node's {} inbound directions",
                ins.len()
            ));
        }
        let outs = net.out_edges(node);
        if self.label_state.len() != outs.len()
            || !outs.iter().all(|e| self.label_state.contains_key(e))
        {
            return Err(format!(
                "label_state does not list the node's {} outbound directions",
                outs.len()
            ));
        }
        let per_inbound = &self.counters.per_inbound;
        if let Some((e, n)) = per_inbound
            .iter()
            .find(|(e, n)| **n == 0 || !self.inbound_state.contains_key(e))
        {
            return Err(format!(
                "per_inbound holds {n} for edge {}, not a nonzero count on an inbound direction",
                e.0
            ));
        }
        let nodes = net.node_count();
        // Map keys ascend, so the last key is the largest node named.
        let known_node = self.known_preds.keys().next_back().copied();
        let known_pred = self.known_preds.values().filter_map(|&p| p).max();
        let child = self.child_reports.keys().next_back().copied();
        for (field, named) in [
            ("pred", self.pred),
            ("wave_seed", self.wave_seed),
            ("known_preds", known_node),
            ("known_preds", known_pred),
            ("child_reports", child),
        ] {
            if let Some(n) = named.filter(|n| n.index() >= nodes) {
                return Err(format!(
                    "{field} names node {} outside the {nodes}-node map",
                    n.0
                ));
            }
        }
        // Activation sets these together: only an active checkpoint has a
        // wave seed, a seed has no predecessor, and every other active
        // checkpoint has one (it reports its subtree to it).
        let wants_pred = self.active && !self.is_seed;
        if self.wave_seed.is_some() != self.active
            || self.pred.is_some() != wants_pred
            || (self.is_seed && !self.active)
        {
            return Err(format!(
                "activation fields disagree: active {}, is_seed {}, pred {:?}, wave_seed {:?}",
                self.active,
                self.is_seed,
                self.pred.map(|n| n.0),
                self.wave_seed.map(|n| n.0)
            ));
        }
        for (field, at) in [
            ("activated_at", self.activated_at),
            ("stable_at", self.stable_at),
            ("collected_at", self.collected_at),
        ] {
            if let Some(t) = at.filter(|t| !t.is_finite()) {
                return Err(format!("{field} {t:?} is not finite"));
            }
        }
        Ok(())
    }
}

/// One protocol input with every effectful ingredient resolved by the
/// caller: the event timestamp and the [`ActionKind`] payload (channel
/// outcomes, recovery images, patrol snapshots). Serializable, so a
/// per-checkpoint action stream can be recorded and replayed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Action {
    /// Event timestamp, simulated seconds. Carried in the action — the
    /// machine never reads a clock.
    pub at_s: f64,
    /// What happened.
    pub kind: ActionKind,
}

/// The protocol's action taxonomy: the seven observation arrivals (label
/// deliveries and handoffs, report/patrol deliveries, border crossings,
/// overtake adjustments), seed activation, and the fault transitions.
/// Everything checkpoint equipment observes, plus seeding and the fault
/// transitions; [`crate::Checkpoint::apply`] is the only way in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ActionKind {
    /// Phase 1: activate this checkpoint as a seed (and data sink).
    Seed,
    /// A vehicle entered the intersection (phases 3/4/5, Alg. 5 inbound
    /// interaction when `via` is `None`).
    Entered {
        /// The entering vehicle.
        vehicle: VehicleId,
        /// The inbound direction, or `None` for a border entry.
        via: Option<EdgeId>,
        /// Observed vehicle class.
        class: VehicleClass,
        /// The label the vehicle surrendered, if it carried one.
        label: Option<Label>,
    },
    /// A pending label handoff was attempted on a departure (phase 2); the
    /// channel outcome is resolved by the caller and carried here.
    Departed {
        /// The departing vehicle.
        vehicle: VehicleId,
        /// The outbound direction joined.
        onto: EdgeId,
        /// Whether the handoff was acknowledged (the effectful channel
        /// draw, made outside the machine).
        delivered: bool,
        /// Whether the vehicle matches the counting filter (for the −1
        /// compensation of Alg. 3 line 3).
        matches_filter: bool,
    },
    /// A vehicle left the system at this border checkpoint (Alg. 5).
    BorderExit {
        /// The exiting vehicle.
        vehicle: VehicleId,
        /// Observed vehicle class.
        class: VehicleClass,
    },
    /// A patrol car delivered its status snapshot (Alg. 4 / Theorem 3).
    PatrolStatus {
        /// The patrol vehicle.
        vehicle: VehicleId,
        /// The carried activity snapshot.
        status: PatrolStatus,
    },
    /// A predecessor announcement arrived (one-way streets).
    Announce {
        /// The announcing checkpoint.
        from: NodeId,
        /// Its predecessor.
        pred: Option<NodeId>,
    },
    /// A child's subtree report arrived (Alg. 2).
    Report {
        /// The reporting child.
        from: NodeId,
        /// Its subtree total.
        total: i64,
        /// Report sequence number (highest wins).
        seq: u32,
    },
    /// A finalized segment watch applied its overtake adjustment
    /// (Alg. 3 lines 5–8).
    Adjust {
        /// Matching vehicles that moved ahead of the label.
        plus: usize,
        /// Matching vehicles the label moved ahead of.
        minus: usize,
    },
    /// The checkpoint crashed. A pure no-op on the state (the crash's
    /// effects — queue drops, downtime — live in the effectful engine);
    /// recorded so a trace documents the full fault schedule.
    Crash,
    /// The checkpoint recovered, rolling back to its last recovery image
    /// (carried in the action — the machine holds no image store). `None`
    /// means no image existed yet: the state is kept as-is.
    Recover {
        /// The image to restore, captured by the effectful fault layer.
        image: Option<Box<CheckpointState>>,
    },
}

/// Caller-owned output buffers one [`CheckpointMachine::process`] call
/// appends to: transport commands and timestamped protocol events, both
/// in emission order. The machine only ever pushes — draining, routing,
/// and sink fan-out are the effectful shell's job.
pub struct Dispatches<'a> {
    /// Transport commands for the effectful dispatcher.
    pub commands: &'a mut Vec<Command>,
    /// Buffered `(time, event)` pairs for the audit stage.
    pub events: &'a mut Vec<(f64, ProtocolEvent)>,
}

impl Dispatches<'_> {
    #[inline]
    fn emit(&mut self, now: f64, event: ProtocolEvent) {
        self.events.push((now, event));
    }
}

/// The pure per-checkpoint machine: the immutable local topology view
/// (inbound/outbound directions, one-way neighbours, interaction flags)
/// plus the shared protocol configuration. All dynamic state lives in a
/// separate [`CheckpointState`], so `process` borrows topology and state
/// independently and performs no allocation beyond map inserts.
#[derive(Debug, Clone)]
pub struct CheckpointMachine {
    id: NodeId,
    cfg: CheckpointConfig,
    /// Inbound directions `(edge v->u, v)`.
    inbound: Vec<(EdgeId, NodeId)>,
    /// Outbound directions `(edge u->v, v)`.
    outbound: Vec<(EdgeId, NodeId)>,
    /// Inbound neighbours unreachable by our label (no edge `u -> w`):
    /// they learn our predecessor via `SendPredAnnounce`.
    oneway_in: Vec<NodeId>,
    interaction: Interaction,
}

impl CheckpointMachine {
    /// Extracts the local topology view for intersection `node`.
    pub fn new(net: &RoadNetwork, node: NodeId, cfg: CheckpointConfig) -> Self {
        let inbound: Vec<(EdgeId, NodeId)> = net
            .in_edges(node)
            .iter()
            .map(|&e| (e, net.edge(e).from))
            .collect();
        let outbound: Vec<(EdgeId, NodeId)> = net
            .out_edges(node)
            .iter()
            .map(|&e| (e, net.edge(e).to))
            .collect();
        let oneway_in = inbound
            .iter()
            .filter(|(_, w)| net.edge_between(node, *w).is_none())
            .map(|(_, w)| *w)
            .collect();
        CheckpointMachine {
            id: node,
            cfg,
            inbound,
            outbound,
            oneway_in,
            interaction: net.interaction(node),
        }
    }

    /// The pristine pre-activation state for this machine's topology.
    pub fn initial_state(&self) -> CheckpointState {
        CheckpointState {
            active: false,
            is_seed: false,
            pred: None,
            wave_seed: None,
            inbound_state: self
                .inbound
                .iter()
                .map(|(e, _)| (*e, InboundState::Idle))
                .collect(),
            label_state: self
                .outbound
                .iter()
                .map(|(e, _)| (*e, LabelState::Idle))
                .collect(),
            counters: Counters::default(),
            known_preds: BTreeMap::new(),
            child_reports: BTreeMap::new(),
            last_report: None,
            report_seq: 0,
            tree_total: None,
            activated_at: None,
            stable_at: None,
            collected_at: None,
        }
    }

    /// Processes one [`Action`] against `st`, appending the resulting
    /// commands and events to `out`. Pure: no IO, no RNG, no clock — the
    /// timestamp and every channel outcome arrive inside the action.
    pub fn process(&self, st: &mut CheckpointState, action: &Action, out: &mut Dispatches<'_>) {
        let now = action.at_s;
        match &action.kind {
            ActionKind::Seed => {
                assert!(
                    !st.active,
                    "seed activation on an already active checkpoint"
                );
                st.is_seed = true;
                st.wave_seed = Some(self.id);
                self.activate(st, now, None, out);
            }
            ActionKind::Entered {
                vehicle,
                via,
                class,
                label,
            } => self.enter(st, now, *vehicle, *via, class, *label, out),
            ActionKind::Departed {
                vehicle,
                onto,
                delivered,
                matches_filter,
            } => self.depart(st, now, *vehicle, *onto, *delivered, *matches_filter, out),
            ActionKind::BorderExit { vehicle, class } => {
                self.border_exit(st, now, *vehicle, class, out)
            }
            ActionKind::PatrolStatus { vehicle, status } => {
                self.patrol(st, now, *vehicle, status, out)
            }
            ActionKind::Announce { from, pred } => {
                learn_pred(st, *from, *pred);
                self.after_change(st, now, out);
            }
            ActionKind::Report { from, total, seq } => {
                self.report(st, now, *from, *total, *seq, out)
            }
            ActionKind::Adjust { plus, minus } => self.adjust(st, now, *plus, *minus, out),
            ActionKind::Crash => {}
            ActionKind::Recover { image } => {
                if let Some(img) = image {
                    *st = (**img).clone();
                }
            }
        }
    }

    /// Phase 2: the label to hand a vehicle joining outbound direction
    /// `onto`, when one is pending. A pure query — the caller performs the
    /// lossy handoff and reports the outcome with [`ActionKind::Departed`].
    pub fn offer_label(&self, st: &CheckpointState, onto: EdgeId) -> Option<Label> {
        if st.active && st.label_state.get(&onto) == Some(&LabelState::Pending) {
            Some(Label {
                origin: self.id,
                origin_pred: st.pred,
                seed: st.wave_seed.expect("active checkpoint has a wave seed"),
            })
        } else {
            None
        }
    }

    fn activate(
        &self,
        st: &mut CheckpointState,
        now: f64,
        pred: Option<NodeId>,
        out: &mut Dispatches<'_>,
    ) {
        st.active = true;
        st.pred = pred;
        st.activated_at = Some(now);
        out.emit(
            now,
            ProtocolEvent::CheckpointActivated {
                node: self.id.0,
                pred: pred.map(|p| p.0),
                wave_seed: st.wave_seed.expect("wave seed set before activation").0,
                is_seed: st.is_seed,
            },
        );
        for (e, origin) in &self.inbound {
            let state = if Some(*origin) == pred {
                // Traffic from the predecessor is already counted upstream
                // (phase 3 activates only `s(u)` directions).
                InboundState::Stopped
            } else {
                InboundState::Counting
            };
            st.inbound_state.insert(*e, state);
        }
        for (e, _) in &self.outbound {
            st.label_state.insert(*e, LabelState::Pending);
        }
        // Upstream one-way neighbours cannot receive our label; announce
        // our predecessor so their spanning-tree child discovery completes.
        for w in &self.oneway_in {
            out.commands
                .push(Command::SendPredAnnounce { to: *w, pred });
        }
        self.after_change(st, now, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn enter(
        &self,
        st: &mut CheckpointState,
        now: f64,
        vehicle: VehicleId,
        via: Option<EdgeId>,
        class: &VehicleClass,
        label: Option<Label>,
        out: &mut Dispatches<'_>,
    ) {
        match via {
            None => {
                // Inbound interaction (Alg. 5): active border checkpoints
                // count every matching vehicle coming in from outside.
                if st.active
                    && self.cfg.variant.counts_interaction()
                    && self.interaction.inbound
                    && self.cfg.filter.matches(class)
                {
                    st.counters.count_interaction_in();
                    out.emit(
                        now,
                        ProtocolEvent::BorderEntry {
                            node: self.id.0,
                            vehicle: vehicle.0,
                        },
                    );
                }
            }
            Some(e) => {
                debug_assert!(
                    st.inbound_state.contains_key(&e),
                    "entry via unknown inbound edge {e}"
                );
                if let Some(label) = label {
                    learn_pred(st, label.origin, label.origin_pred);
                    if !st.active {
                        // Phase 3: propagation to an inactive checkpoint.
                        st.wave_seed = Some(label.seed);
                        self.activate(st, now, Some(label.origin), out);
                        return; // activate() ran after_change already
                    } else if st.inbound_state.get(&e) == Some(&InboundState::Counting) {
                        // Phase 4: the backwash stops this direction.
                        st.inbound_state.insert(e, InboundState::Stopped);
                        out.emit(
                            now,
                            ProtocolEvent::InboundStopped {
                                node: self.id.0,
                                edge: e.0,
                            },
                        );
                    }
                    // The labeled vehicle itself is never counted (phase 5
                    // counts unlabeled vehicles only).
                } else if st.active
                    && st.inbound_state.get(&e) == Some(&InboundState::Counting)
                    && self.cfg.filter.matches(class)
                {
                    // Phase 5: count the unlabeled matching vehicle.
                    st.counters.count_inbound(e);
                    out.emit(
                        now,
                        ProtocolEvent::VehicleCounted {
                            node: self.id.0,
                            edge: e.0,
                            vehicle: vehicle.0,
                        },
                    );
                }
            }
        }
        self.after_change(st, now, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn depart(
        &self,
        st: &mut CheckpointState,
        now: f64,
        vehicle: VehicleId,
        onto: EdgeId,
        delivered: bool,
        matches_filter: bool,
        out: &mut Dispatches<'_>,
    ) {
        debug_assert_eq!(
            st.label_state.get(&onto),
            Some(&LabelState::Pending),
            "departure handoff without a pending label"
        );
        out.emit(
            now,
            ProtocolEvent::LabelEmitted {
                node: self.id.0,
                edge: onto.0,
                vehicle: vehicle.0,
            },
        );
        if delivered {
            // Exactly one label is now in flight on that direction.
            st.label_state.insert(onto, LabelState::Done);
            out.emit(
                now,
                ProtocolEvent::LabelHandoffAcked {
                    node: self.id.0,
                    edge: onto.0,
                    vehicle: vehicle.0,
                },
            );
        } else {
            // Alg. 3 line 3: the labelling retries with the next vehicle;
            // when the escaping vehicle is one we count, compensate the
            // future double count with −1.
            out.emit(
                now,
                ProtocolEvent::LabelHandoffFailed {
                    node: self.id.0,
                    edge: onto.0,
                    vehicle: vehicle.0,
                },
            );
            if matches_filter && self.cfg.compensate_loss {
                st.counters.compensate_loss();
                out.emit(
                    now,
                    ProtocolEvent::LossCompensation {
                        node: self.id.0,
                        edge: onto.0,
                        vehicle: vehicle.0,
                    },
                );
                self.after_change(st, now, out);
            }
        }
    }

    fn border_exit(
        &self,
        st: &mut CheckpointState,
        now: f64,
        vehicle: VehicleId,
        class: &VehicleClass,
        out: &mut Dispatches<'_>,
    ) {
        let counted = st.active
            && self.cfg.variant.counts_interaction()
            && self.interaction.outbound
            && self.cfg.filter.matches(class);
        if counted {
            st.counters.count_interaction_out();
            out.emit(
                now,
                ProtocolEvent::BorderExit {
                    node: self.id.0,
                    vehicle: vehicle.0,
                },
            );
        }
        let commands_before = out.commands.len();
        self.after_change(st, now, out);
        debug_assert_eq!(
            out.commands.len(),
            commands_before,
            "exit cannot complete collection"
        );
    }

    fn adjust(
        &self,
        st: &mut CheckpointState,
        now: f64,
        plus: usize,
        minus: usize,
        out: &mut Dispatches<'_>,
    ) {
        st.counters.adjust_overtake(plus as i64 - minus as i64);
        out.emit(
            now,
            ProtocolEvent::OvertakeAdjustment {
                node: self.id.0,
                plus: plus as u32,
                minus: minus as u32,
            },
        );
        self.after_change(st, now, out);
    }

    fn patrol(
        &self,
        st: &mut CheckpointState,
        now: f64,
        vehicle: VehicleId,
        status: &PatrolStatus,
        out: &mut Dispatches<'_>,
    ) {
        // A status never stops a counting direction: the patrol car's own
        // label handoff carries the wave (DESIGN.md §4), so a status is
        // only reported.
        out.emit(
            now,
            ProtocolEvent::PatrolStatusRelay {
                node: self.id.0,
                vehicle: vehicle.0,
                observed: status.observations.len() as u32,
            },
        );
        self.after_change(st, now, out);
    }

    fn report(
        &self,
        st: &mut CheckpointState,
        now: f64,
        from: NodeId,
        total: i64,
        seq: u32,
        out: &mut Dispatches<'_>,
    ) {
        // A report is itself proof that `from` chose us as predecessor.
        // Reports may be re-issued when late adjustments land after
        // phase 6; the highest sequence number wins, so out-of-order
        // transport is safe.
        learn_pred(st, from, Some(self.id));
        match st.child_reports.get(&from).copied() {
            Some((old_seq, _)) if seq >= old_seq => {
                if seq > old_seq {
                    out.emit(
                        now,
                        ProtocolEvent::ReportSuperseded {
                            node: self.id.0,
                            child: from.0,
                            old_seq,
                            new_seq: seq,
                        },
                    );
                }
                st.child_reports.insert(from, (seq, total));
            }
            Some(_) => {} // Stale (lower-sequence) report: ignore.
            None => {
                st.child_reports.insert(from, (seq, total));
            }
        }
        self.after_change(st, now, out);
    }

    /// Phase 6 + Alg. 2: stabilization and collection, re-evaluated after
    /// every state change.
    fn after_change(&self, st: &mut CheckpointState, now: f64, out: &mut Dispatches<'_>) {
        if st.active && st.stable_at.is_none() && all_stopped(st) {
            st.stable_at = Some(now);
            out.emit(now, ProtocolEvent::CheckpointStable { node: self.id.0 });
        }
        if st.stable_at.is_some() && self.children_known(st) {
            let children = self.children(st);
            if children.iter().all(|c| st.child_reports.contains_key(c)) {
                let total: i64 = st.counters.local_count()
                    + children.iter().map(|c| st.child_reports[c].1).sum::<i64>();
                if st.tree_total != Some(total) {
                    st.tree_total = Some(total);
                    if st.collected_at.is_none() {
                        st.collected_at = Some(now);
                    }
                    if let Some(p) = st.pred {
                        if st.last_report != Some(total) {
                            st.report_seq += 1;
                            st.last_report = Some(total);
                            out.commands.push(Command::SendReport {
                                to: p,
                                total,
                                seq: st.report_seq,
                            });
                            out.emit(
                                now,
                                ProtocolEvent::ReportSent {
                                    node: self.id.0,
                                    to: p.0,
                                    total,
                                    seq: st.report_seq,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    /// Whether all outbound neighbours' predecessors are known, i.e. the
    /// spanning-tree children set is final.
    fn children_known(&self, st: &CheckpointState) -> bool {
        self.outbound
            .iter()
            .all(|(_, v)| st.known_preds.contains_key(v))
    }

    /// The spanning-tree children discovered so far (outbound neighbours
    /// that chose us as predecessor).
    pub fn children(&self, st: &CheckpointState) -> Vec<NodeId> {
        self.outbound
            .iter()
            .filter(|(_, v)| st.known_preds.get(v) == Some(&Some(self.id)))
            .map(|(_, v)| *v)
            .collect()
    }

    /// This machine's intersection.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Protocol configuration in force.
    pub fn config(&self) -> &CheckpointConfig {
        &self.cfg
    }

    /// The variant this deployment runs.
    pub fn variant(&self) -> ProtocolVariant {
        self.cfg.variant
    }
}

fn learn_pred(st: &mut CheckpointState, node: NodeId, pred: Option<NodeId>) {
    st.known_preds.entry(node).or_insert(pred);
}

fn all_stopped(st: &CheckpointState) -> bool {
    st.inbound_state
        .values()
        .all(|s| *s == InboundState::Stopped)
}

/// Incremental FNV-1a digest over a per-action rendering of the dispatch
/// stream. Each processed action contributes two lines — the emitted
/// events, then the emitted commands — so a recorded run and a machine-only
/// replay agree iff every action produced byte-identical dispatches in the
/// same order. The same offset/prime as the engine's event-stream digests.
#[derive(Debug, Clone)]
pub struct DispatchDigest {
    hash: u64,
    /// Reused rendering buffer (no per-absorb allocation after warm-up).
    line: String,
}

impl Default for DispatchDigest {
    fn default() -> Self {
        DispatchDigest::new()
    }
}

impl DispatchDigest {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        DispatchDigest {
            hash: 0xcbf2_9ce4_8422_2325,
            line: String::new(),
        }
    }

    /// Folds in the events one action emitted at `node` (first line of the
    /// action's contribution).
    pub fn absorb_events(&mut self, node: NodeId, events: &[(f64, ProtocolEvent)]) {
        self.line.clear();
        let _ = write!(self.line, "E n{} {events:?}", node.0);
        self.eat_line();
    }

    /// Folds in the commands one action emitted at `node` (second line of
    /// the action's contribution).
    pub fn absorb_commands(&mut self, node: NodeId, commands: &[Command]) {
        self.line.clear();
        let _ = write!(self.line, "C n{} {commands:?}", node.0);
        self.eat_line();
    }

    fn eat_line(&mut self) {
        let mut h = self.hash;
        for &b in self.line.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= u64::from(b'\n');
        self.hash = h.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.hash
    }
}

/// Re-drives the pure machines from a recorded action stream — no
/// simulator, no channel, no RNG — folding every action's dispatches into
/// a [`DispatchDigest`]. Byte-identical digests and final counters between
/// the recording engine and this replayer pin the protocol's determinism.
pub struct Replayer {
    machines: Vec<CheckpointMachine>,
    states: Vec<CheckpointState>,
    digest: DispatchDigest,
    applied: u64,
    cmds: Vec<Command>,
    events: Vec<(f64, ProtocolEvent)>,
}

impl Replayer {
    /// One machine per intersection of `net`, all in the pristine state.
    pub fn new(net: &RoadNetwork, cfg: CheckpointConfig) -> Self {
        let machines: Vec<CheckpointMachine> = net
            .node_ids()
            .map(|n| CheckpointMachine::new(net, n, cfg))
            .collect();
        let states = machines
            .iter()
            .map(CheckpointMachine::initial_state)
            .collect();
        Replayer {
            machines,
            states,
            digest: DispatchDigest::new(),
            applied: 0,
            cmds: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Applies one recorded action at `node` and absorbs its dispatches
    /// into the digest (events line first, commands line second — the
    /// order the recording engine uses).
    pub fn apply(&mut self, node: NodeId, action: &Action) {
        self.cmds.clear();
        self.events.clear();
        let mut out = Dispatches {
            commands: &mut self.cmds,
            events: &mut self.events,
        };
        self.machines[node.index()].process(&mut self.states[node.index()], action, &mut out);
        self.digest.absorb_events(node, &self.events);
        self.digest.absorb_commands(node, &self.cmds);
        self.applied += 1;
    }

    /// The label a pending outbound direction would hand out (pure query,
    /// for hand-scripted traces).
    pub fn offer_label(&self, node: NodeId, onto: EdgeId) -> Option<Label> {
        self.machines[node.index()].offer_label(&self.states[node.index()], onto)
    }

    /// The dispatch-stream digest over every action applied so far.
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }

    /// How many actions have been applied.
    pub fn actions_applied(&self) -> u64 {
        self.applied
    }

    /// A node's replayed state.
    pub fn state(&self, node: NodeId) -> &CheckpointState {
        &self.states[node.index()]
    }

    /// All replayed states, in node order.
    pub fn states(&self) -> &[CheckpointState] {
        &self.states
    }

    /// Final non-interaction local counts, in node order.
    pub fn local_counts(&self) -> Vec<i64> {
        self.states
            .iter()
            .map(|s| s.counters.local_count())
            .collect()
    }

    /// Final net border interactions, in node order.
    pub fn interaction_nets(&self) -> Vec<i64> {
        self.states
            .iter()
            .map(|s| s.counters.interaction_net())
            .collect()
    }

    /// Final collected tree totals, in node order.
    pub fn tree_totals(&self) -> Vec<Option<i64>> {
        self.states.iter().map(|s| s.tree_total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcount_roadnet::builders::fig1_triangle;

    const CAR: VehicleClass = VehicleClass {
        color: vcount_v2x::Color::Red,
        brand: vcount_v2x::Brand::Apex,
        body: vcount_v2x::BodyType::Sedan,
    };

    /// The no-IO pin: `process()` must draw no RNG, read no clock, and do
    /// no IO. Everything effectful arrives inside the `Action`, so this
    /// module must not even *import* the std IO/clock facilities or an RNG
    /// crate. The needles are assembled at runtime so this test's own
    /// source cannot trip the scan.
    #[test]
    fn machine_module_is_io_free() {
        let source = include_str!("machine.rs");
        let needles: Vec<String> = [
            ["std::", "io"],
            ["std::", "time"],
            ["std::", "fs"],
            ["std::", "net"],
            ["std::", "process"],
            ["std::", "env"],
            ["ra", "nd::"],
            ["Inst", "ant"],
            ["System", "Time"],
            ["thread_", "rng"],
        ]
        .iter()
        .map(|parts| parts.concat())
        .collect();
        for needle in &needles {
            // Only flag identifier-boundary matches: `Brand::Apex` must not
            // trip the RNG-crate needle.
            let violated = source.match_indices(needle.as_str()).any(|(pos, _)| {
                pos == 0
                    || !source[..pos]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
            });
            assert!(
                !violated,
                "pure machine module must not reference `{needle}`"
            );
        }
    }

    /// Determinism: the same action sequence applied twice produces the
    /// same dispatch digest and the same final state.
    #[test]
    fn identical_action_streams_replay_to_identical_digests() {
        let net = fig1_triangle(200.0, 1, 6.7);
        let cfg = CheckpointConfig::default();
        let e10 = net.edge_between(NodeId(1), NodeId(0)).unwrap();
        let actions: Vec<(NodeId, Action)> = vec![
            (
                NodeId(0),
                Action {
                    at_s: 0.0,
                    kind: ActionKind::Seed,
                },
            ),
            (
                NodeId(0),
                Action {
                    at_s: 1.0,
                    kind: ActionKind::Entered {
                        vehicle: VehicleId(1),
                        via: Some(e10),
                        class: CAR,
                        label: None,
                    },
                },
            ),
            (
                NodeId(0),
                Action {
                    at_s: 2.0,
                    kind: ActionKind::Adjust { plus: 1, minus: 0 },
                },
            ),
        ];
        let mut a = Replayer::new(&net, cfg);
        let mut b = Replayer::new(&net, cfg);
        for (node, action) in &actions {
            a.apply(*node, action);
            b.apply(*node, action);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.states(), b.states());
        assert_eq!(a.local_counts()[0], 2);
    }

    /// Crash is a pure no-op; Recover rolls the state back to the carried
    /// image (or keeps it when no image exists yet).
    #[test]
    fn crash_is_noop_and_recover_restores_carried_image() {
        let net = fig1_triangle(200.0, 1, 6.7);
        let cfg = CheckpointConfig::default();
        let e10 = net.edge_between(NodeId(1), NodeId(0)).unwrap();
        let mut rp = Replayer::new(&net, cfg);
        rp.apply(
            NodeId(0),
            &Action {
                at_s: 0.0,
                kind: ActionKind::Seed,
            },
        );
        let image = rp.state(NodeId(0)).clone();
        rp.apply(
            NodeId(0),
            &Action {
                at_s: 1.0,
                kind: ActionKind::Entered {
                    vehicle: VehicleId(9),
                    via: Some(e10),
                    class: CAR,
                    label: None,
                },
            },
        );
        assert_eq!(rp.local_counts()[0], 1);
        let before = rp.state(NodeId(0)).clone();
        rp.apply(
            NodeId(0),
            &Action {
                at_s: 2.0,
                kind: ActionKind::Crash,
            },
        );
        assert_eq!(rp.state(NodeId(0)), &before, "crash mutates nothing");
        rp.apply(
            NodeId(0),
            &Action {
                at_s: 3.0,
                kind: ActionKind::Recover {
                    image: Some(Box::new(image.clone())),
                },
            },
        );
        assert_eq!(rp.state(NodeId(0)), &image, "recover applies the image");
        rp.apply(
            NodeId(0),
            &Action {
                at_s: 4.0,
                kind: ActionKind::Recover { image: None },
            },
        );
        assert_eq!(rp.state(NodeId(0)), &image, "imageless recover keeps state");
    }

    /// Actions round-trip through serde (the trace file format).
    #[test]
    fn actions_round_trip_through_serde() {
        let action = Action {
            at_s: 12.5,
            kind: ActionKind::Entered {
                vehicle: VehicleId(3),
                via: Some(EdgeId(1)),
                class: CAR,
                label: Some(Label {
                    origin: NodeId(0),
                    origin_pred: None,
                    seed: NodeId(0),
                }),
            },
        };
        let json = serde_json::to_string(&action).unwrap();
        let back: Action = serde_json::from_str(&json).unwrap();
        assert_eq!(back, action);
    }
}
