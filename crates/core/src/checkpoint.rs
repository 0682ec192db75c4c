//! The effectful checkpoint shell around the pure protocol machine.
//!
//! All protocol logic lives in [`crate::machine`]: an immutable
//! [`CheckpointMachine`] topology view plus a serializable
//! [`CheckpointState`], driven by `process(state, action) → dispatches`.
//! This module keeps the deployment-facing [`Checkpoint`] type: it owns
//! one machine + state pair and the event buffer, feeds it caller-built
//! [`Action`]s (the caller supplies `now` and every channel outcome), and
//! buffers emitted [`ProtocolEvent`]s until the harness
//! drains them with [`Checkpoint::drain_events_into`]. Commands are
//! appended to a caller-provided scratch vector, keeping the hot path
//! allocation-free.

use crate::command::Command;
use crate::config::{CheckpointConfig, ProtocolVariant};
use crate::counter::Counters;
use crate::machine::{Action, CheckpointMachine, Dispatches};
use vcount_obs::ProtocolEvent;
use vcount_roadnet::{EdgeId, NodeId, RoadNetwork};
use vcount_v2x::Label;

pub use crate::machine::{CheckpointState, InboundState, LabelState};

/// One checkpoint of the deployment: the pure machine, its dynamic state,
/// and the buffered event stream. See module docs.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    machine: CheckpointMachine,
    state: CheckpointState,
    /// Buffered protocol events `(time, event)`, drained by the harness.
    events: Vec<(f64, ProtocolEvent)>,
}

impl Checkpoint {
    /// Builds the checkpoint for intersection `node`, extracting its local
    /// topology view from the network.
    pub fn new(net: &RoadNetwork, node: NodeId, cfg: CheckpointConfig) -> Self {
        let machine = CheckpointMachine::new(net, node, cfg);
        let state = machine.initial_state();
        Checkpoint {
            machine,
            state,
            events: Vec::new(),
        }
    }

    /// The dynamic protocol state, for snapshots and recovery images. Must
    /// be called with the event buffer drained (i.e. at a step boundary).
    pub fn export_state(&self) -> &CheckpointState {
        debug_assert!(
            self.events.is_empty(),
            "export_state with undrained protocol events"
        );
        &self.state
    }

    /// Re-applies state captured by [`Checkpoint::export_state`] onto a
    /// freshly built checkpoint (same network, same node).
    pub fn restore_state(&mut self, state: CheckpointState) {
        self.state = state;
    }

    // ------------------------------------------------------------------
    // Unified dispatch
    // ------------------------------------------------------------------

    /// Feeds one [`Action`] to the pure machine, appending the transport
    /// commands it produced to `cmds` (nothing is cleared — the caller
    /// owns and drains the scratch) and buffering its events. This is the
    /// protocol's single entry point; side effects beyond the appended
    /// commands are counter updates and buffered [`ProtocolEvent`]s (see
    /// [`Checkpoint::drain_events_into`]).
    pub fn apply(&mut self, action: &Action, cmds: &mut Vec<Command>) {
        let mut out = Dispatches {
            commands: cmds,
            events: &mut self.events,
        };
        self.machine.process(&mut self.state, action, &mut out);
    }

    /// Appends the buffered protocol events to `out` and clears the
    /// buffer (allocation-free when the buffer is empty). This is the only
    /// event-drain API; events are buffered in emission order.
    pub fn drain_events_into(&mut self, out: &mut Vec<(f64, ProtocolEvent)>) {
        out.append(&mut self.events);
    }

    // ------------------------------------------------------------------
    // Phase 2: labelling departures
    // ------------------------------------------------------------------

    /// Phase 2: a vehicle is joining outbound direction `onto`; returns the
    /// label to hand it when one is pending. The caller performs the lossy
    /// handoff exchange and reports the outcome with an
    /// [`ActionKind::Departed`](crate::ActionKind::Departed) action.
    pub fn offer_label(&self, onto: EdgeId) -> Option<Label> {
        self.machine.offer_label(&self.state, onto)
    }

    /// The spanning-tree children discovered so far (outbound neighbours
    /// that chose us as predecessor).
    pub fn children(&self) -> Vec<NodeId> {
        self.machine.children(&self.state)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This checkpoint's intersection.
    pub fn id(&self) -> NodeId {
        self.machine.id()
    }

    /// Whether the local counting has been activated.
    pub fn is_active(&self) -> bool {
        self.state.active
    }

    /// Whether this checkpoint is a seed.
    pub fn is_seed(&self) -> bool {
        self.state.is_seed
    }

    /// `p(u)` — the predecessor whose label activated us.
    pub fn pred(&self) -> Option<NodeId> {
        self.state.pred
    }

    /// Phase 6: the local non-interaction count has stabilized (every
    /// activated inbound direction has ended).
    pub fn is_stable(&self) -> bool {
        self.state.stable_at.is_some()
    }

    /// When the checkpoint activated (simulated seconds).
    pub fn activated_at(&self) -> Option<f64> {
        self.state.activated_at
    }

    /// When the local view stabilized (simulated seconds).
    pub fn stable_at(&self) -> Option<f64> {
        self.state.stable_at
    }

    /// When the subtree total was finalized / reported (simulated seconds).
    pub fn collected_at(&self) -> Option<f64> {
        self.state.collected_at
    }

    /// The stabilizable local count `c(u)` (non-interaction).
    pub fn local_count(&self) -> i64 {
        self.state.counters.local_count()
    }

    /// Net border interaction (`in − out`, Alg. 5).
    pub fn interaction_net(&self) -> i64 {
        self.state.counters.interaction_net()
    }

    /// Raw counter state (diagnostics).
    pub fn counters(&self) -> &Counters {
        &self.state.counters
    }

    /// The aggregated subtree total, available once all children reported.
    /// At a seed this is the tree's share of the global view.
    pub fn tree_total(&self) -> Option<i64> {
        self.state.tree_total
    }

    /// Counting state of an inbound direction.
    pub fn inbound_state(&self, e: EdgeId) -> InboundState {
        self.state
            .inbound_state
            .get(&e)
            .copied()
            .unwrap_or(InboundState::Idle)
    }

    /// Label state of an outbound direction.
    pub fn label_state(&self, e: EdgeId) -> LabelState {
        self.state
            .label_state
            .get(&e)
            .copied()
            .unwrap_or(LabelState::Idle)
    }

    /// Protocol configuration in force.
    pub fn config(&self) -> &CheckpointConfig {
        self.machine.config()
    }

    /// The variant this deployment runs.
    pub fn variant(&self) -> ProtocolVariant {
        self.machine.variant()
    }

    /// The immutable pure-machine topology view this shell drives.
    pub fn machine(&self) -> &CheckpointMachine {
        &self.machine
    }

    /// The current dynamic protocol state (read-only).
    pub fn state(&self) -> &CheckpointState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ActionKind;
    use vcount_obs::EventKind;
    use vcount_roadnet::builders::fig1_triangle;
    use vcount_roadnet::Interaction;
    use vcount_v2x::{ClassFilter, PatrolStatus, VehicleClass, VehicleId};

    const CAR: VehicleClass = VehicleClass {
        color: vcount_v2x::Color::Red,
        brand: vcount_v2x::Brand::Apex,
        body: vcount_v2x::BodyType::Sedan,
    };

    fn triangle_checkpoints(cfg: CheckpointConfig) -> (RoadNetwork, Vec<Checkpoint>) {
        let net = fig1_triangle(200.0, 1, 6.7);
        let cps = net
            .node_ids()
            .map(|n| Checkpoint::new(&net, n, cfg))
            .collect();
        (net, cps)
    }

    /// Drives one action through a fresh command scratch (tests value
    /// readability over scratch reuse).
    fn handle(cp: &mut Checkpoint, kind: ActionKind, now: f64) -> Vec<Command> {
        let mut cmds = Vec::new();
        cp.apply(&Action { at_s: now, kind }, &mut cmds);
        cmds
    }

    /// Seed activation through a fresh command scratch.
    fn seed(cp: &mut Checkpoint, now: f64) -> Vec<Command> {
        handle(cp, ActionKind::Seed, now)
    }

    /// Feeds an entry observation with a throwaway vehicle id.
    fn enter(
        cp: &mut Checkpoint,
        now: f64,
        via: Option<EdgeId>,
        class: VehicleClass,
        label: Option<Label>,
    ) -> Vec<Command> {
        handle(
            cp,
            ActionKind::Entered {
                vehicle: VehicleId(77),
                via,
                class,
                label,
            },
            now,
        )
    }

    /// Drains the buffered events into a fresh vector.
    fn drain(cp: &mut Checkpoint) -> Vec<(f64, ProtocolEvent)> {
        let mut evs = Vec::new();
        cp.drain_events_into(&mut evs);
        evs
    }

    /// Kinds of the events buffered since the last drain, in order.
    fn kinds_since(cp: &mut Checkpoint) -> Vec<EventKind> {
        drain(cp).iter().map(|(_, e)| e.kind()).collect()
    }

    #[test]
    fn seed_activation_starts_all_inbound_counting() {
        let (net, mut cps) = triangle_checkpoints(CheckpointConfig::default());
        let cmds = seed(&mut cps[0], 0.0);
        assert!(cmds.is_empty(), "bidirectional triangle needs no announces");
        assert!(cps[0].is_active() && cps[0].is_seed());
        assert_eq!(kinds_since(&mut cps[0]), [EventKind::CheckpointActivated]);
        for &e in net.in_edges(NodeId(0)) {
            assert_eq!(cps[0].inbound_state(e), InboundState::Counting);
        }
        for &e in net.out_edges(NodeId(0)) {
            assert_eq!(cps[0].label_state(e), LabelState::Pending);
            assert!(cps[0].offer_label(e).is_some());
        }
    }

    #[test]
    fn unlabeled_vehicle_is_counted_once_active() {
        let (net, mut cps) = triangle_checkpoints(CheckpointConfig::default());
        let e = net.edge_between(NodeId(1), NodeId(0)).unwrap();
        // Inactive: not counted, no event.
        enter(&mut cps[0], 0.0, Some(e), CAR, None);
        assert!(kinds_since(&mut cps[0]).is_empty());
        seed(&mut cps[0], 1.0);
        drain(&mut cps[0]);
        enter(&mut cps[0], 2.0, Some(e), CAR, None);
        assert_eq!(kinds_since(&mut cps[0]), [EventKind::VehicleCounted]);
        assert_eq!(cps[0].local_count(), 1);
        assert_eq!(cps[0].counters().inbound(e), 1);
    }

    #[test]
    fn label_activates_inactive_checkpoint_and_skips_pred_direction() {
        let (net, mut cps) = triangle_checkpoints(CheckpointConfig::default());
        seed(&mut cps[0], 0.0);
        let label = cps[0]
            .offer_label(net.edge_between(NodeId(0), NodeId(1)).unwrap())
            .unwrap();
        let via = net.edge_between(NodeId(0), NodeId(1)).unwrap();
        enter(&mut cps[1], 5.0, Some(via), CAR, Some(label));
        let events = drain(&mut cps[1]);
        assert!(matches!(
            events[0].1,
            ProtocolEvent::CheckpointActivated {
                node: 1,
                pred: Some(0),
                wave_seed: 0,
                is_seed: false,
            }
        ));
        assert!(
            !events
                .iter()
                .any(|(_, e)| e.kind() == EventKind::VehicleCounted),
            "labeled vehicle is never counted"
        );
        assert_eq!(cps[1].pred(), Some(NodeId(0)));
        // Direction from the predecessor never counts.
        assert_eq!(cps[1].inbound_state(via), InboundState::Stopped);
        // Direction from node 2 counts.
        let from2 = net.edge_between(NodeId(2), NodeId(1)).unwrap();
        assert_eq!(cps[1].inbound_state(from2), InboundState::Counting);
    }

    #[test]
    fn label_stops_counting_at_active_checkpoint() {
        let (net, mut cps) = triangle_checkpoints(CheckpointConfig::default());
        seed(&mut cps[0], 0.0);
        let from1 = net.edge_between(NodeId(1), NodeId(0)).unwrap();
        // Count two cars first.
        enter(&mut cps[0], 1.0, Some(from1), CAR, None);
        enter(&mut cps[0], 2.0, Some(from1), CAR, None);
        drain(&mut cps[0]);
        // Node 1's backwash label arrives.
        let label = Label {
            origin: NodeId(1),
            origin_pred: Some(NodeId(0)),
            seed: NodeId(0),
        };
        enter(&mut cps[0], 3.0, Some(from1), CAR, Some(label));
        let events = drain(&mut cps[0]);
        assert!(matches!(
            events[0].1,
            ProtocolEvent::InboundStopped { node: 0, edge } if edge == from1.0
        ));
        // Further arrivals on that direction are not counted.
        enter(&mut cps[0], 4.0, Some(from1), CAR, None);
        assert!(kinds_since(&mut cps[0]).is_empty());
        assert_eq!(cps[0].local_count(), 2);
    }

    #[test]
    fn stability_requires_all_directions_stopped() {
        let (net, mut cps) = triangle_checkpoints(CheckpointConfig::default());
        seed(&mut cps[0], 0.0);
        assert!(!cps[0].is_stable());
        let from1 = net.edge_between(NodeId(1), NodeId(0)).unwrap();
        let from2 = net.edge_between(NodeId(2), NodeId(0)).unwrap();
        let l1 = Label {
            origin: NodeId(1),
            origin_pred: Some(NodeId(0)),
            seed: NodeId(0),
        };
        enter(&mut cps[0], 5.0, Some(from1), CAR, Some(l1));
        assert!(!cps[0].is_stable());
        let l2 = Label {
            origin: NodeId(2),
            origin_pred: Some(NodeId(1)),
            seed: NodeId(0),
        };
        drain(&mut cps[0]);
        enter(&mut cps[0], 7.0, Some(from2), CAR, Some(l2));
        assert!(cps[0].is_stable());
        assert_eq!(cps[0].stable_at(), Some(7.0));
        assert_eq!(
            kinds_since(&mut cps[0]),
            [EventKind::InboundStopped, EventKind::CheckpointStable]
        );
    }

    #[test]
    fn full_wave_and_collection_on_triangle() {
        // Hand-drive Fig. 1 end to end: seed 0, wave 0→1→2, backwash,
        // reports 2→1→0, global view at the seed.
        let (net, mut cps) = triangle_checkpoints(CheckpointConfig::default());
        let e = |a: u32, b: u32| net.edge_between(NodeId(a), NodeId(b)).unwrap();
        let deliver = |cp: &mut Checkpoint, onto: EdgeId, t: f64| {
            let label = cp.offer_label(onto).unwrap();
            handle(
                cp,
                ActionKind::Departed {
                    vehicle: VehicleId(7),
                    onto,
                    delivered: true,
                    matches_filter: true,
                },
                t,
            );
            label
        };
        seed(&mut cps[0], 0.0);

        // Seed counts one car from each side.
        enter(&mut cps[0], 1.0, Some(e(1, 0)), CAR, None);
        enter(&mut cps[0], 1.0, Some(e(2, 0)), CAR, None);

        // Wave to 1.
        let l01 = deliver(&mut cps[0], e(0, 1), 2.0);
        enter(&mut cps[1], 3.0, Some(e(0, 1)), CAR, Some(l01));
        // 1 counts a car arriving from 2.
        enter(&mut cps[1], 4.0, Some(e(2, 1)), CAR, None);

        // Wave to 2 (from 1).
        let l12 = deliver(&mut cps[1], e(1, 2), 4.5);
        enter(&mut cps[2], 5.0, Some(e(1, 2)), CAR, Some(l12));
        // Seed's label on 0→2 stops 2's remaining counting direction and
        // completes 2's child discovery: 2 reports (no children).
        let l02 = deliver(&mut cps[0], e(0, 2), 5.2);
        let cmds2 = enter(&mut cps[2], 5.5, Some(e(0, 2)), CAR, Some(l02));
        assert!(cps[2].is_stable());
        assert_eq!(
            cmds2,
            vec![Command::SendReport {
                to: NodeId(1),
                total: 0,
                seq: 1
            }]
        );
        assert!(drain(&mut cps[2])
            .iter()
            .any(|(_, ev)| matches!(ev, ProtocolEvent::ReportSent { node: 2, to: 1, .. })));

        // Backwash labels: 1→0, 2→0, 2→1.
        let l10 = deliver(&mut cps[1], e(1, 0), 5.8);
        enter(&mut cps[0], 6.0, Some(e(1, 0)), CAR, Some(l10));
        let l20 = deliver(&mut cps[2], e(2, 0), 6.5);
        enter(&mut cps[0], 7.0, Some(e(2, 0)), CAR, Some(l20));
        let l21 = deliver(&mut cps[2], e(2, 1), 7.5);
        let cmds = enter(&mut cps[1], 8.0, Some(e(2, 1)), CAR, Some(l21));
        assert!(cps[0].is_stable() && cps[1].is_stable());
        assert!(cmds.is_empty(), "1 still waits for 2's report");
        assert_eq!(cps[2].tree_total(), Some(0));

        // Transport 2's report to 1, then 1's to the seed.
        let cmds = handle(
            &mut cps[1],
            ActionKind::Report {
                from: NodeId(2),
                total: 0,
                seq: 1,
            },
            9.0,
        );
        assert_eq!(
            cmds,
            vec![Command::SendReport {
                to: NodeId(0),
                total: 1,
                seq: 1
            }]
        );
        handle(
            &mut cps[0],
            ActionKind::Report {
                from: NodeId(1),
                total: 1,
                seq: 1,
            },
            10.0,
        );
        // Global view at the seed: 2 counted at 0, 1 at 1, 0 at 2.
        assert_eq!(cps[0].tree_total(), Some(3));
        assert_eq!(cps[0].collected_at(), Some(10.0));
    }

    #[test]
    fn failed_handoff_compensates_and_retries() {
        let (net, mut cps) = triangle_checkpoints(CheckpointConfig::default());
        seed(&mut cps[0], 0.0);
        let e01 = net.edge_between(NodeId(0), NodeId(1)).unwrap();
        assert!(cps[0].offer_label(e01).is_some());
        drain(&mut cps[0]);
        handle(
            &mut cps[0],
            ActionKind::Departed {
                vehicle: VehicleId(3),
                onto: e01,
                delivered: false,
                matches_filter: true,
            },
            0.5,
        );
        assert_eq!(cps[0].local_count(), -1, "Alg. 3 line 3 compensation");
        assert_eq!(
            kinds_since(&mut cps[0]),
            [
                EventKind::LabelEmitted,
                EventKind::LabelHandoffFailed,
                EventKind::LossCompensation
            ]
        );
        // Still pending: retry with the next vehicle.
        assert!(cps[0].offer_label(e01).is_some());
        handle(
            &mut cps[0],
            ActionKind::Departed {
                vehicle: VehicleId(4),
                onto: e01,
                delivered: true,
                matches_filter: true,
            },
            0.9,
        );
        assert!(
            cps[0].offer_label(e01).is_none(),
            "exactly one label per direction"
        );
        assert_eq!(
            kinds_since(&mut cps[0]),
            [EventKind::LabelEmitted, EventKind::LabelHandoffAcked]
        );
    }

    #[test]
    fn failed_handoff_to_non_matching_vehicle_costs_nothing() {
        let (net, mut cps) = triangle_checkpoints(CheckpointConfig {
            filter: ClassFilter::white_vans(),
            ..Default::default()
        });
        seed(&mut cps[0], 0.0);
        let e01 = net.edge_between(NodeId(0), NodeId(1)).unwrap();
        handle(
            &mut cps[0],
            ActionKind::Departed {
                vehicle: VehicleId(3),
                onto: e01,
                delivered: false,
                matches_filter: false,
            },
            0.5,
        );
        assert_eq!(cps[0].local_count(), 0);
    }

    #[test]
    fn filter_limits_counting_to_matching_vehicles() {
        let (net, mut cps) = triangle_checkpoints(CheckpointConfig {
            filter: ClassFilter::white_vans(),
            ..Default::default()
        });
        seed(&mut cps[0], 0.0);
        let from1 = net.edge_between(NodeId(1), NodeId(0)).unwrap();
        enter(&mut cps[0], 1.0, Some(from1), CAR, None);
        enter(&mut cps[0], 2.0, Some(from1), VehicleClass::WHITE_VAN, None);
        assert_eq!(cps[0].local_count(), 1);
    }

    #[test]
    fn patrol_cars_are_never_counted() {
        let (net, mut cps) = triangle_checkpoints(CheckpointConfig::default());
        seed(&mut cps[0], 0.0);
        drain(&mut cps[0]);
        let from1 = net.edge_between(NodeId(1), NodeId(0)).unwrap();
        enter(&mut cps[0], 1.0, Some(from1), VehicleClass::PATROL, None);
        assert!(kinds_since(&mut cps[0]).is_empty());
        assert_eq!(cps[0].local_count(), 0);
    }

    #[test]
    fn overtake_adjustments_shift_local_count() {
        let (_, mut cps) = triangle_checkpoints(CheckpointConfig::default());
        seed(&mut cps[0], 0.0);
        drain(&mut cps[0]);
        handle(&mut cps[0], ActionKind::Adjust { plus: 2, minus: 1 }, 1.0);
        assert_eq!(cps[0].local_count(), 1);
        handle(&mut cps[0], ActionKind::Adjust { plus: 0, minus: 3 }, 2.0);
        assert_eq!(cps[0].local_count(), -2);
        let events = drain(&mut cps[0]);
        assert!(matches!(
            events[0].1,
            ProtocolEvent::OvertakeAdjustment {
                node: 0,
                plus: 2,
                minus: 1
            }
        ));
    }

    #[test]
    fn open_variant_counts_interaction_at_active_border() {
        let net = {
            let mut net = fig1_triangle(200.0, 1, 6.7);
            net.set_interaction(
                NodeId(0),
                Interaction {
                    inbound: true,
                    outbound: true,
                },
            );
            net
        };
        let cfg = CheckpointConfig::for_variant(ProtocolVariant::Open);
        let mut cp = Checkpoint::new(&net, NodeId(0), cfg);
        let exit = |cp: &mut Checkpoint, t: f64| {
            handle(
                cp,
                ActionKind::BorderExit {
                    vehicle: VehicleId(9),
                    class: CAR,
                },
                t,
            );
        };
        // Inactive: escapes are allowed (Cor. 2).
        exit(&mut cp, 0.0);
        enter(&mut cp, 0.5, None, CAR, None);
        assert_eq!(cp.interaction_net(), 0);
        assert!(kinds_since(&mut cp).is_empty(), "inactive: no events");
        seed(&mut cp, 1.0);
        drain(&mut cp);
        enter(&mut cp, 2.0, None, CAR, None);
        exit(&mut cp, 3.0);
        enter(&mut cp, 4.0, None, CAR, None);
        assert_eq!(
            kinds_since(&mut cp),
            [
                EventKind::BorderEntry,
                EventKind::BorderExit,
                EventKind::BorderEntry
            ]
        );
        assert_eq!(cp.interaction_net(), 1);
        assert_eq!(cp.local_count(), 0, "interaction is separate");
    }

    #[test]
    fn closed_variant_ignores_interaction_flags() {
        let mut net = fig1_triangle(200.0, 1, 6.7);
        net.set_interaction(
            NodeId(0),
            Interaction {
                inbound: true,
                outbound: true,
            },
        );
        let mut cp = Checkpoint::new(&net, NodeId(0), CheckpointConfig::default());
        seed(&mut cp, 0.0);
        enter(&mut cp, 1.0, None, CAR, None);
        handle(
            &mut cp,
            ActionKind::BorderExit {
                vehicle: VehicleId(9),
                class: CAR,
            },
            2.0,
        );
        assert_eq!(cp.interaction_net(), 0);
    }

    #[test]
    fn duplicate_labels_on_stopped_direction_are_idempotent() {
        let (net, mut cps) = triangle_checkpoints(CheckpointConfig::default());
        seed(&mut cps[0], 0.0);
        let from1 = net.edge_between(NodeId(1), NodeId(0)).unwrap();
        let l = Label {
            origin: NodeId(1),
            origin_pred: Some(NodeId(0)),
            seed: NodeId(0),
        };
        enter(&mut cps[0], 1.0, Some(from1), CAR, Some(l));
        let before = cps[0].local_count();
        drain(&mut cps[0]);
        enter(&mut cps[0], 2.0, Some(from1), CAR, Some(l));
        assert!(
            kinds_since(&mut cps[0]).is_empty(),
            "no second stop, no count"
        );
        assert_eq!(cps[0].local_count(), before);
    }

    #[test]
    fn patrol_status_never_stops_a_direction() {
        let (_net, mut cps) = triangle_checkpoints(CheckpointConfig::default());
        seed(&mut cps[0], 0.0);
        drain(&mut cps[0]);
        let mut status = PatrolStatus::default();
        status.observe(NodeId(1), true);
        status.observe(NodeId(2), true);
        handle(
            &mut cps[0],
            ActionKind::PatrolStatus {
                vehicle: VehicleId(2),
                status,
            },
            5.0,
        );
        assert_eq!(kinds_since(&mut cps[0]), [EventKind::PatrolStatusRelay]);
        assert!(!cps[0].is_stable());
    }

    #[test]
    fn seed_with_no_children_finishes_immediately_on_stability() {
        // A 2-node network: seed 0 and node 1.
        let mut net = RoadNetwork::new();
        let a = net.add_node(vcount_roadnet::Point::new(0.0, 0.0));
        let b = net.add_node(vcount_roadnet::Point::new(100.0, 0.0));
        net.add_two_way(a, b, 1, 6.7);
        let cfg = CheckpointConfig::default();
        let mut cp0 = Checkpoint::new(&net, a, cfg);
        let mut cp1 = Checkpoint::new(&net, b, cfg);
        seed(&mut cp0, 0.0);
        // Wave to 1 and backwash.
        let e01 = net.edge_between(a, b).unwrap();
        let e10 = net.edge_between(b, a).unwrap();
        let l = cp0.offer_label(e01).unwrap();
        handle(
            &mut cp0,
            ActionKind::Departed {
                vehicle: VehicleId(1),
                onto: e01,
                delivered: true,
                matches_filter: true,
            },
            0.5,
        );
        enter(&mut cp1, 1.0, Some(e01), CAR, Some(l));
        let l_back = cp1.offer_label(e10).unwrap();
        handle(
            &mut cp1,
            ActionKind::Departed {
                vehicle: VehicleId(2),
                onto: e10,
                delivered: true,
                matches_filter: true,
            },
            1.5,
        );
        enter(&mut cp0, 2.0, Some(e10), CAR, Some(l_back));
        assert!(cp0.is_stable());
        // 1 is also stable (its only non-pred inbound set is empty).
        assert!(cp1.is_stable());
        // 1 reports 0 vehicles; 0 aggregates.
        handle(
            &mut cp0,
            ActionKind::Report {
                from: b,
                total: 0,
                seq: 1,
            },
            3.0,
        );
        assert_eq!(cp0.tree_total(), Some(0));
    }

    #[test]
    fn higher_sequence_report_supersedes_and_is_observable() {
        let (net, mut cps) = triangle_checkpoints(CheckpointConfig::default());
        let _ = net;
        seed(&mut cps[0], 0.0);
        drain(&mut cps[0]);
        handle(
            &mut cps[0],
            ActionKind::Report {
                from: NodeId(1),
                total: 5,
                seq: 1,
            },
            1.0,
        );
        assert!(kinds_since(&mut cps[0]).is_empty(), "first report: no dup");
        // Stale report is ignored, no event.
        handle(
            &mut cps[0],
            ActionKind::Report {
                from: NodeId(1),
                total: 99,
                seq: 0,
            },
            2.0,
        );
        assert!(kinds_since(&mut cps[0]).is_empty());
        // Higher sequence supersedes.
        handle(
            &mut cps[0],
            ActionKind::Report {
                from: NodeId(1),
                total: 4,
                seq: 2,
            },
            3.0,
        );
        let events = drain(&mut cps[0]);
        assert!(matches!(
            events[0].1,
            ProtocolEvent::ReportSuperseded {
                node: 0,
                child: 1,
                old_seq: 1,
                new_seq: 2
            }
        ));
    }
}
