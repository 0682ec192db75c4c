//! Hand-driven protocol scenarios exercising the extensions: one-way
//! streets (Theorem 2), multi-seed waves, report re-issue ordering, and
//! open-system interaction accounting — all through the single
//! [`Checkpoint::apply`] entry point.

use vcount_core::{
    Action, ActionKind, Checkpoint, CheckpointConfig, Command, InboundState, ProtocolEvent,
    ProtocolVariant,
};
use vcount_roadnet::{EdgeId, Interaction, NodeId, Point, RoadNetwork};
use vcount_v2x::{BodyType, Brand, Color, Label, VehicleClass, VehicleId};

const CAR: VehicleClass = VehicleClass {
    color: Color::Black,
    brand: Brand::Everest,
    body: BodyType::Suv,
};

/// Drives one action through a fresh command scratch.
fn handle(cp: &mut Checkpoint, kind: ActionKind, now: f64) -> Vec<Command> {
    let mut cmds = Vec::new();
    cp.apply(&Action { at_s: now, kind }, &mut cmds);
    cmds
}

/// Seed activation through a fresh command scratch.
fn seed(cp: &mut Checkpoint, now: f64) -> Vec<Command> {
    handle(cp, ActionKind::Seed, now)
}

/// Drains the buffered events into a fresh vector.
fn drain(cp: &mut Checkpoint) -> Vec<(f64, ProtocolEvent)> {
    let mut evs = Vec::new();
    cp.drain_events_into(&mut evs);
    evs
}

/// What one `Entered` observation did, reconstructed from the event
/// stream rather than returned by the protocol API.
struct Entry {
    counted: bool,
    activated: bool,
    stopped: Option<EdgeId>,
    commands: Vec<Command>,
}

fn enter(cp: &mut Checkpoint, now: f64, via: Option<EdgeId>, label: Option<Label>) -> Entry {
    drain(cp);
    let commands = handle(
        cp,
        ActionKind::Entered {
            vehicle: VehicleId(1),
            via,
            class: CAR,
            label,
        },
        now,
    );
    let mut out = Entry {
        counted: false,
        activated: false,
        stopped: None,
        commands,
    };
    for (_, ev) in drain(cp) {
        match ev {
            ProtocolEvent::VehicleCounted { .. } | ProtocolEvent::BorderEntry { .. } => {
                out.counted = true
            }
            ProtocolEvent::CheckpointActivated { .. } => out.activated = true,
            ProtocolEvent::InboundStopped { edge, .. } => out.stopped = Some(EdgeId(edge)),
            _ => {}
        }
    }
    out
}

/// Offers the pending label on `onto` and acknowledges its delivery.
fn deliver(cp: &mut Checkpoint, now: f64, onto: EdgeId) -> Label {
    let label = cp.offer_label(onto).unwrap();
    handle(
        cp,
        ActionKind::Departed {
            vehicle: VehicleId(1),
            onto,
            delivered: true,
            matches_filter: true,
        },
        now,
    );
    label
}

/// u --> v one-way, plus a return path v -> w -> u (all one-way): the
/// minimal network exercising Alg. 3's one-way handling end to end.
fn oneway_triangle() -> (RoadNetwork, [NodeId; 3]) {
    let mut net = RoadNetwork::new();
    let u = net.add_node(Point::new(0.0, 0.0));
    let v = net.add_node(Point::new(100.0, 0.0));
    let w = net.add_node(Point::new(50.0, 80.0));
    net.add_one_way(u, v, 1, 7.0);
    net.add_one_way(v, w, 1, 7.0);
    net.add_one_way(w, u, 1, 7.0);
    net.validate().unwrap();
    (net, [u, v, w])
}

#[test]
fn one_way_wave_propagates_and_stabilizes() {
    let (net, [u, v, w]) = oneway_triangle();
    let cfg = CheckpointConfig::default();
    let mut cu = Checkpoint::new(&net, u, cfg);
    let mut cv = Checkpoint::new(&net, v, cfg);
    let mut cw = Checkpoint::new(&net, w, cfg);
    let e = |a: NodeId, b: NodeId| net.edge_between(a, b).unwrap();

    // Seed at u. Its only inbound is w->u; outbound u->v.
    let cmds = seed(&mut cu, 0.0);
    // u cannot label back to w (no edge u->w): it announces its pred to w.
    assert_eq!(cmds, vec![Command::SendPredAnnounce { to: w, pred: None }]);

    // Wave u -> v.
    let l_uv = deliver(&mut cu, 9.0, e(u, v));
    let out = enter(&mut cv, 10.0, Some(e(u, v)), Some(l_uv));
    assert!(out.activated);
    assert_eq!(cv.pred(), Some(u));
    // v's only inbound came from its predecessor: v is stable immediately
    // (Theorem 2: no labeling needed on the opposite direction).
    assert!(cv.is_stable());
    // v announces its pred to u (edge v->u missing).
    assert_eq!(
        out.commands,
        vec![Command::SendPredAnnounce {
            to: u,
            pred: Some(u)
        }]
    );

    // Wave v -> w.
    let l_vw = deliver(&mut cv, 19.0, e(v, w));
    let out = enter(&mut cw, 20.0, Some(e(v, w)), Some(l_vw));
    assert!(out.activated && cw.is_stable());
    assert_eq!(
        out.commands,
        vec![Command::SendPredAnnounce {
            to: v,
            pred: Some(v)
        }]
    );

    // Wave w -> u closes the loop and stops u's counting.
    let l_wu = deliver(&mut cw, 29.0, e(w, u));
    let out = enter(&mut cu, 30.0, Some(e(w, u)), Some(l_wu));
    assert_eq!(out.stopped, Some(e(w, u)));
    assert!(cu.is_stable());

    // Child discovery across one-way links: deliver the announces.
    handle(
        &mut cu,
        ActionKind::Announce {
            from: v,
            pred: Some(u),
        },
        35.0,
    );
    handle(
        &mut cv,
        ActionKind::Announce {
            from: w,
            pred: Some(v),
        },
        35.0,
    );
    let cmds = handle(
        &mut cw,
        ActionKind::Announce {
            from: u,
            pred: None,
        },
        35.0,
    );
    // w has no children (u's pred is None): its report goes to pred v.
    assert!(matches!(
        cmds.as_slice(),
        [Command::SendReport { to, .. }] if *to == v
    ));
}

#[test]
fn two_seeds_stop_each_other() {
    // Line u - v (bidirectional), both ends seeds: each stops the other's
    // counting; both trees are singletons.
    let mut net = RoadNetwork::new();
    let u = net.add_node(Point::new(0.0, 0.0));
    let v = net.add_node(Point::new(100.0, 0.0));
    net.add_two_way(u, v, 1, 7.0);
    let cfg = CheckpointConfig::default();
    let mut cu = Checkpoint::new(&net, u, cfg);
    let mut cv = Checkpoint::new(&net, v, cfg);
    seed(&mut cu, 0.0);
    seed(&mut cv, 0.0);
    let e = |a: NodeId, b: NodeId| net.edge_between(a, b).unwrap();

    // Count one vehicle at each side first.
    assert!(enter(&mut cu, 1.0, Some(e(v, u)), None).counted);
    assert!(enter(&mut cv, 1.0, Some(e(u, v)), None).counted);

    // Exchange labels.
    let l_uv = deliver(&mut cu, 4.0, e(u, v));
    let out = enter(&mut cv, 5.0, Some(e(u, v)), Some(l_uv));
    assert_eq!(out.stopped, Some(e(u, v)));
    assert!(!out.activated, "an active seed does not re-activate");
    let l_vu = deliver(&mut cv, 4.0, e(v, u));
    enter(&mut cu, 5.0, Some(e(v, u)), Some(l_vu));

    assert!(cu.is_stable() && cv.is_stable());
    // Forest: both remain roots; no reports flow; totals are local.
    assert_eq!(cu.pred(), None);
    assert_eq!(cv.pred(), None);
    assert_eq!(cu.tree_total(), Some(1));
    assert_eq!(cv.tree_total(), Some(1));
}

#[test]
fn late_loss_compensation_triggers_re_report() {
    // Star: seed s with child u; u has an outbound one-way spur u -> x
    // whose label fails repeatedly after u already reported.
    let mut net = RoadNetwork::new();
    let s = net.add_node(Point::new(0.0, 0.0));
    let u = net.add_node(Point::new(100.0, 0.0));
    let x = net.add_node(Point::new(200.0, 0.0));
    net.add_two_way(s, u, 1, 7.0);
    net.add_two_way(u, x, 1, 7.0);
    let cfg = CheckpointConfig::default();
    let mut cs = Checkpoint::new(&net, s, cfg);
    let mut cu = Checkpoint::new(&net, u, cfg);
    let e = |a: NodeId, b: NodeId| net.edge_between(a, b).unwrap();

    seed(&mut cs, 0.0);
    let l = deliver(&mut cs, 0.5, e(s, u));
    enter(&mut cu, 1.0, Some(e(s, u)), Some(l));
    // u's backwash label stops the seed's counting of s<-u.
    let l_us = deliver(&mut cu, 1.2, e(u, s));
    enter(&mut cs, 1.5, Some(e(u, s)), Some(l_us));
    assert!(cs.is_stable());
    // u counts one vehicle from x, then x's backwash label stops it.
    enter(&mut cu, 2.0, Some(e(x, u)), None);
    let lx = Label {
        origin: x,
        origin_pred: Some(u),
        seed: s,
    };
    let out = enter(&mut cu, 3.0, Some(e(x, u)), Some(lx));
    assert!(cu.is_stable());
    // u knows x is its child; x reports 0: u reports 1 to s.
    assert!(out.commands.is_empty());
    let cmds = handle(
        &mut cu,
        ActionKind::Report {
            from: x,
            total: 0,
            seq: 1,
        },
        4.0,
    );
    assert_eq!(
        cmds,
        vec![Command::SendReport {
            to: s,
            total: 1,
            seq: 1
        }]
    );
    handle(
        &mut cs,
        ActionKind::Report {
            from: u,
            total: 1,
            seq: 1,
        },
        5.0,
    );
    assert_eq!(cs.tree_total(), Some(1 /* at u */));

    // NOW a label handoff on u -> x fails (it was still pending): the
    // compensation lands after u's report, so u must re-report.
    let cmds = handle(
        &mut cu,
        ActionKind::Departed {
            vehicle: VehicleId(2),
            onto: e(u, x),
            delivered: false,
            matches_filter: true,
        },
        6.0,
    );
    assert_eq!(
        cmds,
        vec![Command::SendReport {
            to: s,
            total: 0,
            seq: 2
        }]
    );
    // An out-of-order stale report (seq 1) must not clobber seq 2.
    handle(
        &mut cs,
        ActionKind::Report {
            from: u,
            total: 1,
            seq: 1,
        },
        7.0,
    );
    handle(
        &mut cs,
        ActionKind::Report {
            from: u,
            total: 0,
            seq: 2,
        },
        8.0,
    );
    assert_eq!(cs.tree_total(), Some(0));
    // Replaying the stale one after the fresh one is ignored.
    handle(
        &mut cs,
        ActionKind::Report {
            from: u,
            total: 1,
            seq: 1,
        },
        9.0,
    );
    assert_eq!(cs.tree_total(), Some(0));
}

#[test]
fn open_border_checkpoint_full_lifecycle() {
    let mut net = RoadNetwork::new();
    let b = net.add_node(Point::new(0.0, 0.0));
    let i = net.add_node(Point::new(100.0, 0.0));
    net.add_two_way(b, i, 1, 7.0);
    net.set_interaction(
        b,
        Interaction {
            inbound: true,
            outbound: true,
        },
    );
    let cfg = CheckpointConfig::for_variant(ProtocolVariant::Open);
    let mut cb = Checkpoint::new(&net, b, cfg);
    let e = |a: NodeId, bb: NodeId| net.edge_between(a, bb).unwrap();

    seed(&mut cb, 0.0);
    // Interior counting runs alongside interaction counting.
    assert!(enter(&mut cb, 1.0, Some(e(i, b)), None).counted);
    assert!(enter(&mut cb, 2.0, None, None).counted); // from outside
    handle(
        &mut cb,
        ActionKind::BorderExit {
            vehicle: VehicleId(1),
            class: CAR,
        },
        3.0,
    );
    assert_eq!(cb.local_count(), 1);
    assert_eq!(cb.interaction_net(), 0);

    // Stability concerns only the non-interaction inbound directions.
    let li = Label {
        origin: i,
        origin_pred: Some(b),
        seed: b,
    };
    enter(&mut cb, 4.0, Some(e(i, b)), Some(li));
    assert!(cb.is_stable());
    // Interaction counting NEVER stops (Alg. 5): more border traffic still
    // counts after stability.
    assert!(enter(&mut cb, 5.0, None, None).counted);
    assert_eq!(cb.interaction_net(), 1);
}

#[test]
fn inbound_state_accessor_tracks_lifecycle() {
    let (net, [u, v, _w]) = oneway_triangle();
    let mut cu = Checkpoint::new(&net, u, CheckpointConfig::default());
    let inbound = net.in_edges(u)[0];
    assert_eq!(cu.inbound_state(inbound), InboundState::Idle);
    seed(&mut cu, 0.0);
    assert_eq!(cu.inbound_state(inbound), InboundState::Counting);
    // Unknown edge (an outbound one) reads Idle.
    let out = net.edge_between(u, v).unwrap();
    assert_eq!(cu.inbound_state(out), InboundState::Idle);
}
