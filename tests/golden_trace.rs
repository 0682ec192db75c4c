//! Golden trace of the paper's Fig. 1 walkthrough.
//!
//! Replays exactly the script of `examples/three_intersections.rs` through
//! [`Checkpoint::apply`] and pins the complete [`ProtocolEvent`] stream each
//! checkpoint emits: activation and wave propagation (Alg. 1 phases 1–4),
//! counting at the seed and at n1 (phase 5), the backwash stopping every
//! inbound direction, and the report chain 2 → 1 → 0 of Alg. 2. Any change
//! to when or what the protocol emits shows up here as a diff against the
//! expected sequence.

use vcount::core::{
    Action, ActionKind, Checkpoint, CheckpointConfig, Command, ProtocolVariant, Replayer,
};
use vcount::roadnet::builders::fig1_triangle;
use vcount::roadnet::{EdgeId, NodeId};
use vcount::v2x::{BodyType, Brand, Color, Label, VehicleClass, VehicleId};
use vcount_obs::{EventFilter, EventKind, EventRecord, EventSink, JsonlSink, ProtocolEvent};

const CAR: VehicleClass = VehicleClass {
    color: Color::Silver,
    brand: Brand::Borealis,
    body: BodyType::Sedan,
};

fn handle(cp: &mut Checkpoint, kind: ActionKind, t: f64) -> Vec<Command> {
    let mut cmds = Vec::new();
    cp.apply(&Action { at_s: t, kind }, &mut cmds);
    cmds
}

fn enter(cp: &mut Checkpoint, t: f64, vehicle: u64, via: EdgeId, label: Option<Label>) {
    handle(
        cp,
        ActionKind::Entered {
            vehicle: VehicleId(vehicle),
            via: Some(via),
            class: CAR,
            label,
        },
        t,
    );
}

fn deliver(cp: &mut Checkpoint, t: f64, vehicle: u64, onto: EdgeId) -> Label {
    let label = cp.offer_label(onto).expect("label pending");
    handle(
        cp,
        ActionKind::Departed {
            vehicle: VehicleId(vehicle),
            onto,
            delivered: true,
            matches_filter: true,
        },
        t,
    );
    label
}

/// Runs the Fig. 1 walkthrough and returns each checkpoint's event stream
/// (in emission order), exactly as the example drives it.
fn walkthrough() -> Vec<Vec<(f64, ProtocolEvent)>> {
    let net = fig1_triangle(250.0, 1, 6.7);
    let cfg = CheckpointConfig::for_variant(ProtocolVariant::Simple);
    let mut cps: Vec<Checkpoint> = net
        .node_ids()
        .map(|n| Checkpoint::new(&net, n, cfg))
        .collect();
    let e = |a: u32, b: u32| net.edge_between(NodeId(a), NodeId(b)).unwrap();

    // (a) seed initialization + three vehicles counted at n0.
    let mut seed_cmds = Vec::new();
    cps[0].apply(
        &Action {
            at_s: 0.0,
            kind: ActionKind::Seed,
        },
        &mut seed_cmds,
    );
    for (vehicle, via, t) in [(1, e(1, 0), 1.0), (2, e(2, 0), 1.5), (3, e(1, 0), 2.0)] {
        enter(&mut cps[0], t, vehicle, via, None);
    }

    // (b) the wave: 0→1 activates n1, n1 counts one car, 1→2 activates n2.
    let l01 = deliver(&mut cps[0], 29.0, 1, e(0, 1));
    enter(&mut cps[1], 30.0, 1, e(0, 1), Some(l01));
    enter(&mut cps[1], 35.0, 4, e(2, 1), None);
    let l12 = deliver(&mut cps[1], 59.0, 4, e(1, 2));
    enter(&mut cps[2], 60.0, 4, e(1, 2), Some(l12));

    // (c) backwash: every remaining inbound direction is stopped.
    let l10 = deliver(&mut cps[1], 69.0, 1, e(1, 0));
    enter(&mut cps[0], 70.0, 1, e(1, 0), Some(l10));
    let l20 = deliver(&mut cps[2], 74.0, 4, e(2, 0));
    enter(&mut cps[0], 75.0, 4, e(2, 0), Some(l20));
    let l21 = deliver(&mut cps[2], 79.0, 2, e(2, 1));
    enter(&mut cps[1], 80.0, 2, e(2, 1), Some(l21));
    let l02 = deliver(&mut cps[0], 84.0, 3, e(0, 2));
    let cmds2 = handle(
        &mut cps[2],
        ActionKind::Entered {
            vehicle: VehicleId(3),
            via: Some(e(0, 2)),
            class: CAR,
            label: Some(l02),
        },
        85.0,
    );

    // (d) collection 2 → 1 → 0.
    let vcount::core::Command::SendReport { total, seq, .. } = cmds2[0] else {
        panic!("n2 must report on stabilization");
    };
    let cmds1 = handle(
        &mut cps[1],
        ActionKind::Report {
            from: NodeId(2),
            total,
            seq,
        },
        100.0,
    );
    let vcount::core::Command::SendReport { total, seq, .. } = cmds1[0] else {
        panic!("n1 must report after n2's report");
    };
    handle(
        &mut cps[0],
        ActionKind::Report {
            from: NodeId(1),
            total,
            seq,
        },
        120.0,
    );
    assert_eq!(cps[0].tree_total(), Some(4));

    cps.iter_mut()
        .map(|cp| {
            let mut evs = Vec::new();
            cp.drain_events_into(&mut evs);
            evs
        })
        .collect()
}

/// Replays the identical Fig. 1 script through the *pure machines only*
/// ([`Replayer`]) — no `Checkpoint` shell — and pins the FNV-1a dispatch
/// digest over everything the machines emitted. The digest constant is the
/// machine-level golden value: any semantic drift in the protocol core
/// (event or command content, ordering, timing) changes it.
#[test]
fn fig1_walkthrough_replays_machine_only_with_pinned_digest() {
    let net = fig1_triangle(250.0, 1, 6.7);
    let cfg = CheckpointConfig::for_variant(ProtocolVariant::Simple);
    let mut rp = Replayer::new(&net, cfg);
    let e = |a: u32, b: u32| net.edge_between(NodeId(a), NodeId(b)).unwrap();
    let n = |i: u32| NodeId(i);
    let apply = |rp: &mut Replayer, node: NodeId, at_s: f64, kind: ActionKind| {
        rp.apply(node, &Action { at_s, kind });
    };
    let entered =
        |vehicle: u64, via: vcount::roadnet::EdgeId, label: Option<Label>| ActionKind::Entered {
            vehicle: VehicleId(vehicle),
            via: Some(via),
            class: CAR,
            label,
        };
    let departed = |vehicle: u64, onto: vcount::roadnet::EdgeId| ActionKind::Departed {
        vehicle: VehicleId(vehicle),
        onto,
        delivered: true,
        matches_filter: true,
    };
    // The carried label is frozen into each `Entered` action exactly as the
    // recording engine would freeze it: offered at the departure checkpoint.
    let deliver = |rp: &mut Replayer, from: u32, t: f64, vehicle: u64, onto_node: u32| {
        let onto = e(from, onto_node);
        let label = rp.offer_label(n(from), onto).expect("label pending");
        apply(rp, n(from), t, departed(vehicle, onto));
        label
    };

    apply(&mut rp, n(0), 0.0, ActionKind::Seed);
    for (vehicle, via, t) in [(1, e(1, 0), 1.0), (2, e(2, 0), 1.5), (3, e(1, 0), 2.0)] {
        apply(&mut rp, n(0), t, entered(vehicle, via, None));
    }
    let l01 = deliver(&mut rp, 0, 29.0, 1, 1);
    apply(&mut rp, n(1), 30.0, entered(1, e(0, 1), Some(l01)));
    apply(&mut rp, n(1), 35.0, entered(4, e(2, 1), None));
    let l12 = deliver(&mut rp, 1, 59.0, 4, 2);
    apply(&mut rp, n(2), 60.0, entered(4, e(1, 2), Some(l12)));
    let l10 = deliver(&mut rp, 1, 69.0, 1, 0);
    apply(&mut rp, n(0), 70.0, entered(1, e(1, 0), Some(l10)));
    let l20 = deliver(&mut rp, 2, 74.0, 4, 0);
    apply(&mut rp, n(0), 75.0, entered(4, e(2, 0), Some(l20)));
    let l21 = deliver(&mut rp, 2, 79.0, 2, 1);
    apply(&mut rp, n(1), 80.0, entered(2, e(2, 1), Some(l21)));
    let l02 = deliver(&mut rp, 0, 84.0, 3, 2);
    apply(&mut rp, n(2), 85.0, entered(3, e(0, 2), Some(l02)));
    // Collection 2 → 1 → 0, with the report contents frozen in the actions
    // (n2 reports 0, n1 reports 1 — pinned by the shell-level golden test).
    apply(
        &mut rp,
        n(1),
        100.0,
        ActionKind::Report {
            from: n(2),
            total: 0,
            seq: 1,
        },
    );
    apply(
        &mut rp,
        n(0),
        120.0,
        ActionKind::Report {
            from: n(1),
            total: 1,
            seq: 1,
        },
    );

    assert_eq!(rp.actions_applied(), 19);
    assert_eq!(rp.local_counts(), vec![3, 1, 0]);
    assert_eq!(rp.tree_totals(), vec![Some(4), Some(1), Some(0)]);
    // The machine-level golden digest of the Fig. 1 walkthrough.
    assert_eq!(rp.digest(), 0x2127_3CAD_028B_D1D4);
}

/// Compact, readable rendering used for the golden comparison.
fn fmt(t: f64, ev: ProtocolEvent) -> String {
    use ProtocolEvent as E;
    let body = match ev {
        E::CheckpointActivated {
            node,
            pred,
            is_seed,
            ..
        } => match pred {
            Some(p) => format!("activated n{node} pred=n{p} seed={is_seed}"),
            None => format!("activated n{node} pred=- seed={is_seed}"),
        },
        E::CheckpointStable { node } => format!("stable n{node}"),
        E::LabelEmitted { node, edge, .. } => format!("label_out n{node} e{edge}"),
        E::LabelHandoffAcked {
            node,
            edge,
            vehicle,
        } => {
            format!("handoff_ack n{node} e{edge} veh{vehicle}")
        }
        E::LabelHandoffFailed {
            node,
            edge,
            vehicle,
        } => {
            format!("handoff_fail n{node} e{edge} veh{vehicle}")
        }
        E::LossCompensation {
            node,
            edge,
            vehicle,
        } => {
            format!("loss_comp n{node} e{edge} veh{vehicle}")
        }
        E::InboundStopped { node, edge } => format!("stop_in n{node} e{edge}"),
        E::VehicleCounted { node, vehicle, .. } => format!("count n{node} veh{vehicle}"),
        E::OvertakeAdjustment { node, plus, minus } => {
            format!("adjust n{node} +{plus} -{minus}")
        }
        E::ReportSent {
            node,
            to,
            total,
            seq,
        } => format!("report n{node}->n{to} total={total} seq={seq}"),
        E::ReportSuperseded { node, child, .. } => format!("supersede n{node} child=n{child}"),
        E::PatrolStatusRelay { node, vehicle, .. } => format!("patrol n{node} veh{vehicle}"),
        E::BorderEntry { node, vehicle } => format!("border_in n{node} veh{vehicle}"),
        E::BorderExit { node, vehicle } => format!("border_out n{node} veh{vehicle}"),
        // Fault-injection events come from the simulator's fault layer,
        // never from the checkpoint state machines driven here.
        E::CheckpointCrashed { .. }
        | E::CheckpointRecovered { .. }
        | E::FaultMessageDropped { .. }
        | E::ChannelBlackout { .. }
        | E::FaultWatchDropped { .. } => unreachable!("checkpoints do not emit fault events"),
    };
    format!("t={t} {body}")
}

#[test]
fn fig1_walkthrough_event_stream_is_pinned() {
    let streams = walkthrough();
    let actual: Vec<Vec<String>> = streams
        .iter()
        .map(|evs| evs.iter().map(|&(t, ev)| fmt(t, ev)).collect())
        .collect();

    // n0 (the seed): activates at t=0, counts vehicles 1–3, emits the wave
    // labels as soon as a vehicle departs onto each successor direction
    // (veh 1 onto 0→1, veh 3 onto 0→2), and is stopped on both inbound
    // directions by the backwash.
    let n0 = vec![
        "t=0 activated n0 pred=- seed=true",
        "t=1 count n0 veh1",
        "t=1.5 count n0 veh2",
        "t=2 count n0 veh3",
        "t=29 label_out n0 e0",
        "t=29 handoff_ack n0 e0 veh1",
        "t=70 stop_in n0 e1",
        "t=75 stop_in n0 e4",
        "t=75 stable n0",
        "t=84 label_out n0 e5",
        "t=84 handoff_ack n0 e5 veh3",
    ];
    // n1: activated by the 0→1 label (pred n0), counts vehicle 4 from n2,
    // hands labels onward (veh 4 carries 1→2, veh 1 carries the 1→0
    // backwash), stabilizes when the 2→1 backwash label arrives, and
    // reports 1 up the tree after n2's 0 arrives.
    let n1 = vec![
        "t=30 activated n1 pred=n0 seed=false",
        "t=35 count n1 veh4",
        "t=59 label_out n1 e2",
        "t=59 handoff_ack n1 e2 veh4",
        "t=69 label_out n1 e1",
        "t=69 handoff_ack n1 e1 veh1",
        "t=80 stop_in n1 e3",
        "t=80 stable n1",
        "t=100 report n1->n0 total=1 seq=1",
    ];
    // n2: activated by the 1→2 label (pred n1), counts nothing (both its
    // inbound directions carry already-counted traffic), hands the backwash
    // labels to n0 (veh 4) and n1 (veh 2), stabilizes when the 0→2 label
    // arrives, and immediately reports its empty subtree.
    let n2 = vec![
        "t=60 activated n2 pred=n1 seed=false",
        "t=74 label_out n2 e4",
        "t=74 handoff_ack n2 e4 veh4",
        "t=79 label_out n2 e3",
        "t=79 handoff_ack n2 e3 veh2",
        "t=85 stop_in n2 e5",
        "t=85 stable n2",
        "t=85 report n2->n1 total=0 seq=1",
    ];
    let expected = [n0, n1, n2];
    for (node, (act, exp)) in actual.iter().zip(expected.iter()).enumerate() {
        assert_eq!(act, exp, "event stream of checkpoint n{node} diverged");
    }
    assert_eq!(actual.len(), 3);
}

#[test]
fn fig1_walkthrough_exports_parseable_jsonl() {
    use std::sync::{Arc, Mutex};

    // A Send-able in-memory writer so the stream can be inspected.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let buf = Shared::default();
    let mut sink = JsonlSink::filtered(
        Box::new(buf.clone()),
        EventFilter::of([
            EventKind::CheckpointActivated,
            EventKind::VehicleCounted,
            EventKind::ReportSent,
        ]),
    );
    let streams = walkthrough();
    let mut emitted = 0usize;
    for (node, evs) in streams.into_iter().enumerate() {
        for (t, event) in evs {
            let _ = node;
            sink.record(&EventRecord {
                time_s: t,
                seed_epoch: 0,
                event,
            });
            emitted += 1;
        }
    }
    sink.flush();
    assert!(sink.error().is_none());
    assert_eq!(emitted, 28, "the walkthrough emits 28 events in total");

    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // 3 activations + 4 counts + 2 reports survive the filter.
    assert_eq!(lines.len(), 9, "filter admits exactly 9 records:\n{text}");
    for line in lines {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON per line");
        assert!(v["t"].as_f64().is_some());
        let kind = v["kind"].as_str().unwrap();
        assert!(
            ["checkpoint_activated", "vehicle_counted", "report_sent"].contains(&kind),
            "unexpected kind {kind}"
        );
        assert!(v["node"].as_u64().is_some());
    }
}
