//! The paper's Fig. 1 walkthrough: the closed road system with three
//! intersections, where checkpoint "1" (our node 0) is the seed and sink.
//!
//! This example drives the checkpoint state machines directly (no traffic
//! simulator) through the single [`Checkpoint::apply`] entry point and
//! prints the exact phase transitions of Alg. 1 and the collection of
//! Alg. 2, mirroring panels (a)–(d) of the figure. The emitted
//! [`ProtocolEvent`] stream of this walkthrough is pinned by the
//! `golden_trace` integration test.
//!
//! Run with: `cargo run --example three_intersections`

use vcount::core::{
    Action, ActionKind, Checkpoint, CheckpointConfig, Command, ProtocolEvent, ProtocolVariant,
};
use vcount::roadnet::builders::fig1_triangle;
use vcount::roadnet::{EdgeId, NodeId};
use vcount::v2x::{BodyType, Brand, Color, Label, VehicleClass, VehicleId};

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

fn main() {
    let net = fig1_triangle(250.0, 1, 6.7);
    let cfg = CheckpointConfig::for_variant(ProtocolVariant::Simple);
    let mut cps: Vec<Checkpoint> = net
        .node_ids()
        .map(|n| Checkpoint::new(&net, n, cfg))
        .collect();
    let e = |a: u32, b: u32| net.edge_between(NodeId(a), NodeId(b)).unwrap();

    println!("== Fig. 1: counting in a 3-intersection closed system ==\n");

    // (a) Initialization from the seed.
    println!("(a) seed checkpoint n0 initializes: p(0)=∅, s(0)={{n1, n2}}");
    let mut seed_cmds = Vec::new();
    cps[0].apply(
        &Action {
            at_s: 0.0,
            kind: ActionKind::Seed,
        },
        &mut seed_cmds,
    );
    println!("    n0 counts inbound 0←1 and 0←2; labels pending on 0→1, 0→2\n");

    // Uncounted traffic flows into the seed and is counted (phase 5).
    for (vehicle, via, t) in [(1, e(1, 0), 1.0), (2, e(2, 0), 1.5), (3, e(1, 0), 2.0)] {
        enter(&mut cps[0], t, vehicle, via, None);
    }
    println!(
        "    three vehicles entered n0 and were counted: c(0) = {}",
        cps[0].local_count()
    );

    // (b) Propagation: the first vehicle joining 0→1 carries the label
    // (vehicle 1, turning around at the seed).
    let l01 = deliver(&mut cps[0], 29.0, 1, e(0, 1));
    enter(&mut cps[1], 30.0, 1, e(0, 1), Some(l01));
    println!("\n(b) label 0→1 activates n1: p(1)={{n0}}, s(1)={{n2}}");
    println!("    n1 counts only inbound 1←2 (traffic from p(1) is already counted)");

    // n1 counts a car from n2, then the wave reaches n2.
    enter(&mut cps[1], 35.0, 4, e(2, 1), None);
    let l12 = deliver(&mut cps[1], 59.0, 4, e(1, 2));
    enter(&mut cps[2], 60.0, 4, e(1, 2), Some(l12));
    println!("    label 1→2 activates n2: p(2)={{n1}}, s(2)={{n0}}");

    // (c) Backwash: labels flow back and stop each inbound counting.
    let l10 = deliver(&mut cps[1], 69.0, 1, e(1, 0));
    enter(&mut cps[0], 70.0, 1, e(1, 0), Some(l10));
    println!("\n(c) backwash label 1→0 arrives: n0 stops counting 0←1");

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
    println!("    all inbound directions stopped; every checkpoint is stable:");
    for cp in &cps {
        println!(
            "      {}: stable={} c(u)={}",
            cp.id(),
            cp.is_stable(),
            cp.local_count()
        );
    }

    // (d) Collection along the spanning tree 2 → 1 → 0 (Alg. 2).
    println!("\n(d) collection along the p-s spanning tree (Alg. 2):");
    let Command::SendReport { to, total, seq } = cmds2[0] else {
        panic!("n2 must report to its predecessor");
    };
    println!("    n2 reports c(2)={total} to p(2)={to}");
    let cmds1 = handle(
        &mut cps[1],
        ActionKind::Report {
            from: NodeId(2),
            total,
            seq,
        },
        100.0,
    );
    let Command::SendReport { to, total, seq } = cmds1[0] else {
        panic!("n1 must report to its predecessor");
    };
    println!("    n1 reports c(1)+c(2)={total} to p(1)={to}");
    handle(
        &mut cps[0],
        ActionKind::Report {
            from: NodeId(1),
            total,
            seq,
        },
        120.0,
    );
    let global = cps[0].tree_total().unwrap();
    println!("\nglobal view at the seed: {global} vehicles");
    assert_eq!(global, 4, "3 counted at n0 + 1 counted at n1");
    println!("(3 counted at the seed + 1 counted at n1 — no vehicle missed or duplicated)");

    // The observability layer saw every transition; summarize it.
    let mut events: Vec<(f64, ProtocolEvent)> = Vec::new();
    for cp in &mut cps {
        cp.drain_events_into(&mut events);
    }
    println!(
        "\nprotocol events emitted across the walkthrough: {} \
         (pinned by the golden_trace test)",
        events.len()
    );
}
