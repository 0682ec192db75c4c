//! Micro-benchmarks of the substrates: simulator step throughput vs map
//! size (the paper's scalability observation 4), protocol event
//! processing, wire codec, channel draws, and patrol cycle construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vcount_core::{Action, ActionKind, Checkpoint, CheckpointConfig};
use vcount_obs::{EventRecord, EventSink, NullSink, ProtocolEvent};
use vcount_roadnet::builders::{grid, manhattan, ManhattanConfig};
use vcount_roadnet::{covering_cycle, edge_covering_cycle, shortest_path, NodeId};
use vcount_traffic::{Demand, SimConfig, Simulator};
use vcount_v2x::{Bernoulli, Label, LossModel, Message, Report, VehicleClass, VehicleId};

fn bench_sim_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_step");
    for (name, cols, rows) in [
        ("small_5x5", 5usize, 5usize),
        ("mid_10x10", 10, 10),
        ("large_20x20", 20, 20),
    ] {
        let net = grid(cols, rows, 120.0, 2, 9.0);
        let vehicles = Demand::at_volume(80.0);
        g.throughput(Throughput::Elements((cols * rows) as u64));
        g.bench_function(BenchmarkId::new("grid", name), |b| {
            let mut sim = Simulator::new(net.clone(), SimConfig::default(), vehicles.clone());
            b.iter(|| {
                sim.step();
            });
        });
    }
    let net = manhattan(&ManhattanConfig::default());
    g.bench_function(BenchmarkId::new("manhattan", "12x37"), |b| {
        let mut sim = Simulator::new(
            net.clone(),
            SimConfig::default(),
            Demand {
                vehicles_per_lane_km: 30.0,
                ..Demand::at_volume(80.0)
            },
        );
        b.iter(|| {
            sim.step();
        });
    });
    // The overtake-detection hot path: multi-lane, heterogeneous speeds,
    // detection on — the configuration BENCH_hotpath.json tracks. The
    // warm-up lets every scratch buffer reach its working-set size so the
    // measurement sees the allocation-free steady state.
    g.bench_function(BenchmarkId::new("grid", "overtakes_10x10"), |b| {
        let net = grid(10, 10, 150.0, 2, 10.0);
        let cfg = SimConfig {
            detect_overtakes: true,
            speed_factor_range: (0.5, 1.0),
            seed: 42,
            ..Default::default()
        };
        let mut sim = Simulator::new(net, cfg, Demand::at_volume(100.0));
        for _ in 0..300 {
            sim.step();
        }
        b.iter(|| {
            sim.step();
        });
    });
    g.finish();
}

fn bench_protocol_events(c: &mut Criterion) {
    let net = grid(3, 3, 100.0, 1, 9.0);
    let center = NodeId(4);
    let via = net.in_edges(center)[0];
    let car = VehicleClass::WHITE_VAN;
    c.bench_function("checkpoint_count_event", |b| {
        let mut cp = Checkpoint::new(&net, center, CheckpointConfig::default());
        let mut cmds = Vec::new();
        let mut events = Vec::new();
        cp.apply(
            &Action {
                at_s: 0.0,
                kind: ActionKind::Seed,
            },
            &mut cmds,
        );
        cp.drain_events_into(&mut events);
        let mut t = 1.0;
        let mut veh = 0u64;
        b.iter(|| {
            t += 1.0;
            veh += 1;
            cmds.clear();
            cp.apply(
                &Action {
                    at_s: t,
                    kind: ActionKind::Entered {
                        vehicle: VehicleId(veh),
                        via: Some(via),
                        class: car,
                        label: None,
                    },
                },
                &mut cmds,
            );
            events.clear();
            cp.drain_events_into(&mut events);
            (cmds.len(), events.len())
        });
    });
    // Acceptance guard for the observability layer: routing the same event
    // stream through a NullSink must cost nothing measurable over draining
    // the events and throwing them away.
    let mut g = c.benchmark_group("event_sink");
    for (name, with_sink) in [("drain_only", false), ("null_sink", true)] {
        g.bench_function(BenchmarkId::new("count_event", name), |b| {
            let mut cp = Checkpoint::new(&net, center, CheckpointConfig::default());
            let mut cmds = Vec::new();
            let mut events = Vec::new();
            cp.apply(
                &Action {
                    at_s: 0.0,
                    kind: ActionKind::Seed,
                },
                &mut cmds,
            );
            cp.drain_events_into(&mut events);
            let mut sink = NullSink;
            let mut t = 1.0;
            let mut veh = 0u64;
            b.iter(|| {
                t += 1.0;
                veh += 1;
                cmds.clear();
                cp.apply(
                    &Action {
                        at_s: t,
                        kind: ActionKind::Entered {
                            vehicle: VehicleId(veh),
                            via: Some(via),
                            class: car,
                            label: None,
                        },
                    },
                    &mut cmds,
                );
                let mut n = 0usize;
                events.clear();
                cp.drain_events_into(&mut events);
                for &(time_s, event) in &events {
                    n += 1;
                    if with_sink {
                        sink.record(&EventRecord {
                            time_s,
                            seed_epoch: 0,
                            event,
                        });
                    } else {
                        std::hint::black_box::<(f64, ProtocolEvent)>((time_s, event));
                    }
                }
                n
            });
        });
    }
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let msgs = vec![
        Message::Label(Label {
            origin: NodeId(7),
            origin_pred: Some(NodeId(3)),
            seed: NodeId(0),
        }),
        Message::Report(Report {
            from: NodeId(12),
            to: NodeId(4),
            subtree_total: -3,
            seq: 2,
        }),
        Message::Ack {
            vehicle: VehicleId(99),
        },
    ];
    c.bench_function("message_roundtrip", |b| {
        b.iter(|| {
            for m in &msgs {
                let mut wire = m.encode();
                let back = Message::decode(&mut wire).unwrap();
                assert_eq!(&back, m);
            }
        });
    });
}

fn bench_channel(c: &mut Criterion) {
    c.bench_function("bernoulli_channel_1k_attempts", |b| {
        let ch = Bernoulli::PAPER;
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let mut delivered = 0u32;
            for _ in 0..1000 {
                if ch.attempt(&mut rng).delivered() {
                    delivered += 1;
                }
            }
            delivered
        });
    });
}

fn bench_roadnet(c: &mut Criterion) {
    let net = manhattan(&ManhattanConfig::default());
    c.bench_function("manhattan_build", |b| {
        b.iter(|| manhattan(&ManhattanConfig::default()).node_count());
    });
    c.bench_function("dijkstra_midtown_corner_to_corner", |b| {
        let from = NodeId(0);
        let to = NodeId((net.node_count() - 1) as u32);
        b.iter(|| shortest_path(&net, from, to).unwrap().edges.len());
    });
    c.bench_function("node_covering_cycle_midtown", |b| {
        b.iter(|| covering_cycle(&net, NodeId(0)).unwrap().edges.len());
    });
    let small = manhattan(&ManhattanConfig::small());
    c.bench_function("edge_covering_cycle_small_midtown", |b| {
        b.iter(|| edge_covering_cycle(&small, NodeId(0)).unwrap().edges.len());
    });
}

criterion_group!(
    benches,
    bench_sim_throughput,
    bench_protocol_events,
    bench_codec,
    bench_channel,
    bench_roadnet
);
criterion_main!(benches);
