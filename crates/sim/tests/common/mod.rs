//! Helpers shared by the sim integration tests (`mod common;`). Not every
//! test binary uses every helper.
#![allow(dead_code)]

use std::sync::{Arc, Mutex};

use vcount_core::{CheckpointConfig, ProtocolVariant};
use vcount_obs::{EventRecord, EventSink};
use vcount_roadnet::builders::ManhattanConfig;
use vcount_roadnet::EdgeId;
use vcount_sim::{
    FaultPlan, Goal, MapSpec, PatrolSpec, RunMetrics, Runner, Scenario, SeedSpec, ServiceRequest,
    ServiceResponse, TransportMode, WireClient,
};
use vcount_traffic::{Demand, SimConfig, SimSnapshot, Spot};
use vcount_v2x::ChannelKind;

/// Collects every record's JSON line — the same encoding `JsonlSink`
/// writes — so two runs can be compared byte for byte without touching
/// the filesystem.
pub struct VecSink(pub Arc<Mutex<Vec<String>>>);

impl EventSink for VecSink {
    fn record(&mut self, rec: &EventRecord) {
        self.0.lock().unwrap().push(rec.to_json());
    }
}

/// 64-bit FNV-1a over the JSONL stream (every line plus its `\n`) — one
/// order-sensitive digest per run, so a mismatch report stays readable
/// even for long streams.
pub fn fnv_digest<S: AsRef<str>>(lines: &[S]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for line in lines {
        for &b in line.as_ref().as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// `m` with the wall-clock phase timings zeroed: they are the only
/// nondeterministic fields (and belong to the feeder in service mode), so
/// the rest of two runs' metrics can be compared whole.
pub fn normalized(mut m: RunMetrics) -> RunMetrics {
    m.telemetry.traffic_step_secs = 0.0;
    m.telemetry.protocol_secs = 0.0;
    m.telemetry.relay_secs = 0.0;
    m
}

/// Asserts two runs' metrics are equal but for the wall-clock timings.
pub fn assert_metrics_identical(a: &RunMetrics, b: &RunMetrics, what: &str) {
    assert_eq!(normalized(a.clone()), normalized(b.clone()), "{what}");
}

/// A 4×4 closed grid running `variant`; the extended variant also gets a
/// patrol car and the patrol-fallback transport.
pub fn grid_scenario(variant: ProtocolVariant, seed: u64) -> Scenario {
    let mut s = Scenario {
        map: MapSpec::Grid {
            cols: 4,
            rows: 4,
            spacing_m: 130.0,
            lanes: 2,
            speed_mps: 10.0,
        },
        closed: true,
        sim: SimConfig {
            seed,
            detect_overtakes: true,
            speed_factor_range: (0.6, 1.0),
            ..Default::default()
        },
        demand: Demand::at_volume(60.0),
        protocol: CheckpointConfig::for_variant(variant),
        channel: ChannelKind::PAPER,
        seeds: SeedSpec::Random { count: 2 },
        transport: TransportMode::default(),
        patrol: PatrolSpec::default(),
        max_time_s: 1500.0,
    };
    if variant == ProtocolVariant::Extended {
        s.transport = TransportMode::VehicleWithPatrolFallback;
        s.patrol = PatrolSpec { cars: 1 };
    }
    s
}

/// The open-system family: border checkpoints, live entry/exit tracking.
pub fn open_scenario(seed: u64) -> Scenario {
    Scenario {
        map: MapSpec::Manhattan(ManhattanConfig::small()),
        closed: false,
        sim: SimConfig {
            seed,
            spawn_rate_hz: 0.2,
            detect_overtakes: true,
            ..Default::default()
        },
        demand: Demand::at_volume(50.0),
        protocol: CheckpointConfig::for_variant(ProtocolVariant::Open),
        channel: ChannelKind::PAPER,
        seeds: SeedSpec::AllBorder,
        transport: Default::default(),
        patrol: PatrolSpec::default(),
        max_time_s: 900.0,
    }
}

/// A 3×3 grid running `variant` (open when the variant is); the extended
/// variant also gets a patrol car and the patrol-fallback transport.
pub fn small_grid_scenario(variant: ProtocolVariant, seed: u64) -> Scenario {
    let mut s = Scenario {
        map: MapSpec::Grid {
            cols: 3,
            rows: 3,
            spacing_m: 120.0,
            lanes: 2,
            speed_mps: 10.0,
        },
        closed: variant != ProtocolVariant::Open,
        sim: SimConfig {
            seed,
            detect_overtakes: true,
            speed_factor_range: (0.6, 1.0),
            ..Default::default()
        },
        demand: Demand::at_volume(60.0),
        protocol: CheckpointConfig::for_variant(variant),
        channel: ChannelKind::PAPER,
        seeds: SeedSpec::Random { count: 2 },
        transport: TransportMode::default(),
        patrol: PatrolSpec::default(),
        max_time_s: 1200.0,
    };
    if variant == ProtocolVariant::Extended {
        // Exercise the patrol-carried queues and status exchange too.
        s.transport = TransportMode::VehicleWithPatrolFallback;
        s.patrol = PatrolSpec { cars: 1 };
    }
    s
}

/// The in-process reference: `scen` under [`Runner::run`] to collection,
/// with its event stream and metrics.
pub fn capture_batch(scen: &Scenario, plan: Option<FaultPlan>) -> (Vec<String>, RunMetrics) {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let mut builder = Runner::builder(scen).sink(Box::new(VecSink(lines.clone())));
    if let Some(p) = plan {
        builder = builder.faults(p);
    }
    let metrics = builder.build().run(Goal::Collection, scen.max_time_s);
    let out = lines.lock().unwrap().clone();
    (out, metrics)
}

/// Splits one request's answer per the framing contract: event lines are
/// appended to `events`, the single terminal response is returned. Panics
/// on a service [`ServiceResponse::Error`].
pub fn split_answer(answer: Vec<ServiceResponse>, events: &mut Vec<String>) -> ServiceResponse {
    let mut terminal = None;
    for resp in answer {
        match resp {
            ServiceResponse::Event { line, .. } => events.push(line),
            ServiceResponse::Error { run, message } => {
                panic!("service error for run {run:?}: {message}")
            }
            other => {
                assert!(terminal.is_none(), "more than one terminal response");
                terminal = Some(other);
            }
        }
    }
    terminal.expect("framing: every request ends in one terminal response")
}

/// One request over a real socket, answered per [`split_answer`].
pub fn wire_call(
    client: &mut WireClient,
    req: &ServiceRequest,
    events: &mut Vec<String>,
) -> ServiceResponse {
    split_answer(client.call(req).expect("wire call failed"), events)
}

/// The first on-edge vehicle of a snapshot's traffic state: its index,
/// and its edge, lane and position, to poison in place.
pub fn first_on_edge(sim: &mut SimSnapshot) -> (usize, &mut EdgeId, &mut u8, &mut f64) {
    sim.vehicles
        .at
        .iter_mut()
        .enumerate()
        .find_map(|(i, spot)| match spot {
            Spot::On(edge, lane, pos) => Some((i, edge, lane, pos)),
            Spot::Out | Spot::Queued => None,
        })
        .expect("a vehicle on an edge")
}
