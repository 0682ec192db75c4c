//! Fault-injection properties: the headline contract of `vcount_sim::faults`.
//!
//! Under *any* fault plan — checkpoint crashes, regional blackouts,
//! message chaos, in any combination — a run must end in one of exactly
//! two states:
//!
//!  1. **exact** — zero oracle violations and (if the collection finished)
//!     a global count equal to ground truth, or
//!  2. **explicitly degraded** — `RunMetrics::degraded` set because some
//!     fault class provably cost protocol information.
//!
//! A silent miscount (wrong answer with `degraded == false`) is the one
//! outcome the harness exists to rule out. The randomized sweep below
//! throws ≥32 generated plans at both the Simple (closed) and Extended
//! (patrol) variants; companion tests pin the boundary behaviors: an
//! empty plan is byte-identical to no plan, blackout-only plans stay
//! exact, and a crash firing *after* a snapshot/resume replays
//! byte-identically.

mod common;

use std::sync::{Arc, Mutex};

use common::VecSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vcount_core::{CheckpointConfig, ProtocolVariant};
use vcount_sim::{Blackout, ChaosFault, CrashFault, FaultLayer, FaultPlan};
use vcount_sim::{EngineSnapshot, Goal, Runner, RunnerBuilder, Scenario};
use vcount_sim::{MapSpec, PatrolSpec, SeedSpec, TransportMode};
use vcount_traffic::{Demand, SimConfig};
use vcount_v2x::ChannelKind;

const NODES: u32 = 9; // 3×3 grid

fn scenario(variant: ProtocolVariant, seed: u64) -> Scenario {
    let mut s = Scenario {
        map: MapSpec::Grid {
            cols: 3,
            rows: 3,
            spacing_m: 120.0,
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

/// Draws a random-but-valid plan: up to two crashes, up to two blackouts,
/// maybe a chaos window, a random image cadence.
fn random_plan(rng: &mut StdRng) -> FaultPlan {
    let mut crashes = Vec::new();
    for _ in 0..rng.gen_range(0..3u32) {
        let at_s = rng.gen_range(60.0..600.0);
        crashes.push(CrashFault {
            node: rng.gen_range(0..NODES),
            at_s,
            recover_s: at_s + rng.gen_range(60.0..400.0),
        });
    }
    // Overlapping same-node crash windows are invalid; drop the later one.
    crashes.sort_by(|a: &CrashFault, b: &CrashFault| {
        (a.node, a.at_s).partial_cmp(&(b.node, b.at_s)).unwrap()
    });
    crashes.dedup_by(|b, a| a.node == b.node && b.at_s < a.recover_s);
    let mut blackouts = Vec::new();
    for _ in 0..rng.gen_range(0..3u32) {
        let from_s = rng.gen_range(0.0..500.0);
        blackouts.push(Blackout {
            nodes: (0..rng.gen_range(1..4u32))
                .map(|_| rng.gen_range(0..NODES))
                .collect(),
            from_s,
            until_s: from_s + rng.gen_range(30.0..300.0),
        });
    }
    let chaos = rng.gen_bool(0.5).then(|| {
        let from_s = rng.gen_range(0.0..300.0);
        ChaosFault {
            from_s,
            until_s: from_s + rng.gen_range(60.0..600.0),
            duplicate_p: rng.gen_range(0.0..0.4),
            delay_p: rng.gen_range(0.0..0.4),
            max_delay_s: rng.gen_range(0.0..20.0),
            reorder_p: rng.gen_range(0.0..0.4),
        }
    });
    FaultPlan {
        seed: rng.gen(),
        crashes,
        blackouts,
        chaos,
        image_every_s: [30.0, 60.0, 120.0][rng.gen_range(0..3u32) as usize],
    }
}

#[test]
fn randomized_plans_never_miscount_silently() {
    let mut rng = StdRng::seed_from_u64(0xFA_07);
    let mut degraded_runs = 0usize;
    let mut exact_runs = 0usize;
    let mut crashes_fired = 0u64;
    for case in 0..32u64 {
        let variant = if case % 2 == 0 {
            ProtocolVariant::Simple
        } else {
            ProtocolVariant::Extended
        };
        let scen = scenario(variant, 1000 + case);
        // JSON round-trip every plan so the sweep also covers the schema.
        let plan = FaultPlan::from_json(&random_plan(&mut rng).to_json()).unwrap();
        FaultLayer::from_plan(plan.clone(), NODES as usize, None).unwrap();
        let mut runner = Runner::builder(&scen).faults(plan.clone()).build();
        let m = runner.run(Goal::Collection, scen.max_time_s);
        crashes_fired += m.telemetry.crashes;
        // The global count is only a *claim* once collection finished; an
        // unconverged run asserts nothing (and is not a silent miscount).
        let count_matches =
            m.collection_done_s.is_none() || m.global_count == Some(m.true_population as i64);
        assert!(
            m.degraded || (m.oracle_violations == 0 && count_matches),
            "case {case} ({variant:?}): SILENT miscount under plan {}: \
             violations={}, count={:?}, truth={}, counters={:?}",
            plan.to_json(),
            m.oracle_violations,
            m.global_count,
            m.true_population,
            runner.fault_counters(),
        );
        if m.degraded {
            degraded_runs += 1;
        } else if m.collection_done_s.is_some() && count_matches {
            exact_runs += 1;
        }
    }
    // The sweep must actually exercise both outcomes, or the property
    // above is vacuous.
    assert!(degraded_runs > 0, "no run degraded; plans too gentle");
    assert!(exact_runs > 0, "no run stayed exact; plans too violent");
    assert!(crashes_fired > 0, "no crash ever fired");
}

fn capture(scen: &Scenario, plan: Option<FaultPlan>, steps: usize) -> Vec<String> {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let mut builder = Runner::builder(scen).sink(Box::new(VecSink(lines.clone())));
    if let Some(p) = plan {
        builder = builder.faults(p);
    }
    let mut runner = builder.build();
    for _ in 0..steps {
        runner.step();
    }
    runner.flush_sinks();
    let out = lines.lock().unwrap().clone();
    out
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    let scen = scenario(ProtocolVariant::Simple, 7);
    let empty = FaultPlan {
        seed: 99,
        crashes: Vec::new(),
        blackouts: Vec::new(),
        chaos: None,
        image_every_s: 60.0,
    };
    assert!(empty.crashes.is_empty() && empty.blackouts.is_empty() && empty.chaos.is_none());
    let without = capture(&scen, None, 600);
    let with = capture(&scen, Some(empty), 600);
    assert!(!without.is_empty(), "reference run emitted no events");
    assert_eq!(
        without, with,
        "an empty fault plan perturbed the event stream"
    );
}

#[test]
fn blackout_only_plans_stay_exact() {
    let scen = scenario(ProtocolVariant::Simple, 13);
    let plan = FaultPlan {
        seed: 5,
        crashes: Vec::new(),
        blackouts: vec![Blackout {
            nodes: vec![0, 4, 8],
            from_s: 30.0,
            until_s: 240.0,
        }],
        chaos: None,
        image_every_s: 60.0,
    };
    let mut runner = Runner::builder(&scen).faults(plan).build();
    let m = runner.run(Goal::Collection, scen.max_time_s);
    assert!(
        m.telemetry.blackout_failures > 0,
        "blackout never bit; test is vacuous"
    );
    // Blackouts only force handoff failures, which the paper's −1
    // compensation absorbs: never degraded, still exact.
    assert!(!m.degraded, "blackout-only plan must not degrade");
    assert_eq!(m.oracle_violations, 0);
    assert!(
        m.collection_done_s.is_some(),
        "blackout run never collected"
    );
    assert_eq!(m.global_count, Some(m.true_population as i64));
}

#[test]
fn crash_mid_watch_drops_open_watches_explicitly() {
    // A segment watch stays open from a labelled departure until its label
    // vehicle reaches the far checkpoint, so crashing the busiest node
    // mid-run catches some of its watches in flight. The crash must close
    // them at the exchange (a recovered image never saw the handoff, so
    // finalizing later would adjust counters the origin no longer owns),
    // count each closure, emit the audit event, and mark the run degraded
    // — never resolve them silently.
    let scen = scenario(ProtocolVariant::Simple, 31);
    let plan = FaultPlan {
        seed: 3,
        crashes: vec![CrashFault {
            node: 4, // center of the 3×3 grid: highest degree, most watches
            at_s: 60.0,
            recover_s: 400.0,
        }],
        blackouts: Vec::new(),
        chaos: None,
        image_every_s: 60.0,
    };
    FaultLayer::from_plan(plan.clone(), NODES as usize, None).unwrap();

    let lines = Arc::new(Mutex::new(Vec::new()));
    let mut runner = Runner::builder(&scen)
        .faults(plan)
        .sink(Box::new(VecSink(lines.clone())))
        .build();
    let m = runner.run(Goal::Collection, scen.max_time_s);
    runner.flush_sinks();

    let dropped = runner.fault_counters().watches_dropped;
    assert!(
        dropped > 0,
        "crash caught no open watch; pick a busier crash time"
    );
    assert_eq!(
        m.telemetry.watches_dropped, dropped,
        "telemetry disagrees with the fault counters"
    );
    let events = lines.lock().unwrap();
    assert!(
        events.iter().any(|l| l.contains("fault_watch_dropped")),
        "no fault_watch_dropped event was audited"
    );
    // Telemetry counts every audited record the sink saw, the fault-watch
    // drops included.
    assert_eq!(
        events.len() as u64,
        m.telemetry.events_total(),
        "telemetry's event total disagrees with the sink"
    );
    // Dropping a watch provably costs adjustment information: the run must
    // say so rather than present its count as exact.
    assert!(m.degraded, "dropped watches did not degrade the run");
}

#[test]
fn resume_replays_a_crash_scheduled_after_the_snapshot() {
    let scen = scenario(ProtocolVariant::Extended, 21);
    let plan = FaultPlan {
        seed: 17,
        crashes: vec![CrashFault {
            node: 4,
            at_s: 150.0, // fires in the tail: snapshot is taken at 125 s
            recover_s: 220.0,
        }],
        blackouts: vec![Blackout {
            nodes: vec![2],
            from_s: 100.0,
            until_s: 200.0,
        }],
        chaos: Some(ChaosFault {
            from_s: 0.0,
            until_s: 300.0,
            duplicate_p: 0.2,
            delay_p: 0.2,
            max_delay_s: 10.0,
            reorder_p: 0.1,
        }),
        image_every_s: 30.0,
    };
    let total_steps = 600usize; // 300 s at dt 0.5
    let prefix_steps = 250usize; // 125 s — before the crash fires

    let reference = capture(&scen, Some(plan.clone()), total_steps);
    assert!(
        reference.iter().any(|l| l.contains("checkpoint_crashed")),
        "reference run never crashed; test is vacuous"
    );

    let prefix_lines = Arc::new(Mutex::new(Vec::new()));
    let mut first = Runner::builder(&scen)
        .faults(plan)
        .sink(Box::new(VecSink(prefix_lines.clone())))
        .build();
    for _ in 0..prefix_steps {
        first.step();
    }
    first.flush_sinks();
    let snap_json = first.snapshot().to_json();
    drop(first);

    let snap = EngineSnapshot::from_json(&snap_json).expect("snapshot JSON parses");
    assert!(
        snap.fault_plan.is_some() && snap.faults.is_some(),
        "fault layer missing from the snapshot"
    );
    let tail = Arc::new(Mutex::new(Vec::new()));
    let mut resumed = RunnerBuilder::from_snapshot(snap)
        .sink(Box::new(VecSink(tail.clone())))
        .build();
    for _ in 0..(total_steps - prefix_steps) {
        resumed.step();
    }
    resumed.flush_sinks();

    let mut stitched = prefix_lines.lock().unwrap().clone();
    stitched.extend(tail.lock().unwrap().iter().cloned());
    assert_eq!(
        reference, stitched,
        "fault schedule diverged across snapshot/resume"
    );
}
