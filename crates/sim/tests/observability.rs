//! The observability layer on full simulated deployments: sink fan-out,
//! per-run telemetry, and the post-mortem ring buffer on an induced oracle
//! violation (the Alg. 3 line 3 compensation ablation).

use std::sync::{Arc, Mutex};
use vcount_core::CheckpointConfig;
use vcount_obs::{EventKind, EventRecord, EventSink};
use vcount_sim::{Goal, MapSpec, PatrolSpec, Runner, Scenario, SeedSpec};
use vcount_traffic::{Demand, SimConfig};
use vcount_v2x::ChannelKind;

fn grid_scenario(seed: u64, channel: ChannelKind) -> Scenario {
    Scenario {
        map: MapSpec::Grid {
            cols: 4,
            rows: 4,
            spacing_m: 200.0,
            lanes: 2,
            speed_mps: 9.0,
        },
        closed: true,
        sim: SimConfig {
            seed,
            ..Default::default()
        },
        demand: Demand::at_volume(60.0),
        protocol: CheckpointConfig::default(),
        channel,
        seeds: SeedSpec::Random { count: 1 },
        transport: Default::default(),
        patrol: PatrolSpec::default(),
        max_time_s: 3.0 * 3600.0,
    }
}

/// A sink that retains every record it sees (shared, so the test can look
/// after the runner is done with it).
#[derive(Clone, Default)]
struct Collector(Arc<Mutex<Vec<EventRecord>>>);

impl EventSink for Collector {
    fn record(&mut self, rec: &EventRecord) {
        self.0.lock().unwrap().push(*rec);
    }
}

#[test]
fn sinks_see_every_counted_event() {
    let s = grid_scenario(21, ChannelKind::PAPER);
    let collector = Collector::default();
    let mut runner = Runner::builder(&s)
        .sink(Box::new(collector.clone()))
        .build();
    let metrics = runner.run(Goal::Collection, s.max_time_s);
    assert_eq!(metrics.oracle_violations, 0);

    let seen = collector.0.lock().unwrap();
    // The audit stage counts every record it fans into the sinks: total
    // record count must agree with the aggregate telemetry.
    assert_eq!(seen.len() as u64, metrics.telemetry.events_total());
    assert!(
        metrics.telemetry.activations >= 16,
        "every checkpoint wakes"
    );
    // Under a lossy channel a vehicle whose handoff was lost is counted at
    // two checkpoints and one count is compensated away (Alg. 3 line 3), so
    // count events can exceed the population — never undershoot it.
    assert!(metrics.telemetry.vehicles_counted >= metrics.true_population as u64);
    assert!(metrics.telemetry.labels_emitted > 0);
    assert!(
        metrics.telemetry.handoff_retries > 0,
        "the 30% channel must lose some handoffs"
    );
    assert!(
        metrics.telemetry.compensations > 0,
        "lost handoffs trigger Alg. 3 line 3 compensation"
    );
    // Every record is stamped with a monotone non-negative sim time.
    let mut last = 0.0f64;
    for rec in seen.iter() {
        assert!(rec.time_s >= 0.0);
        last = last.max(rec.time_s);
    }
    assert!(last > 0.0);
    // Wall-clock phase attribution was measured.
    assert!(metrics.telemetry.traffic_step_secs > 0.0);
    assert!(metrics.telemetry.protocol_secs > 0.0);
}

#[test]
fn compensation_ablation_trips_oracle_and_ring_explains_it() {
    // Ablation: 30% lossy handoffs with the Alg. 3 line 3 "-1" compensation
    // disabled. Lost labels then leave vehicles counted twice (once at the
    // emitting checkpoint, once downstream), which the per-vehicle oracle
    // must flag — and the always-on ring buffer must still hold the
    // offending vehicle's attribution chain for the post-mortem.
    let mut s = grid_scenario(22, ChannelKind::PAPER);
    s.protocol.compensate_loss = false;
    let mut runner = Runner::builder(&s).ring_capacity(1 << 17).build();
    let metrics = runner.run(Goal::Collection, s.max_time_s);

    let violations = runner.verify();
    assert!(
        !violations.is_empty(),
        "disabling loss compensation on a lossy channel must mis-count"
    );
    assert_eq!(metrics.oracle_violations, violations.len());
    assert_eq!(
        metrics.telemetry.compensations, 0,
        "the ablation must not compensate"
    );
    assert!(metrics.telemetry.handoff_retries > 0);

    let trace = runner.violation_trace(violations[0].vehicle);
    assert!(
        !trace.is_empty(),
        "ring buffer retains the offending vehicle's chain"
    );
    assert!(
        trace
            .iter()
            .all(|r| r.event.vehicle() == Some(violations[0].vehicle.0)),
        "the chain only mentions the offending vehicle"
    );
    assert!(
        trace
            .iter()
            .filter(|r| r.event.kind() == EventKind::VehicleCounted)
            .count()
            >= 1,
        "the chain shows where the vehicle was counted"
    );
    // The chain is exportable for bug reports.
    for rec in &trace {
        assert!(rec.to_json().contains("\"kind\""));
    }
}
