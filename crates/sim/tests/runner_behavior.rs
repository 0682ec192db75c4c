//! Behavioural tests of the runner: progress accounting, metrics
//! consistency, and seed deployments.

mod common;

use common::normalized;
use vcount_core::{CheckpointConfig, ProtocolVariant};
use vcount_roadnet::builders::ManhattanConfig;
use vcount_sim::{Goal, MapSpec, PatrolSpec, Runner, Scenario, SeedSpec};
use vcount_traffic::{Demand, SimConfig};
use vcount_v2x::ChannelKind;

fn grid_scenario(seed: u64) -> Scenario {
    Scenario {
        map: MapSpec::Grid {
            cols: 4,
            rows: 3,
            spacing_m: 160.0,
            lanes: 2,
            speed_mps: 9.0,
        },
        closed: true,
        sim: SimConfig {
            seed,
            ..Default::default()
        },
        demand: Demand::at_volume(70.0),
        protocol: CheckpointConfig::default(),
        channel: ChannelKind::PAPER,
        seeds: SeedSpec::Random { count: 1 },
        transport: Default::default(),
        patrol: PatrolSpec::default(),
        max_time_s: 2.0 * 3600.0,
    }
}

#[test]
fn progress_counters_are_monotone_and_converge() {
    let s = grid_scenario(31);
    let mut r = Runner::builder(&s).build();
    let mut last_active = 0;
    let mut last_stable = 0;
    while !(r.all_stable() && r.all_collected()) && r.time_s() < s.max_time_s {
        r.step();
        let p = r.progress();
        assert!(p.active >= last_active, "active count regressed");
        assert!(p.stable >= last_stable, "stable count regressed");
        assert!(p.stable <= p.active, "stable before active");
        last_active = p.active;
        last_stable = p.stable;
    }
    let p = r.progress();
    assert_eq!(p.active, p.checkpoints);
    assert_eq!(p.stable, p.checkpoints);
    assert_eq!(p.collected_seeds, r.seeds().len());
}

#[test]
fn metrics_now_matches_run_outcome() {
    let s = grid_scenario(37);
    let mut r = Runner::builder(&s).build();
    let from_run = r.run(Goal::Collection, s.max_time_s);
    let now = r.metrics_now();
    assert!(now.constitution_done_s.is_some());
    assert!(now.collection_done_s.is_some());
    assert_eq!(normalized(now), normalized(from_run));
}

#[test]
fn no_reports_in_flight_after_collection() {
    let s = grid_scenario(39);
    let mut r = Runner::builder(&s).build();
    r.run(Goal::Collection, s.max_time_s);
    assert!(!r.reports_in_flight());
}

#[test]
fn all_border_deployment_runs_open_midtown() {
    let mut s = Scenario {
        map: MapSpec::Manhattan(ManhattanConfig::small()),
        closed: false,
        sim: SimConfig {
            seed: 41,
            ..Default::default()
        },
        demand: Demand::at_volume(50.0),
        protocol: CheckpointConfig::for_variant(ProtocolVariant::Open),
        channel: ChannelKind::PAPER,
        seeds: SeedSpec::AllBorder,
        transport: Default::default(),
        patrol: PatrolSpec::default(),
        max_time_s: 3.0 * 3600.0,
    };
    s.demand.white_van_fraction = 0.0;
    let mut r = Runner::builder(&s).build();
    assert_eq!(r.seeds().len(), r.net().border_nodes().len());
    let m = r.run(Goal::Collection, s.max_time_s);
    assert!(m.collection_done_s.is_some());
    assert!(m.exact());
}

#[test]
fn all_border_on_closed_map_falls_back_to_one_seed() {
    let mut s = grid_scenario(43);
    s.seeds = SeedSpec::AllBorder;
    let r = Runner::builder(&s).build();
    assert_eq!(r.seeds().len(), 1, "grids have no border; one random seed");
}

#[test]
fn baselines_diverge_from_truth_while_protocol_matches() {
    let s = grid_scenario(45);
    let mut r = Runner::builder(&s).build();
    let m = r.run(Goal::Collection, s.max_time_s);
    assert!(m.exact());
    assert!(
        m.baseline_naive as i64 > m.true_population as i64,
        "naive interval counting must double-count in circulating traffic"
    );
    assert!(
        (m.baseline_dedup as i64) < m.true_population as i64,
        "class dedup must collapse look-alike vehicles"
    );
}
