//! Determinism guarantees: `(network, config, demand, seed)` fully
//! determines a run. Same seed ⇒ identical metrics and an identical
//! protocol event stream; sweep results are independent of the worker
//! thread count.

mod common;

use std::sync::{Arc, Mutex};

use common::{assert_metrics_identical, fnv_digest, VecSink};
use vcount_core::CheckpointConfig;
use vcount_sim::{sweep, Cell, Goal, RunMetrics, Runner, Scenario, SweepConfig};
use vcount_sim::{MapSpec, SeedSpec};
use vcount_traffic::{Demand, SimConfig};
use vcount_v2x::ChannelKind;

fn scenario(seed: u64) -> Scenario {
    Scenario {
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
        protocol: CheckpointConfig::default(),
        channel: ChannelKind::PAPER,
        seeds: SeedSpec::Random { count: 3 },
        transport: Default::default(),
        patrol: Default::default(),
        max_time_s: 2400.0,
    }
}

fn run_once(seed: u64) -> (RunMetrics, Vec<String>) {
    let events = Arc::new(Mutex::new(Vec::new()));
    let mut runner = Runner::builder(&scenario(seed))
        .sink(Box::new(VecSink(events.clone())))
        .build();
    let metrics = runner.run(Goal::Constitution, 2400.0);
    let stream = events.lock().unwrap().clone();
    (metrics, stream)
}

#[test]
fn same_seed_same_metrics_and_event_stream() {
    let (m1, s1) = run_once(42);
    let (m2, s2) = run_once(42);
    assert_metrics_identical(&m1, &m2, "same-seed metrics");
    assert!(!s1.is_empty(), "run emitted no protocol events");
    assert_eq!(s1, s2, "same-seed JSONL event streams differ");

    // And a different seed actually changes the stream — otherwise the
    // comparison above proves nothing.
    let (_, s3) = run_once(43);
    assert_ne!(s1, s3, "different seeds produced identical streams");
}

#[test]
fn sweep_results_independent_of_thread_count() {
    let make = |cell: Cell, rep: u64| {
        let mut s = scenario(rep.wrapping_mul(7919) + cell.seeds as u64);
        s.demand = Demand::at_volume(cell.volume_pct);
        s.seeds = SeedSpec::Random { count: cell.seeds };
        s
    };
    let cfg1 = SweepConfig {
        volumes: vec![40.0, 80.0],
        seed_counts: vec![1, 3],
        replicates: 2,
        threads: 1,
    };
    let cfgn = SweepConfig {
        threads: 4,
        ..cfg1.clone()
    };
    let serial = sweep(&cfg1, Goal::Constitution, make);
    let parallel = sweep(&cfgn, Goal::Constitution, make);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.cell, b.cell, "cell order must match after sorting");
        assert_eq!(a.constitution_min, b.constitution_min, "{:?}", a.cell);
        assert_eq!(a.per_checkpoint_min, b.per_checkpoint_min, "{:?}", a.cell);
        assert_eq!(a.violations, b.violations, "{:?}", a.cell);
        assert_eq!(a.unconverged, b.unconverged, "{:?}", a.cell);
        assert_eq!(a.failed, b.failed, "{:?}", a.cell);
        assert_eq!(a.runs.len(), b.runs.len(), "{:?}", a.cell);
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert_metrics_identical(ra, rb, "sweep replicate metrics");
        }
    }
}

/// The shared stream digest is FNV-1a-64 (offset basis
/// 0xcbf29ce484222325, prime 0x100000001b3) over each line plus its `\n`.
#[test]
fn fnv_digest_is_fnv1a_64() {
    assert_eq!(fnv_digest(&["a"]), 0x089b_dc07_b544_e7b2);
    assert_eq!(fnv_digest::<&str>(&[]), 0xcbf2_9ce4_8422_2325);
}
