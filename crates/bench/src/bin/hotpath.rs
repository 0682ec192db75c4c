//! `hotpath` — the simulation hot-path throughput baseline.
//!
//! Runs the microsimulator on paper-scale grids (5×5 and 10×10, three
//! demand levels, fixed seeds) with overtake detection enabled — the
//! heaviest per-step configuration — and writes `BENCH_hotpath.json`:
//! steps/sec, events/sec, and peak vehicles per case. This file is the
//! perf trajectory of the step hot path; regenerate it after any change
//! to `Simulator::step` or the runner's delivery path.
//!
//! The `exchange…` cases drive the full engine — checkpoints, oracle, and
//! the wire-encoding Exchange message layer — so a per-step allocation
//! reintroduced into the encode/decode path shows up as a throughput drop
//! here, not just in a profiler.
//!
//! ```text
//! hotpath [--out FILE] [--steps N] [--warmup N] [--smoke]
//!         [--baseline FILE] [--guard FILE] [--tolerance F]
//! ```
//!
//! * `--out FILE`      where to write the JSON report (default
//!   `BENCH_hotpath.json` in the current directory).
//! * `--steps N`       measured steps per case (default 2000).
//! * `--warmup N`      discarded warm-up steps per case (default 300).
//! * `--smoke`         tiny 3×3 grid, one demand level — CI smoke mode.
//! * `--baseline FILE` embed a previous report as the `baseline` field,
//!   so before/after throughput lives in one committed artifact.
//! * `--guard FILE`    regression guard: compare each measured case to the
//!   same-named case in FILE and exit nonzero if throughput fell by more
//!   than the tolerance (a flagged case is re-measured up to two more
//!   times, best-of-3, to damp scheduler noise).
//! * `--tolerance F`   allowed fractional drop for `--guard` (default 0.05).

use serde::{Deserialize, Serialize};
use std::time::Instant;
use vcount_core::CheckpointConfig;
use vcount_roadnet::builders::grid;
use vcount_sim::{replay_trace, Blackout, ChaosFault, CrashFault, FaultPlan};
use vcount_sim::{MapSpec, PatrolSpec, Runner, Scenario, SeedSpec, TransportMode};
use vcount_sim::{
    ObservationBatch, ObservationSource, RunManager, ServiceConfig, ServiceRequest, SimulatorSource,
};
use vcount_traffic::{Demand, SimConfig, Simulator};
use vcount_v2x::ChannelKind;

/// One measured (grid × demand) configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Case {
    /// Case label, e.g. `grid10x10_v60`.
    name: String,
    /// Grid columns.
    cols: usize,
    /// Grid rows.
    rows: usize,
    /// Traffic volume, percent of the daily average.
    demand_pct: f64,
    /// Traffic RNG seed.
    seed: u64,
    /// Measured steps (after warm-up).
    steps: u64,
    /// Wall-clock seconds for the measured steps.
    wall_s: f64,
    /// Simulation steps per wall-clock second.
    steps_per_sec: f64,
    /// Traffic events emitted during the measured steps.
    events: u64,
    /// Traffic events per wall-clock second.
    events_per_sec: f64,
    /// Peak vehicles simultaneously inside during the measured steps.
    peak_vehicles: usize,
}

/// The committed artifact: current cases plus an optional embedded
/// baseline from a previous run (before/after in one file).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Report {
    /// Schema tag for forward compatibility.
    schema: String,
    /// Measured steps per case.
    steps_per_case: u64,
    /// Warm-up steps discarded per case.
    warmup_steps: u64,
    /// The measured cases.
    cases: Vec<Case>,
    /// A previous report's cases (e.g. pre-optimisation), if provided.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    baseline: Option<Box<Report>>,
}

const SCHEMA: &str = "vcount-hotpath-bench/v1";

fn run_case(
    name: &str,
    cols: usize,
    rows: usize,
    demand_pct: f64,
    seed: u64,
    warmup: u64,
    steps: u64,
) -> Case {
    let net = grid(cols, rows, 150.0, 2, 10.0);
    let cfg = SimConfig {
        detect_overtakes: true,
        speed_factor_range: (0.5, 1.0),
        seed,
        ..Default::default()
    };
    let mut sim = Simulator::new(net, cfg, Demand::at_volume(demand_pct));
    for _ in 0..warmup {
        sim.step();
    }
    let mut events = 0u64;
    let mut peak = 0usize;
    let start = Instant::now();
    for _ in 0..steps {
        events += sim.step().len() as u64;
        peak = peak.max(sim.civilian_population());
    }
    let wall_s = start.elapsed().as_secs_f64();
    Case {
        name: name.to_string(),
        cols,
        rows,
        demand_pct,
        seed,
        steps,
        wall_s,
        steps_per_sec: steps as f64 / wall_s.max(1e-12),
        events,
        events_per_sec: events as f64 / wall_s.max(1e-12),
        peak_vehicles: peak,
    }
}

/// The fixed fault plan of the `…_faults` bench cases: a mid-run crash
/// with recovery, a short regional blackout, and a chaos window — so the
/// fault layer's per-step cost (image refreshes, window checks, chaos
/// draws) is measured on the same grid as the fault-free engine case.
fn bench_fault_plan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        crashes: vec![CrashFault {
            node: 4,
            at_s: 60.0,
            recover_s: 120.0,
        }],
        blackouts: vec![Blackout {
            nodes: vec![1, 2],
            from_s: 30.0,
            until_s: 90.0,
        }],
        chaos: Some(ChaosFault {
            from_s: 0.0,
            until_s: 150.0,
            duplicate_p: 0.2,
            delay_p: 0.2,
            max_delay_s: 10.0,
            reorder_p: 0.2,
        }),
        image_every_s: 30.0,
    }
}

/// Like [`run_case`], but drives the full engine — one checkpoint per
/// intersection, the lossy paper channel, and every message wire-encoded
/// through the Exchange — instead of the bare simulator. `events` counts
/// protocol events; `peak_vehicles` is still the traffic peak. With
/// `faults`, the engine additionally runs the fault-injection layer.
#[allow(clippy::too_many_arguments)]
fn run_exchange_case(
    name: &str,
    cols: usize,
    rows: usize,
    demand_pct: f64,
    seed: u64,
    warmup: u64,
    steps: u64,
    faults: Option<FaultPlan>,
    fanout: bool,
) -> Case {
    let scenario = if fanout {
        fanout_scenario(cols, demand_pct, seed)
    } else {
        engine_scenario(cols, rows, demand_pct, seed)
    };
    let mut builder = Runner::builder(&scenario);
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    let mut runner = builder.build();
    for _ in 0..warmup {
        runner.step();
    }
    let events_before = runner.telemetry().events_total();
    let mut peak = 0usize;
    let start = Instant::now();
    for _ in 0..steps {
        runner.step();
        peak = peak.max(runner.simulator().civilian_population());
    }
    let wall_s = start.elapsed().as_secs_f64();
    let events = runner.telemetry().events_total() - events_before;
    Case {
        name: name.to_string(),
        cols,
        rows,
        demand_pct,
        seed,
        steps,
        wall_s,
        steps_per_sec: steps as f64 / wall_s.max(1e-12),
        events,
        events_per_sec: events as f64 / wall_s.max(1e-12),
        peak_vehicles: peak,
    }
}

/// The engine scenario shared by the `exchange…`, `actions_replay…` and
/// `service…` cases. Its budget is the paper presets' 8 h: every case
/// steps a fixed count, far inside it.
fn engine_scenario(cols: usize, rows: usize, demand_pct: f64, seed: u64) -> Scenario {
    Scenario {
        map: MapSpec::Grid {
            cols,
            rows,
            spacing_m: 150.0,
            lanes: 2,
            speed_mps: 10.0,
        },
        closed: true,
        sim: SimConfig {
            detect_overtakes: true,
            speed_factor_range: (0.5, 1.0),
            seed,
            ..Default::default()
        },
        demand: Demand::at_volume(demand_pct),
        protocol: CheckpointConfig::default(),
        channel: ChannelKind::PAPER,
        seeds: SeedSpec::Explicit(vec![0]),
        transport: Default::default(),
        patrol: Default::default(),
        max_time_s: 8.0 * 3600.0,
    }
}

/// The message-plane stress scenario behind the `fanout…` case: a
/// directed ring (`cols` nodes, the canonical patrol-cycle map) with
/// overtake detection off (the traffic step shrinks to pure movement),
/// *every* announce and report forced through the directional relay
/// (`RelayOnly`), and a dense patrol fleet whose status snapshots — the
/// largest wire message, growing toward one entry per checkpoint — are
/// re-encoded and re-radioed at every stop. The per-step cost is
/// dominated by the Exchange (encode/enqueue/deliver/decode), which is
/// exactly the path the zero-copy plane optimises: roughly two thirds of
/// the wall clock is message-plane work, versus a few percent in the
/// `exchange…` grid cases.
fn fanout_scenario(nodes: usize, demand_pct: f64, seed: u64) -> Scenario {
    Scenario {
        map: MapSpec::DirectedRing {
            nodes,
            spacing_m: 100.0,
            speed_mps: 10.0,
        },
        closed: true,
        sim: SimConfig {
            detect_overtakes: false,
            speed_factor_range: (0.5, 1.0),
            seed,
            ..Default::default()
        },
        demand: Demand::at_volume(demand_pct),
        protocol: CheckpointConfig::default(),
        channel: ChannelKind::PAPER,
        seeds: SeedSpec::Explicit(vec![0]),
        transport: TransportMode::RelayOnly {
            relay_speed_mps: 50.0,
        },
        patrol: PatrolSpec { cars: 120 },
        max_time_s: 8.0 * 3600.0,
    }
}

/// The `vcountd` service hot path under concurrent tenancy: `runs`
/// independent tenants of the same grid (different seeds) fed round-robin
/// through [`RunManager::handle_line`] — the exact wire path: request
/// JSON parsed, batch validated at the trust boundary, ingested, and
/// every response (streamed event lines included) re-serialized. A tenant
/// that reaches its goal is Finished and replaced by a fresh Start with
/// the next seed (tenant turnover), so the daemon does real protocol work
/// for the entire measured window. `steps` counts requests handled;
/// `events` counts event lines emitted; so `steps_per_sec` is service
/// requests/sec and `events_per_sec` is the daemon's event-line
/// throughput under multi-tenant load.
#[allow(clippy::too_many_arguments)]
fn run_service_case(
    name: &str,
    cols: usize,
    rows: usize,
    demand_pct: f64,
    seed: u64,
    warmup: u64,
    steps: u64,
    runs: usize,
) -> Case {
    struct ServiceBench {
        mgr: RunManager,
        sources: Vec<SimulatorSource>,
        batch: ObservationBatch,
        out: Vec<vcount_sim::ServiceResponse>,
        cols: usize,
        rows: usize,
        demand_pct: f64,
        next_seed: u64,
    }
    impl ServiceBench {
        fn send(&mut self, req: &ServiceRequest) -> (u64, bool) {
            let line = serde_json::to_string(req).expect("request serializes");
            self.out.clear();
            self.mgr.handle_line(&line, &mut self.out);
            let mut events = 0u64;
            let mut done = false;
            for resp in &self.out {
                // Responses are re-serialized one by one, as the daemon's
                // request → frame function does for every mode; the
                // black_box keeps the encoder on the clock.
                let json = serde_json::to_string(resp).expect("response serializes");
                std::hint::black_box(json.len());
                match resp {
                    vcount_sim::ServiceResponse::Event { .. } => events += 1,
                    vcount_sim::ServiceResponse::Accepted { done: d, .. } => done = *d,
                    vcount_sim::ServiceResponse::Error { message, .. } => {
                        panic!("service bench hit an error: {message}")
                    }
                    _ => {}
                }
            }
            (events, done)
        }

        /// Replaces tenant `i` with a fresh run on the next seed.
        fn recycle(&mut self, i: usize) -> u64 {
            let scen = engine_scenario(self.cols, self.rows, self.demand_pct, self.next_seed);
            self.next_seed += 1;
            let (finish_events, _) = self.send(&ServiceRequest::Finish {
                run: format!("r{i}"),
                truth: self.sources[i].truth(),
            });
            let (start_events, _) = self.send(&ServiceRequest::Start {
                run: format!("r{i}"),
                scenario: Box::new(scen.clone()),
                goal: None,
                shards: 0,
                eager_decode: false,
                faults: None,
                trace: None,
            });
            self.sources[i] = SimulatorSource::from_scenario(&scen, 1);
            finish_events + start_events
        }

        /// One round = one Observe per tenant (plus turnover when a tenant
        /// completes). Returns (requests, event lines, traffic peak).
        fn drive(&mut self, rounds: u64) -> (u64, u64, usize) {
            let (mut requests, mut events, mut peak) = (0u64, 0u64, 0usize);
            for round in 0..rounds {
                for i in 0..self.sources.len() {
                    let mut batch = std::mem::take(&mut self.batch);
                    assert!(self.sources[i].next_batch(&mut batch));
                    let req = ServiceRequest::Observe {
                        run: format!("r{i}"),
                        batch,
                    };
                    let (new_events, done) = self.send(&req);
                    let ServiceRequest::Observe { batch, .. } = req else {
                        unreachable!()
                    };
                    self.batch = batch;
                    requests += 1;
                    events += new_events;
                    if done {
                        events += self.recycle(i);
                        requests += 2;
                    }
                    if round % 32 == 0 {
                        let sim = self.sources[i].simulator().expect("simulator source");
                        peak = peak.max(sim.civilian_population());
                    }
                }
            }
            (requests, events, peak)
        }
    }

    let mut bench = ServiceBench {
        mgr: RunManager::new(ServiceConfig::default()),
        sources: Vec::new(),
        batch: ObservationBatch::default(),
        out: Vec::new(),
        cols,
        rows,
        demand_pct,
        next_seed: seed,
    };
    for i in 0..runs {
        let scen = engine_scenario(cols, rows, demand_pct, bench.next_seed);
        bench.next_seed += 1;
        bench.send(&ServiceRequest::Start {
            run: format!("r{i}"),
            scenario: Box::new(scen.clone()),
            goal: None,
            shards: 0,
            eager_decode: false,
            faults: None,
            trace: None,
        });
        bench.sources.push(SimulatorSource::from_scenario(&scen, 1));
    }
    bench.drive(warmup);
    let start = Instant::now();
    let (requests, events, peak) = bench.drive(steps);
    let wall_s = start.elapsed().as_secs_f64();
    Case {
        name: name.to_string(),
        cols,
        rows,
        demand_pct,
        seed,
        steps: requests,
        wall_s,
        steps_per_sec: requests as f64 / wall_s.max(1e-12),
        events,
        events_per_sec: events as f64 / wall_s.max(1e-12),
        peak_vehicles: peak,
    }
}

/// The machine-only replay hot path: records an action trace from
/// `warmup + steps` engine steps, then measures how fast the pure
/// machines re-apply it via [`replay_trace`]. `steps`/`events` count
/// replayed actions; throughput is actions per second.
#[allow(clippy::too_many_arguments)]
fn run_replay_case(
    name: &str,
    cols: usize,
    rows: usize,
    demand_pct: f64,
    seed: u64,
    warmup: u64,
    steps: u64,
) -> Case {
    let scenario = engine_scenario(cols, rows, demand_pct, seed);
    let mut runner = Runner::builder(&scenario).record_actions(true).build();
    for _ in 0..(warmup + steps) {
        runner.step();
    }
    let trace = runner
        .take_action_trace()
        .expect("recording was enabled at build time");
    let actions = trace.records.len().max(1) as u64;
    // Warm-up replay doubles as the correctness gate: a bench run that
    // silently diverged would be measuring the wrong thing.
    let first = replay_trace(&trace).expect("bench trace replays");
    assert!(
        first.digests_match && first.counts_match,
        "bench trace must replay byte-identically"
    );
    let reps = (50_000 / actions).clamp(3, 200);
    let mut applied = 0u64;
    let start = Instant::now();
    for _ in 0..reps {
        applied += replay_trace(&trace).expect("bench trace replays").actions;
    }
    let wall_s = start.elapsed().as_secs_f64();
    Case {
        name: name.to_string(),
        cols,
        rows,
        demand_pct,
        seed,
        steps: applied,
        wall_s,
        steps_per_sec: applied as f64 / wall_s.max(1e-12),
        events: applied,
        events_per_sec: applied as f64 / wall_s.max(1e-12),
        peak_vehicles: 0,
    }
}

/// One case description: plain simulator hot path, full engine, full
/// engine with the fixed fault plan, or machine-only action replay.
#[derive(Clone, Copy)]
struct CaseSpec {
    cols: usize,
    rows: usize,
    demand_pct: f64,
    engine: bool,
    faults: bool,
    replay: bool,
    /// Message-plane stress case (see [`fanout_scenario`]); implies
    /// `engine`.
    fanout: bool,
    /// Nonzero = `vcountd` service case: this many concurrent tenants fed
    /// round-robin through the wire path (see [`run_service_case`]).
    service_runs: usize,
}

impl CaseSpec {
    fn name(&self) -> String {
        if self.service_runs > 0 {
            return format!(
                "service_runs{}_{}x{}_v{:.0}",
                self.service_runs, self.cols, self.rows, self.demand_pct
            );
        }
        if self.replay {
            return format!(
                "actions_replay{}x{}_v{:.0}",
                self.cols, self.rows, self.demand_pct
            );
        }
        if self.fanout {
            // A ring map: `cols` is the node count, `rows` is unused.
            return format!("fanout_ring{}_v{:.0}", self.cols, self.demand_pct);
        }
        let prefix = if self.engine { "exchange" } else { "grid" };
        let suffix = if self.faults { "_faults" } else { "" };
        format!(
            "{prefix}{}x{}_v{:.0}{suffix}",
            self.cols, self.rows, self.demand_pct
        )
    }

    fn seed(&self) -> u64 {
        42 + self.cols as u64 * 1000 + self.demand_pct as u64
    }

    fn run(&self, warmup: u64, steps: u64) -> Case {
        let (name, seed) = (self.name(), self.seed());
        if self.service_runs > 0 {
            run_service_case(
                &name,
                self.cols,
                self.rows,
                self.demand_pct,
                seed,
                warmup,
                steps,
                self.service_runs,
            )
        } else if self.replay {
            run_replay_case(
                &name,
                self.cols,
                self.rows,
                self.demand_pct,
                seed,
                warmup,
                steps,
            )
        } else if self.engine || self.fanout {
            run_exchange_case(
                &name,
                self.cols,
                self.rows,
                self.demand_pct,
                seed,
                warmup,
                steps,
                self.faults.then(bench_fault_plan),
                self.fanout,
            )
        } else {
            run_case(
                &name,
                self.cols,
                self.rows,
                self.demand_pct,
                seed,
                warmup,
                steps,
            )
        }
    }
}

/// Compares measured cases to the same-named cases of a committed report;
/// a case below `1 - tolerance` of its reference throughput — in steps/sec
/// *or* events/sec — is re-measured (best-of-3) before being reported as a
/// regression. The events/sec gate matters for the engine cases: the
/// protocol event count is deterministic per scenario, so a drop in
/// events/sec is a pure wall-clock regression of the message plane, even
/// when steps/sec noise hides it. Returns the failing case names.
fn guard_against(
    reference: &Report,
    cases: &mut [Case],
    specs: &[CaseSpec],
    warmup: u64,
    steps: u64,
    tolerance: f64,
) -> Vec<String> {
    // Both throughput floors must hold; `None` = this attempt passed.
    fn breach(case: &Case, base: &Case, tolerance: f64) -> Option<String> {
        if case.steps_per_sec < base.steps_per_sec * (1.0 - tolerance) {
            return Some(format!(
                "{:.0} steps/s < floor {:.0}",
                case.steps_per_sec,
                base.steps_per_sec * (1.0 - tolerance)
            ));
        }
        if case.events_per_sec < base.events_per_sec * (1.0 - tolerance) {
            return Some(format!(
                "{:.0} events/s < floor {:.0}",
                case.events_per_sec,
                base.events_per_sec * (1.0 - tolerance)
            ));
        }
        None
    }
    let mut failures = Vec::new();
    for (case, spec) in cases.iter_mut().zip(specs) {
        let Some(base) = reference.cases.iter().find(|b| b.name == case.name) else {
            eprintln!("guard: no reference case named {} — skipping", case.name);
            continue;
        };
        for attempt in 0..2 {
            let Some(why) = breach(case, base, tolerance) else {
                break;
            };
            eprintln!(
                "guard: {} at {why} — re-measuring ({})...",
                case.name,
                attempt + 2
            );
            // Re-measure at no less than the committed report's length so a
            // short smoke run is not condemned by cold-start effects.
            let retry = spec.run(warmup.max(300), steps.max(base.steps));
            if retry.steps_per_sec > case.steps_per_sec {
                *case = retry;
            }
        }
        match breach(case, base, tolerance) {
            Some(why) => {
                eprintln!(
                    "guard: REGRESSION {}: {why} ({}% of committed steps/s, {}% of events/s)",
                    case.name,
                    (100.0 * case.steps_per_sec / base.steps_per_sec).round(),
                    (100.0 * case.events_per_sec / base.events_per_sec.max(1e-12)).round(),
                );
                failures.push(case.name.clone());
            }
            None => eprintln!(
                "guard: {} ok ({:.0}% of committed steps/s, {:.0}% of events/s)",
                case.name,
                100.0 * case.steps_per_sec / base.steps_per_sec,
                100.0 * case.events_per_sec / base.events_per_sec.max(1e-12),
            ),
        }
    }
    failures
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_hotpath.json".to_string();
    let mut steps = 2000u64;
    let mut warmup = 300u64;
    let mut smoke = false;
    let mut baseline_path: Option<String> = None;
    let mut guard_path: Option<String> = None;
    let mut tolerance = 0.05f64;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => {
                out = argv.get(i + 1).expect("--out needs a path").clone();
                i += 2;
            }
            "--steps" => {
                steps = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .expect("--steps needs a number");
                i += 2;
            }
            "--warmup" => {
                warmup = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .expect("--warmup needs a number");
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--baseline" => {
                baseline_path = Some(argv.get(i + 1).expect("--baseline needs a path").clone());
                i += 2;
            }
            "--guard" => {
                guard_path = Some(argv.get(i + 1).expect("--guard needs a path").clone());
                i += 2;
            }
            "--tolerance" => {
                tolerance = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .expect("--tolerance needs a fraction");
                i += 2;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: hotpath [--out FILE] [--steps N] [--warmup N] [--smoke] \
                     [--baseline FILE] [--guard FILE] [--tolerance F]"
                );
                std::process::exit(2);
            }
        }
    }

    // (cols, rows) × demand levels, fixed seeds: the paper-scale grids for
    // the bare simulator, plus one full-engine `exchange` case per grid.
    // Smoke mode measures the 3×3 pair only — the same names exist in the
    // committed full report, so `--guard` works in both modes.
    let mut specs: Vec<CaseSpec> = Vec::new();
    if smoke {
        steps = steps.min(300);
        warmup = warmup.min(50);
    } else {
        for &(cols, rows) in &[(5usize, 5usize), (10, 10)] {
            for &demand_pct in &[30.0, 60.0, 100.0] {
                specs.push(CaseSpec {
                    cols,
                    rows,
                    demand_pct,
                    engine: false,
                    faults: false,
                    replay: false,
                    fanout: false,
                    service_runs: 0,
                });
            }
        }
    }
    for &(cols, rows) in if smoke {
        &[(3usize, 3usize)][..]
    } else {
        &[(3, 3), (5, 5), (10, 10)][..]
    } {
        for engine in [false, true] {
            // The 3×3 plain case exists in full mode too, purely so the
            // smoke guard has a committed reference.
            if !smoke && !engine && cols != 3 {
                continue; // already covered by the demand sweep above
            }
            specs.push(CaseSpec {
                cols,
                rows,
                demand_pct: 60.0,
                engine,
                faults: false,
                replay: false,
                fanout: false,
                service_runs: 0,
            });
        }
    }
    // The fault-injection engine case (both modes, same name, so the
    // smoke guard has a committed reference).
    specs.push(CaseSpec {
        cols: 3,
        rows: 3,
        demand_pct: 60.0,
        engine: true,
        faults: true,
        replay: false,
        fanout: false,
        service_runs: 0,
    });
    // The machine-only action-replay case (both modes, same name):
    // records a trace and measures pure-machine re-application throughput.
    specs.push(CaseSpec {
        cols: 3,
        rows: 3,
        demand_pct: 60.0,
        engine: true,
        faults: false,
        replay: true,
        fanout: false,
        service_runs: 0,
    });
    // The message-plane stress case (both modes, same name, so the smoke
    // guard has a committed reference): a 100-node patrol ring with
    // overtake detection off, every message through the relay, and 120
    // patrol cars radioing growing status snapshots — the Exchange
    // dominates the per-step cost, so this is the case the events/sec
    // guard gate protects.
    specs.push(CaseSpec {
        cols: 100,
        rows: 1,
        demand_pct: 20.0,
        engine: true,
        faults: false,
        replay: false,
        fanout: true,
        service_runs: 0,
    });
    // The `vcountd` service case (both modes, same name, so the smoke
    // guard has a committed reference): two concurrent tenants fed
    // round-robin through the wire path — JSON parse, trust-boundary
    // validation, ingest, and response serialization all on the clock.
    // This is the case the concurrent-daemon work is pinned by: a
    // regression in request handling or wire validation drops
    // requests/sec (steps) or event-line throughput (events) here.
    specs.push(CaseSpec {
        cols: 3,
        rows: 3,
        demand_pct: 60.0,
        engine: false,
        faults: false,
        replay: false,
        fanout: false,
        service_runs: 2,
    });

    let mut cases = Vec::new();
    for spec in &specs {
        eprintln!(
            "running {} ({steps} steps after {warmup} warm-up)...",
            spec.name()
        );
        let case = spec.run(warmup, steps);
        eprintln!(
            "  {:>10.0} steps/s  {:>12.0} events/s  peak {} vehicles",
            case.steps_per_sec, case.events_per_sec, case.peak_vehicles
        );
        cases.push(case);
    }

    let guard_failures = match &guard_path {
        Some(p) => {
            let text = std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{p}: {e}"));
            let reference: Report =
                serde_json::from_str(&text).unwrap_or_else(|e| panic!("{p}: invalid report: {e}"));
            guard_against(&reference, &mut cases, &specs, warmup, steps, tolerance)
        }
        None => Vec::new(),
    };

    let baseline = baseline_path.map(|p| {
        let text = std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p}: {e}"));
        let mut prev: Report =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{p}: invalid report: {e}"));
        prev.baseline = None; // one level of history, no recursion
        Box::new(prev)
    });

    let report = Report {
        schema: SCHEMA.to_string(),
        steps_per_case: steps,
        warmup_steps: warmup,
        cases,
        baseline,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").unwrap_or_else(|e| panic!("{out}: {e}"));
    eprintln!("wrote {out}");
    if !guard_failures.is_empty() {
        eprintln!(
            "throughput regression in {} case(s): {}",
            guard_failures.len(),
            guard_failures.join(", ")
        );
        std::process::exit(1);
    }
}
