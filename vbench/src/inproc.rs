//! The in-process workloads: counting runs driven to collection inside the
//! bench process.
//!
//! * `midtown_inproc` — the paper's own evaluation: the midtown map at
//!   60 % volume with two seeds, alternating the closed and the open
//!   system. Traffic dominates; the service path is not touched.
//! * `relay_ring` — a 200-node one-way ring with 240 patrol cars and every
//!   collection message forced through the relay, overtake detection off:
//!   light traffic, so the message plane (exchange, v2x codec, machines)
//!   carries most of the cost.
//!
//! A workload is a fixed set of counting runs (the units), run round after
//! round until the window closes. Every repeat of a unit does identical
//! work, and the unit's fastest repeat stands for it: the shared host
//! has multi-second episodes in which the same run takes up to 1.7× as
//! long, and the fastest repeat of each unit is what stays put from run
//! to run.

use crate::trace::{SpanLog, Trace};
use crate::{mix_seed, Config, Metric, Outcome};
use std::time::{Duration, Instant};
use vcount_core::CheckpointConfig;
use vcount_roadnet::builders::ManhattanConfig;
use vcount_roadnet::{edge_covering_cycle, NodeId};
use vcount_sim::{
    replay_trace, Goal, MapSpec, ObservationBatch, ObservationSource, PatrolSpec, RunMetrics,
    RunTelemetry, Runner, Scenario, SeedSpec, SimulatorSource, TransportMode,
};
use vcount_traffic::{Demand, SimConfig, Simulator};
use vcount_v2x::ChannelKind;

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper map, closed and open alternating.
    Midtown,
    /// The relay-only patrol ring.
    Ring,
}

/// Counting runs per round (two in smoke mode, which runs one round).
const UNITS: u64 = 8;

/// The traced pass's first units: the bare traffic pass and the
/// record/replay pass re-run them, and the engine telemetry and replay
/// counts cover them, so those counts are fixed by the seed.
const SIDE_PASS_UNITS: usize = 2;

/// The paper's midtown map; a 3 × 4 corner of it in smoke mode.
pub fn midtown_map(smoke: bool) -> ManhattanConfig {
    if smoke {
        ManhattanConfig {
            avenues: 3,
            streets: 4,
            ..ManhattanConfig::default()
        }
    } else {
        ManhattanConfig::default()
    }
}

/// The scenario of unit `i` of a workload.
pub fn scenario(kind: Kind, seed: u64, i: u64, smoke: bool) -> Scenario {
    let rng = mix_seed(seed, i);
    match kind {
        Kind::Midtown => {
            let map = midtown_map(smoke);
            if i.is_multiple_of(2) {
                Scenario::paper_closed(map, 60.0, 2, rng)
            } else {
                Scenario::paper_open(map, 60.0, 2, rng)
            }
        }
        Kind::Ring => {
            let (nodes, cars) = if smoke { (30, 36) } else { (200, 240) };
            ring_scenario(nodes, cars, rng)
        }
    }
}

/// A one-way ring whose collection messages all travel by relay, with a
/// dense patrol fleet re-radioing status snapshots at every stop.
fn ring_scenario(nodes: usize, cars: usize, rng: u64) -> Scenario {
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
            seed: rng,
            ..Default::default()
        },
        demand: Demand::at_volume(20.0),
        protocol: CheckpointConfig::default(),
        channel: ChannelKind::PAPER,
        seeds: SeedSpec::Explicit(vec![0]),
        transport: TransportMode::RelayOnly {
            relay_speed_mps: 50.0,
        },
        patrol: PatrolSpec { cars },
        max_time_s: 4.0 * 3600.0,
    }
}

/// Checks one finished run: collection reached, the count exact.
/// `Ok(false)` is a run that missed the goal (a failed operation); `Err`
/// is a wrong count.
fn check_run(m: &RunMetrics, collected: bool, i: u64) -> Result<bool, String> {
    if !collected {
        return Ok(false);
    }
    crate::check_exact(m).map_err(|e| format!("run {i}: {e}"))?;
    Ok(true)
}

/// Timings of one counting run.
#[derive(Default)]
struct RunTiming {
    /// Build, every step and the verdict, ns.
    wall_ns: f64,
    /// `RunnerBuilder::build`, ns.
    build_ns: f64,
    /// Peak resident set while the run lasted, MB.
    peak_rss_mb: f64,
    steps: u64,
    /// Every step's wall time, ns (untraced pass only).
    step_ns: Vec<f64>,
}

/// One run's timings and verdict.
struct Attempt {
    timing: RunTiming,
    verdict: Result<bool, String>,
    telemetry: RunTelemetry,
}

/// The fixed set of counting runs, each with its fastest repeat so far.
struct Rounds {
    units: Vec<(Scenario, Option<RunTiming>)>,
    runs: u64,
    missed: u64,
    problems: Vec<String>,
}

impl Rounds {
    fn new(kind: Kind, cfg: &Config) -> Self {
        let n = if cfg.smoke { 2 } else { UNITS };
        Rounds {
            units: (0..n)
                .map(|i| (scenario(kind, cfg.seed, i, cfg.smoke), None))
                .collect(),
            runs: 0,
            missed: 0,
            problems: Vec::new(),
        }
    }

    /// Runs round after round until `window` has elapsed (at least one
    /// full round; exactly one with `one_round`), keeping each unit's
    /// fastest repeat.
    fn drive(
        &mut self,
        window: Duration,
        one_round: bool,
        mut run: impl FnMut(u64, &Scenario) -> Attempt,
    ) {
        let t0 = Instant::now();
        for round in 0.. {
            for (i, (scn, best)) in self.units.iter_mut().enumerate() {
                if round > 0 && t0.elapsed() >= window {
                    return;
                }
                let a = run(i as u64, scn);
                self.runs += 1;
                match a.verdict {
                    Ok(true) => {}
                    Ok(false) => self.missed += 1,
                    Err(e) => self.problems.push(e),
                }
                if best.as_ref().is_none_or(|b| a.timing.wall_ns < b.wall_ns) {
                    *best = Some(a.timing);
                }
            }
            if one_round || t0.elapsed() >= window {
                return;
            }
        }
    }

    fn best(&self) -> impl Iterator<Item = &RunTiming> {
        self.units.iter().filter_map(|(_, b)| b.as_ref())
    }

    /// Summed wall time of every unit's fastest repeat, seconds.
    fn wall_s(&self) -> f64 {
        self.best().map(|b| b.wall_ns).sum::<f64>() * 1e-9
    }

    /// Steps per second of run wall time over the fastest repeats.
    fn steps_per_s(&self) -> f64 {
        self.best().map(|b| b.steps).sum::<u64>() as f64 / self.wall_s()
    }

    fn absorb_into(&self, out: &mut Outcome) {
        out.attempted += self.runs;
        out.failed += self.missed;
        out.problems.extend(self.problems.iter().cloned());
    }
}

/// One untraced run: `Runner::step` under `Runner::run`'s stop predicate,
/// every step timed.
fn run_untraced(i: u64, scn: &Scenario) -> Attempt {
    crate::reset_peak_rss();
    let t0 = Instant::now();
    let mut runner = Runner::builder(scn).goal(Goal::Collection).build();
    let build_ns = t0.elapsed().as_nanos() as f64;
    let mut step_ns = Vec::new();
    let mut constitution = false;
    let mut collected = false;
    while runner.time_s() < scn.max_time_s {
        let ts = Instant::now();
        let advanced = runner.step();
        step_ns.push(ts.elapsed().as_nanos() as f64);
        if !advanced {
            break;
        }
        if !constitution && runner.all_stable() {
            constitution = true;
        }
        if constitution && runner.all_collected() && !runner.reports_in_flight() {
            collected = true;
            break;
        }
    }
    let m = runner.metrics_now();
    Attempt {
        timing: RunTiming {
            wall_ns: t0.elapsed().as_nanos() as f64,
            build_ns,
            peak_rss_mb: crate::peak_rss_mb(None).unwrap_or(0.0),
            steps: step_ns.len() as u64,
            step_ns,
        },
        verdict: check_run(&m, collected, i),
        telemetry: m.telemetry,
    }
}

/// One traced run. The runner is built over an external source so that
/// producing a batch (`SimulatorSource::next_batch`) and counting it
/// (`Runner::ingest`) are separate calls — the same two calls
/// `Runner::step` makes.
fn run_traced(log: &mut SpanLog, i: u64, scn: &Scenario) -> Attempt {
    let t0 = Instant::now();
    let frame = log.open("bench.run", i);
    log.time("roadnet.build", i, || {
        std::hint::black_box(scn.map.build(scn.closed).node_count());
    });
    let tb = Instant::now();
    let mut runner = log.time("engine.build", i, || {
        Runner::builder(scn)
            .goal(Goal::Collection)
            .external(true)
            .build()
    });
    let build_ns = tb.elapsed().as_nanos() as f64;
    let mut source = log.time("source.build", i, || SimulatorSource::from_scenario(scn, 1));
    let mut batch = ObservationBatch::default();
    let mut constitution = false;
    let mut collected = false;
    let mut steps = 0u64;
    while runner.time_s() < scn.max_time_s {
        log.time("source.next_batch", i, || source.next_batch(&mut batch));
        log.time("engine.ingest", i, || runner.ingest(&batch));
        steps += 1;
        let done = log.time("engine.goal_check", i, || {
            if !constitution && runner.all_stable() {
                constitution = true;
            }
            constitution && runner.all_collected() && !runner.reports_in_flight()
        });
        if done {
            collected = true;
            break;
        }
    }
    let m = log.time("oracle.verify", i, || {
        runner.provide_truth(source.truth().expect("the simulator knows its truth"));
        runner.metrics_now()
    });
    log.close(frame);
    Attempt {
        timing: RunTiming {
            wall_ns: t0.elapsed().as_nanos() as f64,
            build_ns,
            steps,
            ..RunTiming::default()
        },
        verdict: check_run(&m, collected, i),
        telemetry: m.telemetry,
    }
}

/// Engine telemetry summed over runs.
#[derive(Default)]
pub struct Telemetry {
    protocol_s: f64,
    relay_s: f64,
    events: u64,
    encoded: u64,
    decoded: u64,
    skipped_decode: u64,
    wire_bytes: u64,
    relay_messages: u64,
}

impl Telemetry {
    /// Adds one run's telemetry.
    pub fn add(&mut self, t: &RunTelemetry) {
        self.protocol_s += t.protocol_secs;
        self.relay_s += t.relay_secs;
        self.events += t.events_total();
        self.encoded += t.messages_encoded;
        self.decoded += t.messages_decoded;
        self.skipped_decode += t.messages_skipped_decode;
        self.wire_bytes += t.wire_bytes;
        self.relay_messages += t.relay_messages;
    }

    /// The engine and v2x per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("engine.protocol_s", self.protocol_s, "s"),
            Metric::new("engine.relay_s", self.relay_s, "s"),
            Metric::new("engine.events", self.events as f64, "count"),
            Metric::new("v2x.encoded", self.encoded as f64, "count"),
            Metric::new("v2x.decoded", self.decoded as f64, "count"),
            Metric::new("v2x.skipped_decode", self.skipped_decode as f64, "count"),
            Metric::new("v2x.wire_bytes", self.wire_bytes as f64, "bytes"),
            Metric::new("v2x.relay_messages", self.relay_messages as f64, "count"),
        ]
    }
}

/// Builds the bare simulator a scenario describes, exactly as
/// `SimulatorSource::from_scenario` does.
fn bare_simulator(scn: &Scenario) -> Simulator {
    let net = scn.map.build(scn.closed);
    let mut sim = Simulator::new(net, scn.sim.clone(), scn.demand.clone());
    if scn.patrol.cars > 0 {
        let cycle = edge_covering_cycle(sim.net(), NodeId(0))
            .expect("validated map admits an edge-covering patrol cycle");
        for off in cycle.even_offsets(scn.patrol.cars) {
            sim.add_patrol_car(cycle.edges.clone(), off);
        }
    }
    sim
}

/// The bare traffic pass: `Simulator::step` alone, `steps` times, on the
/// simulator a scenario describes.
pub fn traffic_pass(log: &mut SpanLog, scn: &Scenario, steps: u64, req: u64) {
    let frame = log.open("bench.traffic_pass", req);
    let mut sim = log.time("traffic.build", req, || bare_simulator(scn));
    for _ in 0..steps {
        log.time("traffic.step", req, || {
            std::hint::black_box(sim.step().len());
        });
    }
    log.close(frame);
}

/// Records the action stream of a run, then re-drives the pure machines
/// from it; the replay must reproduce the recorded dispatches and counts.
fn replay_pass(log: &mut SpanLog, scn: &Scenario, i: u64) -> Result<u64, String> {
    let frame = log.open("bench.replay_pass", i);
    let trace = log.time("engine.record_run", i, || {
        let mut runner = Runner::builder(scn).record_actions(true).build();
        runner.run(Goal::Collection, scn.max_time_s);
        runner
            .take_action_trace()
            .expect("recording was enabled at build time")
    });
    let report = log.time("core.replay", i, || replay_trace(&trace));
    log.close(frame);
    let report = report.map_err(|e| format!("run {i}: action trace does not replay: {e}"))?;
    if !(report.digests_match && report.counts_match) {
        return Err(format!("run {i}: machine-only replay diverged: {report:?}"));
    }
    Ok(report.actions)
}

/// Runs one in-process workload.
pub fn run(kind: Kind, cfg: &Config) -> Outcome {
    let window = if cfg.trace {
        cfg.window() / 2
    } else {
        cfg.window()
    };
    let mut out = Outcome::default();
    let mut untraced = Rounds::new(kind, cfg);
    untraced.drive(window, cfg.smoke, run_untraced);
    untraced.absorb_into(&mut out);
    if !cfg.trace {
        let mut steps: Vec<f64> = untraced
            .best()
            .flat_map(|b| b.step_ns.iter().copied())
            .collect();
        steps.sort_by(f64::total_cmp);
        let builds: Vec<f64> = untraced.best().map(|b| b.build_ns).collect();
        let peaks: Vec<f64> = untraced.best().map(|b| b.peak_rss_mb).collect();
        out.samples = steps.len() as u64;
        out.metrics = vec![
            Metric::new("steps_per_s", untraced.steps_per_s(), "steps/s"),
            Metric::new("step_p50_ms", crate::percentile_ms(&steps, 50.0), "ms"),
            Metric::new("step_p90_ms", crate::percentile_ms(&steps, 90.0), "ms"),
            Metric::new(
                "setup_s",
                crate::stats::median(&builds).unwrap_or(0.0) * 1e-9,
                "s",
            ),
            Metric::new(
                "peak_rss_mb",
                crate::stats::median(&peaks).unwrap_or(0.0),
                "MB",
            ),
        ];
        return out;
    }

    // The traced pass: the same units, every layer call timed.
    let mut log = SpanLog::new(Instant::now(), 0);
    let mut tel = Telemetry::default();
    let mut run_steps = [0u64; SIDE_PASS_UNITS];
    let mut traced = Rounds::new(kind, cfg);
    traced.drive(window, cfg.smoke, |i, scn| {
        let a = run_traced(&mut log, i, scn);
        if let Some(steps) = run_steps.get_mut(i as usize) {
            if *steps == 0 {
                *steps = a.timing.steps;
                tel.add(&a.telemetry);
            }
        }
        a
    });
    traced.absorb_into(&mut out);
    let mut actions = 0u64;
    for (i, &steps) in run_steps.iter().enumerate().filter(|(_, s)| **s > 0) {
        let scn = scenario(kind, cfg.seed, i as u64, cfg.smoke);
        traffic_pass(&mut log, &scn, steps, i as u64);
        match replay_pass(&mut log, &scn, i as u64) {
            Ok(n) => actions += n,
            Err(e) => out.problems.push(e),
        }
    }
    let mut trace = Trace::default();
    trace.absorb(log);
    let overhead = traced.wall_s() / untraced.wall_s() - 1.0;
    let mut metrics = vec![
        Metric::new("roadnet.build_ms", trace.median_ms("roadnet.build"), "ms"),
        Metric::new("engine.build_ms", trace.median_ms("engine.build"), "ms"),
        Metric::new("traffic.step_s", trace.self_s("traffic.step"), "s"),
        Metric::new(
            "traffic.step_p99_us",
            trace.percentile_us("traffic.step", 99.0),
            "us",
        ),
        Metric::new(
            "source.next_batch_s",
            trace.self_s("source.next_batch"),
            "s",
        ),
        Metric::new(
            "source.next_batch_p99_us",
            trace.percentile_us("source.next_batch", 99.0),
            "us",
        ),
        Metric::new("engine.ingest_s", trace.self_s("engine.ingest"), "s"),
        Metric::new(
            "engine.ingest_p99_us",
            trace.percentile_us("engine.ingest", 99.0),
            "us",
        ),
        Metric::new(
            "engine.goal_check_s",
            trace.self_s("engine.goal_check"),
            "s",
        ),
        Metric::new("core.replay_s", trace.self_s("core.replay"), "s"),
        Metric::new("core.actions", actions as f64, "count"),
    ];
    metrics.extend(tel.metrics());
    metrics.extend(crate::trace_metrics(&trace, overhead));
    out.metrics = metrics;
    out.trace = Some(trace);
    out
}
