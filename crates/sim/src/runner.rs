//! The run orchestrator: wires an observation source (by default the
//! traffic microsimulator), the lossy V2X channel, and one checkpoint
//! state machine per intersection into a full deployment, tracks ground
//! truth in the [`Oracle`], and measures the times the paper's figures
//! report.
//!
//! The per-step work is decomposed into the five named stages of
//! [`crate::engine`] — source, `observe`, `dispatch`, `exchange`, `audit`
//! — with every in-flight message owned by the
//! [`crate::engine::Exchange`]. The first stage lives behind the
//! [`ObservationSource`] trait: [`Runner::step`] pulls the next
//! [`ObservationBatch`] from the configured source, while an externally
//! fed deployment (see [`crate::service`]) pushes batches straight into
//! [`Runner::ingest`]. The runner itself only assembles the deployment,
//! sequences the stages, and exposes metrics; it holds no message state.
//! A run can be frozen at any step boundary into an [`EngineSnapshot`]
//! and resumed, through [`RunnerBuilder::from_snapshot`], to a
//! byte-identical event stream.
//!
//! Every driver — [`Runner::run`], the CLI's stepping loop, and each
//! `vcountd` tenant — stops on one predicate of the current state,
//! [`Runner::reached`], and reports [`Runner::metrics_now`], so how a run
//! is driven never changes where it stops or what it reports.
//!
//! ## Intra-step ordering
//!
//! The simulator emits its step's events in deterministic order. A label
//! handoff at a `Departed` event needs the set of vehicles *ahead* of the
//! label on the joined segment at that instant; the observe stage
//! reconstructs it from the end-of-step `in_transit` snapshot by adding
//! vehicles whose same-step `Entered` (via that edge) events come later —
//! they were still on the segment at the departure instant — and removing
//! vehicles whose same-step `Departed` (onto that edge) events come later —
//! they joined behind the label.

use crate::engine::{self, AuditLog, Engine, EngineSnapshot, Exchange};
use crate::faults::{FaultLayer, FaultPlan};
use crate::metrics::{ProgressSnapshot, RunMetrics, RunTelemetry};
use crate::oracle::Oracle;
use crate::replay::{ActionRecorder, ActionTrace, TRACE_SCHEMA};
use crate::scenario::{Scenario, SeedSpec};
use crate::source::{
    BatchIndex, ClassTable, ExternalSource, ObservationBatch, ObservationSource, SimulatorSource,
    TruthSnapshot,
};
use rand::{Rng, SeedableRng};
use std::time::Instant;
use vcount_core::{
    ActionKind, Checkpoint, CheckpointTable, ClassDedupCounter, NaiveIntervalCounter,
};
use vcount_obs::{EventRecord, EventSink};
use vcount_roadnet::{NodeId, RoadNetwork};
use vcount_traffic::{ReplayRng, SimSnapshot, Simulator};
use vcount_v2x::VehicleId;

/// Ring-buffer capacity of the always-on post-mortem sink.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// What a run is trying to reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Goal {
    /// Every checkpoint's non-interaction counting stabilized
    /// (Fig. 2 constitution; Fig. 4 "complete status" when open).
    Constitution,
    /// Additionally, every seed holds its tree's global view
    /// (Fig. 3 / Fig. 5 collection).
    Collection,
}

/// A fully wired deployment under simulation.
pub struct Runner {
    /// The scenario this deployment was assembled from (kept so snapshots
    /// are self-contained).
    scenario: Scenario,
    /// Where observation batches come from: the in-process simulator by
    /// default, or an [`ExternalSource`] when batches are pushed in.
    source: Box<dyn ObservationSource>,
    seeds: Vec<NodeId>,
    /// Step counter of the last ingested batch.
    steps: u64,
    /// Reused per-step observation batch (pull path only).
    batch: ObservationBatch,
    /// Reused per-batch event indices, rebuilt on every ingest.
    index: BatchIndex,
    /// The state the engine stages run on (its road graph is built from
    /// the same map spec as the source's own copy).
    engine: Engine,
}

/// Chained-setter construction of a [`Runner`]: a scenario
/// ([`Runner::builder`]) or a frozen run ([`RunnerBuilder::from_snapshot`])
/// first, then observability sinks and deployment knobs, then
/// [`RunnerBuilder::build`] (or [`RunnerBuilder::run`] to execute in one
/// go). Protocol settings are scenario fields, not builder setters.
///
/// ```no_run
/// use vcount_sim::{Goal, Runner, Scenario};
/// use vcount_roadnet::builders::ManhattanConfig;
///
/// let mut scenario = Scenario::paper_closed(ManhattanConfig::small(), 60.0, 2, 7);
/// scenario.protocol.compensate_loss = true;
/// let metrics = Runner::builder(&scenario).goal(Goal::Collection).run();
/// assert_eq!(metrics.oracle_violations, 0);
/// ```
pub struct RunnerBuilder {
    scenario: Scenario,
    /// The frozen run to continue, if any.
    snapshot: Option<EngineSnapshot>,
    sinks: Vec<Box<dyn EventSink + Send>>,
    ring_capacity: usize,
    goal: Goal,
    faults: Option<FaultPlan>,
    record: bool,
    external: bool,
}

impl RunnerBuilder {
    /// Starts from a scenario (cloned; the builder owns its copy).
    pub fn new(scenario: &Scenario) -> Self {
        RunnerBuilder {
            scenario: scenario.clone(),
            snapshot: None,
            sinks: Vec::new(),
            ring_capacity: DEFAULT_RING_CAPACITY,
            goal: Goal::Collection,
            faults: None,
            record: false,
            external: false,
        }
    }

    /// Starts from a frozen run: the built runner continues exactly where
    /// [`Runner::snapshot`] froze it and replays the event stream the
    /// uninterrupted run would have produced, byte for byte. The snapshot
    /// is moved in, never copied. It embeds its scenario and fault plan,
    /// so [`RunnerBuilder::faults`] and [`RunnerBuilder::record_actions`]
    /// are build errors here. The sinks see only the tail of the run:
    /// telemetry and post-mortem state are not part of the snapshot.
    pub fn from_snapshot(snapshot: EngineSnapshot) -> Self {
        let mut builder = RunnerBuilder::new(&snapshot.scenario);
        builder.snapshot = Some(snapshot);
        builder
    }

    /// Builds the runner around an [`ExternalSource`] instead of the
    /// in-process simulator: [`Runner::step`] will not advance on its own,
    /// and observation batches must be pushed via [`Runner::ingest`] —
    /// the `vcountd` service shape. The source is a deployment knob,
    /// never a semantics knob: fed the batches a [`SimulatorSource`] for
    /// the same scenario produces, the event stream is byte-identical to
    /// the in-process run. A resumed external source holds the snapshot's
    /// traffic state, so the run can be re-frozen before the feeder's
    /// first refresh.
    pub fn external(mut self, on: bool) -> Self {
        self.external = on;
        self
    }

    /// Loads a fault-injection plan (validated against the scenario map at
    /// build time). Fault-free runs of the same scenario are unaffected:
    /// the layer draws from its own RNG stream.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Records the run's full action stream for machine-only replay
    /// (see [`crate::replay`]); retrieve it with
    /// [`Runner::take_action_trace`] once the run is done.
    pub fn record_actions(mut self, on: bool) -> Self {
        self.record = on;
        self
    }

    /// Adds an event sink; every stamped protocol event is fanned into each
    /// configured sink in emission order.
    pub fn sink(mut self, sink: Box<dyn EventSink + Send>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Capacity of the always-on post-mortem ring buffer.
    pub fn ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// The goal [`RunnerBuilder::run`] drives toward (default:
    /// [`Goal::Collection`]).
    pub fn goal(mut self, goal: Goal) -> Self {
        self.goal = goal;
        self
    }

    /// Wires the deployment: map, traffic, checkpoints, patrol cars, sinks,
    /// and either seed activation at t = 0 or the snapshot's state. Panics
    /// where [`RunnerBuilder::try_build`] would return an error.
    pub fn build(self) -> Runner {
        self.try_build().expect("runner must assemble")
    }

    /// Like [`RunnerBuilder::build`], but reports a scenario failing
    /// [`Scenario::validate`], an invalid fault plan, a snapshot that does
    /// not fit its scenario, or a knob a resumed run cannot take as an
    /// error instead of panicking.
    pub fn try_build(self) -> Result<Runner, String> {
        let RunnerBuilder {
            scenario,
            snapshot,
            sinks,
            ring_capacity,
            goal: _,
            faults,
            record,
            external,
        } = self;
        if snapshot.is_some() && (faults.is_some() || record) {
            return Err(
                "a resumed run keeps its snapshot's fault plan and records no actions".into(),
            );
        }
        let net = scenario.validate()?;
        let n = net.node_count();
        let source: Box<dyn ObservationSource> = match (&snapshot, external) {
            (None, true) => Box::new(ExternalSource::new()),
            // An external source stores the snapshot's traffic state and
            // hands it out again: it must pass the check the in-process
            // restore makes.
            (Some(snap), true) => {
                snap.sim.validate(&net)?;
                Box::new(ExternalSource::new())
            }
            (None, false) => Box::new(SimulatorSource::from_scenario(&scenario, 1)),
            (Some(snap), false) => Box::new(SimulatorSource::resume_from(
                &scenario,
                net.clone(),
                &snap.sim,
            )?),
        };
        let faults = match faults {
            Some(plan) => {
                FaultLayer::from_plan(plan, n, None).map_err(|e| format!("fault plan: {e}"))?
            }
            None => FaultLayer::none(),
        };
        let cps = net
            .node_ids()
            .map(|node| Checkpoint::new(&net, node, scenario.protocol))
            .collect();
        let filter = scenario.protocol.filter;
        let engine = Engine {
            now: 0.0,
            net,
            classes: ClassTable::new(),
            cps,
            // Vehicle-indexed capacity starts at zero and grows as batches
            // announce the population (capacity is not semantics).
            exchange: Exchange::new(0, n),
            oracle: Oracle::new(),
            channel: scenario.channel.build(),
            // Protocol-side randomness (seed selection, channel draws) is
            // decoupled from traffic randomness but derived from the same
            // seed for whole-run reproducibility. Draw-counted so snapshots
            // can resume the exact stream position.
            proto_rng: ReplayRng::seed_from_u64(engine::snapshot::proto_seed(scenario.sim.seed)),
            transport: scenario.transport,
            filter,
            adjust_mode: scenario.protocol.adjust_mode,
            naive: NaiveIntervalCounter::new(filter),
            dedup: ClassDedupCounter::new(filter),
            audit: AuditLog::new(scenario.sim.seed, ring_capacity, sinks),
            faults,
            recorder: ActionRecorder::new(record),
            cmd_scratch: Vec::new(),
        };
        let mut runner = Runner {
            scenario,
            source,
            seeds: Vec::new(),
            steps: 0,
            batch: ObservationBatch::default(),
            index: BatchIndex::default(),
            engine,
        };
        match snapshot {
            None => runner.activate_seeds(),
            Some(snap) => runner.restore(snap)?,
        }
        Ok(runner)
    }

    /// Builds and runs to the configured goal within the scenario's time
    /// budget, returning the metrics.
    pub fn run(self) -> RunMetrics {
        let goal = self.goal;
        let max = self.scenario.max_time_s;
        self.build().run(goal, max)
    }
}

impl Runner {
    /// Starts building a deployment from `scenario`.
    pub fn builder(scenario: &Scenario) -> RunnerBuilder {
        RunnerBuilder::new(scenario)
    }

    /// Selects the scenario's seed checkpoints (drawing from the protocol
    /// RNG) and activates them at t = 0 — the start of a fresh run.
    fn activate_seeds(&mut self) {
        let n = self.engine.net.node_count();
        let rng = &mut self.engine.proto_rng;
        self.seeds = match &self.scenario.seeds {
            SeedSpec::Explicit(list) => list.iter().map(|i| NodeId(*i)).collect(),
            SeedSpec::AllBorder => {
                let border = self.engine.net.border_nodes();
                if border.is_empty() {
                    vec![NodeId(rng.gen_range(0..n as u32))]
                } else {
                    border
                }
            }
            SeedSpec::Random { count } => {
                let mut ids: Vec<u32> = (0..n as u32).collect();
                for i in (1..ids.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    ids.swap(i, j);
                }
                ids.truncate((*count).max(1).min(n));
                ids.into_iter().map(NodeId).collect()
            }
        };
        for &s in &self.seeds {
            engine::apply_action(&mut self.engine, s, ActionKind::Seed);
        }
    }

    /// Moves a frozen run's dynamic state into this freshly wired
    /// deployment of the same scenario.
    ///
    /// This is the one check of a snapshot's engine half (DESIGN.md
    /// §6quater): every field is checked against the map and the
    /// population (the sim half's vehicle count) before it is used. The
    /// checkpoint table's states and every fault image pass
    /// [`vcount_core::CheckpointState::check`]; the ledger, the exchange
    /// and the dedup baseline pass their decoders' checks.
    fn restore(&mut self, snap: EngineSnapshot) -> Result<(), String> {
        let engine = &mut self.engine;
        let net = &engine.net;
        let n = engine.cps.len();
        let population = snap.sim.vehicles.len();
        if let Some(seed) = snap.seeds.iter().find(|s| s.index() >= n) {
            return Err(format!(
                "snapshot seed {} is not a node of the {n}-node map",
                seed.0
            ));
        }
        let states = snap
            .checkpoints
            .states(net)
            .map_err(|e| format!("snapshot checkpoints: {e}"))?;
        let images = snap
            .faults
            .iter()
            .flat_map(|f| net.node_ids().zip(&f.images));
        for (node, image) in images {
            if let Some(state) = image {
                state
                    .check(net, node)
                    .map_err(|e| format!("snapshot faults: images[{}]: {e}", node.0))?;
            }
        }
        let oracle =
            Oracle::from_table(&snap.ledger, population).map_err(|e| format!("snapshot {e}"))?;
        snap.dedup
            .validate()
            .map_err(|e| format!("snapshot dedup: {e}"))?;
        engine.exchange = Exchange::restore(&snap.exchange, net, population)
            .map_err(|e| format!("snapshot exchange: {e}"))?;
        for (cp, state) in engine.cps.iter_mut().zip(states) {
            cp.restore_state(state);
        }
        engine.proto_rng = ReplayRng::resume(engine.proto_rng.seed(), snap.proto_rng_draws);
        engine.channel.restore_state(snap.channel_state);
        engine.classes = ClassTable::from_snapshot(&snap.sim);
        engine.now = snap.sim.time_s;
        self.steps = snap.sim.steps;
        // The in-process simulator was already rebuilt from this state
        // (and ignores it); an external source keeps it for re-freezing.
        self.source.provide_sim_state(snap.sim);
        engine.oracle = oracle;
        self.seeds = snap.seeds;
        engine.naive = snap.naive;
        engine.dedup = snap.dedup;
        engine.faults = match (snap.fault_plan, snap.faults) {
            (None, None) => FaultLayer::none(),
            (Some(plan), Some(image)) => FaultLayer::from_plan(plan, n, Some(image))
                .map_err(|e| format!("snapshot faults: {e}"))?,
            _ => return Err("snapshot faults: plan without state or state without plan".into()),
        };
        Ok(())
    }

    /// Freezes the deployment at the current step boundary. The snapshot
    /// embeds the scenario, so [`RunnerBuilder::from_snapshot`] needs
    /// nothing else.
    pub fn snapshot(&self) -> EngineSnapshot {
        self.try_snapshot()
            .expect("source must hold traffic state to snapshot")
    }

    /// Like [`Runner::snapshot`], but reports a source without traffic
    /// state (an [`ExternalSource`] the feeder never refreshed), or with
    /// one older than the run (fewer vehicles than the batches announced),
    /// as an error instead of panicking — the service path.
    pub fn try_snapshot(&self) -> Result<EngineSnapshot, String> {
        let sim = self.source.sim_state().ok_or_else(|| {
            "observation source holds no traffic state; \
             supply one (service: a Snapshot request carries it) before freezing"
                .to_string()
        })?;
        let engine = &self.engine;
        let population = sim.vehicles.len();
        if population < engine.classes.len() {
            return Err(format!(
                "the traffic state holds {population} vehicles, fewer than the {} \
                 the run has announced; supply a current one",
                engine.classes.len()
            ));
        }
        Ok(EngineSnapshot {
            schema: engine::SNAPSHOT_SCHEMA.to_string(),
            scenario: self.scenario.clone(),
            seeds: self.seeds.clone(),
            proto_rng_draws: engine.proto_rng.draws(),
            channel_state: engine.channel.save_state(),
            sim,
            checkpoints: CheckpointTable::of(
                engine.cps.iter().map(Checkpoint::export_state),
                engine.net.edge_count(),
            ),
            exchange: engine.exchange.snapshot(),
            ledger: engine.oracle.table(population),
            naive: engine.naive.clone(),
            dedup: engine.dedup.clone(),
            fault_plan: engine.faults.plan().cloned(),
            faults: engine.faults.snapshot(),
        })
    }

    /// Hands externally produced ground truth to the observation source
    /// (push-fed runs; a no-op on the in-process simulator, which knows
    /// its own truth). Verification and the reported true population use
    /// whatever the source last supplied.
    pub fn provide_truth(&mut self, truth: TruthSnapshot) {
        self.source.provide_truth(truth);
    }

    /// Hands externally produced traffic state to the observation source
    /// so [`Runner::try_snapshot`] can freeze the run (push-fed runs; a
    /// no-op on the in-process simulator), or refuses a state that fails
    /// [`SimSnapshot::validate`] on this run's map: a run never freezes
    /// into a snapshot its own resume refuses.
    pub fn provide_sim_state(&mut self, snap: SimSnapshot) -> Result<(), String> {
        snap.validate(&self.engine.net)?;
        self.source.provide_sim_state(snap);
        Ok(())
    }

    /// The scenario this deployment runs (a resumed run's is its
    /// snapshot's).
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The road network under simulation.
    pub fn net(&self) -> &RoadNetwork {
        &self.engine.net
    }

    /// Vehicles announced to the engine so far (the dense-id population
    /// the next batch's class announcements must start at) — what the
    /// service boundary validates wire batches against.
    pub fn announced_vehicles(&self) -> usize {
        self.engine.classes.len()
    }

    /// The traffic simulator (read access for examples and tests).
    /// Panics when the runner is driven by an external observation
    /// source — there is no in-process simulator to read then.
    pub fn simulator(&self) -> &Simulator {
        self.source
            .simulator()
            .expect("runner is driven by an external observation source")
    }

    /// A checkpoint's state machine.
    pub fn checkpoint(&self, node: NodeId) -> &Checkpoint {
        &self.engine.cps[node.index()]
    }

    /// The seed checkpoints of this deployment.
    pub fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    /// The ground-truth oracle.
    pub fn oracle(&self) -> &Oracle {
        &self.engine.oracle
    }

    /// Simulated time, seconds (of the last ingested batch).
    pub fn time_s(&self) -> f64 {
        self.engine.now
    }

    /// Whether every checkpoint's non-interaction counting stabilized.
    pub fn all_stable(&self) -> bool {
        self.engine.cps.iter().all(Checkpoint::is_stable)
    }

    /// Whether every seed holds its tree total.
    pub fn all_collected(&self) -> bool {
        self.seeds
            .iter()
            .all(|s| self.engine.cps[s.index()].tree_total().is_some())
    }

    /// The distributed sum of all local counts plus (for open systems) the
    /// live interaction net — the protocol's region-wide vehicle count.
    pub fn distributed_count(&self) -> i64 {
        self.engine
            .cps
            .iter()
            .map(|c| c.local_count() + c.interaction_net())
            .sum()
    }

    /// The count as collected at the seeds (available once
    /// [`Runner::all_collected`]), plus the live interaction net.
    pub fn collected_count(&self) -> Option<i64> {
        let tree: Option<i64> = self
            .seeds
            .iter()
            .map(|s| self.engine.cps[s.index()].tree_total())
            .sum();
        tree.map(|t| {
            t + self
                .engine
                .cps
                .iter()
                .map(Checkpoint::interaction_net)
                .sum::<i64>()
        })
    }

    /// Ground truth: matching civilian vehicles currently inside. Zero
    /// when the observation source holds no truth (an [`ExternalSource`]
    /// the feeder never supplied) — see [`Runner::provide_truth`].
    pub fn true_population(&self) -> usize {
        self.source.truth().map(|t| t.population()).unwrap_or(0)
    }

    /// Runs per-vehicle verification (see [`Oracle::verify`]). Empty when
    /// the observation source holds no ground truth — nothing to verify
    /// against; push the feeder's [`TruthSnapshot`] first for a real
    /// verdict.
    pub fn verify(&self) -> Vec<crate::oracle::Violation> {
        match self.source.truth() {
            Some(truth) => self.engine.oracle.verify(truth.vehicles),
            None => Vec::new(),
        }
    }

    /// Advances one step by pulling the next batch from the observation
    /// source and ingesting it. Returns `false` (without ingesting) when
    /// the source cannot advance on its own — an [`ExternalSource`]
    /// waiting for pushed batches.
    pub fn step(&mut self) -> bool {
        let t_traffic = Instant::now();
        let mut batch = std::mem::take(&mut self.batch);
        let advanced = self.source.next_batch(&mut batch);
        self.engine.audit.telemetry.traffic_step_secs += t_traffic.elapsed().as_secs_f64();
        if advanced {
            self.ingest(&batch);
        }
        self.batch = batch;
        advanced
    }

    /// The step-driven core: consumes one observation batch through the
    /// engine stages — fault transitions, observe (which invokes dispatch
    /// and audit per interaction), then end-of-step exchange delivery.
    /// This is the only way protocol state advances; [`Runner::step`] is
    /// just a pull wrapper around it, and the service pushes batches here
    /// directly.
    pub fn ingest(&mut self, batch: &ObservationBatch) {
        let engine = &mut self.engine;
        engine.classes.learn(batch.classes());
        engine
            .exchange
            .ensure_vehicle_capacity(engine.classes.len());
        // Events are timestamped at the end of the step they occurred in.
        engine.now = batch.now;
        self.steps = batch.steps;
        self.index.rebuild(batch);
        let t_protocol = Instant::now();
        // Fault transitions fire at the step boundary — after the traffic
        // advance, before any observation — where checkpoint event buffers
        // are provably drained.
        crate::faults::fault_step(engine);
        engine::observe(engine, batch, &self.index);
        engine.audit.telemetry.protocol_secs += t_protocol.elapsed().as_secs_f64();

        let t_relay = Instant::now();
        engine::exchange(engine);
        engine.audit.telemetry.relay_secs += t_relay.elapsed().as_secs_f64();
    }

    /// Whether any report message is still in transit (on a vehicle,
    /// waiting at a node, in the relay, or on a patrol car). Collection is
    /// final only when the last re-report has landed.
    pub fn reports_in_flight(&self) -> bool {
        self.engine.exchange.reports_in_flight()
    }

    /// Whether `goal` holds in the current state: the one completion
    /// predicate every driver stops on — [`Runner::run`], the CLI's
    /// stepping loop, and each `vcountd` tenant.
    ///
    /// [`Goal::Constitution`] holds when every checkpoint is stable.
    /// [`Goal::Collection`] additionally needs every seed to hold its tree
    /// total with no report in flight: from then on no label handoff can
    /// fail and no watch is open, so no re-report can change the collected
    /// value. The predicate reads state, not history. A crash that reverts
    /// a checkpoint to a pre-stability image (a `degraded` run) un-reaches
    /// the goal until it holds again, and a resumed snapshot has reached
    /// it exactly when the frozen run had.
    pub fn reached(&self, goal: Goal) -> bool {
        match goal {
            Goal::Constitution => self.all_stable(),
            Goal::Collection => {
                self.all_stable() && self.all_collected() && !self.reports_in_flight()
            }
        }
    }

    /// Steps until `goal` is [reached](Runner::reached) or `max_time_s`
    /// elapses, then flushes the sinks and returns
    /// [`Runner::metrics_now`].
    pub fn run(&mut self, goal: Goal, max_time_s: f64) -> RunMetrics {
        while self.engine.now < max_time_s && !self.reached(goal) && self.step() {}
        self.flush_sinks();
        self.metrics_now()
    }

    /// Flushes every configured event sink (called automatically at the end
    /// of [`Runner::run`]; externally driven loops should call it once
    /// done stepping).
    pub fn flush_sinks(&mut self) {
        for sink in &mut self.engine.audit.sinks {
            sink.flush();
        }
    }

    /// Adds an event sink to a built run; it sees the events from here on.
    pub(crate) fn add_sink(&mut self, sink: Box<dyn EventSink + Send>) {
        self.engine.audit.sinks.push(sink);
    }

    /// The run's telemetry so far: the audit stage's event counts and
    /// phase timings, plus the exchange's wire counters and the fault
    /// layer's chaos and watch counters as of this call.
    pub fn telemetry(&self) -> RunTelemetry {
        let wire = self.engine.exchange.counters();
        let fc = self.engine.faults.counters();
        RunTelemetry {
            relay_messages: wire.relay_messages,
            messages_encoded: wire.encoded,
            messages_decoded: wire.decoded,
            messages_skipped_decode: wire.skipped_decode,
            wire_bytes: wire.bytes,
            label_overwrites: wire.label_overwrites,
            chaos_duplicates: fc.chaos_duplicates,
            chaos_delays: fc.chaos_delays,
            chaos_reorders: fc.chaos_reorders,
            watches_dropped: fc.watches_dropped,
            ..self.engine.audit.telemetry
        }
    }

    /// The fault layer's injection counters (all zero without a plan).
    pub fn fault_counters(&self) -> crate::faults::FaultCounters {
        self.engine.faults.counters()
    }

    /// Whether injected faults may have cost protocol information (the
    /// explicit degraded status — see [`crate::faults`]).
    pub fn degraded(&self) -> bool {
        self.engine.faults.degraded()
    }

    /// Finishes recording and packages the run's action stream as a
    /// self-contained [`ActionTrace`] (scenario, actions, dispatch digest,
    /// final counts). `None` unless the runner was built with
    /// [`RunnerBuilder::record_actions`]; recording stops once taken.
    pub fn take_action_trace(&mut self) -> Option<ActionTrace> {
        let (records, dispatch_digest) = self.engine.recorder.take()?;
        let cps = &self.engine.cps;
        Some(ActionTrace {
            schema: TRACE_SCHEMA.to_string(),
            scenario: self.scenario.clone(),
            records,
            dispatch_digest,
            final_local_counts: cps.iter().map(Checkpoint::local_count).collect(),
            final_interaction_nets: cps.iter().map(Checkpoint::interaction_net).collect(),
            final_tree_totals: cps.iter().map(Checkpoint::tree_total).collect(),
        })
    }

    /// The retained post-mortem events mentioning `vehicle`, oldest first —
    /// its attribution chain as far as the ring buffer remembers.
    pub fn violation_trace(&self, vehicle: VehicleId) -> Vec<EventRecord> {
        self.engine.audit.ring.for_vehicle(vehicle.0)
    }

    /// Metrics derived from the current state, with the goal times taken
    /// from the checkpoints' own records: `constitution_done_s` is the
    /// last stabilization once [`Goal::Constitution`] is
    /// [reached](Runner::reached), `collection_done_s` the last seed's
    /// collection once [`Goal::Collection`] is. Evaluates ground truth
    /// (dumping the first violation's attribution chain to stderr) and
    /// can be called at any time.
    pub fn metrics_now(&self) -> RunMetrics {
        let violations = self.verify();
        if let Some(v) = violations.first() {
            // Post-mortem: dump the offending vehicle's attribution chain
            // from the always-on ring buffer.
            eprintln!(
                "oracle violation: {} net {} expected {} ({} violation(s) total); \
                 ring-buffer attribution chain:",
                v.vehicle,
                v.net,
                v.expected,
                violations.len()
            );
            let chain = self.engine.audit.ring.for_vehicle(v.vehicle.0);
            if chain.is_empty() {
                eprintln!("  (no retained events — raise the ring capacity)");
            }
            for rec in chain {
                eprintln!("  {}", rec.to_json());
            }
        }
        let global_count = if self.all_collected() {
            self.collected_count()
        } else if self.all_stable() {
            Some(self.distributed_count())
        } else {
            None
        };
        let engine = &self.engine;
        let cps = &engine.cps;
        RunMetrics {
            constitution_done_s: self.reached(Goal::Constitution).then(|| {
                cps.iter()
                    .filter_map(Checkpoint::stable_at)
                    .fold(0.0f64, f64::max)
            }),
            collection_done_s: self.reached(Goal::Collection).then(|| {
                self.seeds
                    .iter()
                    .filter_map(|s| cps[s.index()].collected_at())
                    .fold(0.0f64, f64::max)
            }),
            checkpoint_stable_s: cps.iter().filter_map(Checkpoint::stable_at).collect(),
            checkpoint_activated_s: cps.iter().filter_map(Checkpoint::activated_at).collect(),
            global_count,
            true_population: self.true_population(),
            oracle_violations: violations.len(),
            handoff_failures: engine.audit.telemetry.handoff_retries,
            overtake_adjustments: cps.iter().map(|c| c.counters().overtake_total()).sum(),
            baseline_naive: engine.naive.total(),
            baseline_dedup: engine.dedup.total(),
            elapsed_s: engine.now,
            steps: self.steps,
            degraded: engine.faults.degraded(),
            telemetry: self.telemetry(),
        }
    }

    /// A point-in-time progress view of the deployment.
    pub fn progress(&self) -> ProgressSnapshot {
        let cps = &self.engine.cps;
        ProgressSnapshot {
            time_s: self.engine.now,
            active: cps.iter().filter(|c| c.is_active()).count(),
            stable: cps.iter().filter(|c| c.is_stable()).count(),
            collected_seeds: self
                .seeds
                .iter()
                .filter(|s| cps[s.index()].tree_total().is_some())
                .count(),
            checkpoints: cps.len(),
            distributed_count: self.distributed_count(),
            population: self.true_population(),
        }
    }
}

/// Shutdown guard: whatever ends a run — clean completion, an early
/// `break`, a panic unwinding past an externally driven loop, or a service
/// tenant disconnecting mid-run — the configured sinks are flushed, so a
/// buffered trace file never loses its tail. Flushing twice is harmless
/// ([`Runner::run`] also flushes on the clean path).
impl Drop for Runner {
    fn drop(&mut self) {
        self.flush_sinks();
    }
}
