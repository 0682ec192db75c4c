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
//! and resumed to a byte-identical event stream.
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

use crate::engine::{self, AuditLog, EngineSnapshot, Exchange, StepCtx};
use crate::faults::{FaultLayer, FaultPlan};
use crate::metrics::{ProgressSnapshot, RunMetrics, RunTelemetry};
use crate::oracle::Oracle;
use crate::replay::{ActionRecorder, ActionTrace, TRACE_SCHEMA};
use crate::scenario::{Scenario, SeedSpec, TransportMode};
use crate::source::{
    BatchIndex, ClassTable, ExternalSource, ObservationBatch, ObservationSource, SimulatorSource,
    TruthSnapshot,
};
use rand::{Rng, SeedableRng};
use std::time::Instant;
use vcount_core::Checkpoint;
use vcount_core::{ActionKind, ClassDedupCounter, Command, NaiveIntervalCounter};
use vcount_obs::{EventRecord, EventSink, Phase};
use vcount_roadnet::{NodeId, RoadNetwork};
use vcount_traffic::{ReplayRng, SimSnapshot, Simulator};
use vcount_v2x::{AdjustMode, ClassFilter, LossModel, VehicleId};

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
    /// The road graph the deployment runs on (the source builds its own
    /// copy from the same scenario — both are deterministic products of
    /// the map spec).
    net: RoadNetwork,
    /// Where observation batches come from: the in-process simulator by
    /// default, or an [`ExternalSource`] when batches are pushed in.
    source: Box<dyn ObservationSource>,
    /// Camera-visible class of every vehicle announced by a batch so far.
    classes: ClassTable,
    /// Simulated time at the end of the last ingested batch, seconds.
    now: f64,
    /// Step counter of the last ingested batch.
    steps: u64,
    cps: Vec<Checkpoint>,
    channel: Box<dyn LossModel + Send>,
    proto_rng: ReplayRng,
    oracle: Oracle,
    transport: TransportMode,
    filter: ClassFilter,
    adjust_mode: AdjustMode,
    seeds: Vec<NodeId>,
    /// The message layer: every in-flight payload lives here.
    exchange: Exchange,
    naive: NaiveIntervalCounter,
    dedup: ClassDedupCounter,
    /// Reused per-step observation batch (pull path only).
    batch: ObservationBatch,
    /// Reused per-batch event indices, rebuilt on every ingest.
    index: BatchIndex,
    /// Event stamping, telemetry and sink fan-out.
    audit: AuditLog,
    /// Deterministic fault injection (inactive unless a plan is loaded).
    faults: FaultLayer,
    /// Action-trace recorder (inert unless requested at build time).
    recorder: ActionRecorder,
    /// Reused command scratch for [`engine::apply_action`].
    cmd_scratch: Vec<Command>,
}

/// Chained-setter construction of a [`Runner`]: scenario first, then
/// observability sinks and protocol overrides, then [`RunnerBuilder::build`]
/// (or [`RunnerBuilder::run`] to execute in one go).
///
/// ```no_run
/// use vcount_sim::{Goal, Runner, Scenario};
/// use vcount_roadnet::builders::ManhattanConfig;
///
/// let scenario = Scenario::paper_closed(ManhattanConfig::small(), 60.0, 2, 7);
/// let metrics = Runner::builder(&scenario)
///     .compensate_loss(true)
///     .goal(Goal::Collection)
///     .run();
/// assert_eq!(metrics.oracle_violations, 0);
/// ```
pub struct RunnerBuilder {
    scenario: Scenario,
    sinks: Vec<Box<dyn EventSink + Send>>,
    ring_capacity: usize,
    goal: Goal,
    faults: Option<FaultPlan>,
    record: bool,
    eager_decode: bool,
    external: bool,
}

impl RunnerBuilder {
    /// Starts from a scenario (cloned; the builder owns its copy).
    pub fn new(scenario: &Scenario) -> Self {
        RunnerBuilder {
            scenario: scenario.clone(),
            sinks: Vec::new(),
            ring_capacity: DEFAULT_RING_CAPACITY,
            goal: Goal::Collection,
            faults: None,
            record: false,
            eager_decode: false,
            external: false,
        }
    }

    /// Builds the runner around an [`ExternalSource`] instead of the
    /// in-process simulator: [`Runner::step`] will not advance on its own,
    /// and observation batches must be pushed via [`Runner::ingest`] —
    /// the `vcountd` service shape. The source is a deployment knob,
    /// never a semantics knob: fed the batches a [`SimulatorSource`] for
    /// the same scenario produces, the event stream is byte-identical to
    /// the in-process run.
    pub fn external(mut self, on: bool) -> Self {
        self.external = on;
        self
    }

    /// Forces every discarded delivery to be parsed anyway, disabling the
    /// exchange's lazy decode — the reference path the lazy plane is
    /// tested against. The event stream is byte-identical either way
    /// (pinned by `tests/lazy_decode_identity.rs`); only the
    /// `messages_decoded` / `messages_skipped_decode` telemetry split and
    /// the work done change.
    pub fn eager_decode(mut self, on: bool) -> Self {
        self.eager_decode = on;
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

    /// Overrides the scenario's collection transport.
    pub fn transport(mut self, transport: TransportMode) -> Self {
        self.scenario.transport = transport;
        self
    }

    /// Overrides the scenario's overtake adjustment mode (ablations).
    pub fn adjust_mode(mut self, mode: AdjustMode) -> Self {
        self.scenario.protocol.adjust_mode = mode;
        self
    }

    /// Overrides the scenario's lossy-handoff compensation (Alg. 3 line 3).
    pub fn compensate_loss(mut self, on: bool) -> Self {
        self.scenario.protocol.compensate_loss = on;
        self
    }

    /// The goal [`RunnerBuilder::run`] drives toward (default:
    /// [`Goal::Collection`]).
    pub fn goal(mut self, goal: Goal) -> Self {
        self.goal = goal;
        self
    }

    /// Wires the deployment: map, traffic, checkpoints, patrol cars, sinks,
    /// seed activation at t = 0. Panics on a fault plan that does not fit
    /// the scenario map; use [`RunnerBuilder::try_build`] to handle that
    /// gracefully.
    pub fn build(self) -> Runner {
        self.try_build().expect("fault plan must fit the scenario")
    }

    /// Like [`RunnerBuilder::build`], but reports an invalid fault plan as
    /// an error instead of panicking.
    pub fn try_build(self) -> Result<Runner, String> {
        let mut runner = Runner::assemble(
            &self.scenario,
            self.sinks,
            self.ring_capacity,
            self.faults,
            self.record,
            self.external,
        )?;
        runner.exchange.set_eager_decode(self.eager_decode);
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

    fn assemble(
        scenario: &Scenario,
        sinks: Vec<Box<dyn EventSink + Send>>,
        ring_capacity: usize,
        fault_plan: Option<FaultPlan>,
        record: bool,
        external: bool,
    ) -> Result<Self, String> {
        let net = scenario.map.build(scenario.closed);
        net.validate().expect("scenario map must be valid");
        let source: Box<dyn ObservationSource> = if external {
            Box::new(ExternalSource::new())
        } else {
            Box::new(SimulatorSource::from_scenario(scenario, 1))
        };
        let n = net.node_count();
        let cps: Vec<Checkpoint> = net
            .node_ids()
            .map(|node| Checkpoint::new(&net, node, scenario.protocol))
            .collect();
        // Protocol-side randomness (seed selection, channel draws) is
        // decoupled from traffic randomness but derived from the same seed
        // for whole-run reproducibility. Draw-counted so snapshots can
        // resume the exact stream position.
        let mut proto_rng =
            ReplayRng::seed_from_u64(engine::snapshot::proto_seed(scenario.sim.seed));

        let seeds: Vec<NodeId> = match &scenario.seeds {
            SeedSpec::Explicit(list) => list.iter().map(|i| NodeId(*i)).collect(),
            SeedSpec::AllBorder => {
                let border = net.border_nodes();
                if border.is_empty() {
                    vec![NodeId(proto_rng.gen_range(0..n as u32))]
                } else {
                    border
                }
            }
            SeedSpec::Random { count } => {
                let mut ids: Vec<u32> = (0..n as u32).collect();
                for i in (1..ids.len()).rev() {
                    let j = proto_rng.gen_range(0..=i);
                    ids.swap(i, j);
                }
                ids.truncate((*count).max(1).min(n));
                ids.into_iter().map(NodeId).collect()
            }
        };

        let faults = match fault_plan {
            Some(plan) => FaultLayer::from_plan(plan, n)?,
            None => FaultLayer::none(),
        };
        // Vehicle-indexed capacity starts at zero and grows as batches
        // announce the population (capacity is not semantics).
        let exchange = Exchange::new(0, n);
        let mut runner = Runner {
            scenario: scenario.clone(),
            net,
            source,
            classes: ClassTable::new(),
            now: 0.0,
            steps: 0,
            cps,
            channel: scenario.channel.build(),
            proto_rng,
            oracle: Oracle::new(),
            transport: scenario.transport,
            filter: scenario.protocol.filter,
            adjust_mode: scenario.protocol.adjust_mode,
            seeds: seeds.clone(),
            exchange,
            naive: NaiveIntervalCounter::new(scenario.protocol.filter),
            dedup: ClassDedupCounter::new(scenario.protocol.filter),
            batch: ObservationBatch::default(),
            index: BatchIndex::default(),
            audit: AuditLog::new(scenario.sim.seed, ring_capacity, sinks),
            faults,
            recorder: ActionRecorder::new(record),
            cmd_scratch: Vec::new(),
        };
        for s in seeds {
            runner.with_ctx(0.0, |ctx| engine::apply_action(ctx, s, ActionKind::Seed));
        }
        Ok(runner)
    }

    /// Resumes a deployment from a snapshot, with no extra sinks and the
    /// default ring capacity. The resumed run replays the event stream the
    /// snapshotted run would have produced, byte for byte.
    pub fn resume(snap: &EngineSnapshot) -> Runner {
        Runner::resume_with(snap, Vec::new(), DEFAULT_RING_CAPACITY)
    }

    /// Resumes a deployment from a snapshot with the given sinks and ring
    /// capacity. The sinks receive only the tail of the run — telemetry
    /// and post-mortem state are not part of the snapshot.
    pub fn resume_with(
        snap: &EngineSnapshot,
        sinks: Vec<Box<dyn EventSink + Send>>,
        ring_capacity: usize,
    ) -> Runner {
        Runner::resume_core(snap, sinks, ring_capacity, false)
    }

    /// Resumes a deployment from a snapshot around an [`ExternalSource`]:
    /// the run continues exactly where it froze, but batches must be
    /// pushed via [`Runner::ingest`] — the service restart path. The
    /// source is pre-seeded with the snapshot's traffic state so the run
    /// can be re-frozen before the feeder's first refresh.
    pub fn resume_external(
        snap: &EngineSnapshot,
        sinks: Vec<Box<dyn EventSink + Send>>,
        ring_capacity: usize,
    ) -> Runner {
        Runner::resume_core(snap, sinks, ring_capacity, true)
    }

    fn resume_core(
        snap: &EngineSnapshot,
        sinks: Vec<Box<dyn EventSink + Send>>,
        ring_capacity: usize,
        external: bool,
    ) -> Runner {
        let scenario = snap.scenario.clone();
        let net = scenario.map.build(scenario.closed);
        net.validate().expect("snapshot scenario map must be valid");
        assert_eq!(
            snap.checkpoints.len(),
            net.node_count(),
            "snapshot checkpoint count must match the scenario map"
        );
        let source: Box<dyn ObservationSource> = if external {
            Box::new(ExternalSource::with_sim_state(snap.sim.clone()))
        } else {
            Box::new(SimulatorSource::resume_from(&scenario, &snap.sim))
        };
        let mut cps: Vec<Checkpoint> = net
            .node_ids()
            .map(|node| Checkpoint::new(&net, node, scenario.protocol))
            .collect();
        for (cp, state) in cps.iter_mut().zip(&snap.checkpoints) {
            cp.restore_state(state.clone());
        }
        let proto_rng = ReplayRng::resume(
            engine::snapshot::proto_seed(scenario.sim.seed),
            snap.proto_rng_draws,
        );
        let channel = scenario.channel.build();
        channel.restore_state(snap.channel_state);
        let exchange = Exchange::restore(&snap.exchange);
        Runner {
            transport: scenario.transport,
            filter: scenario.protocol.filter,
            adjust_mode: scenario.protocol.adjust_mode,
            scenario,
            net,
            source,
            classes: ClassTable::from_snapshot(&snap.sim),
            now: snap.sim.time_s,
            steps: snap.sim.steps,
            cps,
            channel,
            proto_rng,
            oracle: Oracle::from_ledger(snap.ledger.clone()),
            seeds: snap.seeds.clone(),
            exchange,
            naive: snap.naive.clone(),
            dedup: snap.dedup.clone(),
            batch: ObservationBatch::default(),
            index: BatchIndex::default(),
            audit: AuditLog::new(snap.scenario.sim.seed, ring_capacity, sinks),
            faults: match (&snap.fault_plan, &snap.faults) {
                (Some(plan), Some(fs)) => FaultLayer::restore(plan.clone(), fs),
                _ => FaultLayer::none(),
            },
            recorder: ActionRecorder::new(false),
            cmd_scratch: Vec::new(),
        }
    }

    /// Freezes the deployment at the current step boundary. The snapshot
    /// embeds the scenario, so [`Runner::resume`] needs nothing else.
    pub fn snapshot(&self) -> EngineSnapshot {
        self.try_snapshot()
            .expect("source must hold traffic state to snapshot")
    }

    /// Like [`Runner::snapshot`], but reports a source without traffic
    /// state (an [`ExternalSource`] the feeder never refreshed) as an
    /// error instead of panicking — the service path.
    pub fn try_snapshot(&self) -> Result<EngineSnapshot, String> {
        let sim = self.source.sim_state().ok_or_else(|| {
            "observation source holds no traffic state; \
             supply one (service: a Snapshot request carries it) before freezing"
                .to_string()
        })?;
        Ok(EngineSnapshot {
            schema: engine::SNAPSHOT_SCHEMA.to_string(),
            scenario: self.scenario.clone(),
            seeds: self.seeds.clone(),
            proto_rng_draws: self.proto_rng.draws(),
            channel_state: self.channel.save_state(),
            sim,
            checkpoints: self.cps.iter().map(Checkpoint::export_state).collect(),
            exchange: self.exchange.snapshot(),
            ledger: self.oracle.ledger().clone(),
            naive: self.naive.clone(),
            dedup: self.dedup.clone(),
            fault_plan: self.faults.plan().cloned(),
            faults: self.faults.snapshot(),
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
    /// no-op on the in-process simulator).
    pub fn provide_sim_state(&mut self, snap: SimSnapshot) {
        self.source.provide_sim_state(snap);
    }

    /// Builds a stage context over this runner's state and runs `f` in it.
    fn with_ctx<R>(&mut self, now: f64, f: impl FnOnce(&mut StepCtx<'_>) -> R) -> R {
        let Runner {
            net,
            classes,
            cps,
            channel,
            proto_rng,
            oracle,
            transport,
            filter,
            adjust_mode,
            exchange,
            naive,
            dedup,
            audit,
            faults,
            recorder,
            cmd_scratch,
            ..
        } = self;
        let mut ctx = StepCtx {
            now,
            net,
            classes,
            cps,
            exchange,
            oracle,
            channel: &**channel,
            proto_rng,
            transport: *transport,
            filter: *filter,
            adjust_mode: *adjust_mode,
            naive,
            dedup,
            audit,
            faults,
            recorder,
            cmd_scratch,
        };
        f(&mut ctx)
    }

    /// The road network under simulation.
    pub fn net(&self) -> &RoadNetwork {
        &self.net
    }

    /// Vehicles announced to the engine so far (the dense-id population
    /// the next batch's class announcements must start at) — what the
    /// service boundary validates wire batches against.
    pub fn announced_vehicles(&self) -> usize {
        self.classes.len()
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
        &self.cps[node.index()]
    }

    /// The seed checkpoints of this deployment.
    pub fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    /// The ground-truth oracle.
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// Simulated time, seconds (of the last ingested batch).
    pub fn time_s(&self) -> f64 {
        self.now
    }

    /// Whether every checkpoint's non-interaction counting stabilized.
    pub fn all_stable(&self) -> bool {
        self.cps.iter().all(Checkpoint::is_stable)
    }

    /// Whether every seed holds its tree total.
    pub fn all_collected(&self) -> bool {
        self.seeds
            .iter()
            .all(|s| self.cps[s.index()].tree_total().is_some())
    }

    /// The distributed sum of all local counts plus (for open systems) the
    /// live interaction net — the protocol's region-wide vehicle count.
    pub fn distributed_count(&self) -> i64 {
        self.cps
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
            .map(|s| self.cps[s.index()].tree_total())
            .sum();
        tree.map(|t| {
            t + self
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
            Some(truth) => self.oracle.verify(truth.vehicles),
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
        self.audit
            .counters
            .add_phase(Phase::TrafficStep, t_traffic.elapsed());
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
        self.classes.learn(&batch.new_classes);
        self.exchange.ensure_vehicle_capacity(self.classes.len());
        // Events are timestamped at the end of the step they occurred in.
        self.now = batch.now;
        self.steps = batch.steps;
        self.index.rebuild(&batch.events);
        let Runner {
            net,
            classes,
            cps,
            channel,
            proto_rng,
            oracle,
            transport,
            filter,
            adjust_mode,
            exchange,
            naive,
            dedup,
            index,
            audit,
            faults,
            recorder,
            cmd_scratch,
            ..
        } = self;
        let mut ctx = StepCtx {
            now: batch.now,
            net,
            classes,
            cps,
            exchange,
            oracle,
            channel: &**channel,
            proto_rng,
            transport: *transport,
            filter: *filter,
            adjust_mode: *adjust_mode,
            naive,
            dedup,
            audit,
            faults,
            recorder,
            cmd_scratch,
        };
        let t_protocol = Instant::now();
        // Fault transitions fire at the step boundary — after the traffic
        // advance, before any observation — where checkpoint event buffers
        // are provably drained.
        crate::faults::fault_step(&mut ctx);
        engine::observe(&mut ctx, batch, index);
        ctx.audit
            .counters
            .add_phase(Phase::Protocol, t_protocol.elapsed());

        let t_relay = Instant::now();
        engine::exchange(&mut ctx);
        ctx.audit
            .counters
            .add_phase(Phase::Relay, t_relay.elapsed());
    }

    /// Whether any report message is still in transit (on a vehicle,
    /// waiting at a node, in the relay, or on a patrol car). Collection is
    /// final only when the last re-report has landed.
    pub fn reports_in_flight(&self) -> bool {
        self.exchange.reports_in_flight()
    }

    /// Runs until `goal` is reached or `max_time_s` elapses, then evaluates
    /// ground truth and returns the metrics.
    ///
    /// Collection is declared done when every seed holds a tree total *and*
    /// no report is in flight *and* the constitution has completed — after
    /// that point no further label handoff can fail and no watch is open,
    /// so no re-report can change the collected value.
    pub fn run(&mut self, goal: Goal, max_time_s: f64) -> RunMetrics {
        let mut constitution_done: Option<f64> = None;
        let mut collection_done: Option<f64> = None;
        while self.now < max_time_s {
            if !self.step() {
                break;
            }
            if constitution_done.is_none() && self.all_stable() {
                constitution_done = Some(self.now);
                if goal == Goal::Constitution {
                    break;
                }
            }
            if goal == Goal::Collection
                && constitution_done.is_some()
                && collection_done.is_none()
                && self.all_collected()
                && !self.reports_in_flight()
            {
                collection_done = Some(self.now);
                break;
            }
        }
        self.flush_sinks();
        self.metrics(constitution_done, collection_done)
    }

    /// Flushes every configured event sink (called automatically at the end
    /// of [`Runner::run`]; externally driven loops should call it once
    /// done stepping).
    pub fn flush_sinks(&mut self) {
        for sink in &mut self.audit.sinks {
            sink.flush();
        }
    }

    /// The run's telemetry so far: aggregated event counters, wire-level
    /// exchange counters, and wall-clock phase attribution.
    pub fn telemetry(&self) -> RunTelemetry {
        let mut t = RunTelemetry::from_counters(self.audit.counters.counters());
        let wire = self.exchange.counters();
        t.relay_messages = wire.relay_messages;
        t.messages_encoded = wire.encoded;
        t.messages_decoded = wire.decoded;
        t.messages_skipped_decode = wire.skipped_decode;
        t.wire_bytes = wire.bytes;
        t.label_overwrites = wire.label_overwrites;
        let fc = self.faults.counters();
        t.chaos_duplicates = fc.chaos_duplicates;
        t.chaos_delays = fc.chaos_delays;
        t.chaos_reorders = fc.chaos_reorders;
        t.watches_dropped = fc.watches_dropped;
        t.traffic_step_secs = self.audit.counters.phase_secs(Phase::TrafficStep);
        t.protocol_secs = self.audit.counters.phase_secs(Phase::Protocol);
        t.relay_secs = self.audit.counters.phase_secs(Phase::Relay);
        t
    }

    /// The fault layer's injection counters (all zero without a plan).
    pub fn fault_counters(&self) -> crate::faults::FaultCounters {
        self.faults.counters()
    }

    /// Whether injected faults may have cost protocol information (the
    /// explicit degraded status — see [`crate::faults`]).
    pub fn degraded(&self) -> bool {
        self.faults.degraded()
    }

    /// Finishes recording and packages the run's action stream as a
    /// self-contained [`ActionTrace`] (scenario, actions, dispatch digest,
    /// final counts). `None` unless the runner was built with
    /// [`RunnerBuilder::record_actions`]; recording stops once taken.
    pub fn take_action_trace(&mut self) -> Option<ActionTrace> {
        let (records, dispatch_digest) = self.recorder.take()?;
        Some(ActionTrace {
            schema: TRACE_SCHEMA.to_string(),
            scenario: self.scenario.clone(),
            records,
            dispatch_digest,
            final_local_counts: self.cps.iter().map(Checkpoint::local_count).collect(),
            final_interaction_nets: self.cps.iter().map(Checkpoint::interaction_net).collect(),
            final_tree_totals: self.cps.iter().map(Checkpoint::tree_total).collect(),
        })
    }

    /// The retained post-mortem events mentioning `vehicle`, oldest first —
    /// its attribution chain as far as the ring buffer remembers.
    pub fn violation_trace(&self, vehicle: VehicleId) -> Vec<EventRecord> {
        self.audit.ring.for_vehicle(vehicle.0)
    }

    fn metrics(&self, constitution_done: Option<f64>, collection_done: Option<f64>) -> RunMetrics {
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
            let chain = self.audit.ring.for_vehicle(v.vehicle.0);
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
        RunMetrics {
            constitution_done_s: constitution_done,
            collection_done_s: collection_done,
            checkpoint_stable_s: self.cps.iter().filter_map(Checkpoint::stable_at).collect(),
            checkpoint_activated_s: self
                .cps
                .iter()
                .filter_map(Checkpoint::activated_at)
                .collect(),
            global_count,
            true_population: self.true_population(),
            oracle_violations: violations.len(),
            handoff_failures: self.audit.counters.counters().handoff_retries,
            overtake_adjustments: self.cps.iter().map(|c| c.counters().overtake_total()).sum(),
            baseline_naive: self.naive.total(),
            baseline_dedup: self.dedup.total(),
            elapsed_s: self.now,
            steps: self.steps,
            degraded: self.faults.degraded(),
            telemetry: self.telemetry(),
        }
    }

    /// Baseline counters (ablation access).
    pub fn baselines(&self) -> (u64, u64) {
        (self.naive.total(), self.dedup.total())
    }

    /// Metrics derived from the current state, using the checkpoints'
    /// own recorded timestamps (activation/stabilization/collection).
    /// Unlike [`Runner::run`], which timestamps goal completion when its
    /// loop observes it, this can be called at any time — e.g. after an
    /// externally driven stepping loop.
    pub fn metrics_now(&self) -> RunMetrics {
        let constitution = self.all_stable().then(|| {
            self.cps
                .iter()
                .filter_map(Checkpoint::stable_at)
                .fold(0.0f64, f64::max)
        });
        let collection = (self.all_collected() && !self.reports_in_flight()).then(|| {
            self.seeds
                .iter()
                .filter_map(|s| self.cps[s.index()].collected_at())
                .fold(0.0f64, f64::max)
        });
        self.metrics(constitution, collection)
    }

    /// A point-in-time progress view of the deployment.
    pub fn progress(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            time_s: self.now,
            active: self.cps.iter().filter(|c| c.is_active()).count(),
            stable: self.cps.iter().filter(|c| c.is_stable()).count(),
            collected_seeds: self
                .seeds
                .iter()
                .filter(|s| self.cps[s.index()].tree_total().is_some())
                .count(),
            checkpoints: self.cps.len(),
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
