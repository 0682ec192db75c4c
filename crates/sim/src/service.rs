//! The `vcountd` service core: a multi-tenant run manager.
//!
//! [`RunManager`] multiplexes many independent deployments keyed by run
//! id. Each tenant is an externally fed [`Runner`] (built over an
//! [`crate::source::ExternalSource`]) plus a bounded ingest queue of
//! pushed [`ObservationBatch`]es. Commands arrive as [`ServiceRequest`]
//! values (one JSON object per line on the wire — see the `vcount serve`
//! subcommand) and every effect is reported back as [`ServiceResponse`]
//! values, including the run's protocol events: each tenant's sink
//! fan-out captures stamped event records, and the manager streams them
//! out as [`ServiceResponse::Event`] lines after every command.
//!
//! **Framing.** Every request yields zero or more
//! [`ServiceResponse::Event`] lines followed by exactly one terminal
//! (non-`Event`) response — a line-oriented client reads until the first
//! non-`Event` line and knows the request is fully answered.
//!
//! ## Contracts
//!
//! * **Transport is a deployment knob, never a semantics knob.** A
//!   scenario driven through the manager by a simulator-fed client
//!   produces a byte-identical event stream, counts, and checkpoint
//!   states to the same scenario under `vcount run` (pinned by
//!   `tests/service_identity.rs` and the `run_checks.sh` serve smoke).
//! * **Backpressure is explicit, never silent.** A batch that arrives
//!   with the tenant's queue full is rejected with
//!   [`ServiceResponse::Throttled`] — it is *not* enqueued and *not*
//!   dropped silently; the producer must resend it after draining.
//! * **Snapshots keep their schema.** A tenant freezes into the same
//!   [`EngineSnapshot`] (schema v7) a batch run produces, and a frozen
//!   run restarts via [`ServiceRequest::Resume`] to a byte-identical
//!   continuation.
//! * **Completion parity.** A tenant stops ingesting where `vcount run`
//!   stops: once [`Runner::reached`] holds for its goal, or its scenario's
//!   time budget is spent. The predicate reads state, so a tenant resumed
//!   from a finished run's snapshot is finished too.

use crate::engine::EngineSnapshot;
use crate::faults::FaultPlan;
use crate::metrics::RunMetrics;
use crate::runner::{Goal, Runner, RunnerBuilder};
use crate::scenario::Scenario;
use crate::source::{ObservationBatch, TruthSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fs::OpenOptions;
use std::io::{BufWriter, ErrorKind, Write};
use std::path::{Component, Path, PathBuf};
use std::sync::{Arc, Mutex};
use vcount_obs::{EventRecord, EventSink, JsonlSink};
use vcount_traffic::SimSnapshot;

/// Default bound of each tenant's ingest queue, in batches.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Tuning knobs of a [`RunManager`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Ingest-queue bound per tenant; a batch arriving at a full queue is
    /// rejected with [`ServiceResponse::Throttled`].
    pub queue_capacity: usize,
    /// Batches ingested per tenant while handling one request. The
    /// default (`u64::MAX`) drains the queue inline; `0` makes ingest
    /// fully manual via [`ServiceRequest::Pump`] — deterministic
    /// backpressure tests use that. Kept as the wire's `u64` end to end
    /// so a 32-bit host cannot silently truncate a feeder's budget.
    pub pump_budget: u64,
    /// The only directory server-side traces are written in: a wire
    /// `trace` is a bare file name inside it. `None` (the default)
    /// refuses every wire `trace`.
    pub trace_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            pump_budget: u64::MAX,
            trace_dir: None,
        }
    }
}

/// One command to the service, addressed to a run id. On the wire each
/// request is one newline-terminated JSON object, externally tagged by
/// variant name.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServiceRequest {
    /// Creates tenant `run` from a scenario and activates its seeds.
    Start {
        /// New run id (must not exist).
        run: String,
        /// The scenario to deploy (boxed — it dwarfs the other request
        /// payloads).
        scenario: Box<Scenario>,
        /// Goal the run drives toward (default: collection).
        #[serde(default)]
        goal: Option<Goal>,
        /// Accepted and ignored, kept for wire compatibility with feeders
        /// that still send it: the engine runs a single region, and the
        /// count never changed the output.
        #[serde(default)]
        shards: usize,
        /// Accepted and ignored, kept for wire compatibility with feeders
        /// that still send it: the exchange queues typed messages and has
        /// no decode mode.
        #[serde(default)]
        eager_decode: bool,
        /// Optional fault-injection plan.
        #[serde(default)]
        faults: Option<FaultPlan>,
        /// Optional server-side JSONL trace of this tenant's protocol
        /// events: a bare file name inside the daemon's
        /// [`ServiceConfig::trace_dir`] whose file does not exist yet (an
        /// existing trace is never truncated). Written and flushed by the
        /// daemon, so a feeder that dies mid-run still leaves a complete
        /// trace behind.
        #[serde(default)]
        trace: Option<String>,
    },
    /// Recreates tenant `run` from a frozen snapshot (service restart).
    Resume {
        /// New run id (must not exist).
        run: String,
        /// The frozen engine state (schema v7, scenario embedded; boxed —
        /// a snapshot dwarfs every other request).
        snapshot: Box<EngineSnapshot>,
        /// Goal the resumed run drives toward (default: collection).
        #[serde(default)]
        goal: Option<Goal>,
        /// Optional server-side JSONL trace of the resumed tail, named as
        /// in [`ServiceRequest::Start`].
        #[serde(default)]
        trace: Option<String>,
    },
    /// Pushes one observation batch into `run`'s ingest queue.
    Observe {
        /// Target run id.
        run: String,
        /// The step's observations, in producer order.
        batch: ObservationBatch,
    },
    /// Ingests up to `budget` queued batches per tenant (all tenants).
    Pump {
        /// Per-tenant batch budget (absent → drain fully).
        #[serde(default)]
        budget: Option<u64>,
    },
    /// Freezes `run` into an [`EngineSnapshot`]. The engine cannot see
    /// the feeder's traffic substrate, so the request carries its
    /// serialized state.
    Snapshot {
        /// Target run id.
        run: String,
        /// The feeder's traffic state at the current step boundary.
        #[serde(default)]
        sim: Option<SimSnapshot>,
    },
    /// Finishes `run`: drains its queue, evaluates metrics (against the
    /// supplied ground truth, if any), flushes sinks, and removes the
    /// tenant.
    Finish {
        /// Target run id.
        run: String,
        /// Ground truth for verification and the true population; without
        /// it the metrics report zero violations and population
        /// unverified.
        #[serde(default)]
        truth: Option<TruthSnapshot>,
    },
    /// Aborts `run` immediately, flushing its sinks (the drop guard).
    Stop {
        /// Target run id.
        run: String,
    },
}

/// One effect of handling a request. On the wire each response is one
/// newline-terminated JSON object, externally tagged by variant name.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServiceResponse {
    /// Tenant created and seeds activated.
    Started {
        /// The new run id.
        run: String,
    },
    /// Tenant recreated from its snapshot.
    Resumed {
        /// The new run id.
        run: String,
    },
    /// Batch accepted into the ingest queue (and possibly already
    /// ingested, per the pump budget).
    Accepted {
        /// Target run id.
        run: String,
        /// Batches still queued after this request.
        queued: usize,
        /// Whether the run reached its goal (or time budget) — further
        /// batches are acknowledged but ignored, exactly like the steps
        /// `vcount run` never executes after its loop exits.
        done: bool,
    },
    /// Backpressure: the queue is full. The batch was NOT enqueued —
    /// resend it once the queue drains (never a silent drop).
    Throttled {
        /// Target run id.
        run: String,
        /// Batches currently queued (== capacity).
        queued: usize,
        /// The configured queue bound.
        capacity: usize,
    },
    /// Batches ingested across all tenants by an explicit pump.
    Pumped {
        /// Total batches ingested by this request.
        ingested: u64,
    },
    /// One stamped protocol event of a run, exactly as the run's JSONL
    /// trace would contain it (byte-identical line).
    Event {
        /// The emitting run id.
        run: String,
        /// The event record's canonical JSON line.
        line: String,
    },
    /// The frozen engine state.
    Snapshot {
        /// Target run id.
        run: String,
        /// The snapshot (schema v7, scenario embedded; boxed — it dwarfs
        /// every other response).
        snapshot: Box<EngineSnapshot>,
    },
    /// Final metrics of a finished run (tenant removed).
    Finished {
        /// The finished run id.
        run: String,
        /// The run's metrics, as `vcount run` would report them (boxed —
        /// the report dwarfs the other response payloads).
        metrics: Box<RunMetrics>,
    },
    /// Tenant aborted and removed.
    Stopped {
        /// The stopped run id.
        run: String,
    },
    /// A request that could not be honored (unknown run, duplicate id,
    /// malformed JSON, invalid fault plan, ...).
    Error {
        /// The run id concerned ("" when unattributable).
        run: String,
        /// Human-readable cause.
        message: String,
    },
}

/// Shared event-line buffer between a tenant's sink and the manager.
type SharedLines = Arc<Mutex<Vec<String>>>;

/// An [`EventSink`] that captures each record's canonical JSON line into
/// a shared buffer the manager drains into [`ServiceResponse::Event`]s.
struct BufferSink(SharedLines);

impl EventSink for BufferSink {
    fn record(&mut self, rec: &EventRecord) {
        self.0
            .lock()
            .expect("event buffer poisoned")
            .push(rec.to_json());
    }
}

/// One multiplexed run: an externally fed engine plus its bounded ingest
/// queue and captured event lines.
struct Tenant {
    runner: Runner,
    queue: VecDeque<ObservationBatch>,
    goal: Goal,
    done: bool,
    events: SharedLines,
}

impl Tenant {
    /// Whether the run reached its goal or its scenario's time budget —
    /// where `vcount run`'s loop stops.
    fn finished(&self) -> bool {
        self.runner.reached(self.goal) || self.runner.time_s() >= self.runner.scenario().max_time_s
    }

    /// Ingests up to `budget` queued batches, stopping at the goal (or
    /// the scenario's time budget) exactly where `vcount run`'s loop
    /// would; remaining batches are dropped then — they correspond to
    /// steps the batch run never executes.
    fn pump(&mut self, budget: u64) -> u64 {
        let mut ingested = 0u64;
        while ingested < budget && !self.done {
            let Some(batch) = self.queue.pop_front() else {
                break;
            };
            self.runner.ingest(&batch);
            ingested += 1;
            self.done = self.finished();
        }
        if self.done {
            self.queue.clear();
        }
        ingested
    }

    /// The dense-id population a newly arriving batch must announce from:
    /// what the engine has ingested plus what the queue already accepted
    /// (queued batches were acknowledged — their announcements are part of
    /// the run's committed history even though they are not ingested yet).
    fn announced_with_queue(&self) -> usize {
        self.runner.announced_vehicles()
            + self
                .queue
                .iter()
                .map(|b| b.new_classes.len())
                .sum::<usize>()
    }
}

/// The multi-tenant run manager: applies [`ServiceRequest`]s to the runs
/// they address and reports every effect — including streamed protocol
/// events — as [`ServiceResponse`]s.
pub struct RunManager {
    cfg: ServiceConfig,
    tenants: BTreeMap<String, Tenant>,
}

impl RunManager {
    /// An empty manager with the given knobs.
    pub fn new(cfg: ServiceConfig) -> Self {
        RunManager {
            cfg,
            tenants: BTreeMap::new(),
        }
    }

    /// Active run ids, in lexicographic order.
    pub fn runs(&self) -> impl Iterator<Item = &str> {
        self.tenants.keys().map(String::as_str)
    }

    /// Parses one wire line and handles it; malformed JSON becomes an
    /// unattributable [`ServiceResponse::Error`].
    pub fn handle_line(&mut self, line: &str, out: &mut Vec<ServiceResponse>) {
        match serde_json::from_str::<ServiceRequest>(line) {
            Ok(req) => self.handle(req, out),
            Err(e) => out.push(ServiceResponse::Error {
                run: String::new(),
                message: format!("malformed request: {e}"),
            }),
        }
    }

    /// Applies one request, appending every resulting response (event
    /// lines included) to `out` in emission order.
    pub fn handle(&mut self, req: ServiceRequest, out: &mut Vec<ServiceResponse>) {
        match req {
            ServiceRequest::Start {
                run,
                scenario,
                goal,
                shards: _,
                eager_decode: _,
                faults,
                trace,
            } => {
                let mut builder = Runner::builder(&scenario);
                if let Some(plan) = faults {
                    builder = builder.faults(plan);
                }
                self.open(run, Ok(builder), goal, trace, false, out)
            }
            ServiceRequest::Resume {
                run,
                snapshot,
                goal,
                trace,
            } => {
                // The wire snapshot bypassed `EngineSnapshot::from_json`,
                // so its tag is checked here.
                let builder = snapshot
                    .check_schema()
                    .map(|()| RunnerBuilder::from_snapshot(*snapshot));
                self.open(run, builder, goal, trace, true, out)
            }
            ServiceRequest::Observe { run, batch } => self.observe(run, batch, out),
            ServiceRequest::Pump { budget } => self.pump_all(budget, out),
            ServiceRequest::Snapshot { run, sim } => self.snapshot(run, sim, out),
            ServiceRequest::Finish { run, truth } => self.finish(run, truth, out),
            ServiceRequest::Stop { run } => self.stop(run, out),
        }
    }

    /// Flushes every tenant's sinks without removing anyone — the
    /// disconnect path: a feeder going away mid-run must leave complete
    /// trace files behind (runs stay resumable by a reconnecting feeder).
    pub fn flush_all(&mut self) {
        for tenant in self.tenants.values_mut() {
            tenant.runner.flush_sinks();
        }
    }

    /// Where a tenant's server-side trace `name` is written: a bare file
    /// name inside the trace directory. A feeder chooses the name, so a
    /// path (a separator, `..`) and any trace on a daemon with no trace
    /// directory are refused. A name whose file exists is refused when the
    /// tenant creates it (see [`open_trace`]).
    fn trace_path(&self, name: Option<&str>) -> Result<Option<PathBuf>, String> {
        let Some(name) = name else {
            return Ok(None);
        };
        let Some(dir) = &self.cfg.trace_dir else {
            return Err(format!(
                "trace {name:?}: this daemon writes no server-side traces (no --trace-dir)"
            ));
        };
        let mut parts = Path::new(name).components();
        let bare = matches!(
            (parts.next(), parts.next()),
            (Some(Component::Normal(_)), None)
        ) && !name.chars().any(std::path::is_separator);
        if !bare {
            return Err(format!("trace {name:?} is not a bare file name"));
        }
        Ok(Some(dir.join(name)))
    }

    /// Creates tenant `run` — the one path behind both Start and Resume
    /// (`resumed`), from a builder or the reason there is none.
    fn open(
        &mut self,
        run: String,
        builder: Result<RunnerBuilder, String>,
        goal: Option<Goal>,
        trace: Option<String>,
        resumed: bool,
        out: &mut Vec<ServiceResponse>,
    ) {
        if self.tenants.contains_key(&run) {
            out.push(ServiceResponse::Error {
                message: format!("run {run:?} already exists"),
                run,
            });
            return;
        }
        let verb = if resumed { "resume" } else { "start" };
        let builder = match builder {
            Ok(builder) => builder,
            Err(e) => {
                out.push(ServiceResponse::Error {
                    message: format!("{verb} failed: {e}"),
                    run,
                });
                return;
            }
        };
        // The trace name is checked before the tenant is built and its file
        // created only after, so a refused request touches no file.
        let trace_path = match self.trace_path(trace.as_deref()) {
            Ok(path) => path,
            Err(message) => {
                out.push(ServiceResponse::Error { message, run });
                return;
            }
        };
        // Construction is a trust boundary: a wire scenario or snapshot
        // that `try_build` refuses answers this request with an Error, and
        // the daemon serves every other tenant on.
        let events: SharedLines = Arc::default();
        let built = builder
            .external(true)
            .sink(Box::new(BufferSink(events.clone())))
            .try_build();
        let mut runner = match built {
            Ok(runner) => runner,
            Err(e) => {
                out.push(ServiceResponse::Error {
                    message: format!("{verb} failed: {e}"),
                    run,
                });
                return;
            }
        };
        if let (Some(path), Some(name)) = (trace_path, &trace) {
            match open_trace(&path, &events) {
                Ok(sink) => runner.add_sink(sink),
                Err(e) => {
                    let message = if e.kind() == ErrorKind::AlreadyExists {
                        format!("trace {name:?} already exists")
                    } else {
                        format!("trace {name:?}: {e}")
                    };
                    out.push(ServiceResponse::Error { message, run });
                    return;
                }
            }
        }
        let mut tenant = Tenant {
            runner,
            queue: VecDeque::new(),
            goal: goal.unwrap_or(Goal::Collection),
            done: false,
            events,
        };
        // A run resumed from a finished tenant's snapshot is finished too.
        tenant.done = tenant.finished();
        drain_events(&tenant.events, &run, out);
        out.push(if resumed {
            ServiceResponse::Resumed { run: run.clone() }
        } else {
            ServiceResponse::Started { run: run.clone() }
        });
        self.tenants.insert(run, tenant);
    }

    fn observe(&mut self, run: String, batch: ObservationBatch, out: &mut Vec<ServiceResponse>) {
        let capacity = self.cfg.queue_capacity;
        let budget = self.cfg.pump_budget;
        let Some(tenant) = self.tenants.get_mut(&run) else {
            out.push(unknown_run(run));
            return;
        };
        if tenant.done {
            // Acknowledged but ignored: the batch run's loop exited here.
            out.push(ServiceResponse::Accepted {
                run,
                queued: 0,
                done: true,
            });
            return;
        }
        if tenant.queue.len() >= capacity {
            out.push(ServiceResponse::Throttled {
                run,
                queued: tenant.queue.len(),
                capacity,
            });
            return;
        }
        // The wire trust boundary: every indexing contract the engine
        // would otherwise enforce by panicking is checked here, and a
        // malformed batch poisons only this request — the tenant (and
        // every other tenant) keeps serving.
        if let Err(e) = batch.validate(
            tenant.announced_with_queue(),
            tenant.runner.net().node_count(),
            tenant.runner.net().edge_count(),
        ) {
            out.push(ServiceResponse::Error {
                message: format!("malformed batch: {e}"),
                run,
            });
            return;
        }
        tenant.queue.push_back(batch);
        tenant.pump(budget);
        drain_events(&tenant.events, &run, out);
        out.push(ServiceResponse::Accepted {
            run,
            queued: tenant.queue.len(),
            done: tenant.done,
        });
    }

    fn pump_all(&mut self, budget: Option<u64>, out: &mut Vec<ServiceResponse>) {
        // The budget stays u64 end to end: `as usize` here would silently
        // truncate a feeder's budget on a 32-bit host.
        let budget = budget.unwrap_or(u64::MAX);
        let mut ingested = 0u64;
        for (run, tenant) in &mut self.tenants {
            ingested += tenant.pump(budget);
            drain_events(&tenant.events, run, out);
        }
        out.push(ServiceResponse::Pumped { ingested });
    }

    fn snapshot(&mut self, run: String, sim: Option<SimSnapshot>, out: &mut Vec<ServiceResponse>) {
        let Some(tenant) = self.tenants.get_mut(&run) else {
            out.push(unknown_run(run));
            return;
        };
        // A sim state the tenant's own Resume would refuse is refused
        // here, before anything changes.
        if let Some(sim) = sim {
            if let Err(e) = tenant.runner.provide_sim_state(sim) {
                out.push(ServiceResponse::Error {
                    message: format!("snapshot failed: {e}"),
                    run,
                });
                return;
            }
        }
        // Drain the queue before freezing: queued batches were answered
        // Accepted, so they are committed history — a snapshot taken
        // behind them would silently lose them across a restart + Resume
        // (the feeder was told they were in). The feeder's sim state is
        // the post-production state, so draining first is also what keeps
        // the frozen engine and the frozen simulator at the same step.
        tenant.pump(u64::MAX);
        drain_events(&tenant.events, &run, out);
        match tenant.runner.try_snapshot() {
            Ok(snapshot) => out.push(ServiceResponse::Snapshot {
                run,
                snapshot: Box::new(snapshot),
            }),
            Err(e) => out.push(ServiceResponse::Error {
                message: format!("snapshot failed: {e}"),
                run,
            }),
        }
    }

    fn finish(
        &mut self,
        run: String,
        truth: Option<TruthSnapshot>,
        out: &mut Vec<ServiceResponse>,
    ) {
        let Some(mut tenant) = self.tenants.remove(&run) else {
            out.push(unknown_run(run));
            return;
        };
        tenant.pump(u64::MAX);
        if let Some(truth) = truth {
            tenant.runner.provide_truth(truth);
        }
        tenant.runner.flush_sinks();
        let metrics = Box::new(tenant.runner.metrics_now());
        drain_events(&tenant.events, &run, out);
        out.push(ServiceResponse::Finished { run, metrics });
    }

    fn stop(&mut self, run: String, out: &mut Vec<ServiceResponse>) {
        let Some(tenant) = self.tenants.remove(&run) else {
            out.push(unknown_run(run));
            return;
        };
        // Dropping the tenant drops the runner, whose drop guard flushes
        // the sinks — the mid-run abort leaves no buffered tail behind.
        // The event buffer outlives the tenant (the Arc is cloned first)
        // so lines emitted *by* that flush are drained too, not silently
        // discarded.
        let events = tenant.events.clone();
        drop(tenant);
        drain_events(&events, &run, out);
        out.push(ServiceResponse::Stopped { run });
    }
}

/// Creates the trace file at `path` holding the event lines `captured` so
/// far (those a tenant's construction emitted), and returns the sink that
/// appends the rest: the same lines a [`JsonlSink`] would have written
/// from the start. A file that already exists — a live tenant's trace, a
/// finished or stopped tenant's, or any other — fails with
/// [`ErrorKind::AlreadyExists`] and keeps every byte.
fn open_trace(path: &Path, captured: &SharedLines) -> std::io::Result<Box<dyn EventSink + Send>> {
    let file = OpenOptions::new().write(true).create_new(true).open(path)?;
    let mut file = BufWriter::new(file);
    for line in captured.lock().expect("event buffer poisoned").iter() {
        writeln!(file, "{line}")?;
    }
    Ok(Box::new(JsonlSink::new(Box::new(file))))
}

/// Moves the tenant's captured event lines into the response stream, in
/// emission order.
fn drain_events(events: &SharedLines, run: &str, out: &mut Vec<ServiceResponse>) {
    let mut lines = events.lock().expect("event buffer poisoned");
    for line in lines.drain(..) {
        out.push(ServiceResponse::Event {
            run: run.to_string(),
            line,
        });
    }
}

fn unknown_run(run: String) -> ServiceResponse {
    ServiceResponse::Error {
        message: format!("unknown run {run:?}"),
        run,
    }
}
