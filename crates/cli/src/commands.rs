//! The `vcount` subcommands.

use crate::args::{Args, CliError};
use crate::{build_scenario, drive, SnapshotCfg};
use std::io::Write;
use vcount_obs::{EventFilter, EventSink, JsonlSink};
use vcount_roadnet::builders::{manhattan, ManhattanConfig};
use vcount_roadnet::travel_time_diameter;
use vcount_sim::service::DEFAULT_QUEUE_CAPACITY;
use vcount_sim::{
    replay_trace, serve_connections, serve_stream, sweep_with_faults, ActionTrace, Conn,
    EngineSnapshot, FaultPlan, Goal, Listener, ObservationBatch, ObservationSource, RunManager,
    Runner, RunnerBuilder, Scenario, ServiceConfig, ServiceRequest, ServiceResponse,
    SimulatorSource, SweepConfig, WireClient,
};

/// Top-level usage text.
pub const USAGE: &str = "\
vcount — infrastructure-less vehicle counting (ICPP 2014 reproduction)

USAGE:
  vcount scenario --preset closed|open|fig1 [--volume PCT] [--seeds K]
                  [--rng SEED] [--out FILE]
      Emit a ready-to-run scenario JSON (closed/open: midtown map, paper
      settings; fig1: the 3-intersection walkthrough of Fig. 1).

  vcount run SCENARIO.json [--goal constitution|collection] [--progress]
              [--trace FILE.jsonl] [--trace-filter KIND,KIND,...]
              [--snapshot-every N] [--snapshot-out FILE] [--faults PLAN.json]
      Run a scenario to convergence and print the metrics as JSON.
      --progress streams wave progress to stderr. --trace streams every
      protocol event as JSON lines; --trace-filter restricts it to the
      named event kinds (e.g. label_emitted,report_sent).
      --snapshot-every N freezes the full engine state to a JSON snapshot
      every N simulation steps (overwriting --snapshot-out, default
      vcount-snapshot.json); a resumed run replays the identical event
      stream the uninterrupted run would have produced.
      --faults injects a deterministic fault plan (checkpoint crashes,
      channel blackouts, message chaos — see DESIGN.md §7). A run that
      provably lost protocol information reports `degraded: true` and
      still exits 0; oracle violations without the degraded flag are an
      error, exactly as without faults.
      --record-actions PATH records the run's full protocol-input stream
      (every action each checkpoint processed, with channel outcomes and
      timestamps frozen in) as a schema-tagged JSON trace for
      `vcount replay`.

  vcount run --resume SNAPSHOT.json [--goal G] [--progress] [--trace ...]
      Resume a run frozen by --snapshot-every. The snapshot embeds its
      scenario and any fault plan, so neither argument is given.
      (--record-actions cannot resume: a trace must cover a whole run.)

  vcount replay TRACE.json
      Re-drive the pure protocol machines from an action trace recorded
      with `vcount run --record-actions` — no traffic simulator, channel,
      or RNG — and verify the dispatch stream and final per-checkpoint
      counts are byte-identical to the recording. Prints the replay
      report as JSON; exits nonzero on any divergence.

  vcount sweep [--volumes PCT,PCT,...] [--seed-counts K,K,...]
               [--replicates N] [--threads N] [--goal constitution|collection]
               [--map paper|small] [--open] [--rng SEED] [--out FILE]
               [--faults PLAN.json]
      Run the paper's evaluation grid (traffic volume x seed count) across
      worker threads (--threads 0 = all cores) and print the per-cell
      results as JSON. Defaults to the reduced CI grid on the small map;
      a cell whose worker panics is reported in its result's `failed`
      field without aborting the rest of the grid. --faults injects the
      same fault plan into every replicate; each cell reports how many
      replicates ended degraded.

  vcount serve [--socket PATH | --listen HOST:PORT] [--max-conns N]
               [--queue-capacity N] [--pump-budget N] [--trace-dir DIR]
      Run the vcountd multi-tenant service: newline-delimited JSON
      requests in, responses (protocol events included) out. Without a
      listener the service answers on stdin/stdout — `vcount serve <
      commands.jsonl` replays a recorded command stream. With --socket
      it listens on a Unix socket, with --listen on TCP (port 0 picks a
      free port; the bound address is printed to stderr) — both serve
      concurrent feeder connections, each on its own thread over the
      shared run manager. --max-conns N exits after N connections
      (connections already accepted finish first, and every tenant's
      sinks are flushed on the way out). A feeder disconnecting mid-run
      leaves every tenant's sinks flushed and the runs alive for a
      reconnect. A malformed request — unparseable JSON, a line over
      16 MiB, or a batch that violates the engine's indexing
      contracts — is answered with an Error response for that run
      only: it never kills the daemon or another tenant. --queue-capacity bounds each tenant's ingest
      queue (default 64); a batch arriving at a full queue gets an
      explicit Throttled response, never a silent drop.
      --pump-budget caps batches ingested per request (default: drain
      fully; 0 makes ingest manual via Pump requests). --trace-dir DIR is
      the only directory the daemon writes server-side traces in: a
      request's `trace` is a bare file name inside it whose file does
      not exist yet (no trace is ever truncated), and without
      --trace-dir every request naming a trace is refused.
      Transport is a deployment knob, never a semantics knob: a scenario
      driven through the service produces the byte-identical event
      stream and counts `vcount run` produces.

  vcount feed SCENARIO.json (--socket PATH | --connect HOST:PORT | --emit FILE)
              [--run ID] [--goal constitution|collection] [--faults PLAN.json]
              [--trace FILE.jsonl] [--server-trace NAME.jsonl]
      Drive a scenario through the service as a simulator-fed client:
      Start the run, push one observation batch per tick (resending
      after any Throttled backpressure), then Finish with ground truth
      and print the metrics JSON. --socket connects to a `vcount serve
      --socket` daemon, --connect to a `vcount serve --listen` TCP
      daemon; --emit instead serves an in-process manager and records
      the exact wire command stream to FILE for later `vcount serve <
      FILE` replay. --trace writes the returned protocol-event lines as
      JSONL, byte-identical to `vcount run --trace`; --server-trace asks
      the daemon to write the same trace on its side, as NAME inside its
      --trace-dir (flushed even if this feeder dies mid-run; not with
      --emit).

  vcount map [--preset paper|small] [--speed-mph MPH]
      Build the synthetic midtown map and print its statistics.

  vcount help
      Show this text.

Flags accept both `--key value` and `--key=value`.";

/// `vcount scenario`.
pub fn scenario(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["preset", "volume", "seeds", "rng", "out"])?;
    let preset = args.flag("preset").unwrap_or("closed");
    let volume = args.flag_or("volume", 60.0)?;
    let seeds = args.flag_or("seeds", 1usize)?;
    let rng = args.flag_or("rng", 1u64)?;
    let s = build_scenario(preset, volume, seeds, rng)?;
    let json = serde_json::to_string_pretty(&s).map_err(|e| e.to_string())?;
    match args.flag("out") {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| e.to_string())?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// `vcount run`.
pub fn run(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "goal",
        "progress",
        "trace",
        "trace-filter",
        "snapshot-every",
        "snapshot-out",
        "resume",
        "faults",
        "record-actions",
    ])?;
    let goal = parse_goal(args, Goal::Collection)?;
    let trace_path = args.flag("trace");
    let filter = match (trace_path, args.flag("trace-filter")) {
        (Some(_), Some(spec)) => EventFilter::parse(spec).map_err(CliError::Usage)?,
        (Some(_), None) => EventFilter::all(),
        (None, Some(_)) => return Err(CliError::usage("--trace-filter requires --trace")),
        (None, None) => EventFilter::all(),
    };
    let snapshot = match args.flag_parsed::<u64>("snapshot-every")? {
        Some(0) => return Err(CliError::usage("--snapshot-every must be at least 1")),
        Some(every) => Some(SnapshotCfg {
            every,
            out: args
                .flag("snapshot-out")
                .unwrap_or("vcount-snapshot.json")
                .to_string(),
        }),
        None => {
            if args.flag("snapshot-out").is_some() {
                return Err(CliError::usage("--snapshot-out requires --snapshot-every"));
            }
            None
        }
    };
    let mut sinks: Vec<Box<dyn EventSink + Send>> = Vec::new();
    if let Some(trace) = trace_path {
        let sink = JsonlSink::to_file(std::path::Path::new(trace), filter)
            .map_err(|e| format!("{trace}: {e}"))?;
        sinks.push(Box::new(sink));
    }
    let faults = load_fault_plan(args)?;
    let record_path = args.flag("record-actions");
    // `context` names what a build error is about.
    let (builder, context) = match args.flag("resume") {
        Some(snap_path) => {
            if args.positional(0).is_some() {
                return Err(CliError::usage(
                    "--resume takes no scenario argument (the snapshot embeds its scenario)",
                ));
            }
            if record_path.is_some() {
                return Err(CliError::usage(
                    "--record-actions cannot be combined with --resume (an action trace must \
                     cover a whole run)",
                ));
            }
            if faults.is_some() {
                return Err(CliError::usage(
                    "--faults cannot be combined with --resume (the snapshot embeds its fault plan)",
                ));
            }
            let text =
                std::fs::read_to_string(snap_path).map_err(|e| format!("{snap_path}: {e}"))?;
            let snap = EngineSnapshot::from_json(&text).map_err(|e| format!("{snap_path}: {e}"))?;
            (RunnerBuilder::from_snapshot(snap), snap_path)
        }
        None => {
            let path = args
                .positional(0)
                .ok_or_else(|| CliError::usage("missing SCENARIO.json argument"))?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let scenario: Scenario =
                serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
            let mut builder = Runner::builder(&scenario).record_actions(record_path.is_some());
            if let Some(plan) = faults {
                builder = builder.faults(plan);
            }
            (builder, path)
        }
    };
    let mut runner = sinks
        .into_iter()
        .fold(builder, RunnerBuilder::sink)
        .try_build()
        .map_err(|e| format!("{context}: {e}"))?;
    let metrics = drive(&mut runner, goal, args.switch("progress"), snapshot)?;
    if let Some(trace) = trace_path {
        eprintln!("wrote event trace to {trace}");
    }
    if let Some(path) = record_path {
        let trace = runner
            .take_action_trace()
            .expect("recording was enabled at build time");
        std::fs::write(path, trace.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "wrote action trace to {path} ({} actions, dispatch digest {:#018x})",
            trace.records.len(),
            trace.dispatch_digest
        );
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&metrics).map_err(|e| e.to_string())?
    );
    if metrics.degraded {
        eprintln!(
            "note: injected faults cost protocol information (degraded: true) — \
             the count is not guaranteed exact"
        );
    } else if metrics.oracle_violations > 0 {
        return Err(format!(
            "{} per-vehicle oracle violations — counting was not exact",
            metrics.oracle_violations
        )
        .into());
    }
    Ok(())
}

/// `vcount replay`.
pub fn replay(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[])?;
    let path = args
        .positional(0)
        .ok_or_else(|| CliError::usage("missing TRACE.json argument"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let trace = ActionTrace::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let report = replay_trace(&trace).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{}",
        serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
    );
    report.check().map_err(|e| {
        CliError::Failed(format!(
            "machine-only replay diverged from the recording: {e}"
        ))
    })
}

/// Removes the Unix socket file on every exit path — clean shutdown,
/// accept-loop failure, or an error unwinding out of `serve` — so a dead
/// daemon never leaves a stale socket behind.
struct SocketCleanup<'a>(&'a str);

impl Drop for SocketCleanup<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.0);
    }
}

/// `vcount serve`.
pub fn serve(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "socket",
        "listen",
        "max-conns",
        "queue-capacity",
        "pump-budget",
        "trace-dir",
    ])?;
    let cfg = ServiceConfig {
        queue_capacity: args.flag_or("queue-capacity", DEFAULT_QUEUE_CAPACITY)?,
        pump_budget: args.flag_or("pump-budget", u64::MAX)?,
        trace_dir: args.flag("trace-dir").map(std::path::PathBuf::from),
    };
    if let Some(dir) = cfg.trace_dir.as_ref().filter(|d| !d.is_dir()) {
        return Err(CliError::usage(format!(
            "--trace-dir {}: not a directory",
            dir.display()
        )));
    }
    if cfg.queue_capacity == 0 {
        return Err(CliError::usage("--queue-capacity must be at least 1"));
    }
    let max_conns = args.flag_parsed::<u64>("max-conns")?;
    if max_conns == Some(0) {
        return Err(CliError::usage("--max-conns must be at least 1"));
    }
    let mut mgr = RunManager::new(cfg);
    let listener = match (args.flag("socket"), args.flag("listen")) {
        (Some(_), Some(_)) => {
            return Err(CliError::usage(
                "--socket and --listen are mutually exclusive",
            ))
        }
        (None, None) => {
            if max_conns.is_some() {
                return Err(CliError::usage("--max-conns requires --socket or --listen"));
            }
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            return Ok(serve_stream(&mut mgr, stdin.lock(), stdout.lock())?);
        }
        (Some(path), None) => Listener::bind_unix(path)?,
        (None, Some(addr)) => Listener::bind_tcp(addr)?,
    };
    // Installed immediately after a successful bind: whatever ends the
    // accept loop — connection limit, persistent accept failure, a panic —
    // the socket file is removed (a no-op for TCP).
    let _cleanup = args.flag("socket").map(SocketCleanup);
    eprintln!("vcountd listening on {}", listener.local_addr());
    Ok(serve_connections(&listener, &mut mgr, max_conns)?)
}

/// The feeder's connection to a service: a dialed socket (Unix or TCP,
/// via [`WireClient`]), or an in-process manager that additionally
/// records the exact wire command stream for later `vcount serve < FILE`
/// replay.
enum FeedTransport {
    InProcess {
        mgr: RunManager,
        emit: std::io::BufWriter<std::fs::File>,
    },
    Wire(WireClient),
}

impl FeedTransport {
    fn in_process(emit_path: &str) -> Result<Self, String> {
        Ok(FeedTransport::InProcess {
            mgr: RunManager::new(ServiceConfig::default()),
            emit: std::io::BufWriter::new(
                std::fs::File::create(emit_path).map_err(|e| format!("{emit_path}: {e}"))?,
            ),
        })
    }

    fn socket(path: &str) -> Result<Self, String> {
        WireClient::new(Conn::connect_unix(path)?).map(FeedTransport::Wire)
    }

    fn tcp(addr: &str) -> Result<Self, String> {
        WireClient::new(Conn::connect_tcp(addr)?).map(FeedTransport::Wire)
    }

    /// Sends one request and collects its full answer: zero or more Event
    /// lines closed by exactly one terminal response (the wire framing
    /// contract).
    fn call(&mut self, req: &ServiceRequest) -> Result<Vec<ServiceResponse>, String> {
        match self {
            FeedTransport::InProcess { mgr, emit } => {
                // Record the exact wire line, then hand that same line to
                // the manager through the parse path `vcount serve` uses —
                // the emitted file replays byte-identically.
                let json = serde_json::to_string(req).map_err(|e| e.to_string())?;
                writeln!(emit, "{json}").map_err(|e| format!("emit: {e}"))?;
                let mut out = Vec::new();
                mgr.handle_line(&json, &mut out);
                Ok(out)
            }
            FeedTransport::Wire(client) => client.call(req),
        }
    }

    /// Flushes the recorded command stream (in-process mode), disconnects
    /// otherwise.
    fn close(self) -> Result<(), String> {
        match self {
            FeedTransport::InProcess { mut emit, .. } => {
                emit.flush().map_err(|e| format!("emit: {e}"))
            }
            FeedTransport::Wire(_) => Ok(()),
        }
    }
}

/// Sifts one request's responses: Event lines go to the trace file,
/// Errors abort, and the single terminal response is returned.
fn sift_responses(
    responses: Vec<ServiceResponse>,
    trace: &mut Option<std::io::BufWriter<std::fs::File>>,
) -> Result<ServiceResponse, String> {
    let mut terminal = None;
    for resp in responses {
        match resp {
            ServiceResponse::Event { line, .. } => {
                if let Some(t) = trace {
                    writeln!(t, "{line}").map_err(|e| format!("trace: {e}"))?;
                }
            }
            ServiceResponse::Error { run, message } => {
                return Err(format!("service error for run {run:?}: {message}"));
            }
            other => terminal = Some(other),
        }
    }
    terminal.ok_or_else(|| "service sent no terminal response".into())
}

/// `vcount feed`.
pub fn feed(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "run",
        "goal",
        "faults",
        "emit",
        "socket",
        "connect",
        "trace",
        "server-trace",
    ])?;
    // Destination flags are validated before any filesystem access so a
    // bad invocation is reported as such, not as a missing file.
    enum Dest<'a> {
        Emit(&'a str),
        Socket(&'a str),
        Tcp(&'a str),
    }
    let dest = match (args.flag("emit"), args.flag("socket"), args.flag("connect")) {
        (Some(emit), None, None) => Dest::Emit(emit),
        (None, Some(sock), None) => Dest::Socket(sock),
        (None, None, Some(addr)) => Dest::Tcp(addr),
        (None, None, None) => {
            return Err(CliError::usage(
                "feed needs a destination: --socket PATH, --connect HOST:PORT, or --emit FILE",
            ))
        }
        _ => {
            return Err(CliError::usage(
                "--emit, --socket, and --connect are mutually exclusive",
            ))
        }
    };
    if matches!(dest, Dest::Emit(_)) && args.flag("server-trace").is_some() {
        return Err(CliError::usage(
            "--server-trace needs a daemon (--socket or --connect), not --emit",
        ));
    }
    let path = args
        .positional(0)
        .ok_or_else(|| CliError::usage("missing SCENARIO.json argument"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let scenario: Scenario = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    scenario.validate().map_err(|e| format!("{path}: {e}"))?;
    let run = args.flag("run").unwrap_or("run-1").to_string();
    let goal = parse_goal(args, Goal::Collection)?;
    let faults = load_fault_plan(args)?;
    let mut client = match dest {
        Dest::Emit(emit) => FeedTransport::in_process(emit)?,
        Dest::Socket(sock) => FeedTransport::socket(sock)?,
        Dest::Tcp(addr) => FeedTransport::tcp(addr)?,
    };
    let mut trace = match args.flag("trace") {
        Some(p) => Some(std::io::BufWriter::new(
            std::fs::File::create(p).map_err(|e| format!("{p}: {e}"))?,
        )),
        None => None,
    };

    // The feeder owns the traffic substrate; the service owns the engine.
    let mut source = SimulatorSource::from_scenario(&scenario, 1);
    let start = ServiceRequest::Start {
        run: run.clone(),
        scenario: Box::new(scenario),
        goal: Some(goal),
        shards: 0,
        eager_decode: false,
        faults,
        trace: args.flag("server-trace").map(String::from),
    };
    match sift_responses(client.call(&start)?, &mut trace)? {
        ServiceResponse::Started { .. } => {}
        other => return Err(format!("service answered Start with {other:?}").into()),
    }

    let mut batch = ObservationBatch::default();
    let mut done = false;
    while !done && source.next_batch(&mut batch) {
        loop {
            let responses = client.call(&ServiceRequest::Observe {
                run: run.clone(),
                batch: batch.clone(),
            })?;
            match sift_responses(responses, &mut trace)? {
                ServiceResponse::Accepted { done: d, .. } => {
                    done = d;
                    break;
                }
                // Explicit backpressure: ask the service to drain, then
                // resend the same batch — it was not enqueued.
                ServiceResponse::Throttled { .. } => {
                    sift_responses(
                        client.call(&ServiceRequest::Pump { budget: None })?,
                        &mut trace,
                    )?;
                }
                other => return Err(format!("service answered Observe with {other:?}").into()),
            }
        }
    }

    let truth = source.truth();
    let responses = client.call(&ServiceRequest::Finish { run, truth })?;
    let metrics = match sift_responses(responses, &mut trace)? {
        ServiceResponse::Finished { metrics, .. } => metrics,
        other => return Err(format!("service answered Finish with {other:?}").into()),
    };
    client.close()?;
    if let Some(mut t) = trace {
        t.flush().map_err(|e| format!("trace: {e}"))?;
    }
    if let Some(p) = args.flag("trace") {
        eprintln!("wrote event trace to {p}");
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&metrics).map_err(|e| e.to_string())?
    );
    if metrics.degraded {
        eprintln!(
            "note: injected faults cost protocol information (degraded: true) — \
             the count is not guaranteed exact"
        );
    } else if metrics.oracle_violations > 0 {
        return Err(format!(
            "{} per-vehicle oracle violations — counting was not exact",
            metrics.oracle_violations
        )
        .into());
    }
    Ok(())
}

/// Parses `--goal constitution|collection`, or `default` when absent.
fn parse_goal(args: &Args, default: Goal) -> Result<Goal, CliError> {
    match args.flag("goal") {
        None => Ok(default),
        Some("constitution") => Ok(Goal::Constitution),
        Some("collection") => Ok(Goal::Collection),
        Some(other) => Err(CliError::usage(format!("unknown goal `{other}`"))),
    }
}

/// Reads and parses `--faults PLAN.json`, if given. Structural validation
/// against the scenario happens in [`vcount_sim::RunnerBuilder::try_build`].
fn load_fault_plan(args: &Args) -> Result<Option<FaultPlan>, String> {
    match args.flag("faults") {
        None => Ok(None),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            FaultPlan::from_json(&text)
                .map(Some)
                .map_err(|e| format!("{path}: {e}"))
        }
    }
}

/// `vcount sweep`.
pub fn sweep(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "volumes",
        "seed-counts",
        "replicates",
        "threads",
        "goal",
        "map",
        "open",
        "rng",
        "out",
        "faults",
    ])?;
    let quick = SweepConfig::quick();
    let cfg = SweepConfig {
        volumes: match args.flag("volumes") {
            Some(spec) => parse_list(spec, "volumes")?,
            None => quick.volumes,
        },
        seed_counts: match args.flag("seed-counts") {
            Some(spec) => parse_list(spec, "seed-counts")?,
            None => quick.seed_counts,
        },
        replicates: args.flag_or("replicates", quick.replicates)?,
        threads: args.flag_or("threads", 0usize)?,
    };
    if cfg.volumes.is_empty() || cfg.seed_counts.is_empty() {
        return Err(CliError::usage("sweep grid is empty"));
    }
    let goal = parse_goal(args, Goal::Constitution)?;
    let map = match args.flag("map").unwrap_or("small") {
        "paper" => ManhattanConfig::default(),
        "small" => ManhattanConfig::small(),
        other => return Err(CliError::usage(format!("unknown map preset `{other}`"))),
    };
    let open = args.switch("open");
    let rng = args.flag_or("rng", 1u64)?;
    let faults = load_fault_plan(args)?;

    let cells = cfg.volumes.len() * cfg.seed_counts.len();
    eprintln!(
        "sweeping {cells} cells x {} replicates on {} threads...",
        cfg.replicates,
        if cfg.threads == 0 {
            "all".to_string()
        } else {
            cfg.threads.to_string()
        }
    );
    let results = sweep_with_faults(&cfg, goal, faults, |cell, rep| {
        let seed = rng
            .wrapping_mul(1_000_003)
            .wrapping_add(rep.wrapping_mul(7919))
            .wrapping_add((cell.volume_pct as u64) << 16)
            .wrapping_add(cell.seeds as u64);
        if open {
            Scenario::paper_open(map.clone(), cell.volume_pct, cell.seeds, seed)
        } else {
            Scenario::paper_closed(map.clone(), cell.volume_pct, cell.seeds, seed)
        }
    });

    for r in &results {
        let mut status = match &r.failed {
            Some(msg) => format!("FAILED: {msg}"),
            None => match r.constitution_min {
                Some(s) => format!("constitution mean {:.1} min", s.mean),
                None => "unconverged".to_string(),
            },
        };
        if r.degraded > 0 {
            status.push_str(&format!(" ({} degraded)", r.degraded));
        }
        eprintln!(
            "  volume {:>5.1}% seeds {:>2}: {status}",
            r.cell.volume_pct, r.cell.seeds
        );
    }
    let failed = results.iter().filter(|r| r.failed.is_some()).count();
    let json = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    match args.flag("out") {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| e.to_string())?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    if failed > 0 {
        return Err(format!("{failed} sweep cell(s) failed").into());
    }
    Ok(())
}

/// Parses a comma-separated numeric list.
fn parse_list<T: std::str::FromStr>(spec: &str, what: &str) -> Result<Vec<T>, CliError> {
    spec.split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| CliError::usage(format!("bad {what} entry `{s}`")))
        })
        .collect()
}

/// `vcount map`.
pub fn map(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["preset", "speed-mph"])?;
    let base = match args.flag("preset").unwrap_or("paper") {
        "paper" => ManhattanConfig::default(),
        "small" => ManhattanConfig::small(),
        other => return Err(CliError::usage(format!("unknown map preset `{other}`"))),
    };
    let cfg = ManhattanConfig {
        speed_mph: args.flag_or("speed-mph", base.speed_mph)?,
        ..base
    };
    let net = manhattan(&cfg);
    let bounds = net.bounds().expect("non-empty map");
    println!("synthetic midtown map");
    println!("  intersections:       {}", net.node_count());
    println!("  directed segments:   {}", net.edge_count());
    println!(
        "  one-way share:       {:.0}%",
        net.one_way_fraction() * 100.0
    );
    println!(
        "  extent:              {:.0} m x {:.0} m",
        bounds.width(),
        bounds.height()
    );
    println!("  border checkpoints:  {}", net.border_nodes().len());
    println!(
        "  travel-time diameter: {:.1} min at {} mph",
        travel_time_diameter(&net, 37) / 60.0,
        cfg.speed_mph
    );
    Ok(())
}
