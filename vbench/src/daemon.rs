//! The service workloads: two feeders replay pre-generated midtown
//! corpora to `vcountd` in a closed loop, one connection each.
//!
//! * `vcountd_unix` — the real `vcount serve` daemon on a Unix socket.
//!   Observe-only traffic, so request parse, validation, ingest and
//!   response serialization dominate.
//! * `vcountd_tcp` — the same daemon on TCP loopback, and every 50
//!   Observes a restart: `Snapshot` (carrying the feeder's traffic state),
//!   `Stop`, `Resume` (carrying the snapshot the daemon returned). The
//!   ~1 MB snapshot writes sit beside the small reads.
//!
//! A corpus is `Start`, every `Observe` until the goal, then `Finish` with
//! the truth; feeders repeat it (tenant turnover). Every line is
//! serialized before timing starts, and an in-process `RunManager` fed the
//! same lines provides the reference: the event-line digest after each
//! request, the hash of each `Snapshot` response, and which `Observe`
//! reaches the goal.
//!
//! The untraced pass always talks to the real daemon, a separate process.
//! The traced pass serves the same feeders from a loop in this process
//! that mirrors the daemon's `server::pump_requests` statement for
//! statement — one lock per request, one unbuffered write per response
//! line and a flush per request — with a span around each layer call.

use crate::inproc::{traffic_pass, Telemetry};
use crate::stats::{median, Fnv};
use crate::trace::{SpanLog, Trace};
use crate::{mix_seed, Config, Metric, Outcome};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use vcount_sim::{
    Conn, Goal, ObservationBatch, ObservationSource, RunManager, RunTelemetry, Runner, Scenario,
    ServiceConfig, ServiceRequest, ServiceResponse, SimulatorSource,
};

/// Which socket the daemon listens on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// A Unix domain socket.
    Unix,
    /// TCP on loopback.
    Tcp,
}

/// Observes between two restarts on the TCP workload.
const RESTART_EVERY: u64 = 50;
/// Start/Stop pairs each feeder sends before timing; their `Start` round
/// trips are the set-up time samples.
const SETUP_STARTS: usize = 3;
/// Smoke-mode requests per TCP feeder, set-up included: past the first
/// restart. A full pass would take minutes there, at one delayed ACK
/// (~40 ms) per request.
const SMOKE_TCP_REQUESTS: u64 = 2 * SETUP_STARTS as u64 + RESTART_EVERY + 10;
/// How long the daemon may take to bind, and to exit once its feeders
/// hang up.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(30);

const EVENT_PREFIX: &[u8] = b"{\"Event\"";
const SNAPSHOT_PREFIX: &[u8] = b"{\"Snapshot\"";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Start,
    Observe,
    Snapshot,
    Stop,
    Resume,
    Finish,
}

/// One pre-serialized request with the reference's answer to it.
struct Request {
    /// The JSON line, newline included.
    line: Vec<u8>,
    kind: Kind,
    /// FNV of every Event line since the cycle's `Start`, after this
    /// request.
    digest_after: u64,
    /// FNV of the reference's `Snapshot` response line (Snapshot only).
    snapshot_hash: u64,
    /// Observe: whether the reference answered `done`.
    done: bool,
}

/// One tenant's replayable request stream.
struct Corpus {
    run: String,
    scenario: Scenario,
    requests: Vec<Request>,
    stop_line: Vec<u8>,
    nodes: usize,
    edges: usize,
    observes: u64,
    telemetry: RunTelemetry,
}

fn line_of(req: &ServiceRequest) -> Vec<u8> {
    let mut line = serde_json::to_vec(req).expect("requests serialize");
    line.push(b'\n');
    line
}

fn strip_newline(buf: &[u8]) -> &[u8] {
    buf.strip_suffix(b"\n").unwrap_or(buf)
}

/// The two tenants: the paper's closed and open midtown systems.
fn tenant_scenarios(cfg: &Config) -> [(String, Scenario); 2] {
    let map = crate::inproc::midtown_map(cfg.smoke);
    [
        (
            "closed".to_string(),
            Scenario::paper_closed(map.clone(), 60.0, 2, mix_seed(cfg.seed, 0)),
        ),
        (
            "open".to_string(),
            Scenario::paper_open(map, 60.0, 2, mix_seed(cfg.seed, 1)),
        ),
    ]
}

/// Serializes a tenant's corpus and answers it through an in-process
/// `RunManager` — the reference every daemon answer is compared with.
fn build_corpus(
    run: String,
    scenario: Scenario,
    restart_every: u64,
    log: &mut SpanLog,
) -> Result<Corpus, String> {
    let frame = log.open("bench.generate", 0);
    let corpus = generate(run, scenario, restart_every, log);
    log.close(frame);
    corpus
}

fn generate(
    run: String,
    scenario: Scenario,
    restart_every: u64,
    log: &mut SpanLog,
) -> Result<Corpus, String> {
    let net = log.time("roadnet.build", 0, || scenario.map.build(scenario.closed));
    if log.is_enabled() {
        // The daemon builds this inside `Start`; timed alone here.
        log.time("engine.build", 0, || {
            Runner::builder(&scenario).external(true).build();
        });
    }
    let mut mgr = RunManager::new(ServiceConfig::default());
    let mut digest = Fnv::new();
    let mut requests = Vec::new();
    let mut out = Vec::new();
    // Sends one request to the reference; returns its terminal response
    // and that response's line.
    let mut push = |req: ServiceRequest,
                    kind: Kind,
                    log: &mut SpanLog,
                    requests: &mut Vec<Request>|
     -> Result<(ServiceResponse, String), String> {
        let line = log.time("client.encode", 0, || line_of(&req));
        let text = std::str::from_utf8(strip_newline(&line)).expect("JSON is UTF-8");
        out.clear();
        let mut terminal = None;
        log.time("service.reference", 0, || {
            mgr.handle_line(text, &mut out);
            for resp in out.drain(..) {
                let json = serde_json::to_string(&resp).expect("responses serialize");
                match resp {
                    ServiceResponse::Event { .. } => digest.update(json.as_bytes()),
                    other => terminal = Some((other, json)),
                }
            }
        });
        let (resp, json) = terminal.ok_or("reference sent no terminal response")?;
        if let ServiceResponse::Error { message, .. } = &resp {
            return Err(format!("reference refused a {kind:?} request: {message}"));
        }
        requests.push(Request {
            line,
            kind,
            digest_after: digest.value(),
            snapshot_hash: if kind == Kind::Snapshot {
                Fnv::of(json.as_bytes())
            } else {
                0
            },
            done: matches!(resp, ServiceResponse::Accepted { done: true, .. }),
        });
        Ok((resp, json))
    };

    push(
        start_request(&run, &scenario),
        Kind::Start,
        log,
        &mut requests,
    )?;
    let mut source = SimulatorSource::from_scenario(&scenario, 1);
    let mut batch = ObservationBatch::default();
    let mut observes = 0u64;
    loop {
        log.time("source.next_batch", 0, || source.next_batch(&mut batch));
        let req = ServiceRequest::Observe {
            run: run.clone(),
            batch: batch.clone(),
        };
        observes += 1;
        let (resp, _) = push(req, Kind::Observe, log, &mut requests)?;
        if matches!(resp, ServiceResponse::Accepted { done: true, .. }) {
            break;
        }
        if batch.now >= scenario.max_time_s {
            return Err(format!("reference run {run} missed the goal"));
        }
        if restart_every > 0 && observes.is_multiple_of(restart_every) {
            let req = ServiceRequest::Snapshot {
                run: run.clone(),
                sim: source.sim_state(),
            };
            let (resp, _) = push(req, Kind::Snapshot, log, &mut requests)?;
            let ServiceResponse::Snapshot { snapshot, .. } = resp else {
                return Err(format!("reference answered Snapshot with {resp:?}"));
            };
            push(
                ServiceRequest::Stop { run: run.clone() },
                Kind::Stop,
                log,
                &mut requests,
            )?;
            let req = ServiceRequest::Resume {
                run: run.clone(),
                snapshot,
                goal: Some(Goal::Collection),
                trace: None,
            };
            push(req, Kind::Resume, log, &mut requests)?;
        }
    }
    let req = ServiceRequest::Finish {
        run: run.clone(),
        truth: source.truth(),
    };
    let (resp, _) = push(req, Kind::Finish, log, &mut requests)?;
    let ServiceResponse::Finished { metrics, .. } = resp else {
        return Err(format!("reference answered Finish with {resp:?}"));
    };
    check_finished(&metrics).map_err(|e| format!("reference run {run}: {e}"))?;
    Ok(Corpus {
        stop_line: line_of(&ServiceRequest::Stop { run: run.clone() }),
        run,
        scenario,
        requests,
        nodes: net.node_count(),
        edges: net.edge_count(),
        observes,
        telemetry: metrics.telemetry,
    })
}

fn start_request(run: &str, scenario: &Scenario) -> ServiceRequest {
    ServiceRequest::Start {
        run: run.to_string(),
        scenario: Box::new(scenario.clone()),
        goal: Some(Goal::Collection),
        shards: 0,
        eager_decode: false,
        faults: None,
        trace: None,
    }
}

fn check_finished(m: &vcount_sim::RunMetrics) -> Result<(), String> {
    if m.collection_done_s.is_none() {
        return Err("finished without reaching collection".into());
    }
    crate::check_exact(m)
}

/// Generates both tenants' corpora, one thread each.
fn build_corpora(cfg: &Config, epoch: Instant) -> Result<(Vec<Corpus>, Trace), String> {
    let restart_every = match cfg.transport() {
        Some(Transport::Tcp) => RESTART_EVERY,
        _ => 0,
    };
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = tenant_scenarios(cfg)
            .into_iter()
            .enumerate()
            .map(|(i, (run, scn))| {
                s.spawn(move || {
                    let mut log = if cfg.trace {
                        SpanLog::new(epoch, 10 + i as u32)
                    } else {
                        SpanLog::disabled()
                    };
                    let corpus = build_corpus(run, scn, restart_every, &mut log);
                    if let Ok(c) = &corpus {
                        if cfg.trace {
                            traffic_pass(&mut log, &c.scenario, c.observes, i as u64);
                        }
                    }
                    (corpus, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("corpus generation panicked"))
            .collect()
    });
    let mut trace = Trace::default();
    let mut corpora = Vec::new();
    for (corpus, log) in results {
        trace.absorb(log);
        corpora.push(corpus?);
    }
    Ok((corpora, trace))
}

/// One pass over a feeder's corpus: `Start` to `Finished`, or as far as
/// the window allowed.
#[derive(Default)]
struct Pass {
    observes: u64,
    elapsed: Duration,
    /// Observe round trips, ns.
    observe_ns: Vec<f64>,
}

impl Pass {
    fn rate(&self) -> f64 {
        self.observes as f64 / self.elapsed.as_secs_f64()
    }
}

/// What one feeder measured.
#[derive(Default)]
struct Feed {
    requests: u64,
    failed: u64,
    /// Completed passes over the corpus.
    cycles: u64,
    /// The fastest completed pass — or the partial one when the window
    /// closed before the first pass completed.
    best: Pass,
    /// `Start` round trips, ns: the set-up phase's and every pass's.
    start_ns: Vec<f64>,
    /// (request id, client round trip ns), traced pass only.
    round_trips: Vec<(u64, u64)>,
    problems: Vec<String>,
}

/// When a feeder stops.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Limit {
    /// When the measuring window closes.
    Window(Duration),
    /// After one full pass over the corpus.
    OnePass,
    /// After this many requests, set-up included.
    Requests(u64),
}

/// How a request ended, from the feeder's side.
enum Answer {
    Ok,
    /// Refused (`Error`/`Throttled`): a failed operation.
    Failed(String),
    /// A wrong output.
    Wrong(String),
}

/// One feeder's connection: whole-line writes, line reads, and the
/// framing contract (Event lines, then one terminal line).
struct Feeder<'a> {
    id: u64,
    reader: BufReader<Conn>,
    writer: Conn,
    corpus: &'a Corpus,
    digest: Fnv,
    seq: u64,
    buf: Vec<u8>,
}

impl<'a> Feeder<'a> {
    fn new(id: u64, conn: Conn, corpus: &'a Corpus) -> Result<Self, String> {
        if let Conn::Tcp(s) = &conn {
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        }
        let reader =
            BufReader::with_capacity(1 << 16, conn.try_clone().map_err(|e| e.to_string())?);
        Ok(Feeder {
            id,
            reader,
            writer: conn,
            corpus,
            digest: Fnv::new(),
            seq: 0,
            buf: Vec::new(),
        })
    }

    /// Sends one line and reads its answer; returns the round trip and
    /// leaves the terminal line in `self.buf`.
    fn call(&mut self, line: &[u8], log: &mut SpanLog) -> Result<Duration, String> {
        let req = self.id << 32 | self.seq;
        self.seq += 1;
        let t0 = Instant::now();
        let w = log.open("client.write", req);
        let sent = self.writer.write_all(line);
        log.close(w);
        sent.map_err(|e| format!("send: {e}"))?;
        loop {
            self.buf.clear();
            let r = log.open("client.wait", req);
            let read = self.reader.read_until(b'\n', &mut self.buf);
            log.close(r);
            let n = read.map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("the service closed the connection".into());
            }
            if !self.buf.starts_with(EVENT_PREFIX) {
                return Ok(t0.elapsed());
            }
            let p = log.open("client.process", req);
            self.digest.update(strip_newline(&self.buf));
            log.close(p);
        }
    }

    /// Judges the terminal line in `self.buf` against the reference.
    fn judge(&self, kind: Kind, expect: Option<&Request>) -> Answer {
        let line = strip_newline(&self.buf);
        if kind == Kind::Snapshot && line.starts_with(SNAPSHOT_PREFIX) {
            let expect = expect.expect("snapshots are only sent from the corpus");
            if Fnv::of(line) != expect.snapshot_hash {
                return Answer::Wrong("snapshot differs from the reference snapshot".into());
            }
            return Answer::Ok;
        }
        let resp: ServiceResponse = match serde_json::from_slice(line) {
            Ok(r) => r,
            Err(e) => return Answer::Wrong(format!("unparseable response: {e}")),
        };
        match (kind, resp) {
            (_, ServiceResponse::Error { message, .. }) => Answer::Failed(message),
            (_, ServiceResponse::Throttled { .. }) => Answer::Failed("throttled".into()),
            (Kind::Start, ServiceResponse::Started { .. })
            | (Kind::Stop, ServiceResponse::Stopped { .. })
            | (Kind::Resume, ServiceResponse::Resumed { .. }) => Answer::Ok,
            (Kind::Observe, ServiceResponse::Accepted { done, .. }) => {
                if Some(done) == expect.map(|r| r.done) {
                    Answer::Ok
                } else {
                    Answer::Wrong(format!(
                        "Observe answered done={done} against the reference"
                    ))
                }
            }
            (Kind::Finish, ServiceResponse::Finished { metrics, .. }) => {
                match check_finished(&metrics) {
                    Ok(()) => Answer::Ok,
                    Err(e) => Answer::Wrong(e),
                }
            }
            (kind, other) => Answer::Wrong(format!("{kind:?} answered with {other:?}")),
        }
    }

    /// Set-up samples, then the closed loop over the corpus until `limit`
    /// is reached. Every pass repeats identical requests, so the fastest
    /// completed pass stands for the feeder.
    fn run(&mut self, limit: Limit, barrier: &Barrier, log: &mut SpanLog) -> Feed {
        let mut feed = Feed::default();
        let corpus = self.corpus;
        for _ in 0..SETUP_STARTS {
            for (line, kind) in [
                (&corpus.requests[0].line, Kind::Start),
                (&corpus.stop_line, Kind::Stop),
            ] {
                let frame = log.open("bench.client_request", self.id << 32 | self.seq);
                let rtt = self.call(line, log);
                log.close(frame);
                feed.requests += 1;
                match rtt.map(|rtt| (rtt, self.judge(kind, None))) {
                    Ok((rtt, Answer::Ok)) => {
                        if kind == Kind::Start {
                            feed.start_ns.push(rtt.as_nanos() as f64);
                        }
                    }
                    Ok((_, Answer::Failed(e))) => {
                        feed.failed += 1;
                        feed.problems
                            .push(format!("{}: set-up {kind:?} refused: {e}", corpus.run));
                    }
                    Ok((_, Answer::Wrong(e))) | Err(e) => {
                        feed.problems
                            .push(format!("{}: set-up {kind:?}: {e}", corpus.run));
                    }
                }
            }
        }
        barrier.wait();
        if !feed.problems.is_empty() {
            return feed;
        }
        self.digest = Fnv::new();
        let t0 = Instant::now();
        let mut pass = Pass::default();
        let mut pass_t0 = t0;
        let mut k = 0usize;
        loop {
            let over = match limit {
                Limit::Window(w) => t0.elapsed() >= w,
                Limit::OnePass => false,
                Limit::Requests(n) => feed.requests >= n,
            };
            if over {
                break;
            }
            let req = &corpus.requests[k];
            let id = self.id << 32 | self.seq;
            let frame = log.open("bench.client_request", id);
            let result = self.call(&req.line, log).map(|rtt| {
                let p = log.open("client.process", id);
                let answer = self.judge(req.kind, Some(req));
                log.close(p);
                (rtt, answer)
            });
            log.close(frame);
            feed.requests += 1;
            let rtt = match result {
                Ok((rtt, Answer::Ok)) => rtt,
                Ok((_, Answer::Failed(e))) => {
                    feed.failed += 1;
                    feed.problems
                        .push(format!("{}: request {k} refused: {e}", corpus.run));
                    break;
                }
                Ok((_, Answer::Wrong(e))) | Err(e) => {
                    feed.problems
                        .push(format!("{}: request {k}: {e}", corpus.run));
                    break;
                }
            };
            if log.is_enabled() {
                feed.round_trips.push((id, rtt.as_nanos() as u64));
            }
            if self.digest.value() != req.digest_after {
                feed.problems.push(format!(
                    "{}: event stream diverges from the reference at request {k}",
                    corpus.run
                ));
                break;
            }
            match req.kind {
                Kind::Observe => {
                    pass.observes += 1;
                    pass.observe_ns.push(rtt.as_nanos() as f64);
                }
                Kind::Start => feed.start_ns.push(rtt.as_nanos() as f64),
                _ => {}
            }
            k = (k + 1) % corpus.requests.len();
            if k == 0 {
                // A pass ended with its Finish; the next starts afresh.
                let now = Instant::now();
                pass.elapsed = now - pass_t0;
                if feed.cycles == 0 || pass.rate() > feed.best.rate() {
                    feed.best = std::mem::take(&mut pass);
                } else {
                    pass = Pass::default();
                }
                feed.cycles += 1;
                pass_t0 = now;
                self.digest = Fnv::new();
                if limit == Limit::OnePass {
                    break;
                }
            }
        }
        if feed.cycles == 0 {
            pass.elapsed = pass_t0.elapsed();
            feed.best = pass;
        }
        feed
    }
}

/// A running `vcount serve` process, killed if dropped while running.
struct Daemon {
    child: Child,
    log_path: PathBuf,
}

impl Daemon {
    /// Starts the daemon and waits for its `vcountd listening on` line;
    /// returns it with the address to dial.
    fn spawn(
        vcount: &Path,
        transport: Transport,
        out_dir: &Path,
    ) -> Result<(Daemon, String), String> {
        let pid = std::process::id();
        let log_path = out_dir.join(format!("vcountd-{pid}.log"));
        let stderr = std::fs::File::create(&log_path).map_err(|e| format!("{log_path:?}: {e}"))?;
        let mut cmd = Command::new(vcount);
        cmd.arg("serve");
        match transport {
            Transport::Unix => {
                let sock = out_dir.join(format!("vcountd-{pid}.sock"));
                cmd.arg("--socket").arg(sock);
            }
            Transport::Tcp => {
                cmd.args(["--listen", "127.0.0.1:0"]);
            }
        }
        cmd.args(["--max-conns", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", vcount.display()))?;
        let mut daemon = Daemon { child, log_path };
        let t0 = Instant::now();
        loop {
            let text = std::fs::read_to_string(&daemon.log_path).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.strip_prefix("vcountd listening on "))
            {
                return Ok((daemon, addr.trim().to_string()));
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("vcount serve exited with {status}: {text}"));
            }
            if t0.elapsed() > DAEMON_TIMEOUT {
                return Err("vcount serve did not start listening".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Peak resident set of the daemon (VmHWM), MB.
    fn peak_rss_mb(&self) -> Option<f64> {
        crate::peak_rss_mb(Some(self.child.id()))
    }

    /// Waits for the daemon to exit on its own (it serves two
    /// connections, then stops) and checks that it exited cleanly.
    fn finish(mut self) -> Result<(), String> {
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    let _ = std::fs::remove_file(&self.log_path);
                    return Ok(());
                }
                Ok(Some(status)) => {
                    let text = std::fs::read_to_string(&self.log_path).unwrap_or_default();
                    return Err(format!("vcount serve exited with {status}: {text}"));
                }
                Ok(None) if t0.elapsed() < DAEMON_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("vcount serve did not exit after its feeders left".into()),
                Err(e) => return Err(format!("waiting for vcount serve: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn dial(transport: Transport, addr: &str) -> Result<Conn, String> {
    match transport {
        Transport::Unix => Conn::connect_unix(addr),
        Transport::Tcp => Conn::connect_tcp(addr),
    }
}

/// Both feeders' results plus what the host of the system saw.
#[derive(Default)]
struct Session {
    feeds: Vec<Feed>,
    rss_mb: Option<f64>,
    problems: Vec<String>,
    server: Vec<ServerStats>,
    logs: Vec<SpanLog>,
}

impl Session {
    /// Observes per second: each feeder's fastest pass, summed.
    fn steps_per_s(&self) -> f64 {
        self.feeds.iter().map(|f| f.best.rate()).sum()
    }

    /// Observe round trips of each feeder's fastest pass, ascending.
    fn observe_ns(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .feeds
            .iter()
            .flat_map(|f| f.best.observe_ns.iter().copied())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median `Start` round trip over both feeders, seconds.
    fn setup_s(&self) -> f64 {
        let starts: Vec<f64> = self
            .feeds
            .iter()
            .flat_map(|f| f.start_ns.iter().copied())
            .collect();
        median(&starts).unwrap_or(0.0) * 1e-9
    }
}

/// Runs both feeders against already-dialed connections; `epoch` times
/// their spans on the traced pass.
fn drive(
    conns: Vec<Conn>,
    corpora: &[Corpus],
    cfg: &Config,
    window: Duration,
    epoch: Option<Instant>,
) -> Result<Vec<(Feed, SpanLog, Conn)>, String> {
    let limit = match (cfg.smoke, cfg.transport()) {
        (false, _) => Limit::Window(window),
        (true, Some(Transport::Tcp)) => Limit::Requests(SMOKE_TCP_REQUESTS),
        (true, _) => Limit::OnePass,
    };
    let barrier = Barrier::new(conns.len());
    let mut feeders = Vec::new();
    for (i, (conn, corpus)) in conns.into_iter().zip(corpora).enumerate() {
        feeders.push(Feeder::new(i as u64, conn, corpus)?);
    }
    Ok(std::thread::scope(|s| {
        let handles: Vec<_> = feeders
            .into_iter()
            .map(|mut f| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut log = match epoch {
                        Some(epoch) => SpanLog::new(epoch, f.id as u32),
                        None => SpanLog::disabled(),
                    };
                    let feed = f.run(limit, barrier, &mut log);
                    (feed, log, f.writer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("feeder panicked"))
            .collect()
    }))
}

/// The untraced pass: the real daemon as a separate process.
fn against_daemon(cfg: &Config, corpora: &[Corpus], window: Duration) -> Result<Session, String> {
    let transport = cfg.transport().expect("a service workload");
    let vcount = cfg
        .vcount
        .as_deref()
        .ok_or("the service workloads need the daemon binary: pass --vcount PATH")?;
    let (daemon, addr) = Daemon::spawn(vcount, transport, &cfg.out_dir)?;
    let conns = vec![dial(transport, &addr)?, dial(transport, &addr)?];
    let fed = drive(conns, corpora, cfg, window, None)?;
    // Read the peak before hanging up: the daemon exits once both
    // connections close.
    let rss_mb = daemon.peak_rss_mb();
    let feeds = fed.into_iter().map(|(feed, _, _hung_up)| feed).collect();
    let mut session = Session {
        feeds,
        rss_mb,
        ..Session::default()
    };
    if let Err(e) = daemon.finish() {
        session.problems.push(e);
    }
    Ok(session)
}

/// Server-side measurements of one bench-served connection.
#[derive(Default)]
struct ServerStats {
    /// (request id, read-to-flush ns).
    times: Vec<(u64, u64)>,
    request_bytes: u64,
    response_bytes: u64,
    event_lines: u64,
    problems: Vec<String>,
}

/// Serves one connection exactly as the daemon's `pump_requests` does,
/// with a span around each step.
fn serve_traced(
    conn_id: u64,
    stream: Conn,
    mgr: &Mutex<RunManager>,
    corpus: &Corpus,
    log: &mut SpanLog,
) -> ServerStats {
    let mut stats = ServerStats::default();
    let reader = match stream.try_clone() {
        Ok(r) => BufReader::new(r),
        Err(e) => {
            stats.problems.push(format!("socket: {e}"));
            return stats;
        }
    };
    let mut writer = stream;
    let mut out = Vec::new();
    let mut announced = 0usize;
    let mut lines = reader.lines();
    let mut seq = 0u64;
    loop {
        let req_id = conn_id << 32 | seq;
        let frame = log.open("bench.server_request", req_id);
        let wait = log.open("server.read_wait", req_id);
        let next = lines.next();
        log.close(wait);
        let line = match next {
            None => {
                log.close(frame);
                break;
            }
            Some(Ok(line)) => line,
            Some(Err(e)) => {
                log.close(frame);
                stats.problems.push(format!("read: {e}"));
                break;
            }
        };
        let t_req = Instant::now();
        if line.trim().is_empty() {
            log.close(frame);
            continue;
        }
        seq += 1;
        stats.request_bytes += line.len() as u64 + 1;
        out.clear();
        let lock = log.open("server.lock_wait", req_id);
        let mut guard = mgr.lock().expect("run manager poisoned");
        log.close(lock);
        let parsed = log.time("service.parse", req_id, || {
            serde_json::from_str::<ServiceRequest>(&line)
        });
        match parsed {
            Ok(req) => {
                let handle = match &req {
                    ServiceRequest::Start { .. } => {
                        announced = 0;
                        "service.handle_start"
                    }
                    ServiceRequest::Resume { snapshot, .. } => {
                        announced = snapshot.sim.vehicles.len();
                        "service.handle_resume"
                    }
                    ServiceRequest::Observe { batch, .. } => {
                        let valid = log.time("service.validate", req_id, || {
                            batch.validate(announced, corpus.nodes, corpus.edges)
                        });
                        if let Err(e) = valid {
                            stats.problems.push(format!("invalid batch: {e}"));
                        }
                        announced += batch.new_classes.len();
                        "service.handle_observe"
                    }
                    ServiceRequest::Pump { .. } => "service.handle_pump",
                    ServiceRequest::Snapshot { .. } => "service.handle_snapshot",
                    ServiceRequest::Finish { .. } => "service.handle_finish",
                    ServiceRequest::Stop { .. } => "service.handle_stop",
                };
                log.time(handle, req_id, || guard.handle(req, &mut out));
            }
            Err(e) => out.push(ServiceResponse::Error {
                run: String::new(),
                message: format!("malformed request: {e}"),
            }),
        }
        drop(guard);
        for resp in &out {
            let json = log.time("service.serialize", req_id, || {
                serde_json::to_string(resp).expect("responses serialize")
            });
            if matches!(resp, ServiceResponse::Event { .. }) {
                stats.event_lines += 1;
            }
            stats.response_bytes += json.len() as u64 + 1;
            let w = log.time("server.write", req_id, || writeln!(writer, "{json}"));
            if let Err(e) = w {
                stats.problems.push(format!("write: {e}"));
            }
        }
        if let Err(e) = log.time("server.write", req_id, || writer.flush()) {
            stats.problems.push(format!("write: {e}"));
        }
        stats
            .times
            .push((req_id, t_req.elapsed().as_nanos() as u64));
        log.close(frame);
    }
    mgr.lock().expect("run manager poisoned").flush_all();
    stats
}

/// A bound bench-side listener.
enum BenchListener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl BenchListener {
    fn bind(transport: Transport, out_dir: &Path) -> Result<Self, String> {
        match transport {
            Transport::Unix => {
                let path = out_dir.join(format!("vbench-{}.sock", std::process::id()));
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path).map_err(|e| format!("{path:?}: {e}"))?;
                Ok(BenchListener::Unix(l, path))
            }
            Transport::Tcp => TcpListener::bind("127.0.0.1:0")
                .map(BenchListener::Tcp)
                .map_err(|e| format!("bind: {e}")),
        }
    }

    /// Dials the listener and accepts the connection: (client, server).
    fn pair(&self) -> Result<(Conn, Conn), String> {
        match self {
            BenchListener::Unix(l, path) => {
                let c = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
                let (s, _) = l.accept().map_err(|e| format!("accept: {e}"))?;
                Ok((Conn::Unix(c), Conn::Unix(s)))
            }
            BenchListener::Tcp(l) => {
                let addr = l.local_addr().map_err(|e| e.to_string())?;
                let c = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                let (s, _) = l.accept().map_err(|e| format!("accept: {e}"))?;
                Ok((Conn::Tcp(c), Conn::Tcp(s)))
            }
        }
    }
}

impl Drop for BenchListener {
    fn drop(&mut self) {
        if let BenchListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The traced pass: the same feeders against the bench-side server loop.
fn against_bench_server(
    cfg: &Config,
    corpora: &[Corpus],
    window: Duration,
    epoch: Instant,
) -> Result<Session, String> {
    let transport = cfg.transport().expect("a service workload");
    let listener = BenchListener::bind(transport, &cfg.out_dir)?;
    let mut clients = Vec::new();
    let mut servers = Vec::new();
    for _ in corpora {
        let (c, s) = listener.pair()?;
        clients.push(c);
        servers.push(s);
    }
    let mgr = Mutex::new(RunManager::new(ServiceConfig::default()));
    let (feeds, mut logs, server) = std::thread::scope(|s| {
        let handles: Vec<_> = servers
            .into_iter()
            .zip(corpora)
            .enumerate()
            .map(|(i, (stream, corpus))| {
                let mgr = &mgr;
                s.spawn(move || {
                    let mut log = SpanLog::new(epoch, 20 + i as u32);
                    let stats = serve_traced(i as u64, stream, mgr, corpus, &mut log);
                    (stats, log)
                })
            })
            .collect();
        // The feeders hang up when `drive` returns, which ends the
        // server loops.
        let driven = drive(clients, corpora, cfg, window, Some(epoch)).map(|fed| {
            fed.into_iter()
                .map(|(feed, log, _hung_up)| (feed, log))
                .unzip::<_, _, Vec<_>, Vec<_>>()
        });
        let served: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("server loop panicked"))
            .collect();
        driven.map(|(feeds, logs)| (feeds, logs, served))
    })?;
    let mut session = Session {
        feeds,
        ..Session::default()
    };
    for (stats, log) in server {
        logs.push(log);
        session.server.push(stats);
    }
    session.logs = logs;
    Ok(session)
}

/// Adds a session's operations and problems to the outcome.
fn absorb(out: &mut Outcome, s: &Session) {
    for f in &s.feeds {
        out.attempted += f.requests;
        out.failed += f.failed;
        out.problems.extend(f.problems.iter().cloned());
    }
    for st in &s.server {
        out.problems.extend(st.problems.iter().cloned());
    }
    out.problems.extend(s.problems.iter().cloned());
}

/// Runs one service workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let (corpora, gen_trace) = match build_corpora(cfg, epoch) {
        Ok(c) => c,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    let window = if cfg.trace {
        cfg.window() / 2
    } else {
        cfg.window()
    };
    let session = match against_daemon(cfg, &corpora, window) {
        Ok(s) => s,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    absorb(&mut out, &session);
    if !cfg.trace {
        let lat = session.observe_ns();
        out.samples = lat.len() as u64;
        out.metrics = vec![
            Metric::new("steps_per_s", session.steps_per_s(), "steps/s"),
            Metric::new("step_p50_ms", crate::percentile_ms(&lat, 50.0), "ms"),
            Metric::new("step_p90_ms", crate::percentile_ms(&lat, 90.0), "ms"),
            Metric::new("setup_s", session.setup_s(), "s"),
            Metric::new("peak_rss_mb", session.rss_mb.unwrap_or(0.0), "MB"),
        ];
        return out;
    }

    let traced = match against_bench_server(cfg, &corpora, window, epoch) {
        Ok(s) => s,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    absorb(&mut out, &traced);
    let overhead = session.steps_per_s() / traced.steps_per_s() - 1.0;
    let mut trace = gen_trace;
    let Session {
        feeds,
        server,
        logs,
        ..
    } = traced;
    for log in logs {
        trace.absorb(log);
    }
    out.metrics = layer_metrics(&trace, &corpora, &feeds, &server, overhead);
    out.trace = Some(trace);
    out
}

/// The per-layer metrics of a traced service pass.
fn layer_metrics(
    trace: &Trace,
    corpora: &[Corpus],
    feeds: &[Feed],
    server: &[ServerStats],
    overhead: f64,
) -> Vec<Metric> {
    // Transport overhead: client round trip minus server time, per request.
    let server_ns: std::collections::HashMap<u64, u64> = server
        .iter()
        .flat_map(|s| s.times.iter().copied())
        .collect();
    let mut overhead_ns: Vec<f64> = feeds
        .iter()
        .flat_map(|f| f.round_trips.iter())
        .filter_map(|(id, rtt)| server_ns.get(id).map(|s| rtt.saturating_sub(*s) as f64))
        .collect();
    overhead_ns.sort_by(f64::total_cmp);
    let mut tel = Telemetry::default();
    for c in corpora {
        tel.add(&c.telemetry);
    }
    let requests: u64 = server.iter().map(|s| s.times.len() as u64).sum();
    let per_request = |f: fn(&ServerStats) -> u64| {
        server.iter().map(f).sum::<u64>() as f64 / requests.max(1) as f64
    };
    vec![
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
        Metric::new("service.parse_s", trace.self_s("service.parse"), "s"),
        Metric::new(
            "service.parse_p50_us",
            trace.percentile_us("service.parse", 50.0),
            "us",
        ),
        Metric::new("service.validate_s", trace.self_s("service.validate"), "s"),
        Metric::new(
            "service.handle_observe_p50_us",
            trace.percentile_us("service.handle_observe", 50.0),
            "us",
        ),
        Metric::new(
            "service.handle_observe_p99_us",
            trace.percentile_us("service.handle_observe", 99.0),
            "us",
        ),
        Metric::new(
            "service.serialize_s",
            trace.self_s("service.serialize"),
            "s",
        ),
        Metric::new(
            "service.request_bytes",
            per_request(|s| s.request_bytes),
            "bytes/req",
        ),
        Metric::new(
            "service.response_bytes",
            per_request(|s| s.response_bytes),
            "bytes/req",
        ),
        Metric::new(
            "service.event_lines",
            per_request(|s| s.event_lines),
            "lines/req",
        ),
        Metric::new(
            "service.handle_start_ms",
            trace.median_ms("service.handle_start"),
            "ms",
        ),
        Metric::new(
            "service.handle_snapshot_ms",
            trace.median_ms("service.handle_snapshot"),
            "ms",
        ),
        Metric::new(
            "service.handle_stop_ms",
            trace.median_ms("service.handle_stop"),
            "ms",
        ),
        Metric::new(
            "service.handle_resume_ms",
            trace.median_ms("service.handle_resume"),
            "ms",
        ),
        Metric::new(
            "service.handle_finish_ms",
            trace.median_ms("service.handle_finish"),
            "ms",
        ),
        Metric::new("server.read_wait_s", trace.self_s("server.read_wait"), "s"),
        Metric::new("server.lock_wait_s", trace.self_s("server.lock_wait"), "s"),
        Metric::new("server.write_s", trace.self_s("server.write"), "s"),
        Metric::new(
            "transport.overhead_p50_ms",
            crate::percentile_ms(&overhead_ns, 50.0),
            "ms",
        ),
        Metric::new(
            "client.busy_s",
            trace.self_s("client.write") + trace.self_s("client.process"),
            "s",
        ),
    ]
    .into_iter()
    .chain(tel.metrics())
    .chain(crate::trace_metrics(trace, overhead))
    .collect()
}
