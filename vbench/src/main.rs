//! `vbench` — the end-to-end benchmark of vcount.
//!
//! Four workloads, each in a fresh process, each checking every output:
//!
//! * `midtown_inproc` — counting runs to collection on the paper's midtown
//!   map, closed and open alternating (traffic-dominated);
//! * `relay_ring` — counting runs on a relay-only patrol ring (message
//!   plane-dominated);
//! * `vcountd_unix` — two feeders replaying midtown corpora to the
//!   `vcount serve` daemon over a Unix socket (request path-dominated);
//! * `vcountd_tcp` — the same over TCP loopback, with a snapshot, stop and
//!   resume every 50 observations.
//!
//! ```text
//! vbench [--seed S] [--seconds T] [--repeat N] [--trace 0|1] [--out FILE]
//!        [--smoke] [--vcount PATH]
//! vbench --workload NAME [--seed S] [--seconds T] [--trace 0|1] ...
//! ```
//!
//! Without `--workload`, every workload runs `--repeat` times (seed `S`,
//! `S+1`, ...) in a child process; each end-to-end metric is printed as
//! `workload metric value unit` with every repeat's value and the median
//! and quartiles, and the whole report is written as JSON. `--trace 1`
//! adds one traced pass per workload, half as long. With `--workload`,
//! that one workload runs in this process and the last line of standard
//! output is a JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `bash vbench/run.sh` builds everything and passes
//! `--vcount` (the daemon binary the service workloads start).

mod daemon;
mod inproc;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;
use trace::Trace;

/// The workloads, in run order.
const WORKLOADS: [&str; 4] = [
    "midtown_inproc",
    "relay_ring",
    "vcountd_unix",
    "vcountd_tcp",
];

/// The end-to-end metrics every untraced run reports: name and unit.
/// `BENCHMARK.json` lists the same names with their bounds.
const END_TO_END: [(&str, &str); 5] = [
    ("steps_per_s", "steps/s"),
    ("step_p50_ms", "ms"),
    ("step_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports: name and unit. A layer
/// that is not on a workload's path reads 0 there.
const PER_LAYER: [(&str, &str); 40] = [
    ("roadnet.build_ms", "ms"),
    ("engine.build_ms", "ms"),
    ("traffic.step_s", "s"),
    ("traffic.step_p99_us", "us"),
    ("source.next_batch_s", "s"),
    ("source.next_batch_p99_us", "us"),
    ("engine.ingest_s", "s"),
    ("engine.ingest_p99_us", "us"),
    ("engine.goal_check_s", "s"),
    ("engine.protocol_s", "s"),
    ("engine.relay_s", "s"),
    ("engine.events", "count"),
    ("v2x.encoded", "count"),
    ("v2x.decoded", "count"),
    ("v2x.skipped_decode", "count"),
    ("v2x.wire_bytes", "bytes"),
    ("v2x.relay_messages", "count"),
    ("core.replay_s", "s"),
    ("core.actions", "count"),
    ("service.parse_s", "s"),
    ("service.parse_p50_us", "us"),
    ("service.validate_s", "s"),
    ("service.handle_observe_p50_us", "us"),
    ("service.handle_observe_p99_us", "us"),
    ("service.serialize_s", "s"),
    ("service.request_bytes", "bytes/req"),
    ("service.response_bytes", "bytes/req"),
    ("service.event_lines", "lines/req"),
    ("service.handle_start_ms", "ms"),
    ("service.handle_snapshot_ms", "ms"),
    ("service.handle_stop_ms", "ms"),
    ("service.handle_resume_ms", "ms"),
    ("service.handle_finish_ms", "ms"),
    ("server.read_wait_s", "s"),
    ("server.lock_wait_s", "s"),
    ("server.write_s", "s"),
    ("transport.overhead_p50_ms", "ms"),
    ("client.busy_s", "s"),
    ("trace_overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Where runs leave sockets, daemon logs, span files and the report,
/// relative to the working directory.
const OUT_DIR: &str = "vbench_out";

/// Default measuring window of one run, seconds.
const DEFAULT_SECONDS: f64 = 25.0;

/// What one run is asked to do.
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measuring window, seconds.
    pub seconds: f64,
    /// Traced pass instead of the untraced one.
    pub trace: bool,
    /// Tiny inputs, fixed work instead of a window (tests, debug builds).
    pub smoke: bool,
    /// The `vcount` binary the service workloads start as the daemon.
    pub vcount: Option<PathBuf>,
    /// Where sockets, daemon logs and span files go.
    pub out_dir: PathBuf,
}

impl Config {
    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    fn transport(&self) -> Option<daemon::Transport> {
        match self.workload.as_str() {
            "vcountd_unix" => Some(daemon::Transport::Unix),
            "vcountd_tcp" => Some(daemon::Transport::Tcp),
            _ => None,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: counting runs, or requests sent.
    attempted: u64,
    /// Runs that missed the goal, or requests answered Error/Throttled.
    failed: u64,
    /// Wrong outputs (and anything that stopped the run early).
    problems: Vec<String>,
    metrics: Vec<Metric>,
    /// Step latencies behind the step percentiles.
    samples: u64,
    trace: Option<Trace>,
}

impl Outcome {
    /// Orders the metrics as `list` does, filling layers a workload does
    /// not exercise with 0.
    fn complete(&mut self, list: &[(&'static str, &'static str)]) {
        for m in &self.metrics {
            assert!(
                list.iter().any(|(n, u)| *n == m.name && *u == m.unit),
                "metric {} ({}) is not in the benchmark's list",
                m.name,
                m.unit
            );
        }
        self.metrics = list
            .iter()
            .map(|&(name, unit)| {
                self.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or(Metric::new(name, 0.0, unit))
            })
            .collect();
    }

    /// The result line: one JSON object.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Spreads `(seed, i)` into an independent RNG seed (splitmix64).
pub fn mix_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set (`VmHWM`) of a process (`None` = this one), MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Nearest-rank percentile of ascending nanosecond samples, in
/// milliseconds (0 for no samples).
pub fn percentile_ms(sorted_ns: &[f64], p: f64) -> f64 {
    stats::percentile(sorted_ns, p).unwrap_or(0.0) * 1e-6
}

/// Checks a finished run's verdict: the collected count equals ground
/// truth and no vehicle is mis- or double-counted.
pub fn check_exact(m: &vcount_sim::RunMetrics) -> Result<(), String> {
    if m.global_count != Some(m.true_population as i64) || m.oracle_violations != 0 {
        return Err(format!(
            "count {:?} against true population {} with {} oracle violations",
            m.global_count, m.true_population, m.oracle_violations
        ));
    }
    Ok(())
}

/// Restarts this process's peak resident set count (`VmHWM`) from the
/// current resident set, so the next reading is the peak of what ran in
/// between. Without that kernel interface the peak stays process-wide.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The trace's own metrics.
pub fn trace_metrics(trace: &Trace, overhead: f64) -> Vec<Metric> {
    vec![
        Metric::new("trace_overhead", overhead, "ratio"),
        Metric::new("trace.coverage", trace.coverage(), "ratio"),
    ]
}

/// Runs one workload in this process.
fn run_workload(cfg: &Config) -> Outcome {
    let mut out = match cfg.workload.as_str() {
        "midtown_inproc" => inproc::run(inproc::Kind::Midtown, cfg),
        "relay_ring" => inproc::run(inproc::Kind::Ring, cfg),
        "vcountd_unix" | "vcountd_tcp" => daemon::run(cfg),
        other => unreachable!("unknown workload {other}"),
    };
    if cfg.trace {
        out.complete(&PER_LAYER);
    } else {
        eprintln!(
            "vbench: {}: step percentiles over {} samples",
            cfg.workload, out.samples
        );
        if !stats::percentile_supported(out.samples as usize, 90.0) {
            eprintln!(
                "vbench: {}: only {} steps; step_p90_ms rests on fewer than 10 beyond it",
                cfg.workload, out.samples
            );
        }
        out.complete(&END_TO_END);
    }
    out
}

fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "nproc={nproc} profile={profile} deps=\"serde/serde_json/bytes are the offline stubs \
         under devtools/stubs\""
    )
}

/// Command-line arguments.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: Option<PathBuf>,
    smoke: bool,
    vcount: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        out: None,
        smoke: false,
        vcount: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value) {
                    return Err(format!(
                        "unknown workload `{value}` (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workload = Some(value.to_string());
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                a.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => {
                a.repeat = value.parse().map_err(|_| bad("an integer"))?;
                if a.repeat == 0 {
                    return Err(bad("at least 1"));
                }
            }
            "--out" => a.out = Some(PathBuf::from(value)),
            "--vcount" => a.vcount = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vbench: {e}");
            eprintln!(
                "usage: vbench [--workload NAME] [--seed S] [--seconds T] [--trace 0|1] \
                 [--repeat N] [--out FILE] [--smoke] [--vcount PATH]"
            );
            std::process::exit(2);
        }
    };
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!(
            "vbench: refusing to measure a debug build (build with --release, or pass --smoke)"
        );
        std::process::exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("vbench: {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    let code = match &args.workload {
        Some(w) => single(&args, w),
        None => orchestrate(&args),
    };
    std::process::exit(code);
}

/// Runs one workload here and prints its result line last.
fn single(args: &Args, workload: &str) -> i32 {
    let cfg = Config {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        vcount: args.vcount.clone(),
        out_dir: PathBuf::from(OUT_DIR),
    };
    eprintln!("vbench: {workload} seed={} {}", cfg.seed, host_facts());
    let out = run_workload(&cfg);
    if let Some(t) = &out.trace {
        eprintln!("{workload}: layer self-times (s, calls):");
        for (name, s, calls) in t.self_times() {
            eprintln!("  {name:<32} {s:>12.6} {calls:>10}");
        }
        let path = cfg
            .out_dir
            .join(format!("spans-{workload}-seed{}.jsonl", cfg.seed));
        match t.write_jsonl(&path) {
            Ok(()) => eprintln!("wrote {} spans to {}", t.span_count(), path.display()),
            Err(e) => eprintln!("vbench: {}: {e}", path.display()),
        }
    }
    for p in &out.problems {
        eprintln!("vbench: {workload}: {p}");
    }
    for m in &out.metrics {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.json());
    if out.problems.is_empty() {
        0
    } else {
        1
    }
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    values: Vec<f64>,
}

fn run_child(
    args: &Args,
    workload: &str,
    seed: u64,
    trace: bool,
    seconds: f64,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(v) = &args.vcount {
        cmd.arg("--vcount").arg(v);
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let v: serde_json::Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {}", output.status))?;
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let values = list
        .iter()
        .map(|(name, _)| {
            v["metrics"][*name]["value"]
                .as_f64()
                .ok_or_else(|| format!("{workload}: result lacks {name}"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildResult {
        correct: v["correct"].as_bool() == Some(true) && output.status.success(),
        attempted: v["attempted"].as_f64().unwrap_or(0.0),
        failed: v["failed"].as_f64().unwrap_or(0.0),
        values,
    })
}

fn json_list(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", v.join(", "))
}

/// Runs every workload `--repeat` times (and once traced with
/// `--trace 1`), prints the summary and writes the JSON report.
fn orchestrate(args: &Args) -> i32 {
    eprintln!("vbench: {}", host_facts());
    let mut ok = true;
    let mut sections = Vec::new();
    for workload in WORKLOADS {
        let mut runs: Vec<ChildResult> = Vec::new();
        for rep in 0..args.repeat {
            match run_child(args, workload, args.seed + rep as u64, false, args.seconds) {
                Ok(r) => runs.push(r),
                Err(e) => {
                    eprintln!("vbench: {e}");
                    ok = false;
                }
            }
        }
        ok &= runs.iter().all(|r| r.correct);
        let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
        let failed: f64 = runs.iter().map(|r| r.failed).sum();
        let failed_frac = failed / attempted.max(1.0);
        println!("{workload} failed_frac {failed_frac} ratio");
        let mut metrics = Vec::new();
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r.values[i]).collect();
            let med = stats::median(&values).unwrap_or(0.0);
            let [q1, _, q3] = stats::quartiles(&values).unwrap_or([0.0; 3]);
            println!(
                "{workload} {name} {med} {unit}  (q1 {q1} q3 {q3} spread {:.2}% values {})",
                100.0 * (q3 - q1) / med,
                json_list(&values)
            );
            metrics.push(format!(
                "\"{name}\": {{\"unit\": \"{unit}\", \"median\": {med}, \"q1\": {q1}, \
                 \"q3\": {q3}, \"values\": {}}}",
                json_list(&values)
            ));
        }
        let mut section = format!(
            "\"{workload}\": {{\"correct\": {}, \"failed_frac\": {failed_frac}, \
             \"end_to_end\": {{{}}}",
            runs.iter().all(|r| r.correct) && runs.len() == args.repeat,
            metrics.join(", ")
        );
        if args.trace {
            let seconds = args.seconds / 2.0;
            match run_child(args, workload, args.seed, true, seconds) {
                Ok(r) => {
                    ok &= r.correct;
                    let layers: Vec<String> = PER_LAYER
                        .iter()
                        .zip(&r.values)
                        .map(|((name, unit), v)| {
                            println!("{workload} {name} {v} {unit}");
                            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
                        })
                        .collect();
                    section.push_str(&format!(", \"per_layer\": {{{}}}", layers.join(", ")));
                }
                Err(e) => {
                    eprintln!("vbench: {e}");
                    ok = false;
                }
            }
        }
        section.push('}');
        sections.push(section);
    }
    let report = format!(
        "{{\"schema\": \"vbench/v1\", \"host\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"repeat\": {}, \"workloads\": {{{}}}}}\n",
        host_facts().replace('"', "'"),
        args.seed,
        args.seconds,
        args.repeat,
        sections.join(", ")
    );
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(OUT_DIR).join("report.json"));
    match std::fs::write(&path, report) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("vbench: {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        0
    } else {
        1
    }
}

/// The repository root (the directory above this package).
#[cfg(test)]
fn repo_root() -> &'static std::path::Path {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits inside the repository")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `key` in the repository's `BENCHMARK.json`.
    fn benchmark_names(key: &str) -> Vec<String> {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let v: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        (0..)
            .map_while(|i| v[key][i]["name"].as_str().map(str::to_string))
            .collect()
    }

    /// Builds the daemon binary the service workloads start.
    fn daemon_binary() -> PathBuf {
        let root = repo_root();
        let target = root.join("target");
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let status = Command::new(cargo)
            .current_dir(root)
            .args(["build", "--release", "--offline", "-q", "-p", "vcount-cli"])
            .args(["--bin", "vcount", "--target-dir"])
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the vcount daemon failed");
        target.join("release").join("vcount")
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(benchmark_names("end_to_end"), e2e);
        assert_eq!(benchmark_names("per_layer"), layers);
        assert_eq!(benchmark_names("workloads"), WORKLOADS);
    }

    #[test]
    fn smoke_runs_every_workload_without_failures() {
        let vcount = daemon_binary();
        let out_dir = std::env::temp_dir().join(format!("vbench-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&out_dir).expect("scratch directory");
        for workload in WORKLOADS {
            for trace in [false, true] {
                let cfg = Config {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                    vcount: Some(vcount.clone()),
                    out_dir: out_dir.clone(),
                };
                let out = run_workload(&cfg);
                assert!(
                    out.problems.is_empty(),
                    "{workload} (trace {trace}): {:?}",
                    out.problems
                );
                assert_eq!(out.failed, 0, "{workload} (trace {trace})");
                assert!(out.attempted > 0, "{workload} (trace {trace})");
                let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
                let key = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(benchmark_names(key), names, "{workload} (trace {trace})");
                let line: serde_json::Value =
                    serde_json::from_str(&out.json()).expect("the result line is JSON");
                assert_eq!(line["correct"].as_bool(), Some(true));
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let argv: Vec<String> = "--workload vcountd_tcp --seed 9 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).expect("valid arguments");
        assert_eq!(a.workload.as_deref(), Some("vcountd_tcp"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 20.0, true));
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seed".into()]).is_err());
    }
}
