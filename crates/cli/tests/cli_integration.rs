//! Drive the `vcount` binary end to end through its public interface.

use std::process::Command;
use vcount_roadnet::builders::ManhattanConfig;
use vcount_sim::{MapSpec, Scenario, SeedSpec};
use vcount_v2x::ChannelKind;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vcount"))
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("vcount scenario"));
    assert!(text.contains("vcount run"));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(1), "CLI errors exit with code 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown subcommand `frobnicate`"),
        "got: {err}"
    );
    assert!(err.contains("USAGE"));
    assert!(err.contains("vcount serve"), "usage lists service mode");
}

#[test]
fn missing_subcommand_fails_with_usage() {
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(1), "CLI errors exit with code 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("missing subcommand"), "got: {err}");
    assert!(err.contains("USAGE"));
    assert!(
        out.stdout.is_empty(),
        "usage goes to stderr on error, not stdout"
    );
}

#[test]
fn map_stats_report_the_paper_map() {
    let out = bin().args(["map", "--preset", "paper"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("intersections:       444"), "got: {text}");
    assert!(text.contains("border checkpoints"));
}

#[test]
fn scenario_then_run_round_trips() {
    let dir = std::env::temp_dir().join(format!("vcount-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scenario.json");
    let out = bin()
        .args([
            "scenario",
            "--preset",
            "closed",
            "--volume",
            "80",
            "--seeds",
            "3",
            "--rng",
            "5",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["run", path.to_str().unwrap(), "--goal", "constitution"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("run prints metrics JSON");
    assert_eq!(metrics["oracle_violations"], 0);
    assert_eq!(metrics["global_count"], metrics["true_population"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_rejects_missing_file() {
    let out = bin()
        .args(["run", "/nonexistent/nope.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// An error about a file's contents is reported by its `error:` line
/// alone; the usage text follows only errors in the command line itself.
#[test]
fn file_content_errors_print_only_their_error_line() {
    let dir = std::env::temp_dir().join(format!("vcount-cli-content-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.json");
    std::fs::write(&path, r#"{"map": {"Grid": "#).unwrap();
    let out = bin().arg("run").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = err.lines().collect();
    assert_eq!(lines.len(), 1, "one error line, no usage: {err}");
    assert!(
        lines[0].starts_with(&format!("error: {}: ", path.display())),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A grid of `cols` × 3 intersections with `lanes` lanes per direction.
fn grid(cols: usize, lanes: u8, speed_mps: f64) -> MapSpec {
    MapSpec::Grid {
        cols,
        rows: 3,
        spacing_m: 100.0,
        lanes,
        speed_mps,
    }
}

/// Runs `vcount <cmd> <path> <extra…>` and asserts it refuses the file
/// the way validation does: exit 1 within 1 s, `error: <path>: <want>`,
/// no panic.
fn assert_refused(cmd: &str, path: &std::path::Path, extra: &[&str], want: &str) {
    use std::io::Read;
    use std::time::{Duration, Instant};
    let mut child = bin()
        .arg(cmd)
        .arg(path)
        .args(extra)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(1);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{}: still running after 1 s", path.display());
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut err = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut err)
        .unwrap();
    assert_eq!(status.code(), Some(1), "{}: {err}", path.display());
    assert!(
        err.contains(&format!("error: {}: {want}", path.display())),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(err.lines().count(), 1, "one error line, no usage: {err}");
}

/// A scenario file that would break engine or simulator assembly — an
/// invalid map or map size, an explicit seed outside the map, an invalid
/// traffic config, demand or time budget, a patrol fleet past its cap, a
/// channel probability outside [0, 1] — is refused by validation: exit 1
/// with an `error:` line, never a panic or a hang.
#[test]
fn run_refuses_an_invalid_scenario() {
    let dir = std::env::temp_dir().join(format!("vcount-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("fig1.json");
    let out = bin()
        .args(["scenario", "--preset=fig1", "--rng=5", "--out"])
        .arg(&good)
        .output()
        .unwrap();
    assert!(out.status.success());
    let scenario: Scenario =
        serde_json::from_str(&std::fs::read_to_string(&good).unwrap()).unwrap();
    type Poison = (&'static str, fn(&mut Scenario), &'static str);
    let cases: [Poison; 16] = [
        (
            "bad_map",
            |s| s.map = grid(3, 1, 0.0),
            "scenario map is invalid: edge e0 has non-positive length or speed",
        ),
        (
            "bad_seed",
            |s| {
                s.map = grid(3, 1, 10.0);
                s.seeds = SeedSpec::Explicit(vec![9999]);
            },
            "scenario seed 9999 is not a node of the 9-node map",
        ),
        (
            "dup_seed",
            |s| s.seeds = SeedSpec::Explicit(vec![0, 0]),
            "scenario seed 0 is listed twice",
        ),
        (
            "bad_sim",
            |s| s.sim.dt_s = 0.0,
            "invalid simulator config: dt_s must be in [0.01, 10.0], got 0.0",
        ),
        // These five hung (steps without end, a population without
        // bound) or panicked with `capacity overflow` before their limits.
        (
            "dt_1e300",
            |s| s.sim.dt_s = 1e300,
            "invalid simulator config: dt_s must be in [0.01, 10.0], got 1e300",
        ),
        (
            "dt_1e-300",
            |s| s.sim.dt_s = 1e-300,
            "invalid simulator config: dt_s must be in [0.01, 10.0], got 1e-300",
        ),
        (
            "volume_1e300",
            |s| s.demand.volume_pct = 1e300,
            "invalid demand: volume_pct must be in [0.0, 500.0], got 1e300",
        ),
        (
            "patrol_2e62",
            |s| s.patrol.cars = 1 << 62,
            "scenario patrol needs cars <= 1000, got 4611686018427387904",
        ),
        (
            "max_time_1e300",
            |s| {
                s.demand.volume_pct = 0.0;
                s.max_time_s = 1e300;
            },
            "scenario max_time_s must be in (0, 50000.0] (100000 steps of dt_s 0.5), got 1e300",
        ),
        (
            "bernoulli_1.5",
            |s| s.channel = ChannelKind::Bernoulli(1.5),
            "channel Bernoulli(1.5): probability 1.5 is outside [0, 1]",
        ),
        (
            "burst_p_bad_2",
            |s| {
                s.channel = ChannelKind::Burst {
                    p_good: 0.05,
                    p_bad: 2.0,
                    p_g2b: 0.1,
                    p_b2g: 0.2,
                }
            },
            "channel Burst { p_good: 0.05, p_bad: 2.0, p_g2b: 0.1, p_b2g: 0.2 }: \
             probability 2 is outside [0, 1]",
        ),
        (
            "grid_0_cols",
            |s| s.map = grid(0, 1, 10.0),
            "scenario map needs cols >= 1, got 0",
        ),
        (
            "grid_0_lanes",
            |s| s.map = grid(3, 0, 10.0),
            "scenario map needs lanes >= 1, got 0",
        ),
        (
            "grid_over_cap",
            |s| s.map = grid(16_667, 2, 10.0),
            "scenario map has 100002 node-lanes, more than its cap of 100000",
        ),
        (
            "ring_1_node",
            |s| {
                s.map = MapSpec::DirectedRing {
                    nodes: 1,
                    spacing_m: 100.0,
                    speed_mps: 10.0,
                }
            },
            "scenario map needs nodes >= 2, got 1",
        ),
        (
            "midtown_1_avenue",
            |s| {
                s.map = MapSpec::Manhattan(ManhattanConfig {
                    avenues: 1,
                    ..ManhattanConfig::small()
                })
            },
            "scenario map needs avenues >= 2, got 1",
        ),
    ];
    for (name, poison, want) in cases {
        let mut bad = scenario.clone();
        poison(&mut bad);
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, serde_json::to_string(&bad).unwrap()).unwrap();
        assert_refused("run", &path, &[], want);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `vcount feed` checks its scenario before it builds a simulator from
/// it: a zero-speed grid is an `error:` line, not a panic.
#[test]
fn feed_refuses_an_invalid_scenario() {
    let dir = std::env::temp_dir().join(format!("vcount-cli-bad-feed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut scenario = Scenario::fig1_walkthrough(5);
    scenario.map = grid(3, 1, 0.0);
    let path = dir.join("zero_speed.json");
    std::fs::write(&path, serde_json::to_string(&scenario).unwrap()).unwrap();
    let emit = dir.join("cmds.jsonl");
    assert_refused(
        "feed",
        &path,
        &["--emit", emit.to_str().unwrap()],
        "scenario map is invalid: edge e0 has non-positive length or speed",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flag_is_rejected() {
    // A typo, and the retired knobs: sharding, forced eager decode and
    // `serve --once` (`--max-conns 1`) no longer exist.
    for (args, flag) in [
        (&["map", "--preset", "paper", "--porgress"][..], "porgress"),
        (&["run", "x.json", "--shards", "2"][..], "shards"),
        (&["run", "x.json", "--eager-decode"][..], "eager-decode"),
        (&["serve", "--once"][..], "once"),
    ] {
        let out = bin().args(args).output().unwrap();
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag `--{flag}`")),
            "got: {err}"
        );
        assert!(
            err.contains("USAGE"),
            "an argument error shows usage: {err}"
        );
    }
}

#[test]
fn record_actions_cannot_resume() {
    let out = bin()
        .args(["run", "--resume", "snap.json", "--record-actions", "t.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    let first = err.lines().next().unwrap_or_default();
    assert_eq!(
        first,
        "error: --record-actions cannot be combined with --resume \
         (an action trace must cover a whole run)"
    );
}

/// `run`, `feed` and `sweep` share one `--goal` parser: each refuses an
/// unknown goal with the same message, before doing any work.
#[test]
fn unknown_goal_is_rejected_by_every_command() {
    let dir = std::env::temp_dir().join(format!("vcount-cli-goal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (scen, emit) = (dir.join("scenario.json"), dir.join("cmds.jsonl"));
    let (scen, emit) = (scen.to_str().unwrap(), emit.to_str().unwrap());
    let out = bin()
        .args(["scenario", "--preset", "closed", "--out", scen])
        .output()
        .unwrap();
    assert!(out.status.success());
    for args in [
        &["run", scen, "--goal", "bogus"][..],
        &["feed", scen, "--emit", emit, "--goal", "bogus"][..],
        &["sweep", scen, "--goal", "bogus"][..],
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown goal `bogus`"), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_filter_without_trace_is_rejected() {
    let out = bin()
        .args(["run", "x.json", "--trace-filter=label_emitted"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--trace-filter requires --trace"),
        "got: {err}"
    );
}

/// The service contract, end to end through the binary: a simulator-fed
/// client driven through the service (in-process manager recording the
/// wire commands, then a real `vcount serve` stdin replay of those same
/// bytes) produces the byte-identical event trace `vcount run` produces.
#[test]
fn feed_then_serve_replay_match_batch_run() {
    let dir = std::env::temp_dir().join(format!("vcount-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = dir.join("fig1.json");
    let run_trace = dir.join("run.jsonl");
    let feed_trace = dir.join("feed.jsonl");
    let cmds = dir.join("cmds.jsonl");

    let out = bin()
        .args(["scenario", "--preset=fig1", "--rng=11", "--out"])
        .arg(&scenario)
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = bin()
        .args(["run", scenario.to_str().unwrap(), "--trace"])
        .arg(&run_trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let batch_metrics: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();

    let out = bin()
        .args(["feed", scenario.to_str().unwrap(), "--emit"])
        .arg(&cmds)
        .arg("--trace")
        .arg(&feed_trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let feed_metrics: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();

    let run_lines = std::fs::read_to_string(&run_trace).unwrap();
    let feed_lines = std::fs::read_to_string(&feed_trace).unwrap();
    assert!(!run_lines.is_empty());
    assert_eq!(
        run_lines, feed_lines,
        "service-fed event trace must be byte-identical to the batch run"
    );
    assert_eq!(batch_metrics["global_count"], feed_metrics["global_count"]);
    assert_eq!(feed_metrics["oracle_violations"], 0);

    // Replay the recorded command stream through the real stdin transport.
    let out = bin()
        .arg("serve")
        .stdin(std::fs::File::open(&cmds).unwrap())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut replay_lines = String::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let resp: serde_json::Value = serde_json::from_str(line).expect("response is JSON");
        let ev = &resp["Event"]["line"];
        if let Some(ev_line) = ev.as_str() {
            replay_lines.push_str(ev_line);
            replay_lines.push('\n');
        }
    }
    assert_eq!(
        run_lines, replay_lines,
        "stdin-transport replay must be byte-identical to the batch run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns the daemon and returns it along with the address it printed;
/// reading the banner doubles as the "bind finished" barrier.
fn spawn_daemon(args: &[&str]) -> (std::process::Child, String) {
    use std::io::BufRead;
    let mut child = bin()
        .arg("serve")
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    std::io::BufReader::new(child.stderr.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .trim()
        .strip_prefix("vcountd listening on ")
        .unwrap_or_else(|| panic!("unexpected daemon banner: {banner:?}"))
        .to_string();
    (child, addr)
}

/// A `--socket --max-conns 1` daemon serves one feeder and then removes its
/// socket file on the way out — a dead daemon never leaves a stale
/// socket behind (the cleanup guard runs on every exit path).
#[test]
fn serve_once_cleans_up_socket_file() {
    let dir = std::env::temp_dir().join(format!("vcount-cli-sock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = dir.join("fig1.json");
    let sock = dir.join("vcountd.sock");
    let out = bin()
        .args(["scenario", "--preset=fig1", "--rng=21", "--out"])
        .arg(&scenario)
        .output()
        .unwrap();
    assert!(out.status.success());

    let (mut daemon, addr) =
        spawn_daemon(&["--socket", sock.to_str().unwrap(), "--max-conns", "1"]);
    assert_eq!(addr, sock.to_str().unwrap());
    assert!(sock.exists(), "daemon bound but socket file is missing");

    let out = bin()
        .args(["feed", scenario.to_str().unwrap(), "--socket"])
        .arg(&sock)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(metrics["oracle_violations"], 0);
    assert_eq!(metrics["global_count"], metrics["true_population"]);

    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon exit: {status:?}");
    assert!(
        !sock.exists(),
        "daemon exited without cleaning up its socket file"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The TCP transport end to end: `serve --listen 127.0.0.1:0` prints the
/// ephemeral port it bound, `feed --connect` drives a run through it, and
/// the returned event trace is byte-identical to `vcount run --trace`.
#[test]
fn serve_listen_feed_connect_matches_batch_run() {
    let dir = std::env::temp_dir().join(format!("vcount-cli-tcp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = dir.join("fig1.json");
    let run_trace = dir.join("run.jsonl");
    let feed_trace = dir.join("feed.jsonl");
    let out = bin()
        .args(["scenario", "--preset=fig1", "--rng=23", "--out"])
        .arg(&scenario)
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = bin()
        .args(["run", scenario.to_str().unwrap(), "--trace"])
        .arg(&run_trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let batch_metrics: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();

    let (mut daemon, addr) = spawn_daemon(&["--listen", "127.0.0.1:0", "--max-conns", "1"]);
    let out = bin()
        .args([
            "feed",
            scenario.to_str().unwrap(),
            "--connect",
            &addr,
            "--trace",
        ])
        .arg(&feed_trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let feed_metrics: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert!(daemon.wait().unwrap().success());

    let run_lines = std::fs::read_to_string(&run_trace).unwrap();
    let feed_lines = std::fs::read_to_string(&feed_trace).unwrap();
    assert!(!run_lines.is_empty());
    assert_eq!(
        run_lines, feed_lines,
        "TCP-fed event trace must be byte-identical to the batch run"
    );
    assert_eq!(batch_metrics["global_count"], feed_metrics["global_count"]);
    assert_eq!(feed_metrics["oracle_violations"], 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_flag_combinations_are_validated() {
    for (args, want) in [
        (
            &["serve", "--max-conns", "0", "--listen", "127.0.0.1:0"][..],
            "--max-conns must be at least 1",
        ),
        (
            &["serve", "--max-conns", "1"][..],
            "--max-conns requires --socket or --listen",
        ),
        (
            &[
                "serve",
                "--socket",
                "/tmp/x.sock",
                "--listen",
                "127.0.0.1:0",
            ][..],
            "--socket and --listen are mutually exclusive",
        ),
        (
            &["feed", "x.json", "--emit", "a.jsonl", "--socket", "b.sock"][..],
            "--emit, --socket, and --connect are mutually exclusive",
        ),
        (&["feed", "x.json"][..], "feed needs a destination"),
    ] {
        let out = bin().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "{args:?} gave: {err}");
    }
}

#[test]
fn fig1_preset_runs_with_event_trace() {
    let dir = std::env::temp_dir().join(format!("vcount-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = dir.join("fig1.json");
    let trace = dir.join("trace.jsonl");
    let out = bin()
        .args([
            "scenario",
            "--preset=fig1",
            "--rng=7",
            "--out",
            scenario.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args([
            "run",
            scenario.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--trace-filter",
            "checkpoint_activated,label_emitted,report_sent",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    let mut kinds = std::collections::BTreeSet::new();
    for line in text.lines() {
        let rec: serde_json::Value = serde_json::from_str(line).expect("each line is JSON");
        kinds.insert(rec["kind"].as_str().unwrap().to_string());
        assert!(
            rec["t"].as_f64().is_some(),
            "events carry sim time: {rec:?}"
        );
    }
    assert!(
        kinds.contains("checkpoint_activated"),
        "got kinds: {kinds:?}"
    );
    assert!(kinds.contains("label_emitted"));
    for k in &kinds {
        assert!(
            ["checkpoint_activated", "label_emitted", "report_sent"].contains(&k.as_str()),
            "filter leaked kind {k}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
