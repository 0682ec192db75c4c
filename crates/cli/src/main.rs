//! `vcount` — command-line front end for the infrastructure-less vehicle
//! counting reproduction.
//!
//! ```text
//! vcount scenario --preset closed|open|fig1 [--volume PCT] [--seeds K]
//!                 [--rng SEED] [--out FILE]
//! vcount run SCENARIO.json [--goal constitution|collection] [--progress]
//!             [--trace FILE.jsonl] [--trace-filter KINDS]
//!             [--snapshot-every N] [--snapshot-out FILE] [--faults PLAN.json]
//!             [--record-actions FILE]
//! vcount run --resume SNAPSHOT.json [--goal G] [--progress] [--trace ...]
//! vcount replay TRACE.json
//! vcount sweep [--volumes PCTS] [--seed-counts KS] [--replicates N]
//!             [--threads N] [--goal G] [--map paper|small] [--open]
//!             [--rng SEED] [--out FILE] [--faults PLAN.json]
//! vcount serve [--socket PATH | --listen HOST:PORT] [--max-conns N]
//!             [--queue-capacity N] [--pump-budget N] [--trace-dir DIR]
//! vcount feed SCENARIO.json (--socket PATH | --connect HOST:PORT | --emit FILE)
//!             [--run ID] [--goal G] [--faults PLAN.json]
//!             [--trace FILE.jsonl] [--server-trace NAME.jsonl]
//! vcount map [--preset paper|small] [--speed-mph MPH]
//! vcount help
//! ```
//!
//! `vcount run` (with or without `--progress` or `--snapshot-every`) and
//! `vcount feed` stop on the same goal predicate, `Runner::reached`, and
//! print the same metrics for the same scenario and fault plan.

use std::process::ExitCode;
use vcount_roadnet::builders::ManhattanConfig;
use vcount_sim::{Goal, Runner, Scenario};

mod args;
mod commands;

use args::{Args, CliError};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // Usage helps with a wrong command line only; after any other
            // failure it would bury the one line that matters.
            if let CliError::Usage(_) = e {
                eprintln!();
                eprintln!("{}", commands::USAGE);
            }
            ExitCode::FAILURE
        }
    }
}

fn run(argv: Vec<String>) -> Result<(), CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(CliError::usage("missing subcommand"));
    };
    let args = Args::parse(rest)?;
    match cmd.as_str() {
        "scenario" => commands::scenario(&args),
        "run" => commands::run(&args),
        "replay" => commands::replay(&args),
        "serve" => commands::serve(&args),
        "feed" => commands::feed(&args),
        "sweep" => commands::sweep(&args),
        "map" => commands::map(&args),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(CliError::usage(format!("unknown subcommand `{other}`"))),
    }
}

/// Shared helpers for subcommands.
pub(crate) fn build_scenario(
    preset: &str,
    volume: f64,
    seeds: usize,
    rng: u64,
) -> Result<Scenario, CliError> {
    let map = ManhattanConfig::default();
    match preset {
        "closed" => Ok(Scenario::paper_closed(map, volume, seeds, rng)),
        "open" => Ok(Scenario::paper_open(map, volume, seeds, rng)),
        "fig1" => Ok(Scenario::fig1_walkthrough(rng)),
        other => Err(CliError::usage(format!(
            "unknown preset `{other}` (want closed|open|fig1)"
        ))),
    }
}

/// Periodic snapshotting configuration for [`drive`].
pub(crate) struct SnapshotCfg {
    /// Write a snapshot every this many simulation steps.
    pub every: u64,
    /// Snapshot file path; overwritten on each write (latest wins).
    pub out: String,
}

/// Steps `runner` until [`Runner::reached`] `goal` or the scenario's
/// time budget runs out — exactly where [`Runner::run`] stops — writing
/// progress lines and periodic snapshots on the way, then returns the
/// final metrics.
pub(crate) fn drive(
    runner: &mut Runner,
    goal: Goal,
    progress: bool,
    snapshot: Option<SnapshotCfg>,
) -> Result<vcount_sim::RunMetrics, String> {
    let max_time_s = runner.scenario().max_time_s;
    let mut next_tick = 0.0;
    let mut steps_since_snap = 0u64;
    while runner.time_s() < max_time_s && !runner.reached(goal) && runner.step() {
        if let Some(cfg) = &snapshot {
            steps_since_snap += 1;
            if steps_since_snap >= cfg.every {
                steps_since_snap = 0;
                std::fs::write(&cfg.out, runner.snapshot().to_json())
                    .map_err(|e| format!("{}: {e}", cfg.out))?;
            }
        }
        if progress && runner.time_s() >= next_tick {
            let p = runner.progress();
            eprintln!(
                "t={:>6.1}min active={}/{} stable={}/{} count={} truth={}",
                p.time_s / 60.0,
                p.active,
                p.checkpoints,
                p.stable,
                p.checkpoints,
                p.distributed_count,
                p.population
            );
            next_tick = runner.time_s() + 300.0;
        }
    }
    runner.flush_sinks();
    Ok(runner.metrics_now())
}
