//! The lazy-decode contract (DESIGN.md §9): decode strategy is a
//! throughput knob, never a semantics knob. For every scenario family the
//! protocol event stream, the final counts, and the per-checkpoint
//! machine states must be *byte-identical* between lazy decode (the
//! default: discarded deliveries are never parsed) and forced eager
//! decode (`RunnerBuilder::eager_decode`: the pre-zero-copy parse-everything
//! behavior) — including under a fault plan that exercises every discard
//! path: crashes (dropped queued/carried messages and labels), a radio
//! blackout window, and duplicate/delay/reorder message chaos.
//!
//! The only observable difference is the wire telemetry split: lazy runs
//! move the never-consumed messages from `messages_decoded` into
//! `messages_skipped_decode`, and the two modes' counters reconcile
//! exactly (`decoded_eager = decoded_lazy + skipped_lazy`).

mod common;

use std::sync::{Arc, Mutex};

use common::{fnv_digest, grid_scenario, normalized, open_scenario, VecSink};
use vcount_core::{CheckpointTable, ProtocolVariant};
use vcount_sim::{Blackout, ChaosFault, CrashFault, FaultPlan, RunMetrics, Runner, Scenario};

/// Exercises every lazy-discard path at once: two crash windows (queued
/// messages, carried reports, and carried labels dropped at down nodes),
/// a regional blackout, and a chaos window injecting duplicates, delays,
/// and reorders on the relay and patrol-carried paths.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 23,
        crashes: vec![
            CrashFault {
                node: 5,
                at_s: 60.0,
                recover_s: 300.0,
            },
            CrashFault {
                node: 10,
                at_s: 120.0,
                recover_s: 420.0,
            },
        ],
        blackouts: vec![Blackout {
            nodes: vec![1, 2],
            from_s: 150.0,
            until_s: 280.0,
        }],
        chaos: Some(ChaosFault {
            from_s: 30.0,
            until_s: 600.0,
            duplicate_p: 0.3,
            delay_p: 0.3,
            max_delay_s: 12.0,
            reorder_p: 0.3,
        }),
        image_every_s: 60.0,
    }
}

struct Capture {
    stream: Vec<String>,
    metrics: RunMetrics,
    checkpoints: CheckpointTable,
}

fn capture(scen: &Scenario, eager: bool, plan: Option<FaultPlan>, steps: usize) -> Capture {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let mut builder = Runner::builder(scen)
        .eager_decode(eager)
        .sink(Box::new(VecSink(lines.clone())));
    if let Some(p) = plan {
        builder = builder.faults(p);
    }
    let mut runner = builder.build();
    for _ in 0..steps {
        runner.step();
    }
    runner.flush_sinks();
    let metrics = runner.metrics_now();
    let checkpoints = runner.snapshot().checkpoints;
    let stream = lines.lock().unwrap().clone();
    Capture {
        stream,
        metrics,
        checkpoints,
    }
}

/// Compares two runs' metrics, skipping only the fields the decode
/// strategy legitimately moves: wall-clock timings (nondeterministic)
/// and the `messages_decoded`/`messages_skipped_decode` split itself.
fn assert_metrics_identical(a: &RunMetrics, b: &RunMetrics, what: &str) {
    let strategy_free = |m: &RunMetrics| {
        let mut m = normalized(m.clone());
        m.telemetry.messages_decoded = 0;
        m.telemetry.messages_skipped_decode = 0;
        m
    };
    assert_eq!(strategy_free(a), strategy_free(b), "{what}");
}

fn assert_decode_invariant(scen: &Scenario, plan: Option<FaultPlan>, steps: usize, what: &str) {
    let lazy = capture(scen, false, plan.clone(), steps);
    assert!(
        !lazy.stream.is_empty(),
        "{what}: lazy run emitted no events"
    );
    let eager = capture(scen, true, plan, steps);

    assert_eq!(
        fnv_digest(&lazy.stream),
        fnv_digest(&eager.stream),
        "{what}: event digest diverged between lazy and eager decode"
    );
    assert_eq!(
        lazy.stream, eager.stream,
        "{what}: event stream diverged between lazy and eager decode"
    );
    assert_metrics_identical(&lazy.metrics, &eager.metrics, what);
    assert_eq!(
        lazy.checkpoints, eager.checkpoints,
        "{what}: per-checkpoint machine states diverged"
    );

    // The counter split reconciles exactly: eager parses precisely the
    // messages lazy skipped, nothing more.
    let (lt, et) = (&lazy.metrics.telemetry, &eager.metrics.telemetry);
    assert_eq!(et.messages_skipped_decode, 0, "{what}: eager mode skipped");
    assert_eq!(
        et.messages_decoded,
        lt.messages_decoded + lt.messages_skipped_decode,
        "{what}: decode counters do not reconcile"
    );
    assert_eq!(lt.messages_encoded, et.messages_encoded, "{what}");
    assert_eq!(lt.wire_bytes, et.wire_bytes, "{what}");
}

#[test]
fn simple_variant_is_decode_strategy_invariant() {
    let scen = grid_scenario(ProtocolVariant::Simple, 42);
    assert_decode_invariant(&scen, None, 900, "simple");
}

#[test]
fn extended_variant_is_decode_strategy_invariant() {
    let scen = grid_scenario(ProtocolVariant::Extended, 43);
    assert_decode_invariant(&scen, None, 900, "extended");
}

#[test]
fn open_variant_is_decode_strategy_invariant() {
    let scen = open_scenario(44);
    assert_decode_invariant(&scen, None, 700, "open");
}

#[test]
fn chaos_and_blackout_faults_are_decode_strategy_invariant() {
    let scen = grid_scenario(ProtocolVariant::Simple, 45);
    assert_decode_invariant(&scen, Some(chaos_plan()), 900, "chaos faults");

    // The fault plan actually exercised the lazy path: down recipients
    // and dropped duplicates left unparsed payloads behind.
    let lazy = capture(&scen, false, Some(chaos_plan()), 900);
    assert!(
        lazy.metrics.telemetry.messages_skipped_decode > 0,
        "fault plan produced no skipped decodes — the lazy path was never taken"
    );
}
