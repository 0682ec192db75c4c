//! Action record/replay determinism: a run recorded with the
//! [`vcount_sim::ActionRecorder`] must replay through the *pure machines
//! only* ([`vcount_core::Replayer`]) — no traffic simulator, channel, or
//! RNG — to a byte-identical dispatch digest and identical final
//! per-checkpoint counts, under all three protocol variants and with an
//! active fault plan (DESIGN.md §8).

mod common;

use common::small_grid_scenario;
use vcount_core::ProtocolVariant;
use vcount_sim::{
    replay_trace, ActionTrace, CrashFault, FaultPlan, Goal, Runner, Scenario, TRACE_SCHEMA,
};

/// Records a run of `scen`, optionally under a fault plan, and returns the
/// finished action trace.
fn record(scen: &Scenario, faults: Option<FaultPlan>) -> ActionTrace {
    let mut builder = Runner::builder(scen).record_actions(true);
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    let mut runner = builder.build();
    runner.run(Goal::Collection, scen.max_time_s);
    runner
        .take_action_trace()
        .expect("recording was enabled at build time")
}

/// Records, JSON round-trips the trace, replays machine-only, and asserts
/// byte-identical dispatches and final counts.
fn roundtrip(variant: ProtocolVariant, seed: u64, faults: Option<FaultPlan>) {
    let scen = small_grid_scenario(variant, seed);
    let trace = record(&scen, faults);
    assert!(
        !trace.records.is_empty(),
        "{variant:?}: a converging run must process actions"
    );

    // The serialized form is what `vcount replay` consumes.
    let parsed = ActionTrace::from_json(&trace.to_json()).expect("trace round-trips");
    assert_eq!(parsed.records, trace.records);
    assert_eq!(parsed.dispatch_digest, trace.dispatch_digest);

    let report = replay_trace(&parsed).expect("trace replays");
    assert_eq!(report.actions, trace.records.len() as u64);
    assert!(
        report.digests_match,
        "{variant:?}: dispatch digest diverged (recorded {:#018x}, replayed {:#018x})",
        report.recorded_digest, report.replayed_digest
    );
    assert!(
        report.counts_match,
        "{variant:?}: final per-checkpoint counts diverged"
    );
    report.check().expect("report agrees with its own flags");
}

#[test]
fn simple_variant_trace_replays_machine_only() {
    roundtrip(ProtocolVariant::Simple, 11, None);
}

#[test]
fn extended_variant_trace_replays_machine_only() {
    roundtrip(ProtocolVariant::Extended, 12, None);
}

#[test]
fn open_variant_trace_replays_machine_only() {
    roundtrip(ProtocolVariant::Open, 13, None);
}

/// A crash/recover schedule mid-run: the recorded `Crash` documents the
/// outage and the recorded `Recover` carries the rollback image, so the
/// machine-only replay reproduces the post-recovery stream exactly.
#[test]
fn faulty_run_trace_replays_machine_only() {
    let plan = FaultPlan {
        seed: 11,
        crashes: vec![CrashFault {
            node: 4,
            at_s: 120.0,
            recover_s: 300.0,
        }],
        blackouts: Vec::new(),
        chaos: None,
        image_every_s: 60.0,
    };
    roundtrip(ProtocolVariant::Simple, 14, Some(plan));
}

#[test]
fn recording_off_yields_no_trace() {
    let scen = small_grid_scenario(ProtocolVariant::Simple, 15);
    let mut runner = Runner::builder(&scen).build();
    for _ in 0..50 {
        runner.step();
    }
    assert!(runner.take_action_trace().is_none());
}

#[test]
fn trace_schema_mismatch_is_rejected() {
    let scen = small_grid_scenario(ProtocolVariant::Simple, 16);
    let mut trace = record(&scen, None);
    trace.schema = "vcount-action-trace/v0".into();
    let err = ActionTrace::from_json(&trace.to_json()).unwrap_err();
    assert!(err.contains(TRACE_SCHEMA), "error names the schema: {err}");
}

/// A corrupted trace (one action's frozen input altered) must be caught —
/// never a silent pass.
#[test]
fn tampered_trace_is_detected() {
    use vcount_core::ActionKind;

    let scen = small_grid_scenario(ProtocolVariant::Simple, 17);
    let mut trace = record(&scen, None);
    // Inflate one frozen report total: the collection outcome the
    // recording saw no longer reproduces, so dispatches and/or counts
    // must diverge.
    let rec = trace
        .records
        .iter_mut()
        .find(|r| matches!(r.action.kind, ActionKind::Report { .. }))
        .expect("a collected run delivers at least one report");
    let ActionKind::Report { total, .. } = &mut rec.action.kind else {
        unreachable!()
    };
    *total += 1;
    let report = replay_trace(&trace).expect("still structurally replayable");
    assert!(
        !report.digests_match || !report.counts_match,
        "inflating a report total must not replay clean"
    );
    assert!(report.check().is_err());
}
