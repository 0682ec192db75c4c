//! Deterministic fault injection: checkpoint crashes, channel blackouts,
//! and message chaos, driven by a serializable [`FaultPlan`].
//!
//! The paper's headline claim is exactness *despite* failure — Alg. 3
//! compensates lossy handoffs and the patrol extension breaks one-way
//! deadlocks — but an i.i.d. loss model alone never exercises the fault
//! classes real V2V deployments report: equipment crashes, regional radio
//! outages, and duplicated/delayed/reordered deliveries. This module
//! injects exactly those, deterministically:
//!
//! - **Checkpoint crash/recover** ([`CrashFault`]): a crashed checkpoint
//!   drops its volatile message queues and, on recovery, rejoins from its
//!   last per-checkpoint state image (taken at [`FaultPlan::image_every_s`]
//!   cadence through the same `export_state`/`restore_state` machinery the
//!   engine snapshot uses). While down it processes no observations.
//! - **Channel blackout** ([`Blackout`]): a time-windowed, per-region
//!   override layered *above* the scenario's [`vcount_v2x::LossModel`] —
//!   every handoff at a blacked-out checkpoint fails, without consuming a
//!   draw from the protocol RNG stream.
//! - **Exchange chaos** ([`ChaosFault`]): duplicate/delay/reorder injection
//!   on the relay and patrol-carried message paths. The protocol is
//!   designed to tolerate these (announces are idempotent, reports are
//!   highest-sequence-wins), so chaos alone must never change the count.
//!
//! Determinism: the layer draws from its **own** [`ReplayRng`] stream
//! seeded from [`FaultPlan::seed`], so a fault-free run consumes zero
//! extra draws and keeps byte-identical golden digests; the layer's full
//! state serializes as a [`FaultSnapshot`] inside the engine snapshot, so
//! a resumed faulty run replays the identical tail.
//!
//! **Degraded-status contract**: a run is [`FaultLayer::degraded`] as soon
//! as any injected fault *may* have cost protocol information — a crash
//! whose recovery image was stale, a message dropped at a down checkpoint,
//! a carried label lost, or a suppressed observation at an active
//! checkpoint. Blackouts and chaos alone do not degrade a run: the
//! protocol's own compensation and idempotence absorb them. The inverse
//! guarantee is the tested property: a run that ends with
//! `oracle_violations > 0` or a wrong count is always flagged degraded —
//! faults never cause a *silent* miscount.

use crate::engine::Engine;
use rand::Rng;
use serde::{Deserialize, Serialize};
use vcount_core::{ActionKind, CheckpointState};
use vcount_obs::ProtocolEvent;
use vcount_roadnet::NodeId;
use vcount_traffic::ReplayRng;

/// One scheduled checkpoint crash: the node goes down at `at_s` (dropping
/// the messages queued at it) and rejoins from its last state image at
/// `recover_s`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashFault {
    /// The checkpoint that crashes.
    pub node: u32,
    /// Simulated crash time, seconds.
    pub at_s: f64,
    /// Simulated recovery time, seconds (must exceed `at_s`).
    pub recover_s: f64,
}

/// A regional radio blackout: every label handoff attempted at one of
/// `nodes` during `[from_s, until_s)` fails, independent of the loss model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Blackout {
    /// The blacked-out checkpoints.
    pub nodes: Vec<u32>,
    /// Window start, simulated seconds (inclusive).
    pub from_s: f64,
    /// Window end, simulated seconds (exclusive).
    pub until_s: f64,
}

/// Message-chaos injection on the relay and patrol-carried paths during
/// `[from_s, until_s)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosFault {
    /// Window start, simulated seconds (inclusive).
    pub from_s: f64,
    /// Window end, simulated seconds (exclusive).
    pub until_s: f64,
    /// Probability a relayed (or patrol-carried) message is duplicated.
    #[serde(default)]
    pub duplicate_p: f64,
    /// Probability a relayed message is delayed by up to `max_delay_s`.
    #[serde(default)]
    pub delay_p: f64,
    /// Extra delay upper bound, seconds (0 = delayed messages arrive on
    /// their original schedule).
    #[serde(default)]
    pub max_delay_s: f64,
    /// Probability the two most recent relay messages swap delivery order
    /// (patrol side: the carried queue reverses).
    #[serde(default)]
    pub reorder_p: f64,
}

/// Recovery-image cadence used when a plan omits `image_every_s`.
pub const DEFAULT_IMAGE_EVERY_S: f64 = 60.0;

/// A complete, reproducible fault schedule for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the layer's own RNG stream (decoupled from the protocol
    /// stream so fault-free digests are untouched).
    pub seed: u64,
    /// Scheduled checkpoint crashes.
    #[serde(default)]
    pub crashes: Vec<CrashFault>,
    /// Regional radio blackouts.
    #[serde(default)]
    pub blackouts: Vec<Blackout>,
    /// Message-chaos window, if any.
    #[serde(default)]
    pub chaos: Option<ChaosFault>,
    /// Cadence of the per-checkpoint recovery state images, seconds.
    /// Absent reads as 0, which [`FaultLayer::from_plan`] turns into
    /// [`DEFAULT_IMAGE_EVERY_S`] for every run, however the plan arrived.
    #[serde(default)]
    pub image_every_s: f64,
}

impl FaultPlan {
    /// Parses a plan from JSON.
    pub fn from_json(s: &str) -> Result<FaultPlan, String> {
        serde_json::from_str(s).map_err(|e| format!("invalid fault plan: {e}"))
    }

    /// Serializes the plan to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fault plans always serialize")
    }

    /// Validates the plan against a deployment of `nodes` checkpoints:
    /// node indices in range, positive windows, probabilities in `[0, 1]`,
    /// and no two crash windows overlapping on the same node. Reached only
    /// through [`FaultLayer::from_plan`], after the cadence default.
    pub(crate) fn validate(&self, nodes: usize) -> Result<(), String> {
        if self.image_every_s.is_nan() || self.image_every_s <= 0.0 {
            return Err(format!(
                "image_every_s must be positive, got {}",
                self.image_every_s
            ));
        }
        for c in &self.crashes {
            if c.node as usize >= nodes {
                return Err(format!(
                    "crash node {} out of range ({nodes} nodes)",
                    c.node
                ));
            }
            if !valid_window(c.at_s, c.recover_s) {
                return Err(format!(
                    "crash on node {}: need 0 <= at_s < recover_s, got [{}, {}]",
                    c.node, c.at_s, c.recover_s
                ));
            }
        }
        let mut by_node: Vec<&CrashFault> = self.crashes.iter().collect();
        by_node.sort_by(|a, b| {
            (a.node, a.at_s)
                .partial_cmp(&(b.node, b.at_s))
                .expect("crash times validated finite")
        });
        for w in by_node.windows(2) {
            if w[0].node == w[1].node && w[1].at_s < w[0].recover_s {
                return Err(format!(
                    "overlapping crash windows on node {}: [{}, {}) and [{}, {})",
                    w[0].node, w[0].at_s, w[0].recover_s, w[1].at_s, w[1].recover_s
                ));
            }
        }
        for b in &self.blackouts {
            if let Some(n) = b.nodes.iter().find(|n| **n as usize >= nodes) {
                return Err(format!("blackout node {n} out of range ({nodes} nodes)"));
            }
            if !valid_window(b.from_s, b.until_s) {
                return Err(format!(
                    "blackout window [{}, {}) is not a positive interval",
                    b.from_s, b.until_s
                ));
            }
        }
        if let Some(c) = &self.chaos {
            if !valid_window(c.from_s, c.until_s) {
                return Err(format!(
                    "chaos window [{}, {}) is not a positive interval",
                    c.from_s, c.until_s
                ));
            }
            for (name, p) in [
                ("duplicate_p", c.duplicate_p),
                ("delay_p", c.delay_p),
                ("reorder_p", c.reorder_p),
            ] {
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("chaos {name} must be in [0, 1], got {p}"));
                }
            }
            if c.max_delay_s.is_nan() || c.max_delay_s < 0.0 {
                return Err(format!(
                    "chaos max_delay_s must be >= 0, got {}",
                    c.max_delay_s
                ));
            }
        }
        Ok(())
    }
}

/// A schedulable `[from_s, until_s)` window: non-negative start, positive
/// length. NaN bounds fail both comparisons and are rejected.
fn valid_window(from_s: f64, until_s: f64) -> bool {
    from_s >= 0.0 && until_s > from_s
}

/// Per-class injection counters (surfaced through
/// [`crate::metrics::RunTelemetry`] and the degraded-status contract).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Checkpoint crashes fired.
    pub crashes: u64,
    /// Crashed checkpoints that rejoined.
    pub recoveries: u64,
    /// Crashes whose recovery image was stale (protocol state lost).
    pub state_lost_crashes: u64,
    /// Messages dropped at down checkpoints (queued, carried, relayed, or
    /// finalized-watch adjustments that could not be applied).
    pub dropped_messages: u64,
    /// Carried activation labels lost at down checkpoints.
    pub labels_dropped: u64,
    /// Observations suppressed at an active-but-down checkpoint (each may
    /// be a missed count).
    pub suppressed_observations: u64,
    /// Handoffs forced to fail by a blackout window.
    pub blackout_handoffs: u64,
    /// Open segment watches closed because their origin crashed (the
    /// adjustments they were accumulating are lost).
    #[serde(default)]
    pub watches_dropped: u64,
    /// Relay/patrol messages duplicated by chaos.
    pub chaos_duplicates: u64,
    /// Relay messages delayed by chaos.
    pub chaos_delays: u64,
    /// Relay/patrol deliveries reordered by chaos.
    pub chaos_reorders: u64,
}

/// Serializable image of a live [`FaultLayer`] (the plan itself rides
/// separately in the engine snapshot) — also the layer's live state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSnapshot {
    /// Draws consumed from the fault RNG stream.
    pub rng_draws: u64,
    /// Injection counters at snapshot time.
    pub counters: FaultCounters,
    /// Last recovery image per checkpoint.
    pub images: Vec<Option<CheckpointState>>,
    /// Next image-refresh time, seconds.
    pub next_image_s: f64,
    /// Which scheduled crashes have fired.
    pub crash_fired: Vec<bool>,
    /// Which scheduled recoveries have fired.
    pub recover_fired: Vec<bool>,
    /// Which checkpoints are currently down.
    pub down: Vec<bool>,
}

/// Chaos decision for one relay enqueue.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RelayChaos {
    /// Extra delivery delay added to the message, seconds.
    pub extra_delay_s: f64,
    /// Whether to enqueue a duplicate copy.
    pub duplicate: bool,
    /// Extra delay of the duplicate copy, seconds.
    pub duplicate_extra_delay_s: f64,
    /// Whether to swap the delivery order of the two newest relay entries.
    pub reorder: bool,
}

/// Chaos decision for one patrol pickup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatrolChaos {
    /// Whether to duplicate the most recently picked-up message.
    pub duplicate: bool,
    /// Whether to reverse the patrol's carried queue.
    pub reverse: bool,
}

/// Live state of an active fault layer.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    rng: ReplayRng,
    /// Everything else that moves; its `rng_draws` is read from `rng` only
    /// when the layer is snapshotted.
    live: FaultSnapshot,
}

/// The engine's fault-injection layer. Inactive by default (every query is
/// a constant-time no-op, and no RNG draw is ever consumed), so fault-free
/// runs stay byte-identical to builds without the layer.
#[derive(Debug, Default)]
pub struct FaultLayer {
    state: Option<Box<FaultState>>,
}

impl FaultLayer {
    /// The inactive layer: injects nothing, costs nothing.
    pub fn none() -> Self {
        FaultLayer::default()
    }

    /// Activates `plan` over a deployment of `nodes` checkpoints: fresh,
    /// or resumed from the `image` a snapshot carries. An `image_every_s`
    /// of 0 (absent) becomes [`DEFAULT_IMAGE_EVERY_S`], the plan must then
    /// pass `FaultPlan::validate`, and a resumed image must have one
    /// `down`/`images` entry per checkpoint and one
    /// `crash_fired`/`recover_fired` entry per crash.
    pub fn from_plan(
        mut plan: FaultPlan,
        nodes: usize,
        image: Option<FaultSnapshot>,
    ) -> Result<Self, String> {
        if plan.image_every_s == 0.0 {
            plan.image_every_s = DEFAULT_IMAGE_EVERY_S;
        }
        plan.validate(nodes)?;
        let k = plan.crashes.len();
        let live = match image {
            None => FaultSnapshot {
                rng_draws: 0,
                counters: FaultCounters::default(),
                images: vec![None; nodes],
                // First fault_step images every checkpoint immediately, so
                // a crash before the first cadence tick still has a
                // (t = 0) recovery image.
                next_image_s: 0.0,
                crash_fired: vec![false; k],
                recover_fired: vec![false; k],
                down: vec![false; nodes],
            },
            Some(image) => {
                for (name, len, want) in [
                    ("down", image.down.len(), nodes),
                    ("images", image.images.len(), nodes),
                    ("crash_fired", image.crash_fired.len(), k),
                    ("recover_fired", image.recover_fired.len(), k),
                ] {
                    if len != want {
                        return Err(format!(
                            "fault state has {len} {name} entries, the plan needs {want}"
                        ));
                    }
                }
                image
            }
        };
        Ok(FaultLayer {
            state: Some(Box::new(FaultState {
                rng: ReplayRng::resume(plan.seed, live.rng_draws),
                plan,
                live,
            })),
        })
    }

    /// Serializable image of the live layer (`None` when inactive).
    pub fn snapshot(&self) -> Option<FaultSnapshot> {
        self.state.as_ref().map(|s| FaultSnapshot {
            rng_draws: s.rng.draws(),
            ..s.live.clone()
        })
    }

    /// The plan driving this layer (`None` when inactive).
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.state.as_ref().map(|s| &s.plan)
    }

    /// The injection counters so far (zero when inactive).
    pub fn counters(&self) -> FaultCounters {
        self.state
            .as_ref()
            .map(|s| s.live.counters)
            .unwrap_or_default()
    }

    /// The degraded-status contract (see the module docs): true as soon as
    /// any injected fault may have cost protocol information. Blackouts and
    /// chaos alone never degrade a run.
    pub fn degraded(&self) -> bool {
        let c = self.counters();
        c.state_lost_crashes > 0
            || c.dropped_messages > 0
            || c.labels_dropped > 0
            || c.suppressed_observations > 0
            || c.watches_dropped > 0
    }

    /// Whether `node`'s checkpoint is currently down.
    pub fn down(&self, node: NodeId) -> bool {
        self.state
            .as_ref()
            .is_some_and(|s| s.live.down[node.index()])
    }

    /// Whether a handoff at `node` at time `now` falls in a blackout
    /// window; counts the suppression when it does. Never consumes an RNG
    /// draw — the protocol stream stays untouched.
    pub fn blackout_handoff(&mut self, now: f64, node: NodeId) -> bool {
        let Some(state) = self.state.as_deref_mut() else {
            return false;
        };
        let hit = state
            .plan
            .blackouts
            .iter()
            .any(|b| now >= b.from_s && now < b.until_s && b.nodes.contains(&node.0));
        if hit {
            state.live.counters.blackout_handoffs += 1;
        }
        hit
    }

    /// Chaos decision for a relay enqueue at time `now`. Outside the chaos
    /// window (or with no plan) this returns the identity decision without
    /// consuming a draw; inside, the draw count per call is fixed by the
    /// outcome, keeping the stream replayable.
    pub fn chaos_relay(&mut self, now: f64) -> RelayChaos {
        let Some(state) = self.state.as_deref_mut() else {
            return RelayChaos::default();
        };
        let Some(chaos) = state.plan.chaos else {
            return RelayChaos::default();
        };
        if now < chaos.from_s || now >= chaos.until_s {
            return RelayChaos::default();
        }
        // The draw order below (duplicate → its magnitude → delay → its
        // magnitude → reorder) is part of the replay contract; reordering
        // it would shift every later draw in the fault stream.
        let duplicate = state.rng.gen_bool(chaos.duplicate_p);
        let duplicate_extra_delay_s = if duplicate {
            state.live.counters.chaos_duplicates += 1;
            state.rng.gen::<f64>() * chaos.max_delay_s
        } else {
            0.0
        };
        let extra_delay_s = if state.rng.gen_bool(chaos.delay_p) {
            state.live.counters.chaos_delays += 1;
            state.rng.gen::<f64>() * chaos.max_delay_s
        } else {
            0.0
        };
        let reorder = state.rng.gen_bool(chaos.reorder_p);
        if reorder {
            state.live.counters.chaos_reorders += 1;
        }
        RelayChaos {
            duplicate,
            duplicate_extra_delay_s,
            extra_delay_s,
            reorder,
        }
    }

    /// Chaos decision for a patrol pickup at time `now` (duplicate the
    /// newest carried message / reverse the carried queue).
    pub fn chaos_patrol(&mut self, now: f64) -> PatrolChaos {
        let Some(state) = self.state.as_deref_mut() else {
            return PatrolChaos::default();
        };
        let Some(chaos) = state.plan.chaos else {
            return PatrolChaos::default();
        };
        if now < chaos.from_s || now >= chaos.until_s {
            return PatrolChaos::default();
        }
        let out = PatrolChaos {
            duplicate: state.rng.gen_bool(chaos.duplicate_p),
            reverse: state.rng.gen_bool(chaos.reorder_p),
        };
        if out.duplicate {
            state.live.counters.chaos_duplicates += 1;
        }
        if out.reverse {
            state.live.counters.chaos_reorders += 1;
        }
        out
    }

    /// Counts messages dropped because a checkpoint was down.
    pub fn note_dropped_messages(&mut self, n: usize) {
        if let Some(s) = self.state.as_deref_mut() {
            s.live.counters.dropped_messages += n as u64;
        }
    }

    /// Counts a carried label lost at a down checkpoint.
    pub fn note_label_dropped(&mut self) {
        if let Some(s) = self.state.as_deref_mut() {
            s.live.counters.labels_dropped += 1;
        }
    }

    /// Counts an observation suppressed at an active-but-down checkpoint.
    pub fn note_suppressed_observation(&mut self) {
        if let Some(s) = self.state.as_deref_mut() {
            s.live.counters.suppressed_observations += 1;
        }
    }
}

/// Counts `n` messages lost at down checkpoint `node` and audits the loss
/// as one `FaultMessageDropped` record — the pair every delivery path that
/// meets a down recipient runs.
pub(crate) fn drop_messages(engine: &mut Engine, node: NodeId, n: usize) {
    engine.faults.note_dropped_messages(n);
    engine.audit.record(
        engine.now,
        ProtocolEvent::FaultMessageDropped {
            node: node.0,
            messages: n as u32,
        },
    );
}

/// The fault stage: runs right after the traffic step and before the
/// observe stage, so crash/recovery transitions take effect at step
/// boundaries (where checkpoint event buffers are provably drained).
/// Refreshes recovery images at cadence, fires due crashes (dropping the
/// node's queued messages), and fires due recoveries (rolling the
/// checkpoint back to its last image).
pub fn fault_step(engine: &mut Engine) {
    let now = engine.now;
    // Image refresh runs under a scoped borrow: the crash/recover
    // applications below feed [`crate::engine::apply_action`], which needs
    // the whole engine (recording, audit, dispatch).
    let crash_count = {
        let Engine { cps, faults, .. } = engine;
        let Some(FaultState { plan, live, .. }) = faults.state.as_deref_mut() else {
            return;
        };
        // Refresh recovery images at cadence; down checkpoints keep their
        // pre-crash image (that is what they recover from).
        if now >= live.next_image_s {
            for (i, cp) in cps.iter().enumerate() {
                if !live.down[i] {
                    live.images[i] = Some(cp.export_state().clone());
                }
            }
            // Ticks are stepped one at a time, as a step crosses about one;
            // past 64 (a clock far ahead of the schedule, a cadence finer
            // than the clock resolves) the rest is jumped in closed form, at
            // worst landing short so that the next step refreshes again.
            let period = plan.image_every_s;
            let mut ticks = 0;
            while live.next_image_s <= now {
                if ticks == 64 {
                    live.next_image_s +=
                        (((now - live.next_image_s) / period).floor() + 1.0) * period;
                    break;
                }
                live.next_image_s += period;
                ticks += 1;
            }
        }
        plan.crashes.len()
    };

    for ci in 0..crash_count {
        // Crash: engine-side effects (queue drops, downtime bookkeeping,
        // fault events) happen here; the recorded [`ActionKind::Crash`] is
        // a pure no-op that documents the fault schedule in the trace.
        let crashed = {
            let Engine {
                cps,
                exchange,
                audit: log,
                faults,
                ..
            } = engine;
            let state = faults.state.as_deref_mut().expect("checked above");
            let crash = state.plan.crashes[ci];
            let live = &mut state.live;
            let idx = crash.node as usize;
            if !live.crash_fired[ci] && now >= crash.at_s {
                live.crash_fired[ci] = true;
                live.down[idx] = true;
                live.counters.crashes += 1;
                // The crash loses whatever accrued since the last image.
                let state_lost = match &live.images[idx] {
                    Some(img) => img != cps[idx].export_state(),
                    None => true,
                };
                if state_lost {
                    live.counters.state_lost_crashes += 1;
                }
                let dropped = exchange.drop_node_queues(NodeId(crash.node));
                if dropped > 0 {
                    live.counters.dropped_messages += dropped as u64;
                    log.record(
                        now,
                        ProtocolEvent::FaultMessageDropped {
                            node: crash.node,
                            messages: dropped as u32,
                        },
                    );
                }
                // The crash also voids the handoff context behind any open
                // segment watch this node originated: finalizing such a
                // watch after recovery would adjust a restored state image
                // that never saw the handoff. Closing it here loses the
                // pending adjustments — an explicit degradation, never a
                // silent miscount.
                let watches = exchange.drop_origin_watches(NodeId(crash.node));
                if watches > 0 {
                    live.counters.watches_dropped += watches as u64;
                    log.record(
                        now,
                        ProtocolEvent::FaultWatchDropped {
                            node: crash.node,
                            watches: watches as u32,
                        },
                    );
                }
                log.record(
                    now,
                    ProtocolEvent::CheckpointCrashed {
                        node: crash.node,
                        state_lost,
                    },
                );
                Some(crash.node)
            } else {
                None
            }
        };
        if let Some(node) = crashed {
            crate::engine::apply_action(engine, NodeId(node), ActionKind::Crash);
        }

        // Recovery: the rollback image travels *inside* the action, so a
        // machine-only replay restores the identical state.
        let recovered = {
            let Engine { faults, .. } = engine;
            let state = faults.state.as_deref_mut().expect("checked above");
            let crash = state.plan.crashes[ci];
            let live = &mut state.live;
            let idx = crash.node as usize;
            if live.crash_fired[ci] && !live.recover_fired[ci] && now >= crash.recover_s {
                live.recover_fired[ci] = true;
                live.down[idx] = false;
                live.counters.recoveries += 1;
                let image = live.images[idx].clone().map(Box::new);
                Some((crash.node, image))
            } else {
                None
            }
        };
        if let Some((node, image)) = recovered {
            crate::engine::apply_action(engine, NodeId(node), ActionKind::Recover { image });
            engine
                .audit
                .record(now, ProtocolEvent::CheckpointRecovered { node });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan {
            seed: 11,
            crashes: vec![CrashFault {
                node: 1,
                at_s: 60.0,
                recover_s: 180.0,
            }],
            blackouts: vec![Blackout {
                nodes: vec![0, 2],
                from_s: 30.0,
                until_s: 90.0,
            }],
            chaos: Some(ChaosFault {
                from_s: 0.0,
                until_s: 300.0,
                duplicate_p: 0.5,
                delay_p: 0.5,
                max_delay_s: 10.0,
                reorder_p: 0.25,
            }),
            image_every_s: 60.0,
        }
    }

    #[test]
    fn plan_round_trips_through_json_with_defaults() {
        let p = plan();
        let back = FaultPlan::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        // A minimal plan parses as written; the layer fills the image
        // cadence default.
        let minimal = FaultPlan::from_json("{\"seed\": 3}").unwrap();
        assert_eq!(
            minimal,
            FaultPlan {
                seed: 3,
                crashes: vec![],
                blackouts: vec![],
                chaos: None,
                image_every_s: 0.0,
            }
        );
        let layer = FaultLayer::from_plan(minimal, 4, None).unwrap();
        assert_eq!(layer.plan().unwrap().image_every_s, 60.0);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let mut p = plan();
        assert!(p.validate(3).is_ok());
        assert!(p.validate(1).unwrap_err().contains("out of range"));
        p.crashes.push(CrashFault {
            node: 1,
            at_s: 100.0,
            recover_s: 200.0,
        });
        assert!(p.validate(3).unwrap_err().contains("overlapping"));
        let mut p = plan();
        p.crashes[0].recover_s = 10.0;
        assert!(p.validate(3).is_err());
        let mut p = plan();
        p.chaos.as_mut().unwrap().duplicate_p = 1.5;
        assert!(p.validate(3).unwrap_err().contains("duplicate_p"));
        let mut p = plan();
        p.image_every_s = 0.0;
        assert!(p.validate(3).unwrap_err().contains("image_every_s"));
        let mut p = plan();
        p.blackouts[0].until_s = p.blackouts[0].from_s;
        assert!(p.validate(3).is_err());
    }

    #[test]
    fn inactive_layer_is_inert() {
        let mut layer = FaultLayer::none();
        assert!(layer.plan().is_none());
        assert!(!layer.degraded());
        assert!(!layer.down(NodeId(0)));
        assert!(!layer.blackout_handoff(50.0, NodeId(0)));
        assert_eq!(layer.chaos_relay(10.0), RelayChaos::default());
        assert_eq!(layer.chaos_patrol(10.0), PatrolChaos::default());
        assert!(layer.snapshot().is_none());
    }

    #[test]
    fn blackout_windows_hit_only_listed_nodes_in_window() {
        let mut layer = FaultLayer::from_plan(plan(), 3, None).unwrap();
        assert!(layer.blackout_handoff(30.0, NodeId(0)));
        assert!(layer.blackout_handoff(89.9, NodeId(2)));
        assert!(!layer.blackout_handoff(29.9, NodeId(0)));
        assert!(!layer.blackout_handoff(90.0, NodeId(0)));
        assert!(!layer.blackout_handoff(50.0, NodeId(1)));
        assert_eq!(layer.counters().blackout_handoffs, 2);
        // Blackouts alone never degrade: compensation retries the handoff.
        assert!(!layer.degraded());
    }

    #[test]
    fn chaos_stream_is_deterministic_and_snapshot_resumable() {
        let mut a = FaultLayer::from_plan(plan(), 3, None).unwrap();
        let seq_a: Vec<RelayChaos> = (0..40).map(|i| a.chaos_relay(i as f64)).collect();
        let mut b = FaultLayer::from_plan(plan(), 3, None).unwrap();
        let prefix: Vec<RelayChaos> = (0..17).map(|i| b.chaos_relay(i as f64)).collect();
        assert_eq!(prefix[..], seq_a[..17]);
        let snap = b.snapshot().unwrap();
        let mut resumed = FaultLayer::from_plan(plan(), 3, Some(snap)).unwrap();
        assert_eq!(resumed.counters(), b.counters());
        let tail: Vec<RelayChaos> = (17..40).map(|i| resumed.chaos_relay(i as f64)).collect();
        assert_eq!(tail[..], seq_a[17..]);
        // Chaos alone never degrades: the protocol absorbs it.
        assert!(!resumed.degraded());
    }

    #[test]
    fn chaos_outside_window_consumes_no_draws() {
        let mut layer = FaultLayer::from_plan(plan(), 3, None).unwrap();
        assert_eq!(layer.chaos_relay(400.0), RelayChaos::default());
        assert_eq!(layer.chaos_patrol(400.0), PatrolChaos::default());
        assert_eq!(layer.snapshot().unwrap().rng_draws, 0);
    }

    #[test]
    fn degraded_tracks_information_loss_classes() {
        let mut layer = FaultLayer::from_plan(plan(), 3, None).unwrap();
        assert!(!layer.degraded());
        layer.note_dropped_messages(2);
        assert!(layer.degraded());
        assert_eq!(layer.counters().dropped_messages, 2);
        let mut layer = FaultLayer::from_plan(plan(), 3, None).unwrap();
        layer.note_label_dropped();
        assert!(layer.degraded());
        let mut layer = FaultLayer::from_plan(plan(), 3, None).unwrap();
        layer.note_suppressed_observation();
        assert!(layer.degraded());
    }
}
