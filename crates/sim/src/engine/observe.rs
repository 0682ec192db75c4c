//! Stage 2: feed each surveillance event to the checkpoint machines.
//!
//! This stage drives the per-event protocol loop. After every checkpoint
//! interaction it invokes the [`super::audit()`] stage (event draining) and
//! the [`super::dispatch()`] stage (command routing) so that intra-step
//! interleaving — a report posted mid-step being picked up by a later
//! departure of the same step — is preserved exactly.

use super::exchange::deliver_routed;
use super::{apply_action, StepCtx, Watch};
use crate::faults::drop_messages;
use crate::source::{BatchIndex, ObservationBatch};
use vcount_core::ActionKind;
use vcount_obs::ProtocolEvent;
use vcount_roadnet::{EdgeId, NodeId};
use vcount_traffic::TrafficEvent;
use vcount_v2x::{AdjustMode, Message, SegmentWatch, VehicleId};

/// Replays the step's event batch through the protocol, in order. `index`
/// is the engine-derived event index over the same batch (see
/// [`BatchIndex::rebuild`]).
pub fn observe(ctx: &mut StepCtx<'_>, batch: &ObservationBatch, index: &BatchIndex) {
    for (i, ev) in batch.events.iter().enumerate() {
        match *ev {
            TrafficEvent::Entered {
                vehicle,
                node,
                from,
            } => on_entered(ctx, vehicle, node, from),
            TrafficEvent::Departed {
                vehicle,
                node,
                onto,
            } => on_departed(ctx, batch, index, i, vehicle, node, onto),
            TrafficEvent::Exited { vehicle, node } => on_exited(ctx, vehicle, node),
            TrafficEvent::Overtake {
                edge,
                overtaker,
                overtaken,
            } => on_overtake(ctx, edge, overtaker, overtaken),
        }
    }
}

fn on_entered(ctx: &mut StepCtx<'_>, vehicle: VehicleId, node: NodeId, from: Option<EdgeId>) {
    let class = ctx.classes.class(vehicle);
    let is_patrol = class.is_patrol();
    let node_down = ctx.faults.down(node);

    // Deliver carried reports addressed to this node. A down checkpoint
    // cannot receive: the carrier surrenders them anyway (real radios
    // broadcast blind), the loss is counted, and the payloads are
    // discarded unparsed — a dead recipient never pays a decode.
    let due = ctx.exchange.take_due_reports(vehicle, node);
    if node_down {
        if !due.is_empty() {
            drop_messages(ctx, node, due.len());
            for env in &due {
                ctx.exchange.discard_payload(env.payload);
            }
        }
    } else {
        for env in &due {
            let r = match ctx.exchange.consume_payload(env.payload) {
                Message::Report(r) => r,
                other => unreachable!("carried report queue held {other:?}"),
            };
            apply_action(
                ctx,
                node,
                ActionKind::Report {
                    from: r.from,
                    total: r.subtree_total,
                    seq: r.seq,
                },
            );
        }
    }
    ctx.exchange.recycle_reports(due);

    if is_patrol && !node_down {
        // Deliver circuitous messages addressed here, then pick up the
        // ones waiting, then exchange status snapshots. (At a down node
        // the patrol keeps its cargo and moves on — circuitous delivery
        // is deferred, not lost.)
        let due = ctx.exchange.take_due_patrol(vehicle, node);
        for env in &due {
            deliver_routed(ctx, env.to, env.payload);
        }
        ctx.exchange.recycle_patrol(due);
        ctx.exchange.pickup_patrol(vehicle, node);
        let chaos = ctx.faults.chaos_patrol(ctx.now);
        if chaos.duplicate || chaos.reverse {
            ctx.exchange
                .chaos_patrol_carried(vehicle, chaos.duplicate, chaos.reverse);
        }
        let status = ctx.exchange.relay_status(vehicle);
        apply_action(ctx, node, ActionKind::PatrolStatus { vehicle, status });
    }

    // Segment-watch bookkeeping on the arrival edge.
    if let Some(e) = from {
        let finalize = match ctx.exchange.watch_mut(e) {
            Some(w) if w.sw.label_vehicle() == vehicle => true,
            Some(w) => {
                if !is_patrol {
                    let counted = ctx.oracle.ever_counted(vehicle);
                    w.sw.record_arrival(vehicle, counted);
                }
                false
            }
            None => false,
        };
        if finalize {
            let w = ctx.exchange.remove_watch(e).expect("checked above");
            finalize_watch(ctx, w);
        }
    }

    // Label delivery + phase 3/4/5 processing; the oracle attribution
    // (counted / interaction-in) is derived from the emitted events. The
    // vehicle surrenders its label regardless: a down checkpoint loses it
    // (counted — that label's wave stalls until compensation or re-seed,
    // and the payload is discarded unparsed), and any observation the
    // checkpoint would have counted is recorded as suppressed, so a
    // possible miscount is never silent.
    if node_down {
        if ctx.exchange.discard_label(vehicle) {
            ctx.faults.note_label_dropped();
            ctx.audit.record(
                ctx.now,
                ProtocolEvent::FaultMessageDropped {
                    node: node.0,
                    messages: 1,
                },
            );
        }
        if ctx.cps[node.index()].is_active() && !is_patrol && ctx.filter.matches(&class) {
            ctx.faults.note_suppressed_observation();
        }
    } else {
        let label = ctx.exchange.take_label(vehicle);
        apply_action(
            ctx,
            node,
            ActionKind::Entered {
                vehicle,
                via: from,
                class,
                label,
            },
        );
    }

    // Patrol observation recorded after processing: the status carried
    // onward reflects this checkpoint's state as the patrol leaves it
    // (a down checkpoint reads as inactive — that is what Alg. 4's
    // circuitous delivery is for).
    if is_patrol {
        let active = !node_down && ctx.cps[node.index()].is_active();
        ctx.exchange.observe_status(vehicle, node, active);
    }

    // Unsynchronized baselines observe the same surveillance stream.
    ctx.naive.observe(&class);
    ctx.dedup.observe(&class);
}

#[allow(clippy::too_many_arguments)]
fn on_departed(
    ctx: &mut StepCtx<'_>,
    batch: &ObservationBatch,
    index: &BatchIndex,
    event_idx: usize,
    vehicle: VehicleId,
    node: NodeId,
    onto: EdgeId,
) {
    let class = ctx.classes.class(vehicle);
    let is_patrol = class.is_patrol();

    // A down checkpoint neither loads reports nor offers labels; nothing
    // is lost (its queues were dropped at crash time, and the label offer
    // simply retries after recovery), so this is not a degradation.
    if ctx.faults.down(node) {
        return;
    }

    // Pending reports that ride this edge board the departing vehicle.
    ctx.exchange.load_reports(node, vehicle, onto);

    // Phase 2: label handoff.
    if let Some(label) = ctx.cps[node.index()].offer_label(onto) {
        // A regional blackout fails every handoff outright — patrol
        // included — without consuming a protocol-RNG draw, so fault-free
        // replay stays byte-identical. Compensation (when configured)
        // absorbs the failure exactly like an ordinary channel loss.
        let blackout = ctx.faults.blackout_handoff(ctx.now, node);
        if blackout {
            ctx.audit.record(
                ctx.now,
                ProtocolEvent::ChannelBlackout {
                    node: node.0,
                    edge: onto.0,
                    vehicle: vehicle.0,
                },
            );
        }
        let delivered = !blackout
            && (is_patrol || {
                // Police equipment is reliable; civilian handoffs go
                // through the lossy channel with ack confirmation.
                ctx.channel.attempt(&mut *ctx.proto_rng).delivered()
            });
        // On failure the checkpoint emits the compensation event (when
        // configured), and the audit stage mirrors it into the oracle — so
        // the compensation-disabled ablation shows up as violations.
        apply_action(
            ctx,
            node,
            ActionKind::Departed {
                vehicle,
                onto,
                delivered,
                matches_filter: ctx.filter.matches(&class),
            },
        );
        if delivered {
            ctx.exchange.hand_label(vehicle, label);
            if !is_patrol {
                ctx.exchange.ack_handoff(vehicle);
            }
            let ahead = ahead_of(ctx, batch, index, event_idx, vehicle, onto);
            let sw = SegmentWatch::new(ctx.adjust_mode, vehicle, ahead);
            ctx.exchange.insert_watch(onto, node, sw);
        }
    }
}

/// Vehicles ahead of a label departing onto `onto` at event `idx`, with
/// their counted status (see the runner's module docs for the
/// reconstruction from the end-of-step snapshot).
fn ahead_of(
    ctx: &StepCtx<'_>,
    batch: &ObservationBatch,
    index: &BatchIndex,
    idx: usize,
    label_vehicle: VehicleId,
    onto: EdgeId,
) -> Vec<(VehicleId, bool)> {
    let later_departure = |v: VehicleId| {
        index
            .departures_onto
            .iter()
            .any(|&(e, i, d)| e == onto && i > idx && d == v)
    };
    let later_entries = index
        .entries_via
        .iter()
        .filter(|&&(e, i, _)| e == onto && i > idx)
        .map(|&(_, _, v)| v);

    let mut ahead: Vec<VehicleId> = later_entries.collect();
    let from_entries = ahead.len();
    ahead.extend_from_slice(batch.in_transit(onto));
    // The two sources are disjoint: a vehicle whose same-step `Entered`
    // via `onto` comes later has *left* the segment this step (it sits at
    // the far node, or beyond), so it cannot also be in the end-of-step
    // `in_transit(onto)` order — a directed edge is traversed at most once
    // per step. Assert that here; the first-occurrence dedup below stays
    // correct even if a future simulator change breaks the invariant
    // (`Vec::dedup` would not: it only drops *adjacent* repeats, and this
    // concatenation is unsorted).
    debug_assert!(
        ahead[from_entries..]
            .iter()
            .all(|v| !ahead[..from_entries].contains(v)),
        "a same-step later entry cannot still be in transit on the segment"
    );
    ahead.retain(|v| {
        *v != label_vehicle && !later_departure(*v) && !ctx.classes.class(*v).is_patrol()
    });
    dedup_first_occurrence(&mut ahead);
    ahead
        .into_iter()
        .map(|v| (v, ctx.oracle.ever_counted(v)))
        .collect()
}

/// Order-preserving dedup that keeps each vehicle's *first* occurrence,
/// wherever the repeats sit (unlike `Vec::dedup`, which assumes adjacency).
/// The ahead set feeds a [`SegmentWatch`], where a double entry would
/// double-adjust a single vehicle. Lists here are a handful of vehicles,
/// so the quadratic scan beats allocating a seen-set.
fn dedup_first_occurrence(ahead: &mut Vec<VehicleId>) {
    let mut kept = 0usize;
    for i in 0..ahead.len() {
        let v = ahead[i];
        if !ahead[..kept].contains(&v) {
            ahead[kept] = v;
            kept += 1;
        }
    }
    ahead.truncate(kept);
}

fn finalize_watch(ctx: &mut StepCtx<'_>, w: Watch) {
    let adj = w.sw.finalize();
    // A down origin cannot apply the adjustment. Count what would have
    // been applied (without touching the oracle ledger — nothing was
    // actually adjusted) so the loss is explicit, and drop the watch.
    if ctx.faults.down(w.origin) {
        let lost = adj
            .plus
            .iter()
            .filter(|v| vehicle_matches(ctx, **v))
            .count()
            + adj
                .minus
                .iter()
                .filter(|v| vehicle_matches(ctx, **v))
                .count();
        if lost > 0 {
            drop_messages(ctx, w.origin, lost);
        }
        return;
    }
    let mut plus = 0usize;
    let mut minus = 0usize;
    for v in &adj.plus {
        if vehicle_matches(ctx, *v) {
            ctx.oracle
                .record(*v, crate::oracle::Attribution::AdjustPlus);
            plus += 1;
        }
    }
    for v in &adj.minus {
        if vehicle_matches(ctx, *v) {
            ctx.oracle
                .record(*v, crate::oracle::Attribution::AdjustMinus);
            minus += 1;
        }
    }
    if plus > 0 || minus > 0 {
        apply_action(ctx, w.origin, ActionKind::Adjust { plus, minus });
    }
}

fn vehicle_matches(ctx: &StepCtx<'_>, v: VehicleId) -> bool {
    let class = ctx.classes.class(v);
    !class.is_patrol() && ctx.filter.matches(&class)
}

fn on_exited(ctx: &mut StepCtx<'_>, vehicle: VehicleId, node: NodeId) {
    let class = ctx.classes.class(vehicle);
    debug_assert!(
        ctx.exchange.carried_is_empty(vehicle),
        "reports are always delivered at the node before an exit"
    );
    // A down border checkpoint misses the exit; if it would have counted
    // it, the suppression is recorded so the miss is never silent.
    if ctx.faults.down(node) {
        if ctx.cps[node.index()].is_active() && vehicle_matches(ctx, vehicle) {
            ctx.faults.note_suppressed_observation();
        }
        return;
    }
    // A counted exit emits a BorderExit event; the audit stage mirrors it
    // into the oracle as an interaction-out attribution. Exits provably
    // dispatch no commands, so the funnel's dispatch pass is a no-op here.
    apply_action(ctx, node, ActionKind::BorderExit { vehicle, class });
}

fn on_overtake(ctx: &mut StepCtx<'_>, edge: EdgeId, overtaker: VehicleId, overtaken: VehicleId) {
    // Only meaningful for the per-event adjustment ablation.
    if ctx.adjust_mode != AdjustMode::PerEvent {
        return;
    }
    let counted_overtaken = ctx.oracle.ever_counted(overtaken);
    let counted_overtaker = ctx.oracle.ever_counted(overtaker);
    let matches_overtaken = vehicle_matches(ctx, overtaken);
    let matches_overtaker = vehicle_matches(ctx, overtaker);
    if let Some(w) = ctx.exchange.watch_mut(edge) {
        let label = w.sw.label_vehicle();
        if overtaker == label && matches_overtaken {
            w.sw.label_overtakes(overtaken, counted_overtaken);
        } else if overtaken == label && matches_overtaker {
            w.sw.label_overtaken_by(overtaker, counted_overtaker);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::dedup_first_occurrence;
    use vcount_v2x::VehicleId;

    fn ids(raw: &[u64]) -> Vec<VehicleId> {
        raw.iter().map(|&v| VehicleId(v)).collect()
    }

    /// Regression for the `ahead_of` dedup: the list is an *unsorted*
    /// concatenation of same-step entries and in-transit order, so repeats
    /// need not be adjacent. `Vec::dedup` left `[3, 5, 3]` untouched, which
    /// would seed a watch that double-adjusts vehicle 3.
    #[test]
    fn removes_non_adjacent_repeats() {
        let mut ahead = ids(&[3, 5, 3, 7, 5, 3]);
        dedup_first_occurrence(&mut ahead);
        assert_eq!(ahead, ids(&[3, 5, 7]));
    }

    #[test]
    fn keeps_first_occurrence_order() {
        let mut ahead = ids(&[9, 2, 9, 2, 4]);
        dedup_first_occurrence(&mut ahead);
        assert_eq!(ahead, ids(&[9, 2, 4]));
    }

    #[test]
    fn leaves_unique_lists_alone() {
        let mut ahead = ids(&[1, 2, 3]);
        dedup_first_occurrence(&mut ahead);
        assert_eq!(ahead, ids(&[1, 2, 3]));
        let mut empty: Vec<VehicleId> = Vec::new();
        dedup_first_occurrence(&mut empty);
        assert!(empty.is_empty());
    }
}
