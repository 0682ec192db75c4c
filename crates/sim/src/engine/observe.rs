//! Stage 2: feed each surveillance event to the checkpoint machines.
//!
//! This stage drives the per-event protocol loop. After every checkpoint
//! interaction it invokes the [`super::audit()`] stage (event draining) and
//! the [`super::dispatch()`] stage (command routing) so that intra-step
//! interleaving — a report posted mid-step being picked up by a later
//! departure of the same step — is preserved exactly.

use super::exchange::deliver_routed;
use super::{apply_action, Engine, Watch};
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
pub fn observe(engine: &mut Engine, batch: &ObservationBatch, index: &BatchIndex) {
    for (i, ev) in batch.traffic_events().enumerate() {
        match ev {
            TrafficEvent::Entered {
                vehicle,
                node,
                from,
            } => on_entered(engine, vehicle, node, from),
            TrafficEvent::Departed {
                vehicle,
                node,
                onto,
            } => on_departed(engine, batch, index, i, vehicle, node, onto),
            TrafficEvent::Exited { vehicle, node } => on_exited(engine, vehicle, node),
            TrafficEvent::Overtake {
                edge,
                overtaker,
                overtaken,
            } => on_overtake(engine, edge, overtaker, overtaken),
        }
    }
}

fn on_entered(engine: &mut Engine, vehicle: VehicleId, node: NodeId, from: Option<EdgeId>) {
    let class = engine.classes.class(vehicle);
    let is_patrol = class.is_patrol();
    let node_down = engine.faults.down(node);

    // Deliver carried reports addressed to this node. A down checkpoint
    // cannot receive: the carrier surrenders them anyway (real radios
    // broadcast blind), the loss is counted, and the payloads are
    // discarded unparsed — a dead recipient never pays a decode.
    let due = engine.exchange.take_due_reports(vehicle, node);
    if node_down {
        if !due.is_empty() {
            drop_messages(engine, node, due.len());
            for env in &due {
                engine.exchange.discard_payload(env.payload);
            }
        }
    } else {
        for env in &due {
            let r = match engine.exchange.consume_payload(env.payload) {
                Message::Report(r) => r,
                other => unreachable!("carried report queue held {other:?}"),
            };
            apply_action(
                engine,
                node,
                ActionKind::Report {
                    from: r.from,
                    total: r.subtree_total,
                    seq: r.seq,
                },
            );
        }
    }
    engine.exchange.recycle_reports(due);

    if is_patrol && !node_down {
        // Deliver circuitous messages addressed here, then pick up the
        // ones waiting, then exchange status snapshots. (At a down node
        // the patrol keeps its cargo and moves on — circuitous delivery
        // is deferred, not lost.)
        let due = engine.exchange.take_due_patrol(vehicle, node);
        for env in &due {
            deliver_routed(engine, env.to, env.payload);
        }
        engine.exchange.recycle_patrol(due);
        engine.exchange.pickup_patrol(vehicle, node);
        let chaos = engine.faults.chaos_patrol(engine.now);
        if chaos.duplicate || chaos.reverse {
            engine
                .exchange
                .chaos_patrol_carried(vehicle, chaos.duplicate, chaos.reverse);
        }
        let status = engine.exchange.relay_status(vehicle);
        apply_action(engine, node, ActionKind::PatrolStatus { vehicle, status });
    }

    // Segment-watch bookkeeping on the arrival edge.
    if let Some(e) = from {
        let finalize = match engine.exchange.watch_mut(e) {
            Some(w) if w.sw.label_vehicle() == vehicle => true,
            Some(w) => {
                if !is_patrol {
                    let counted = engine.oracle.ever_counted(vehicle);
                    w.sw.record_arrival(vehicle, counted);
                }
                false
            }
            None => false,
        };
        if finalize {
            let w = engine.exchange.remove_watch(e).expect("checked above");
            finalize_watch(engine, w);
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
        if engine.exchange.discard_label(vehicle) {
            engine.faults.note_label_dropped();
            engine.audit.record(
                engine.now,
                ProtocolEvent::FaultMessageDropped {
                    node: node.0,
                    messages: 1,
                },
            );
        }
        if engine.cps[node.index()].is_active() && !is_patrol && engine.filter.matches(&class) {
            engine.faults.note_suppressed_observation();
        }
    } else {
        let label = engine.exchange.take_label(vehicle);
        apply_action(
            engine,
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
        let active = !node_down && engine.cps[node.index()].is_active();
        engine.exchange.observe_status(vehicle, node, active);
    }

    // Unsynchronized baselines observe the same surveillance stream.
    engine.naive.observe(&class);
    engine.dedup.observe(&class);
}

#[allow(clippy::too_many_arguments)]
fn on_departed(
    engine: &mut Engine,
    batch: &ObservationBatch,
    index: &BatchIndex,
    event_idx: usize,
    vehicle: VehicleId,
    node: NodeId,
    onto: EdgeId,
) {
    let class = engine.classes.class(vehicle);
    let is_patrol = class.is_patrol();

    // A down checkpoint neither loads reports nor offers labels; nothing
    // is lost (its queues were dropped at crash time, and the label offer
    // simply retries after recovery), so this is not a degradation.
    if engine.faults.down(node) {
        return;
    }

    // Pending reports that ride this edge board the departing vehicle.
    engine.exchange.load_reports(node, vehicle, onto);

    // Phase 2: label handoff.
    if let Some(label) = engine.cps[node.index()].offer_label(onto) {
        // A regional blackout fails every handoff outright — patrol
        // included — without consuming a protocol-RNG draw, so fault-free
        // replay stays byte-identical. Compensation (when configured)
        // absorbs the failure exactly like an ordinary channel loss.
        let blackout = engine.faults.blackout_handoff(engine.now, node);
        if blackout {
            engine.audit.record(
                engine.now,
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
                engine.channel.attempt(&mut engine.proto_rng).delivered()
            });
        // On failure the checkpoint emits the compensation event (when
        // configured), and the audit stage mirrors it into the oracle — so
        // the compensation-disabled ablation shows up as violations.
        apply_action(
            engine,
            node,
            ActionKind::Departed {
                vehicle,
                onto,
                delivered,
                matches_filter: engine.filter.matches(&class),
            },
        );
        if delivered {
            engine.exchange.hand_label(vehicle, label);
            if !is_patrol {
                engine.exchange.ack_handoff(vehicle);
            }
            let ahead = ahead_of(engine, batch, index, event_idx, vehicle, onto);
            let sw = SegmentWatch::new(engine.adjust_mode, vehicle, ahead);
            engine.exchange.insert_watch(onto, node, sw);
        }
    }
}

/// Vehicles ahead of a label departing onto `onto` at event `idx`, with
/// their counted status (see the runner's module docs for the
/// reconstruction from the end-of-step snapshot).
fn ahead_of(
    engine: &Engine,
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
        *v != label_vehicle && !later_departure(*v) && !engine.classes.class(*v).is_patrol()
    });
    dedup_first_occurrence(&mut ahead);
    ahead
        .into_iter()
        .map(|v| (v, engine.oracle.ever_counted(v)))
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

fn finalize_watch(engine: &mut Engine, w: Watch) {
    let adj = w.sw.finalize();
    // A down origin cannot apply the adjustment. Count what would have
    // been applied (without touching the oracle ledger — nothing was
    // actually adjusted) so the loss is explicit, and drop the watch.
    if engine.faults.down(w.origin) {
        let lost = adj
            .plus
            .iter()
            .filter(|v| vehicle_matches(engine, **v))
            .count()
            + adj
                .minus
                .iter()
                .filter(|v| vehicle_matches(engine, **v))
                .count();
        if lost > 0 {
            drop_messages(engine, w.origin, lost);
        }
        return;
    }
    let mut plus = 0usize;
    let mut minus = 0usize;
    for v in &adj.plus {
        if vehicle_matches(engine, *v) {
            engine
                .oracle
                .record(*v, crate::oracle::Attribution::AdjustPlus);
            plus += 1;
        }
    }
    for v in &adj.minus {
        if vehicle_matches(engine, *v) {
            engine
                .oracle
                .record(*v, crate::oracle::Attribution::AdjustMinus);
            minus += 1;
        }
    }
    if plus > 0 || minus > 0 {
        apply_action(engine, w.origin, ActionKind::Adjust { plus, minus });
    }
}

fn vehicle_matches(engine: &Engine, v: VehicleId) -> bool {
    let class = engine.classes.class(v);
    !class.is_patrol() && engine.filter.matches(&class)
}

fn on_exited(engine: &mut Engine, vehicle: VehicleId, node: NodeId) {
    let class = engine.classes.class(vehicle);
    debug_assert!(
        engine.exchange.carried_is_empty(vehicle),
        "reports are always delivered at the node before an exit"
    );
    // A down border checkpoint misses the exit; if it would have counted
    // it, the suppression is recorded so the miss is never silent.
    if engine.faults.down(node) {
        if engine.cps[node.index()].is_active() && vehicle_matches(engine, vehicle) {
            engine.faults.note_suppressed_observation();
        }
        return;
    }
    // A counted exit emits a BorderExit event; the audit stage mirrors it
    // into the oracle as an interaction-out attribution. Exits provably
    // dispatch no commands, so the funnel's dispatch pass is a no-op here.
    apply_action(engine, node, ActionKind::BorderExit { vehicle, class });
}

fn on_overtake(engine: &mut Engine, edge: EdgeId, overtaker: VehicleId, overtaken: VehicleId) {
    // Only meaningful for the per-event adjustment ablation.
    if engine.adjust_mode != AdjustMode::PerEvent {
        return;
    }
    let counted_overtaken = engine.oracle.ever_counted(overtaken);
    let counted_overtaker = engine.oracle.ever_counted(overtaker);
    let matches_overtaken = vehicle_matches(engine, overtaken);
    let matches_overtaker = vehicle_matches(engine, overtaker);
    if let Some(w) = engine.exchange.watch_mut(edge) {
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
