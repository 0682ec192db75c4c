//! Stage 3: route checkpoint transport commands into the
//! [`super::Exchange`].
//!
//! Every command becomes a wire-encoded [`vcount_v2x::Message`] the moment
//! it enters the exchange — vehicle-carried, relayed, or patrol-carried —
//! so the codec is the canonical payload representation throughout.

use super::Engine;
use crate::scenario::TransportMode;
use vcount_core::Command;
use vcount_roadnet::NodeId;
use vcount_v2x::{Announce, Message, Report};

/// Routes the commands `from` emitted into the exchange, per the
/// scenario's transport mode, draining the caller's scratch buffer.
pub fn dispatch(engine: &mut Engine, from: NodeId, cmds: &mut Vec<Command>) {
    for cmd in cmds.drain(..) {
        match cmd {
            Command::SendPredAnnounce { to, pred } => {
                let msg = Message::Announce(Announce { to, from, pred });
                match engine.transport {
                    TransportMode::VehicleWithRelayFallback { relay_speed_mps }
                    | TransportMode::RelayOnly { relay_speed_mps } => {
                        queue_relay(engine, from, relay_speed_mps, to, &msg);
                    }
                    TransportMode::VehicleWithPatrolFallback => {
                        engine.exchange.post_patrol(from, to, &msg);
                    }
                }
            }
            Command::SendReport { to, total, seq } => {
                let msg = Message::Report(Report {
                    from,
                    to,
                    subtree_total: total,
                    seq,
                });
                let edge = engine.net.edge_between(from, to);
                match (edge, engine.transport) {
                    (Some(e), TransportMode::VehicleWithRelayFallback { .. })
                    | (Some(e), TransportMode::VehicleWithPatrolFallback) => {
                        engine.exchange.post_report(from, e, to, &msg);
                    }
                    (_, TransportMode::RelayOnly { relay_speed_mps })
                    | (None, TransportMode::VehicleWithRelayFallback { relay_speed_mps }) => {
                        queue_relay(engine, from, relay_speed_mps, to, &msg);
                    }
                    (None, TransportMode::VehicleWithPatrolFallback) => {
                        engine.exchange.post_patrol(from, to, &msg);
                    }
                }
            }
        }
    }
}

/// Queues `msg` on the directional relay with a distance-proportional
/// delivery delay (see [`super::Exchange::queue_relay`]), applying any
/// chaos the fault layer decides for this enqueue (extra delay, duplicate
/// copy, swapped delivery order).
fn queue_relay(engine: &mut Engine, from: NodeId, relay_speed_mps: f64, to: NodeId, msg: &Message) {
    let net = &engine.net;
    let dist = net.node(from).pos.distance(&net.node(to).pos);
    let due = engine.now + dist / relay_speed_mps.max(1.0) + 1.0;
    let chaos = engine.faults.chaos_relay(engine.now);
    engine
        .exchange
        .queue_relay(due + chaos.extra_delay_s, to, msg);
    if chaos.duplicate {
        engine
            .exchange
            .queue_relay(due + chaos.duplicate_extra_delay_s, to, msg);
    }
    if chaos.reorder {
        engine.exchange.swap_relay_due_tail();
    }
}
