//! Over-the-air protocol messages and their wire codec.
//!
//! Vehicles store and forward three kinds of information (Section III-B/C):
//!
//! * the checkpoint activation [`Label`] — the "one-bit on/off information"
//!   plus the metadata our implementation needs (origin, origin's
//!   predecessor, seed) to stop the right inbound counter and to discover
//!   spanning-tree children (see DESIGN.md §4);
//! * a counting [`Report`] riding back up the spanning tree (Alg. 2/4);
//! * a [`PatrolStatus`] snapshot carried by police patrol cars (Theorem 3).
//!
//! The codec is a small hand-rolled binary format over [`bytes`] — the same
//! shape a real DSRC payload would take — with full round-trip tests.

use crate::ids::VehicleId;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use vcount_roadnet::NodeId;

/// The activation label of Alg. 1 phase 2. Exactly one label is emitted per
/// outbound direction per checkpoint activation; it rides on the first
/// vehicle joining that direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Label {
    /// The checkpoint that emitted the label.
    pub origin: NodeId,
    /// `p(origin)` at emission time (`None` at a seed). Receivers use this
    /// to learn whether they are the origin's spanning-tree parent.
    pub origin_pred: Option<NodeId>,
    /// The seed whose wave this label belongs to. With multiple seeds "all
    /// trees use the same label" — the flag is informational; receivers
    /// treat labels from all seeds identically.
    pub seed: NodeId,
}

/// A stabilized subtree count being carried from a checkpoint to its
/// predecessor (Alg. 2 phase 2 / Alg. 4 phase 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// Reporting checkpoint.
    pub from: NodeId,
    /// Destination: `p(from)`.
    pub to: NodeId,
    /// `c(from) + Σ_{v ∈ children(from)} subtree(v)` — may be negative
    /// transiently under lossy-handoff compensation.
    pub subtree_total: i64,
    /// Monotonic per-reporter sequence number; the destination keeps only
    /// the freshest report per child (Alg. 4 re-reporting).
    pub seq: u32,
}

/// A predecessor announcement relayed checkpoint-to-checkpoint (Alg. 2
/// phase 1 under the relay/patrol transports): `from` tells `to` that its
/// spanning-tree predecessor is `pred`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Announce {
    /// Destination checkpoint.
    pub to: NodeId,
    /// Announcing checkpoint.
    pub from: NodeId,
    /// The announced predecessor of `from` (`None` at a seed).
    pub pred: Option<NodeId>,
}

/// Checkpoint statuses observed by a patrol car along its cycle
/// (Theorem 3): for each visited checkpoint, whether it was active.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PatrolStatus {
    /// `(checkpoint, was_active)` in visit order; later entries supersede
    /// earlier ones for the same checkpoint.
    pub observations: Vec<(NodeId, bool)>,
}

impl PatrolStatus {
    /// Records an observation, superseding any earlier one for `node`.
    pub fn observe(&mut self, node: NodeId, active: bool) {
        self.observations.retain(|(n, _)| *n != node);
        self.observations.push((node, active));
    }
}

/// A V2V/V2I message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Message {
    /// Activation label (checkpoint → vehicle → next checkpoint).
    Label(Label),
    /// Spanning-tree count report (checkpoint → vehicle → predecessor).
    Report(Report),
    /// Patrol status snapshot (patrol car → checkpoint).
    Patrol(PatrolStatus),
    /// Handoff acknowledgement (vehicle → checkpoint), carrying the radio
    /// identity that confirmed receipt.
    Ack {
        /// The acknowledging vehicle.
        vehicle: VehicleId,
    },
    /// Predecessor announcement (checkpoint → relay/patrol → checkpoint).
    Announce(Announce),
}

/// Errors from [`Message::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the message was complete.
    Truncated,
    /// Unknown message tag byte.
    BadTag(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Wire tag of [`Message::Label`] payloads.
pub const TAG_LABEL: u8 = 1;
/// Wire tag of [`Message::Report`] payloads.
pub const TAG_REPORT: u8 = 2;
/// Wire tag of [`Message::Patrol`] payloads.
pub const TAG_PATROL: u8 = 3;
/// Wire tag of [`Message::Ack`] payloads.
pub const TAG_ACK: u8 = 4;
/// Wire tag of [`Message::Announce`] payloads.
pub const TAG_ANNOUNCE: u8 = 5;
const NODE_NONE: u32 = u32::MAX;

impl Message {
    /// Encodes the message into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16);
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// The exact length of [`Message::encode`]'s output, computed without
    /// encoding or allocating: what a transmission costs on the wire.
    pub fn encoded_len(&self) -> usize {
        match self {
            Message::Label(_) | Message::Announce(_) => 13,
            Message::Report(_) => 21,
            Message::Patrol(p) => 5 + 5 * p.observations.len(),
            Message::Ack { .. } => 9,
        }
    }

    /// Appends the wire form of the message to `buf`. Generic over
    /// [`BufMut`] so a caller can encode into a reused `Vec<u8>` without
    /// an intermediate copy.
    pub fn encode_into<B: BufMut>(&self, buf: &mut B) {
        match self {
            Message::Label(l) => {
                buf.put_u8(TAG_LABEL);
                buf.put_u32(l.origin.0);
                buf.put_u32(l.origin_pred.map_or(NODE_NONE, |n| n.0));
                buf.put_u32(l.seed.0);
            }
            Message::Report(r) => {
                buf.put_u8(TAG_REPORT);
                buf.put_u32(r.from.0);
                buf.put_u32(r.to.0);
                buf.put_i64(r.subtree_total);
                buf.put_u32(r.seq);
            }
            Message::Patrol(p) => {
                buf.put_u8(TAG_PATROL);
                buf.put_u32(p.observations.len() as u32);
                for (n, active) in &p.observations {
                    buf.put_u32(n.0);
                    buf.put_u8(u8::from(*active));
                }
            }
            Message::Ack { vehicle } => {
                buf.put_u8(TAG_ACK);
                buf.put_u64(vehicle.0);
            }
            Message::Announce(a) => {
                buf.put_u8(TAG_ANNOUNCE);
                buf.put_u32(a.to.0);
                buf.put_u32(a.from.0);
                buf.put_u32(a.pred.map_or(NODE_NONE, |n| n.0));
            }
        }
    }

    /// Decodes one message from the front of `buf`, advancing it. Generic
    /// over [`Buf`] so hot paths can decode straight from a borrowed
    /// `&[u8]` without first copying the payload into a [`Bytes`].
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Message, DecodeError> {
        if buf.remaining() < 1 {
            return Err(DecodeError::Truncated);
        }
        let tag = buf.get_u8();
        match tag {
            TAG_LABEL => {
                if buf.remaining() < 12 {
                    return Err(DecodeError::Truncated);
                }
                let origin = NodeId(buf.get_u32());
                let pred_raw = buf.get_u32();
                let seed = NodeId(buf.get_u32());
                Ok(Message::Label(Label {
                    origin,
                    origin_pred: (pred_raw != NODE_NONE).then_some(NodeId(pred_raw)),
                    seed,
                }))
            }
            TAG_REPORT => {
                if buf.remaining() < 20 {
                    return Err(DecodeError::Truncated);
                }
                Ok(Message::Report(Report {
                    from: NodeId(buf.get_u32()),
                    to: NodeId(buf.get_u32()),
                    subtree_total: buf.get_i64(),
                    seq: buf.get_u32(),
                }))
            }
            TAG_PATROL => {
                if buf.remaining() < 4 {
                    return Err(DecodeError::Truncated);
                }
                let n = buf.get_u32() as usize;
                let mut observations = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    if buf.remaining() < 5 {
                        return Err(DecodeError::Truncated);
                    }
                    let node = NodeId(buf.get_u32());
                    let active = buf.get_u8() != 0;
                    observations.push((node, active));
                }
                Ok(Message::Patrol(PatrolStatus { observations }))
            }
            TAG_ACK => {
                if buf.remaining() < 8 {
                    return Err(DecodeError::Truncated);
                }
                Ok(Message::Ack {
                    vehicle: VehicleId(buf.get_u64()),
                })
            }
            TAG_ANNOUNCE => {
                if buf.remaining() < 12 {
                    return Err(DecodeError::Truncated);
                }
                let to = NodeId(buf.get_u32());
                let from = NodeId(buf.get_u32());
                let pred_raw = buf.get_u32();
                Ok(Message::Announce(Announce {
                    to,
                    from,
                    pred: (pred_raw != NODE_NONE).then_some(NodeId(pred_raw)),
                }))
            }
            other => Err(DecodeError::BadTag(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: Message) {
        let mut wire = m.encode();
        let decoded = Message::decode(&mut wire).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(wire.remaining(), 0, "trailing bytes after decode");
    }

    #[test]
    fn label_roundtrip() {
        roundtrip(Message::Label(Label {
            origin: NodeId(7),
            origin_pred: Some(NodeId(3)),
            seed: NodeId(0),
        }));
        roundtrip(Message::Label(Label {
            origin: NodeId(0),
            origin_pred: None,
            seed: NodeId(0),
        }));
    }

    #[test]
    fn report_roundtrip_with_negative_total() {
        roundtrip(Message::Report(Report {
            from: NodeId(12),
            to: NodeId(4),
            subtree_total: -3,
            seq: 17,
        }));
    }

    #[test]
    fn announce_roundtrip() {
        roundtrip(Message::Announce(Announce {
            to: NodeId(5),
            from: NodeId(9),
            pred: Some(NodeId(2)),
        }));
        roundtrip(Message::Announce(Announce {
            to: NodeId(5),
            from: NodeId(9),
            pred: None,
        }));
    }

    #[test]
    fn patrol_roundtrip() {
        let mut p = PatrolStatus::default();
        p.observe(NodeId(1), true);
        p.observe(NodeId(2), false);
        p.observe(NodeId(1), false); // supersedes
        roundtrip(Message::Patrol(p.clone()));
        assert_eq!(p.observations, [(NodeId(2), false), (NodeId(1), false)]);
    }

    #[test]
    fn ack_roundtrip() {
        roundtrip(Message::Ack {
            vehicle: VehicleId(u64::MAX),
        });
    }

    #[test]
    fn truncated_buffers_error() {
        let full = Message::Report(Report {
            from: NodeId(1),
            to: NodeId(2),
            subtree_total: 10,
            seq: 0,
        })
        .encode();
        for cut in 0..full.len() {
            let mut part = full.slice(0..cut);
            assert_eq!(Message::decode(&mut part), Err(DecodeError::Truncated));
        }
    }

    #[test]
    fn bad_tag_errors() {
        let mut buf = Bytes::from_static(&[0xEE, 0, 0, 0, 0]);
        assert_eq!(Message::decode(&mut buf), Err(DecodeError::BadTag(0xEE)));
    }

    #[test]
    fn decode_from_borrowed_slice_matches_bytes_decode() {
        let msgs = [
            Message::Label(Label {
                origin: NodeId(7),
                origin_pred: Some(NodeId(3)),
                seed: NodeId(0),
            }),
            Message::Report(Report {
                from: NodeId(12),
                to: NodeId(4),
                subtree_total: -3,
                seq: 17,
            }),
            Message::Announce(Announce {
                to: NodeId(5),
                from: NodeId(9),
                pred: None,
            }),
            Message::Ack {
                vehicle: VehicleId(42),
            },
        ];
        for m in &msgs {
            let wire = m.encode();
            let mut slice: &[u8] = wire.as_ref();
            assert_eq!(Message::decode(&mut slice).unwrap(), *m);
            assert!(slice.is_empty(), "trailing bytes after slice decode");
        }
    }

    #[test]
    fn multiple_messages_stream() {
        let mut wire = BytesMut::new();
        let a = Message::Label(Label {
            origin: NodeId(1),
            origin_pred: None,
            seed: NodeId(1),
        });
        let b = Message::Ack {
            vehicle: VehicleId(42),
        };
        a.encode_into(&mut wire);
        b.encode_into(&mut wire);
        let mut stream = wire.freeze();
        assert_eq!(Message::decode(&mut stream).unwrap(), a);
        assert_eq!(Message::decode(&mut stream).unwrap(), b);
        assert_eq!(stream.remaining(), 0);
    }
}
