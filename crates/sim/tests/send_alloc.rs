//! Guards the allocation-free steady state of the exchange's *send*
//! path.
//!
//! Before the slab payload store, every `Exchange::encode` copied the
//! scratch encode buffer into a fresh `Vec<u8>` — one heap allocation
//! per posted message, on every send site (labels, reports, patrol
//! status, relays). The [`PayloadStore`] recycles freed slots with their
//! capacity intact, so once a slot and the surrounding queues have been
//! warmed, a full send → carry → deliver → free cycle must not touch
//! the allocator at all. A counting global allocator pins that: after a
//! warm-up cycle per message, a window of post/load/take/consume/recycle
//! cycles must not allocate.
//!
//! [`PayloadStore`]: vcount_v2x::PayloadStore
//!
//! The window cycles a `Label`, a `Report` and an `Announce` through
//! the report path, so it also pins the zero-copy decode in
//! `consume_payload`: the decoder reads straight from the slab slot, never
//! from a fresh heap copy. (Decoding `Patrol` legitimately allocates its
//! observation vector, so it stays out of the window.)

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;
use vcount_roadnet::{EdgeId, NodeId};
use vcount_sim::Exchange;
use vcount_v2x::{Announce, Label, Message, Report, VehicleId};

/// One full message lifetime on the report path: post (slab encode),
/// load onto a vehicle, take at the destination, consume (lazy decode +
/// slot free), recycle the scratch buffer. Returns how many messages
/// were delivered, so the caller can assert the window did real work.
fn send_cycle(ex: &mut Exchange, v: VehicleId, msg: &Message) -> usize {
    ex.post_report(NodeId(0), EdgeId(0), NodeId(1), msg);
    ex.load_reports(NodeId(0), v, EdgeId(0));
    let due = ex.take_due_reports(v, NodeId(1));
    let mut delivered = 0usize;
    for routed in &due {
        assert_eq!(
            &ex.consume_payload(routed.payload),
            msg,
            "send round-trip broke"
        );
        delivered += 1;
    }
    ex.recycle_reports(due);
    delivered
}

#[test]
fn steady_state_send_path_does_not_allocate() {
    const WINDOW: usize = 200;
    let mut ex = Exchange::new(1, 4);
    let v = VehicleId(0);
    let messages = [
        Message::Label(Label {
            origin: NodeId(0),
            origin_pred: Some(NodeId(1)),
            seed: NodeId(0),
        }),
        Message::Report(Report {
            from: NodeId(0),
            to: NodeId(1),
            subtree_total: 41,
            seq: 3,
        }),
        Message::Announce(Announce {
            to: NodeId(1),
            from: NodeId(0),
            pred: None,
        }),
    ];

    // Warm-up: the first cycles grow the slab slot to the largest
    // payload, the pending/carried queues, and the due-take scratch
    // buffer (allocates freely).
    for msg in &messages {
        assert_eq!(send_cycle(&mut ex, v, msg), 1, "warm-up cycle missed");
    }

    let (delivered, delta) = allocations_in(|| {
        let mut delivered = 0usize;
        for _ in 0..WINDOW {
            for msg in &messages {
                delivered += send_cycle(&mut ex, v, msg);
            }
        }
        delivered
    });

    assert_eq!(
        delivered,
        WINDOW * messages.len(),
        "measurement window missed messages"
    );
    assert_eq!(
        delta, 0,
        "steady-state send path allocated {delta} times over {delivered} \
         post/consume cycles — slab slot recycling or the zero-copy decode \
         is being bypassed"
    );
}
