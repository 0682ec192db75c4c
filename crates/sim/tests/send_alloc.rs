//! Guards the allocation-free steady state of the exchange's *send*
//! path.
//!
//! The exchange's queues hold typed `Copy` messages, and a send counts
//! the codec instead of writing a payload. Debug builds (which `cargo
//! test` runs) also round-trip every send through the codec, into one
//! reused buffer. So once the queues, the due-take scratch buffers and
//! that buffer have been warmed, a full send → carry → deliver cycle must
//! not touch the allocator at all. A counting global allocator pins that:
//! after a warm-up cycle per message, a window of
//! post/load/take/consume/recycle cycles must not allocate.
//!
//! The window cycles a `Report` through the report path, a `Report` and
//! an `Announce` through the patrol path, and a `Label` through
//! `hand_label`/`take_label`. (A `Patrol` status's round-trip decode
//! legitimately allocates its observation vector, so it stays out of the
//! window.)

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;
use vcount_roadnet::{EdgeId, NodeId};
use vcount_sim::engine::Routed;
use vcount_sim::Exchange;
use vcount_v2x::{Announce, Label, Report, VehicleId};

const REPORT: Report = Report {
    from: NodeId(0),
    to: NodeId(1),
    subtree_total: 41,
    seq: 3,
};

const ANNOUNCE: Announce = Announce {
    to: NodeId(1),
    from: NodeId(0),
    pred: None,
};

const LABEL: Label = Label {
    origin: NodeId(0),
    origin_pred: Some(NodeId(1)),
    seed: NodeId(0),
};

/// One full lifetime of each message: a report posted, loaded onto a
/// vehicle and taken at its destination; a report and an announce posted
/// for a patrol car, picked up and taken at theirs; a label handed to a
/// vehicle and taken. Each delivery counts its consume, and the scratch
/// buffers go back. Returns how many messages were delivered, so the
/// caller can assert the window did real work.
fn send_cycle(ex: &mut Exchange, v: VehicleId) -> usize {
    ex.post_report(NodeId(0), EdgeId(0), REPORT);
    ex.load_reports(NodeId(0), v, EdgeId(0));
    let reports = ex.take_due_reports(v, NodeId(1));
    assert_eq!(*reports, [REPORT], "report round trip broke");
    let mut delivered = reports.len();
    ex.count_consumed(reports.len());
    ex.recycle_reports(reports);

    ex.post_patrol(NodeId(0), Routed::Report(REPORT));
    ex.post_patrol(NodeId(0), Routed::Announce(ANNOUNCE));
    ex.pickup_patrol(v, NodeId(0));
    let routed = ex.take_due_patrol(v, NodeId(1));
    assert_eq!(
        *routed,
        [Routed::Report(REPORT), Routed::Announce(ANNOUNCE)],
        "patrol round trip broke"
    );
    delivered += routed.len();
    ex.count_consumed(routed.len());
    ex.recycle_patrol(routed);

    ex.hand_label(v, LABEL);
    assert_eq!(ex.take_label(v), Some(LABEL), "label round trip broke");
    delivered + 1
}

#[test]
fn steady_state_send_path_does_not_allocate() {
    const WINDOW: usize = 200;
    const PER_CYCLE: usize = 4;
    let mut ex = Exchange::new(1, 4);
    let v = VehicleId(0);

    // Warm-up: the first cycle grows the pending/carried queues, the
    // patrol car's carried list, the due-take scratch buffers and the
    // round-trip buffer (allocates freely).
    assert_eq!(send_cycle(&mut ex, v), PER_CYCLE, "warm-up cycle missed");

    let (delivered, delta) =
        allocations_in(|| (0..WINDOW).map(|_| send_cycle(&mut ex, v)).sum::<usize>());

    assert_eq!(
        delivered,
        WINDOW * PER_CYCLE,
        "measurement window missed messages"
    );
    let c = ex.counters();
    let sent = ((WINDOW + 1) * PER_CYCLE) as u64;
    assert_eq!(
        (c.encoded, c.decoded),
        (sent, sent),
        "every send consumed once"
    );
    assert_eq!(
        delta, 0,
        "steady-state send path allocated {delta} times over {delivered} \
         send/consume cycles — a queue or scratch buffer is being rebuilt"
    );
}
