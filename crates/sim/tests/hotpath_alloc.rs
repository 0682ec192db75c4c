//! Guards the allocation-free steady state of the exchange's due-message
//! takes.
//!
//! [`Exchange::take_due_reports`] and [`Exchange::take_due_patrol`] hand
//! out reusable scratch buffers. They must come from *distinct* scratch
//! slots: the engine takes both in the same arrival (reports first, patrol
//! second), so a shared slot would hand the second take a freshly
//! allocated vector every time — a per-arrival allocation the original
//! shared-`due_scratch` implementation actually had. A counting global
//! allocator pins the fix: after one warm-up take per slot, a window of
//! paired take/recycle cycles must not allocate at all.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;
use vcount_roadnet::{EdgeId, NodeId};
use vcount_sim::Exchange;
use vcount_v2x::{Label, Message, VehicleId};

#[test]
fn paired_due_takes_do_not_allocate() {
    const WINDOW: usize = 200;
    let nodes = WINDOW + 2;
    let mut ex = Exchange::new(1, nodes);
    let v = VehicleId(0);
    let msg = Message::Label(Label {
        origin: NodeId(0),
        origin_pred: None,
        seed: NodeId(0),
    });

    // Preload one envelope per destination onto the carried queues (this
    // part allocates freely: payload encoding, queue growth).
    for i in 1..nodes {
        ex.post_report(NodeId(0), EdgeId(0), NodeId(i as u32), &msg);
        ex.post_patrol(NodeId(0), NodeId(i as u32), &msg);
    }
    ex.load_reports(NodeId(0), v, EdgeId(0));
    ex.pickup_patrol(v, NodeId(0));

    // Warm-up: one take per slot grows each scratch buffer to capacity.
    let r = ex.take_due_reports(v, NodeId(1));
    let p = ex.take_due_patrol(v, NodeId(1));
    assert_eq!((r.len(), p.len()), (1, 1), "warm-up takes missed");
    ex.recycle_reports(r);
    ex.recycle_patrol(p);

    let (taken, delta) = allocations_in(|| {
        let mut taken = 0usize;
        for i in 2..nodes {
            let r = ex.take_due_reports(v, NodeId(i as u32));
            let p = ex.take_due_patrol(v, NodeId(i as u32));
            taken += r.len() + p.len();
            ex.recycle_reports(r);
            ex.recycle_patrol(p);
        }
        taken
    });

    assert_eq!(taken, 2 * WINDOW, "measurement window missed envelopes");
    assert_eq!(
        delta, 0,
        "paired take/recycle cycles allocated {delta} times over {WINDOW} \
         arrivals — the due-scratch slots are being clobbered"
    );
}
