//! Pins the wire-counter semantics of the self-delivery paths
//! (`ack_handoff`, `relay_status`) and of a discarded delivery.
//!
//! The exchange both produces and consumes those two transmissions in
//! the same call, and like every queued message they are counted from
//! `Message::encoded_len`, never encoded in a release build. They still
//! model a real transmission, so their counters must read exactly as if
//! the bytes had crossed the air: one `encoded`, one `decoded`, the full
//! payload length in `bytes`, and never a `skipped_decode`. This test is
//! the regression fence: if a refactor drops (or double-counts) a leg of
//! the count, the telemetry silently changes meaning and every downstream
//! overhead analysis drifts. Counter *values* are asserted, not just
//! deltas being nonzero. Run in a debug build, it also drives every send
//! through the exchange's round-trip check (encode, decode, compare, and
//! match the counted length).

use vcount_roadnet::{EdgeId, NodeId};
use vcount_sim::Exchange;
use vcount_v2x::{Message, Report, VehicleId};

#[test]
fn ack_handoff_counts_one_encode_and_one_decode() {
    let mut ex = Exchange::new(1, 4);
    let v = VehicleId(7);
    let ack_len = Message::Ack { vehicle: v }.encode().len() as u64;

    for round in 1..=3u64 {
        ex.ack_handoff(v);
        let c = ex.counters();
        assert_eq!(c.encoded, round, "ack must count exactly one encode");
        assert_eq!(c.decoded, round, "ack must count exactly one decode");
        assert_eq!(
            c.bytes,
            round * ack_len,
            "ack must count its full wire length"
        );
        assert_eq!(
            c.skipped_decode, 0,
            "a consumed ack is never a skipped decode"
        );
    }
}

#[test]
fn relay_status_counts_one_encode_and_one_decode() {
    let mut ex = Exchange::new(1, 8);
    let v = VehicleId(0);
    ex.observe_status(v, NodeId(2), true);
    ex.observe_status(v, NodeId(5), false);
    ex.observe_status(v, NodeId(2), false); // supersedes the first entry

    let before = ex.counters();
    let status = ex.relay_status(v);
    let c = ex.counters();

    assert_eq!(
        status.observations,
        [(NodeId(5), false), (NodeId(2), false)]
    );
    let wire_len = Message::Patrol(status.clone()).encode().len() as u64;

    assert_eq!(
        c.encoded,
        before.encoded + 1,
        "status relay must count one encode"
    );
    assert_eq!(
        c.decoded,
        before.decoded + 1,
        "status relay must count one decode"
    );
    assert_eq!(
        c.bytes,
        before.bytes + wire_len,
        "status relay must count the full encoded status length"
    );
    assert_eq!(
        c.skipped_decode, 0,
        "a consumed status is never a skipped decode"
    );

    // The patrol keeps its observation log: relaying again transmits
    // the same status, again at full wire accounting.
    let again = ex.relay_status(v);
    assert_eq!(
        again.observations, status.observations,
        "status must persist across relays"
    );
    let c2 = ex.counters();
    assert_eq!(c2.encoded, c.encoded + 1);
    assert_eq!(c2.decoded, c.decoded + 1);
    assert_eq!(c2.bytes, c.bytes + wire_len);
}

/// A delivery whose recipient is down counts `skipped_decode`, not
/// `decoded`: sends and bytes count every message, and the two delivery
/// counters partition the messages delivered.
#[test]
fn discards_count_as_skipped_decodes() {
    let report = Report {
        from: NodeId(0),
        to: NodeId(1),
        subtree_total: 5,
        seq: 1,
    };
    let mut ex = Exchange::new(1, 4);
    let v = VehicleId(0);
    for _ in 0..3 {
        ex.post_report(NodeId(0), EdgeId(0), report);
    }
    ex.load_reports(NodeId(0), v, EdgeId(0));
    let due = ex.take_due_reports(v, NodeId(1));
    assert_eq!(*due, [report; 3]);
    // Consume one, discard two (their recipient is "down").
    ex.count_consumed(1);
    ex.count_discarded(2);
    ex.recycle_reports(due);
    let c = ex.counters();
    assert_eq!(c.encoded, 3);
    assert_eq!((c.decoded, c.skipped_decode), (1, 2));
    let report_len = Message::Report(report).encode().len() as u64;
    assert_eq!(c.bytes, 3 * report_len, "every send counts its bytes");
}
