//! Property tests of the wire codec and the loss models.

use bytes::{Buf, BytesMut};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vcount_roadnet::NodeId;
use vcount_v2x::{
    Announce, Bernoulli, DecodeError, Label, LossModel, Message, PatrolStatus, Report, VehicleId,
};

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            any::<u32>(),
            proptest::option::of(any::<u32>()),
            any::<u32>()
        )
            .prop_map(|(o, p, s)| Message::Label(Label {
                origin: NodeId(o),
                // u32::MAX encodes None on the wire; keep ids below it.
                origin_pred: p.map(|v| NodeId(v % (u32::MAX - 1))),
                seed: NodeId(s % (u32::MAX - 1)),
            })),
        (any::<u32>(), any::<u32>(), any::<i64>(), any::<u32>()).prop_map(|(f, t, c, q)| {
            Message::Report(Report {
                from: NodeId(f),
                to: NodeId(t),
                subtree_total: c,
                seq: q,
            })
        }),
        proptest::collection::vec((any::<u32>(), any::<bool>()), 0..20).prop_map(|obs| {
            let mut p = PatrolStatus::default();
            for (n, a) in obs {
                p.observe(NodeId(n), a);
            }
            Message::Patrol(p)
        }),
        any::<u64>().prop_map(|v| Message::Ack {
            vehicle: VehicleId(v)
        }),
        (
            any::<u32>(),
            any::<u32>(),
            proptest::option::of(any::<u32>())
        )
            .prop_map(|(t, f, p)| Message::Announce(Announce {
                to: NodeId(t),
                from: NodeId(f),
                // u32::MAX encodes None on the wire; keep ids below it.
                pred: p.map(|v| NodeId(v % (u32::MAX - 1))),
            })),
    ]
}

proptest! {
    /// Every message round-trips through the wire format losslessly and
    /// consumes exactly its own bytes.
    #[test]
    fn roundtrip(m in arb_message()) {
        // Labels with origin == u32::MAX would collide with the None
        // sentinel; the protocol never allocates that id.
        if let Message::Label(l) = &m {
            prop_assume!(l.origin.0 != u32::MAX);
        }
        let mut wire = m.encode();
        let back = Message::decode(&mut wire).unwrap();
        prop_assert_eq!(back, m);
        prop_assert_eq!(wire.remaining(), 0);
    }

    /// `encoded_len` is the exact length `encode` writes, for every
    /// variant.
    #[test]
    fn encoded_len_matches_encode(m in arb_message()) {
        prop_assert_eq!(m.encoded_len(), m.encode().len());
    }

    /// Concatenated messages decode in order (streaming).
    #[test]
    fn streaming(ms in proptest::collection::vec(arb_message(), 1..8)) {
        for m in &ms {
            if let Message::Label(l) = m {
                prop_assume!(l.origin.0 != u32::MAX);
            }
        }
        let mut buf = BytesMut::new();
        for m in &ms {
            m.encode_into(&mut buf);
        }
        let mut wire = buf.freeze();
        for m in &ms {
            prop_assert_eq!(&Message::decode(&mut wire).unwrap(), m);
        }
        prop_assert_eq!(wire.remaining(), 0);
    }

    /// Arbitrary byte soup never panics the decoder: it either yields a
    /// message or a clean error.
    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut wire = bytes::Bytes::from(bytes);
        let _ = Message::decode(&mut wire);
    }

    /// Adversarial hardening: every strict prefix of a valid encoding is a
    /// clean `Truncated` error — never a panic, never an over-read.
    #[test]
    fn truncation_always_clean_error(m in arb_message()) {
        if let Message::Label(l) = &m {
            prop_assume!(l.origin.0 != u32::MAX);
        }
        let full = m.encode();
        for cut in 0..full.len() {
            let mut part = full.slice(0..cut);
            prop_assert_eq!(Message::decode(&mut part), Err(DecodeError::Truncated));
        }
    }

    /// Adversarial hardening: corrupting the tag byte to anything outside
    /// the known tag set yields `BadTag`, never a panic.
    #[test]
    fn tag_corruption_always_bad_tag(m in arb_message(), bad in any::<u8>()) {
        prop_assume!(!(1..=5).contains(&bad));
        let full = m.encode();
        let mut bytes = full.to_vec();
        bytes[0] = bad;
        let mut wire = bytes::Bytes::from(bytes);
        prop_assert_eq!(Message::decode(&mut wire), Err(DecodeError::BadTag(bad)));
    }

    /// Adversarial hardening: single bit flips anywhere in a valid encoding
    /// never panic and never make the decoder read past the buffer. A flip
    /// may still decode (e.g. inside an id field) — that is fine; what must
    /// hold is memory safety and bounded consumption.
    #[test]
    fn bit_flips_never_panic_or_overread(m in arb_message(), pos in any::<u16>(), bit in 0u8..8) {
        let full = m.encode();
        let mut bytes = full.to_vec();
        let idx = pos as usize % bytes.len();
        bytes[idx] ^= 1 << bit;
        let len = bytes.len();
        let mut wire = bytes::Bytes::from(bytes);
        let res = Message::decode(&mut wire);
        if res.is_ok() {
            prop_assert!(wire.remaining() <= len);
        }
    }

    /// Bernoulli failure frequency tracks the configured probability.
    #[test]
    fn bernoulli_rate(p in 0.0f64..=1.0, seed in any::<u64>()) {
        let ch = Bernoulli::new(p);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 4000;
        let fails = (0..n).filter(|_| !ch.attempt(&mut rng).delivered()).count();
        let rate = fails as f64 / n as f64;
        prop_assert!((rate - p).abs() < 0.05, "p={p} observed={rate}");
    }
}

/// A patrol status's length counts every observation: none, and more
/// than the 1,024 the decoder preallocates for.
#[test]
fn patrol_encoded_len_matches_encode_at_the_extremes() {
    for n in [0u32, 1, 1_025, 3_000] {
        let m = Message::Patrol(PatrolStatus {
            observations: (0..n).map(|i| (NodeId(i), i % 3 == 0)).collect(),
        });
        assert_eq!(m.encoded_len(), m.encode().len(), "{n} observations");
        assert_eq!(m.encoded_len(), 5 + 5 * n as usize);
    }
}
