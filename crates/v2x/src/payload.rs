//! Slab-backed storage for in-flight wire payloads.
//!
//! The exchange used to keep every queued message as an owned `Vec<u8>`,
//! which meant one heap allocation (and one copy out of the encode
//! scratch) per message sent — on the hottest path of the message plane.
//! A [`PayloadStore`] replaces that with a slab of reusable byte slots:
//! encoding writes straight into a recycled slot's `Vec<u8>` (capacity is
//! retained across messages, so the steady state allocates nothing), and
//! queues hold copyable [`PayloadRef`] keys instead of owned buffers.
//!
//! Refs are generation-checked: freeing a slot bumps its generation, so a
//! stale ref (use-after-free, double-free, or an aliasing bug where two
//! queues claim one slot) panics instead of silently reading another
//! message's bytes. The store is deliberately not serializable — snapshot
//! code resolves refs to owned bytes and re-interns them on restore.
//!
//! [`LazyPayload`] is the read side: a borrowed view of a stored payload
//! that decodes only when actually consumed, so a recipient that drops a
//! message (crashed checkpoint, duplicate) never pays the decode.

use crate::message::{DecodeError, Message};

/// A generation-checked key into a [`PayloadStore`] slot.
///
/// Cheap to copy and store in queues; resolving it after the payload was
/// freed panics (the generation no longer matches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadRef {
    slot: u32,
    gen: u32,
}

/// A slab of reusable payload buffers. See the module docs.
#[derive(Debug, Default)]
pub struct PayloadStore {
    /// Slot buffers; freed slots keep their capacity for reuse.
    slots: Vec<Vec<u8>>,
    /// Current generation per slot; bumped on free.
    gens: Vec<u32>,
    /// Indices of free slots.
    free: Vec<u32>,
}

impl PayloadStore {
    /// An empty store.
    pub fn new() -> Self {
        PayloadStore::default()
    }

    /// Number of live (allocated, not freed) payloads.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slots ever grown (live + free). A steady-state workload
    /// plateaus here: inserts reuse freed slots instead of growing.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Claims a slot (recycled if possible) and fills it via `fill`,
    /// which appends into a cleared `Vec<u8>` that keeps its previous
    /// capacity — the steady-state insert allocates nothing.
    pub fn insert_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> PayloadRef {
        let slot = match self.free.pop() {
            Some(i) => i as usize,
            None => {
                self.slots.push(Vec::new());
                self.gens.push(0);
                self.slots.len() - 1
            }
        };
        self.slots[slot].clear();
        fill(&mut self.slots[slot]);
        PayloadRef {
            slot: slot as u32,
            gen: self.gens[slot],
        }
    }

    /// Stores a copy of `bytes` (restore/interning path).
    pub fn insert(&mut self, bytes: &[u8]) -> PayloadRef {
        self.insert_with(|buf| buf.extend_from_slice(bytes))
    }

    /// Byte-copies a live payload into a fresh slot (chaos duplication).
    /// The copy is independent: freeing one ref never invalidates the
    /// other, which a shared-slot alias would.
    pub fn duplicate(&mut self, r: PayloadRef) -> PayloadRef {
        self.check(r);
        let dst = match self.free.pop() {
            Some(i) => i as usize,
            None => {
                self.slots.push(Vec::new());
                self.gens.push(0);
                self.slots.len() - 1
            }
        };
        let src = r.slot as usize;
        debug_assert_ne!(src, dst, "a live ref cannot point at a free slot");
        // Split borrow: copy src's bytes into dst without cloning through
        // a temporary.
        let (a, b) = if src < dst {
            let (lo, hi) = self.slots.split_at_mut(dst);
            (&lo[src], &mut hi[0])
        } else {
            let (lo, hi) = self.slots.split_at_mut(src);
            (&hi[0] as &Vec<u8>, &mut lo[dst])
        };
        b.clear();
        b.extend_from_slice(a);
        PayloadRef {
            slot: dst as u32,
            gen: self.gens[dst],
        }
    }

    /// The stored bytes behind `r`. Panics on a stale ref.
    pub fn get(&self, r: PayloadRef) -> &[u8] {
        self.check(r);
        &self.slots[r.slot as usize]
    }

    /// A lazily-decodable view of the payload behind `r`.
    pub fn lazy(&self, r: PayloadRef) -> LazyPayload<'_> {
        LazyPayload { bytes: self.get(r) }
    }

    /// Releases the slot behind `r` for reuse, invalidating the ref (and
    /// any accidental copies of it — the generation bumps).
    pub fn free(&mut self, r: PayloadRef) {
        self.check(r);
        let slot = r.slot as usize;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.slots[slot].clear();
        self.free.push(r.slot);
    }

    fn check(&self, r: PayloadRef) {
        let gen = self
            .gens
            .get(r.slot as usize)
            .unwrap_or_else(|| panic!("payload ref {r:?} outside the store"));
        assert_eq!(
            *gen, r.gen,
            "stale payload ref {r:?} (freed slot reused or double-free)"
        );
    }
}

/// A borrowed, not-yet-decoded payload. Decoding happens only when the
/// consumer calls [`LazyPayload::decode`]; recipients that drop the
/// message (crashed checkpoint, duplicate suppression) inspect at most
/// the tag byte and never pay the decode.
#[derive(Debug, Clone, Copy)]
pub struct LazyPayload<'a> {
    bytes: &'a [u8],
}

impl<'a> LazyPayload<'a> {
    /// The wire tag byte, without decoding the body.
    pub fn tag(&self) -> Option<u8> {
        self.bytes.first().copied()
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the payload is empty (never true for a valid message).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The raw wire bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Decodes the full message — the consumption point.
    pub fn decode(self) -> Result<Message, DecodeError> {
        let mut buf = self.bytes;
        let msg = Message::decode(&mut buf)?;
        debug_assert!(buf.is_empty(), "trailing bytes after payload decode");
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_free_round_trip() {
        let mut store = PayloadStore::new();
        let a = store.insert(b"alpha");
        let b = store.insert(b"beta");
        assert_eq!(store.get(a), b"alpha");
        assert_eq!(store.get(b), b"beta");
        assert_eq!(store.live(), 2);
        store.free(a);
        assert_eq!(store.live(), 1);
        assert_eq!(store.get(b), b"beta");
    }

    #[test]
    fn slots_are_recycled_without_growth() {
        let mut store = PayloadStore::new();
        let a = store.insert(b"first");
        store.free(a);
        let b = store.insert(b"second");
        assert_eq!(store.slots(), 1, "freed slot must be reused");
        assert_eq!(store.get(b), b"second");
    }

    #[test]
    #[should_panic(expected = "stale payload ref")]
    fn stale_ref_after_free_panics() {
        let mut store = PayloadStore::new();
        let a = store.insert(b"gone");
        store.free(a);
        let _ = store.insert(b"new tenant");
        let _ = store.get(a);
    }

    #[test]
    #[should_panic(expected = "stale payload ref")]
    fn double_free_panics() {
        let mut store = PayloadStore::new();
        let a = store.insert(b"once");
        store.free(a);
        store.free(a);
    }

    #[test]
    fn duplicate_is_an_independent_copy() {
        let mut store = PayloadStore::new();
        let a = store.insert(b"payload");
        let b = store.duplicate(a);
        assert_ne!(a, b);
        store.free(a);
        assert_eq!(store.get(b), b"payload", "copy must survive the original");
    }

    #[test]
    fn lazy_view_exposes_tag_without_decoding() {
        use crate::{Label, Message};
        use vcount_roadnet::NodeId;
        let msg = Message::Label(Label {
            origin: NodeId(3),
            origin_pred: None,
            seed: NodeId(0),
        });
        let mut store = PayloadStore::new();
        let r = store.insert_with(|buf| msg.encode_into(buf));
        let lazy = store.lazy(r);
        assert_eq!(lazy.tag(), Some(crate::message::TAG_LABEL));
        assert_eq!(lazy.decode().unwrap(), msg);
    }
}
