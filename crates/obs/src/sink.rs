//! Event sinks: where stamped protocol events go.

use crate::event::{EventFilter, EventRecord};
use std::collections::VecDeque;
use std::io::Write;

/// A consumer of stamped protocol events. The runner fans every record into
/// each configured sink in emission order; sinks must not assume anything
/// about batching.
pub trait EventSink {
    /// Consumes one record.
    fn record(&mut self, rec: &EventRecord);

    /// Flushes any buffered output (end of run). The default does nothing.
    fn flush(&mut self) {}
}

/// The zero-cost default: discards everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    #[inline]
    fn record(&mut self, _rec: &EventRecord) {}
}

/// Keeps the most recent `capacity` records for post-mortem inspection —
/// cheap enough to leave always-on, rich enough to reconstruct a vehicle's
/// attribution chain after an oracle violation.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    capacity: usize,
    buf: VecDeque<EventRecord>,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` records (at least 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
        }
    }

    /// The retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &EventRecord> {
        self.buf.iter()
    }

    /// Records retained so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retained records mentioning `vehicle`, oldest first — the
    /// vehicle's attribution chain as far as the ring remembers it.
    pub fn for_vehicle(&self, vehicle: u64) -> Vec<EventRecord> {
        self.buf
            .iter()
            .filter(|r| r.event.vehicle() == Some(vehicle))
            .copied()
            .collect()
    }
}

impl EventSink for RingBufferSink {
    fn record(&mut self, rec: &EventRecord) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(*rec);
    }
}

/// Streams records as JSON Lines (one object per line) to any writer,
/// optionally restricted to a set of event kinds.
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
    filter: EventFilter,
    /// First write error, if any (subsequent records are dropped).
    error: Option<std::io::Error>,
}

impl JsonlSink {
    /// Streams every event kind to `out`.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlSink::filtered(out, EventFilter::all())
    }

    /// Streams only kinds admitted by `filter` to `out`.
    pub fn filtered(out: Box<dyn Write + Send>, filter: EventFilter) -> Self {
        JsonlSink {
            out,
            filter,
            error: None,
        }
    }

    /// Creates the file at `path` (truncating) and streams into it.
    pub fn to_file(path: &std::path::Path, filter: EventFilter) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(JsonlSink::filtered(
            Box::new(std::io::BufWriter::new(f)),
            filter,
        ))
    }

    /// The first I/O error hit while writing, if any.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("filter", &self.filter)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl EventSink for JsonlSink {
    fn record(&mut self, rec: &EventRecord) {
        if self.error.is_some() || !self.filter.allows(rec.event.kind()) {
            return;
        }
        let line = rec.to_json();
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if let Err(e) = self.out.flush() {
            self.error.get_or_insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, ProtocolEvent};
    use std::sync::{Arc, Mutex};

    fn rec(t: f64, vehicle: u64) -> EventRecord {
        EventRecord {
            time_s: t,
            seed_epoch: 1,
            event: ProtocolEvent::VehicleCounted {
                node: 0,
                edge: 0,
                vehicle,
            },
        }
    }

    #[test]
    fn ring_keeps_only_the_newest() {
        let mut ring = RingBufferSink::new(3);
        for i in 0..5 {
            ring.record(&rec(i as f64, i));
        }
        assert_eq!(ring.len(), 3);
        let times: Vec<f64> = ring.iter().map(|r| r.time_s).collect();
        assert_eq!(times, vec![2.0, 3.0, 4.0]);
        assert_eq!(ring.for_vehicle(3).len(), 1);
        assert!(ring.for_vehicle(0).is_empty(), "evicted");
    }

    /// A `Write` handle into shared memory, for asserting streamed output.
    #[derive(Clone)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_streams_one_object_per_line_with_filter() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut sink = JsonlSink::filtered(
            Box::new(Shared(buf.clone())),
            EventFilter::of([EventKind::VehicleCounted]),
        );
        sink.record(&rec(1.0, 10));
        sink.record(&EventRecord {
            time_s: 2.0,
            seed_epoch: 1,
            event: ProtocolEvent::CheckpointStable { node: 4 },
        });
        sink.record(&rec(3.0, 11));
        sink.flush();
        assert!(sink.error().is_none());
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "filtered out the stable event: {text}");
        assert!(lines[0].contains("\"vehicle\":10"));
        assert!(lines[1].contains("\"vehicle\":11"));
    }

    /// A `Write` handle that counts how often it is flushed.
    #[derive(Clone)]
    struct FlushCounter(Arc<Mutex<usize>>);

    impl Write for FlushCounter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            *self.0.lock().unwrap() += 1;
            Ok(())
        }
    }

    #[test]
    fn jsonl_default_flushes_only_on_demand() {
        let flushes = Arc::new(Mutex::new(0usize));
        let mut sink = JsonlSink::new(Box::new(FlushCounter(flushes.clone())));
        for i in 0..100 {
            sink.record(&rec(i as f64, i));
        }
        assert_eq!(*flushes.lock().unwrap(), 0, "default is end-of-run only");
        sink.flush();
        assert_eq!(*flushes.lock().unwrap(), 1);
    }

    #[test]
    fn null_sink_is_a_no_op() {
        let mut s = NullSink;
        s.record(&rec(0.0, 0));
        s.flush();
    }
}
