//! Span recording for the traced pass.
//!
//! Every call the bench makes into a layer's public functions is wrapped
//! in a span: name, start, end, parent span and request id. Spans whose
//! name starts with `bench.` are the bench's own frames (a counting run,
//! one request); every other span is a layer. A span's self time is its
//! duration minus the time its child spans cover, so the layer self-times
//! of a frame add up to the frame's duration minus the bench's own loop.
//!
//! Each thread owns a [`SpanLog`]; logs merge into a [`Trace`] when the
//! pass ends, which writes the spans out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Closed spans kept per thread for the span file (statistics cover every
/// span either way); bounds memory on long passes.
const MAX_KEPT_SPANS: usize = 25_000;

/// One closed span, in nanoseconds since the trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call or bench frame name.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's log, if any.
    pub parent: Option<u32>,
    /// Request id (feeder/connection in the high 32 bits, sequence number
    /// in the low 32), or the run index for in-process frames.
    pub req: u64,
}

/// Per-name aggregate over every closed span.
#[derive(Debug, Clone, Default)]
pub struct LayerStat {
    /// Calls made.
    pub calls: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Every span duration, ns (percentiles).
    pub durations_ns: Vec<u64>,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    req: u64,
    child_ns: u64,
    slot: Option<u32>,
}

/// One thread's span recorder. A disabled log records nothing, so the
/// same driving code serves the traced and the untraced pass.
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<Open>,
    stats: BTreeMap<&'static str, LayerStat>,
    /// Summed durations of top-level bench frames, ns.
    frame_ns: u64,
}

/// Handle of an open span, consumed by [`SpanLog::close`].
#[must_use = "a span must be closed"]
pub struct SpanId(usize);

impl SpanLog {
    /// A recording log for thread number `thread`, timed from `epoch`.
    pub fn new(epoch: Instant, thread: u32) -> Self {
        SpanLog {
            enabled: true,
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
            stats: BTreeMap::new(),
            frame_ns: 0,
        }
    }

    /// A log that records nothing.
    pub fn disabled() -> Self {
        SpanLog {
            enabled: false,
            ..SpanLog::new(Instant::now(), 0)
        }
    }

    /// Whether this log records spans.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let slot = (self.spans.len() < MAX_KEPT_SPANS).then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: None,
                req,
            });
            (self.spans.len() - 1) as u32
        });
        let start_ns = self.now_ns();
        self.stack.push(Open {
            name,
            start_ns,
            req,
            child_ns: 0,
            slot,
        });
        SpanId(self.stack.len() - 1)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(
            id.0 + 1,
            self.stack.len(),
            "spans must close innermost first"
        );
        let open = self.stack.pop().expect("an open span");
        let dur = end_ns - open.start_ns;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.slot
        });
        if let Some(slot) = open.slot {
            self.spans[slot as usize] = Span {
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                parent: parent.flatten(),
                req: open.req,
            };
        }
        if parent.is_none() && open.name.starts_with("bench.") {
            self.frame_ns += dur;
        }
        let stat = self.stats.entry(open.name).or_default();
        stat.calls += 1;
        stat.total_ns += dur;
        stat.self_ns += dur.saturating_sub(open.child_ns);
        stat.durations_ns.push(dur);
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, req);
        let r = f();
        self.close(id);
        r
    }
}

/// Every thread's spans and statistics, merged.
#[derive(Default)]
pub struct Trace {
    logs: Vec<(u32, Vec<Span>)>,
    stats: BTreeMap<&'static str, LayerStat>,
    frame_ns: u64,
}

impl Trace {
    /// Folds one thread's log in.
    pub fn absorb(&mut self, log: SpanLog) {
        assert!(log.stack.is_empty(), "every span must be closed");
        for (name, s) in log.stats {
            let into = self.stats.entry(name).or_default();
            into.calls += s.calls;
            into.total_ns += s.total_ns;
            into.self_ns += s.self_ns;
            into.durations_ns.extend(s.durations_ns);
        }
        self.frame_ns += log.frame_ns;
        self.logs.push((log.thread, log.spans));
    }

    /// The aggregate of spans named `name` (empty if none closed).
    #[cfg(test)]
    pub fn stat(&self, name: &str) -> LayerStat {
        self.stats.get(name).cloned().unwrap_or_default()
    }

    /// Median duration of `name`'s spans, milliseconds (0 when none
    /// closed).
    pub fn median_ms(&self, name: &str) -> f64 {
        self.stats.get(name).map_or(0.0, |s| {
            let d: Vec<f64> = s.durations_ns.iter().map(|&ns| ns as f64 * 1e-6).collect();
            crate::stats::median(&d).unwrap_or(0.0)
        })
    }

    /// Total self time of `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.stats
            .get(name)
            .map_or(0.0, |s| s.self_ns as f64 * 1e-9)
    }

    /// Nearest-rank percentile of `name`'s span durations, microseconds
    /// (0 when no such span closed).
    pub fn percentile_us(&self, name: &str, p: f64) -> f64 {
        let Some(s) = self.stats.get(name) else {
            return 0.0;
        };
        let mut d: Vec<f64> = s.durations_ns.iter().map(|&ns| ns as f64 * 1e-3).collect();
        d.sort_by(f64::total_cmp);
        crate::stats::percentile(&d, p).unwrap_or(0.0)
    }

    /// Share of the frames' time that layer spans account for: the sum of
    /// every layer's self time over the sum of the top-level frames'
    /// durations.
    pub fn coverage(&self) -> f64 {
        let layers: u64 = self
            .stats
            .iter()
            .filter(|(name, _)| !name.starts_with("bench."))
            .map(|(_, s)| s.self_ns)
            .sum();
        if self.frame_ns == 0 {
            0.0
        } else {
            layers as f64 / self.frame_ns as f64
        }
    }

    /// Spans recorded (kept ones only).
    pub fn span_count(&self) -> usize {
        self.logs.iter().map(|(_, s)| s.len()).sum()
    }

    /// Layer names with their self time, largest first.
    pub fn self_times(&self) -> Vec<(&'static str, f64, u64)> {
        let mut v: Vec<_> = self
            .stats
            .iter()
            .map(|(name, s)| (*name, s.self_ns as f64 * 1e-9, s.calls))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// Writes every kept span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (thread, spans) in &self.logs {
            for (i, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    w,
                    "{{\"thread\":{thread},\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\
                     \"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    s.name, s.req, s.start_ns, s.end_ns
                )?;
            }
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new(Instant::now(), 0);
        let frame = log.open("bench.frame", 1);
        let a = log.open("layer.a", 1);
        let b = log.open("layer.b", 1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        log.close(b);
        log.close(a);
        log.close(frame);
        let mut trace = Trace::default();
        trace.absorb(log);
        let (a, b) = (trace.stat("layer.a"), trace.stat("layer.b"));
        assert!(b.self_ns >= 5_000_000);
        assert_eq!(a.total_ns - a.self_ns, b.total_ns);
        assert!(trace.coverage() > 0.9 && trace.coverage() <= 1.0);
        assert_eq!(trace.span_count(), 3);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        let id = log.open("layer.a", 0);
        log.close(id);
        let mut trace = Trace::default();
        trace.absorb(log);
        assert_eq!(trace.stat("layer.a").calls, 0);
        assert_eq!(trace.span_count(), 0);
    }
}
