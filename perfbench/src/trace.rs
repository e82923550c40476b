//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions: a name, start and end relative
//! to a shared epoch, the index of the span that caused it, and one id
//! per training round, request or sweep. Nothing is written until the
//! run ends ([`write_jsonl`]).

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `rl.round` or `nn.fwd.CONV1`.
    pub name: String,
    /// Request, round or sweep id shared by the spans of one unit of work.
    pub id: u64,
    /// Index of the parent span in the same [`Tracer`], if any.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span buffer of one thread. Threads that record in parallel each own
/// a tracer on the same epoch and are merged with [`Tracer::absorb`].
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The shared epoch (hand it to per-thread tracers).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span ending now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<String>, id: u64, parent: Option<usize>) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            id,
            parent,
            start_ns: t,
            end_ns: t,
        });
        self.spans.len() - 1
    }

    /// Ends span `idx` now and returns its duration in ns.
    pub fn close(&mut self, idx: usize) -> u64 {
        let t = self.now_ns();
        let s = &mut self.spans[idx];
        s.end_ns = t;
        s.dur_ns()
    }

    /// Records a finished span from explicit epoch offsets.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            id,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(
        &mut self,
        name: impl Into<String>,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(name, id, parent);
        let r = f();
        self.close(idx);
        r
    }

    /// Moves `other`'s spans into this tracer, re-basing their parent
    /// indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }
}

/// Renders spans as JSON lines, one object per span.
pub fn write_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.record("a", 0, None, 0, 1);
        let mut b = Tracer::new(epoch);
        let root = b.record("root", 1, None, 0, 5);
        b.record("child", 1, Some(root), 1, 2);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.durations("root"), vec![5.0]);
        assert!(write_jsonl(a.spans()).lines().count() == 3);
    }
}
