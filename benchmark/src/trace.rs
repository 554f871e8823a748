//! In-memory spans around the benchmark's calls into each layer.
//!
//! A disabled tracer records nothing and reads no clock, so untraced
//! runs pay only a branch per call site.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle to an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.precompute`.
    pub name: &'static str,
    /// Qualifier such as the method name (empty when unused).
    pub arg: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: SpanId,
    /// Session the span belongs to.
    pub session: Option<u64>,
    /// Work items the span covered (packets, deltas, queries).
    pub count: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: the parent of the next one.
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder timing against `epoch`; `on = false` records nothing.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The time origin of every span.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, arg: &'static str, session: Option<u64>) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            arg,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            session,
            count: 0,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Closes the innermost open span, recording how many work items it
    /// covered.
    pub fn end(&mut self, id: SpanId, count: u64) {
        if let Some(i) = id {
            assert_eq!(self.open.pop(), Some(i), "spans close innermost first");
            let end_ns = self.now_ns();
            let s = &mut self.spans[i];
            s.end_ns = end_ns;
            s.count = count;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, arg: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, arg, None);
        let out = f();
        self.end(id, 0);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name` (any qualifier).
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Appends another recorder's spans (e.g. a worker thread's),
    /// re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"arg\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"session\": {}, \"count\": {}}}",
                s.name,
                s.arg,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.session),
                s.count
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("a", "", None);
        t.end(id, 3);
        assert_eq!(t.time("b", "", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_and_absorb_keep_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let root = a.begin("session", "", Some(1));
        let child = a.begin("client.query", "nr", Some(1));
        a.end(child, 5);
        a.end(root, 0);
        let mut b = Tracer::new(true, epoch);
        let r2 = b.begin("session", "", Some(2));
        let c2 = b.begin("client.query", "dj", Some(2));
        b.end(c2, 0);
        b.end(r2, 0);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[1].count, 5);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert_eq!(a.named("client.query").count(), 2);
    }
}
