//! In-memory spans recorded from the benchmark's own files, around the calls
//! into each layer. Kept in memory during the run and written as JSONL at
//! exit.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval: which request it belongs to, what it covers, and the
/// span that caused it (`None` for a request's root span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store. One client thread drives every traced request, so the
/// open-span stack names the parent of each new span.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

/// The recorder as the layers' wrappers share it.
pub type SharedRecorder = Arc<Mutex<Recorder>>;

impl Recorder {
    pub fn shared() -> SharedRecorder {
        Arc::new(Mutex::new(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }))
    }

    /// Starts the next request; spans entered from now on carry its id.
    pub fn next_request(&mut self) {
        self.req += 1;
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            req: self.req,
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        // Read the clock last so the bookkeeping above is charged to the
        // parent, not to this span.
        self.spans[idx].start_ns = self.now_ns();
        idx
    }

    /// Closes the span `enter` returned and reports its duration.
    pub fn exit(&mut self, idx: usize) -> u64 {
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        self.spans[idx].duration_ns()
    }

    /// Forgets the spans recorded so far (the warm-up's); requests count
    /// from 1 again.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.open.clear();
        self.req = 0;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Runs `f` inside a span of the shared recorder. The lock is not held while
/// `f` runs, so `f` may open child spans.
pub fn in_span<T>(rec: &SharedRecorder, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let idx = lock(rec).enter(name);
    let out = f();
    let dur = lock(rec).exit(idx);
    (out, dur)
}

pub fn lock(rec: &SharedRecorder) -> std::sync::MutexGuard<'_, Recorder> {
    rec.lock().expect("no span holder panics while recording")
}

/// Self time of every span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Writes one JSON object per span:
/// `{"id":3,"req":2,"name":"store.read","start_ns":10,"end_ns":25,"parent":2}`
/// (`parent` is `null` for a root span; ids are line numbers from 0).
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            req: 1,
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 has two sibling children (10..40, 50..70); the first
        // child has a nested child of its own (15..25).
        let spans = vec![
            span("serve.execute", 0, 100, None),
            span("store.read", 10, 40, Some(0)),
            span("durable.fetch", 15, 25, Some(1)),
            span("store.write", 50, 70, Some(0)),
        ];
        // Grandchildren are charged to their parent only, not to the root.
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns());
    }

    #[test]
    fn recorder_links_parents_through_the_open_stack() {
        let rec = Recorder::shared();
        lock(&rec).next_request();
        let ((), outer) = in_span(&rec, "outer", || {
            let ((), _) = in_span(&rec, "first", || {});
            let ((), _) = in_span(&rec, "second", || {});
        });
        lock(&rec).next_request();
        let ((), _) = in_span(&rec, "next", || {});
        let guard = lock(&rec);
        let spans = guard.spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.req, s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                ("outer", 1, None),
                ("first", 1, Some(0)),
                ("second", 1, Some(0)),
                ("next", 2, None),
            ]
        );
        assert_eq!(spans[0].duration_ns(), outer);
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn clear_drops_the_warm_up() {
        let rec = Recorder::shared();
        let ((), _) = in_span(&rec, "warm", || {});
        lock(&rec).clear();
        lock(&rec).next_request();
        let ((), _) = in_span(&rec, "measured", || {});
        assert_eq!(lock(&rec).spans().len(), 1);
        assert_eq!(lock(&rec).spans()[0].parent, None);
        assert_eq!(lock(&rec).spans()[0].req, 1);
    }
}
