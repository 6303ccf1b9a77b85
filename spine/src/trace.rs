//! The benchmark's own span recorder: spans are taken *outside* the engine,
//! around calls into each layer's public functions, kept in memory and
//! written as a Perfetto / `chrome://tracing` file when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Statement id the span belongs to (0 = set-up, no statement).
    query: u32,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Statement id of the spans being recorded (0 = none), and how many
    /// ids were handed out.
    query: u32,
    queries: u32,
}

pub struct Recorder {
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Give every span recorded from here on a fresh statement id.
    pub fn next_query(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.queries += 1;
        inner.query = inner.queries;
    }

    /// Spans recorded from here on belong to no statement.
    pub fn end_queries(&self) {
        self.inner.borrow_mut().query = 0;
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span. The borrow is released while `f` runs, so spans nest freely.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.spans.len();
            let span = Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: inner.open.last().copied(),
                query: inner.query,
            };
            inner.spans.push(span);
            inner.open.push(id);
            id
        };
        let out = f();
        let mut inner = self.inner.borrow_mut();
        inner.spans[id].end_ns = self.now_ns();
        let closed = inner.open.pop();
        debug_assert_eq!(closed, Some(id));
        out
    }

    /// Self time in seconds and span count per span name: each span's
    /// duration minus the part its children cover, so nested layers are not
    /// counted twice.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let inner = self.inner.borrow();
        let mut self_ns: Vec<u64> = inner.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &inner.spans {
            if let Some(p) = s.parent {
                self_ns[p] = self_ns[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in inner.spans.iter().zip(self_ns) {
            let entry = by_name.entry(s.name).or_insert((0.0, 0));
            entry.0 += ns as f64 / 1e9;
            entry.1 += 1;
        }
        by_name
    }

    /// Seconds covered by the direct children of the spans named `name`.
    pub fn children_seconds(&self, name: &str) -> f64 {
        let inner = self.inner.borrow();
        inner
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| inner.spans[p].name == name))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    pub fn span_count(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// The trace as Perfetto JSON: one `B`/`E` event pair per span, each
    /// carrying its statement id. Fails when a span is still open.
    pub fn to_perfetto_json(&self) -> Result<String, String> {
        let inner = self.inner.borrow();
        if let Some(&open) = inner.open.last() {
            return Err(format!("span `{}` is still open", inner.spans[open].name));
        }
        // Spans are stored in begin order; replaying them with a stack of
        // pending ends yields properly nested B/E events.
        let mut out = String::from("{\"traceEvents\": [\n");
        let mut pending: Vec<usize> = Vec::new();
        let mut first = true;
        let mut emit = |ph: char, s: &Span, ns: u64, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"spine\", \"ph\": \"{ph}\", \"ts\": {:.3}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"query\": {}}}}}",
                s.name,
                ns as f64 / 1e3,
                s.query
            ));
        };
        for (id, s) in inner.spans.iter().enumerate() {
            while let Some(&top) = pending.last() {
                if Some(top) == s.parent {
                    break;
                }
                pending.pop();
                emit('E', &inner.spans[top], inner.spans[top].end_ns, &mut out);
            }
            emit('B', s, s.start_ns, &mut out);
            pending.push(id);
        }
        while let Some(top) = pending.pop() {
            emit('E', &inner.spans[top], inner.spans[top].end_ns, &mut out);
        }
        out.push_str("\n]}\n");
        Ok(out)
    }
}
