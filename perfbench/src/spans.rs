//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! simulator crates' public functions; nothing inside the simulator is
//! instrumented. Every span is named `<layer>.<call>`, knows the span
//! that was open when it started (its parent), and is written out only
//! after the run ends. A layer's self time is the sum over its spans of
//! each span's duration minus the durations of its direct children
//! (spans nest strictly on the single executor thread, so children never
//! overlap).

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before its
    /// matching [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    fn dur_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = (0..self.spans.len()).map(|i| self.dur_ns(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] -= self.dur_ns(i);
            }
        }
        own
    }

    /// Summed self time, seconds, of every span whose name starts with
    /// `prefix` (a layer `"storage-node."` or one call `"ml.train"`).
    pub fn self_s(&self, prefix: &str) -> f64 {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name.starts_with(prefix))
            .map(|(_, ns)| ns as f64 * 1e-9)
            .sum()
    }

    /// Durations, seconds, of every span named exactly `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.dur_ns(i) as f64 * 1e-9)
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Every span as one JSON object per line, ids (and parent ids)
    /// offset by `id_base` so that several recorders can share a file.
    pub fn to_jsonl(&self, id_base: usize) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (p + id_base).to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent}}}",
                i + id_base,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}
