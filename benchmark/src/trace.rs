//! Spans recorded from outside the program: the benchmark wraps its
//! calls into each layer's public functions. Spans stay in memory and are
//! written out once, when the run ends.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Spans of one request (here: one op of the workload) share this.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one epoch. A disabled tracer takes no
/// timestamps, so the untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time (ms) of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time_ns(&self.spans, i) as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A span's duration minus the part of its interval that its direct
/// children cover. Children may overlap each other (parallel lanes) and
/// may stick out of the parent; covered time is the union, clipped.
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            request: 0,
            name: "s",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),  // 30
            span(30, 60, Some(0)),  // overlaps the first: union 10..60 = 50
            span(70, 80, Some(0)),  // disjoint: +10
            span(90, 130, Some(0)), // sticks out: clipped to 90..100 = +10
            span(15, 20, Some(1)),  // grandchild: not the parent's business
            span(0, 100, Some(9)),  // someone else's child
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 70);
        assert_eq!(self_time_ns(&spans, 1), 30 - 5);
        assert_eq!(self_time_ns(&spans, 3), 10);
    }

    #[test]
    fn fully_covered_parent_has_no_self_time() {
        let spans = vec![
            span(5, 25, None),
            span(0, 15, Some(0)),
            span(15, 30, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("x", 1, None);
        t.end(id);
        assert!(id.is_none() && t.spans().is_empty());
        let mut t = Tracer::on();
        let root = t.begin("root", 7, None);
        let child = t.begin("child", 7, root);
        t.end(child);
        t.end(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.durations_ms("child").len(), 1);
    }
}
