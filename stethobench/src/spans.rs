//! In-memory span recorder for the traced run.
//!
//! A span is a named interval around one call the benchmark makes into a
//! crate's public API. Spans carry the operation (session or step-through)
//! they belong to and the span that contains them, stay in memory while the
//! run measures, and are written out as JSON lines when it ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle for a span opened with [`Tracer::begin`].
#[must_use]
pub struct Open(usize);

pub struct Tracer {
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new operation; later spans carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let parent = self.stack.last().map(|&i| self.spans[i].id);
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            id: idx as u32,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close a span; spans close in the reverse order they opened.
    pub fn end(&mut self, open: Open) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must nest");
        let now = self.now_ns();
        self.spans[open.0].end_ns = now;
    }

    /// Time `f` as a leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every call of `name`, in ns.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Mean over operations of the ns spent in `name` per operation,
    /// counting operations that never called it as zero.
    pub fn mean_per_op(&self, name: &str) -> f64 {
        if self.op == 0 {
            return 0.0;
        }
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        total as f64 / self.op as f64
    }

    /// Per operation: ns covered by the direct children of each span
    /// named `parent` (the stage sum of that span).
    pub fn child_sum_per_op(&self, parent: &str) -> HashMap<u64, u64> {
        let parents: HashMap<u32, u64> = self
            .spans
            .iter()
            .filter(|s| s.name == parent)
            .map(|s| (s.id, s.op))
            .collect();
        let mut out = HashMap::new();
        for s in &self.spans {
            if let Some(op) = s.parent.and_then(|p| parents.get(&p)) {
                *out.entry(*op).or_insert(0) += s.dur_ns();
            }
        }
        out
    }

    /// Write spans as one JSON object per line: every span of the first
    /// `full_ops` operations, and the top-level spans of all of them
    /// (a step-through records over 10k spans per operation).
    pub fn write_jsonl(&self, path: &Path, full_ops: u64) -> std::io::Result<usize> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written = 0;
        for s in self
            .spans
            .iter()
            .filter(|s| s.op <= full_ops || s.parent.is_none())
        {
            written += 1;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()?;
        Ok(written)
    }
}

/// Run `f`, inside a span named `name` when there is a tracer.
pub fn maybe_span<T>(tr: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_op() {
        let mut t = Tracer::default();
        for _ in 0..2 {
            t.next_op();
            let root = t.begin("root");
            t.span("a", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            t.span("b", || ());
            t.end(root);
        }
        let a = t.spans().iter().find(|s| s.name == "a").unwrap();
        assert_eq!(a.parent, Some(0));
        assert_eq!(a.op, 1);
        let sums = t.child_sum_per_op("root");
        assert_eq!(sums.len(), 2);
        for s in t.spans().iter().filter(|s| s.name == "root") {
            assert!(sums[&s.op] <= s.dur_ns());
            assert!(sums[&s.op] >= 1_000_000);
        }
        assert!(t.mean_per_op("a") >= 1_000_000.0);
    }
}
