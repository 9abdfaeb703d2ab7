//! Spans recorded around calls into the program's public functions.
//!
//! The benchmark records the spans itself, from its own files: the program
//! carries no instrumentation. A span has a name, a start, an end, the span
//! that caused it and the id of the view (or broadcast item) it belongs to.
//! Spans stay in memory and are written out when the run ends; the per-layer
//! figures are self times (a span's duration minus what its children cover)
//! and counts.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its buffer; `NO_PARENT` marks a root.
pub type SpanId = usize;
pub const NO_PARENT: SpanId = usize::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub view: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer. One buffer per thread of work; buffers sharing an origin
/// can be merged with [`Spans::absorb`].
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    view: u64,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
            view: 0,
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Sets the view id stamped on the spans opened from now on.
    pub fn set_view(&mut self, view: u64) {
        self.view = view;
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            view: self.view,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Moves `other`'s spans into this buffer, re-basing their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the part of it covered
    /// by its children (children of one span never overlap here, since each
    /// buffer is filled by one thread).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                covered[span.parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Per span name: (calls, total duration, total self time), in ns.
    pub fn by_name(&self) -> BTreeMap<&'static str, Totals> {
        let self_ns = self.self_times_ns();
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let t = out.entry(span.name).or_default();
            t.calls += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += own;
        }
        out
    }

    /// Writes every span as one tab-separated line: index, name, view,
    /// parent (-1 for a root), start and end in ns since the origin.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tview\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.view, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    pub fn mean_total_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }

    pub fn mean_self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(Instant::now());
        let root = spans.open("root", NO_PARENT);
        spans.time("child", root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.close(root);
        let totals = spans.by_name();
        assert_eq!(totals["root"].calls, 1);
        assert!(totals["child"].self_ns >= 2_000_000);
        assert!(totals["root"].self_ns < totals["root"].total_ns);
    }
}
