//! In-memory span recorder for the traced run.
//!
//! Each span has a name, start, end, the span that caused it and the
//! request it belongs to. Spans stay in memory while the benchmark runs
//! and are written out as JSON lines at the end. A layer's self time is
//! its spans' durations minus the parts their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// Causing span, `u32::MAX` for a root.
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when on; when off, `span` only runs the closure, so the
/// same code gives the untraced timing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for `request`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(u32::MAX);
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.now(),
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now();
        out
    }

    /// Self time per span name: `(spans, seconds)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != u32::MAX {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e9;
        }
        out
    }

    /// Total duration of the root spans, seconds.
    pub fn root_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == u32::MAX)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                r#"{{"id":{},"parent":{parent},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", 0, |t| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            t.span("inner", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(30))
            });
        });
        let st = t.self_times();
        let (outer, inner) = (st["outer"].1, st["inner"].1);
        // Sleeps may overrun, never underrun: bound from below, and check
        // the outer span's own time is what remains after its child.
        assert!(outer >= 0.019 && inner >= 0.029, "{outer} {inner}");
        assert!((t.root_s() - outer - inner).abs() < 1e-6);
    }
}
