//! In-memory spans: name, start, end, parent and call id, written out
//! when the run ends.

use crate::json::Json;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one top-level call share this id.
    pub call: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    calls: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            calls: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; a span opened with nothing open starts a new call.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if self.open.is_empty() {
            self.calls += 1;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            call: self.calls,
        });
        self.open.push(idx);
        idx
    }

    pub fn end(&mut self, idx: usize) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans must close in order");
        self.spans[idx].end_ns = now;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.begin(name);
        let r = f();
        self.end(idx);
        r
    }

    /// Self time of every span from index `from` on (its duration minus
    /// the part its child spans cover), in seconds.
    pub fn self_secs(&self, from: usize) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans[from..].iter().map(Span::secs).collect();
        for s in &self.spans[from..] {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                own[p - from] -= s.secs();
            }
        }
        own
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let own = self.self_secs(0);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_s) in self.spans.iter().zip(own) {
            let line = Json::obj()
                .with("name", s.name)
                .with("call", s.call)
                .with("parent", s.parent.map_or(Json::Null, Json::from))
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with("self_ns", (self_s * 1e9).round());
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let root = t.begin("root");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(root);
        t.span("next", || ());
        let own = t.self_secs(0);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].call, t.spans[1].call);
        assert_ne!(t.spans[0].call, t.spans[2].call);
        assert!(own[0] >= 0.0 && own[0] < t.spans[0].secs() - 0.004);
        assert_eq!(own[1], t.spans[1].secs());
    }
}
