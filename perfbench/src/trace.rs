//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the crates is instrumented.
//! A span carries a name, a start and end offset from the run's epoch,
//! the index of its parent span, and the round or request id it belongs
//! to. Each thread owns one [`Tracer`] (its lane); the lanes are written
//! out together when the run ends. A disabled tracer records nothing, so
//! the untraced run pays one branch per call site.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Round, request, or solve id the span belongs to.
    pub id: u64,
    /// Index of the parent span in the same lane.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    lane: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for `lane`, timing from `epoch`; records only when
    /// `enabled`.
    pub fn new(enabled: bool, epoch: Instant, lane: u32) -> Tracer {
        Tracer {
            enabled,
            epoch,
            lane,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when tracing is off.
    pub fn enter(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn wrap<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.enter(name, id, parent);
        let out = f();
        self.exit(s);
        out
    }

    /// Append another recorder's spans (same lane) after this one's.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
}

/// Write every lane's spans as one JSON document:
/// `{"workload", "seed", "spans": [[lane, id, name, parent, start_ns, end_ns], ...]}`.
///
/// # Errors
/// Propagates directory creation and write failures.
pub fn write_json(
    path: &Path,
    workload: &str,
    seed: u64,
    lanes: &[&Tracer],
) -> std::io::Result<()> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"fields\": [\"lane\", \"id\", \"name\", \"parent\", \"start_ns\", \"end_ns\"], \"spans\": ["
    );
    let mut first = true;
    for t in lanes {
        for s in &t.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n[{}, {}, \"{}\", {}, {}, {}]",
                t.lane, s.id, s.name, parent, s.start_ns, s.end_ns
            );
        }
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_closure() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        assert_eq!(t.wrap("x", 1, None, || 7), 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn spans_nest_by_parent_index() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let outer = t.enter("outer", 3, None);
        t.wrap("inner", 3, outer, || ());
        t.exit(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let mut other = Tracer::new(true, Instant::now(), 0);
        let o = other.enter("later", 4, None);
        other.wrap("child", 4, o, || ());
        other.exit(o);
        t.absorb(other);
        assert_eq!(t.spans[3].parent, Some(2));
    }
}
