//! In-memory spans for the traced run.
//!
//! A span is recorded by the benchmark around a call into one layer's
//! public function: name, start, end, the span that caused it and the
//! request it belongs to. Spans are kept in a `Vec` and written once,
//! when the run ends. A layer's *self time* is its span minus the part
//! of that interval its children cover.

use std::io::{self, Write};
use std::time::Instant;

/// Index of a span in its [`SpanLog`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
/// The parent id of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, using the repository's module names.
    pub name: &'static str,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    /// Nanoseconds since the log was created; `>= start_ns`.
    pub end_ns: u64,
    /// The span that caused this one, or [`NO_PARENT`].
    pub parent: SpanId,
    /// Spans of one request share this identifier.
    pub request: u32,
    /// `true` for work re-run after the request was answered to expose
    /// an inner layer (bounds, path fold): real time, but not part of
    /// the request's own latency.
    pub replay: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The run's span store.
pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u32,
        replay: bool,
    ) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
            replay,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Stamps the end of `id`.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Records an interval measured elsewhere (the load generator's
    /// client-side spans), as offsets from `origin`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u32,
        origin: Instant,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let shift = origin.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: shift + start_ns,
            end_ns: shift + end_ns.max(start_ns),
            parent,
            request,
            replay: false,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Every span recorded so far, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the log as JSON lines, one span per line.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"replay\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.replay
            )?;
        }
        w.flush()
    }
}

/// Self time of every span, in nanoseconds: its duration minus the
/// union of its children's intervals (clipped to the span, so an
/// overlapping or overhanging child is never counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let lo = s.start_ns.clamp(p.start_ns, p.end_ns);
            let hi = s.end_ns.clamp(p.start_ns, p.end_ns);
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
            replay: false,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("request", 0, 100, NO_PARENT),
            span("parse", 10, 20, 0),
            span("route", 30, 80, 0),
            span("combine", 40, 50, 2),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 10, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("parent", 100, 200, NO_PARENT),
            span("a", 110, 150, 0),
            span("b", 140, 170, 0), // overlaps a by 10
            span("c", 190, 260, 0), // hangs over the end by 60
            span("d", 120, 130, 0), // inside a
        ];
        // Covered: [110,170) = 60 and [190,200) = 10.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn log_nests_and_serializes() {
        let mut log = SpanLog::new();
        let root = log.open("request", NO_PARENT, 7, false);
        let child = log.open("serve.http.parse", root, 7, false);
        log.close(child);
        log.close(root);
        let s = log.spans();
        assert_eq!(s[1].parent, root);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        log.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"id\":0,\"name\":\"request\","));
        assert!(text.contains("\"parent\":null"));
        assert!(text.contains("\"parent\":0,\"request\":7,\"replay\":false"));
    }
}
