//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public API in a span
//! (name, start, end, parent span, request id). Spans stay in memory until
//! the run ends; per-layer times are then derived as *self time*: a span's
//! duration minus the part of it that its child spans cover.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name of the timed call, e.g. `core.compile`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start: u64,
    /// End, in ns since the tracer's epoch (`start` while still open).
    pub end: u64,
    /// The span this one ran inside of, if any.
    pub parent: Option<SpanId>,
    /// The benchmark request the span belongs to (0 for set-up work).
    pub request: u64,
}

/// Records spans when enabled; when disabled every call is a no-op, so one
/// code path serves both the traced and the untraced replay.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; it ends when dropped.
#[must_use = "a span ends as soon as its guard is dropped"]
pub struct Open<'t> {
    tracer: &'t Tracer,
    id: Option<SpanId>,
}

impl Open<'_> {
    /// The span's id, for use as a child's parent (`None` when disabled).
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let now = self.tracer.now();
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans[id].end = now;
            }
        }
    }
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under `parent` for `request`.
    pub fn span(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> Open<'_> {
        if !self.enabled {
            return Open {
                tracer: self,
                id: None,
            };
        }
        let start = self.now();
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        Open {
            tracer: self,
            id: Some(spans.len() - 1),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let _span = self.span(name, parent, request);
        f()
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span. Children that overlap each
/// other (parallel work) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let duration = s.end - s.start;
            duration - covered(s.start, s.end, kids)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Writes `spans` as tab-separated lines: id, parent, request, name,
/// start ns, end ns, self ns.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns")?;
    for (id, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
            s.request, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 40, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            // Contained entirely in `a`.
            span("c", 15, 20, Some(0)),
        ];
        // Union of children = [10, 70) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("root", 10, 50, None),
            span("early", 0, 20, Some(0)),
            span("late", 40, 90, Some(0)),
        ];
        // Covered: [10, 20) + [40, 50) = 20 of 40.
        assert_eq!(self_times(&spans), vec![20, 20, 50]);
    }

    #[test]
    fn disjoint_children_add_up() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 0, 10, Some(0)),
            span("b", 90, 100, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 80);
    }

    #[test]
    fn recorder_keeps_parents_and_requests() {
        let tracer = Tracer::new(true);
        {
            let outer = tracer.span("outer", None, 7);
            tracer.time("inner", outer.id(), 7, || ());
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let outer = tracer.span("outer", None, 1);
        assert_eq!(outer.id(), None);
        drop(outer);
        assert!(tracer.spans().is_empty());
    }
}
