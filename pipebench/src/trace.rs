//! In-memory spans recorded around the calls into each layer.
//!
//! A span has a name, a start and end (seconds since the tracer was
//! created), the span that was open when it started, and the request it
//! belongs to. Spans stay in memory until the run ends and are then
//! written out as one JSON document. A span's *self time* is its duration
//! minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, for example `ilp.solve`.
    pub name: &'static str,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    /// Seconds since the tracer's epoch; `start` while still open.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span belongs to (`None` for shared work).
    pub request: Option<usize>,
}

/// Records spans; nesting follows open/close order on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str, request: Option<usize>) -> usize {
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"request\":{}}}",
                    s.name,
                    s.start,
                    s.end,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request.map_or("null".to_string(), |r| r.to_string()),
                )
            })
            .collect();
        format!("[{}]", items.join(",\n"))
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end - span.start - covered).max(0.0)
        })
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut totals = BTreeMap::new();
    for (span, self_time) in spans.iter().zip(self_times(spans)) {
        *totals.entry(span.name).or_insert(0.0) += self_time;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // request [0, 10]
        //   formulation [1, 3]
        //   solve [3, 9]
        //     probe [4, 5]
        //     probe [4.5, 6]   (overlaps the first probe)
        let spans = vec![
            span("request", 0.0, 10.0, None),
            span("formulation", 1.0, 3.0, Some(0)),
            span("solve", 3.0, 9.0, Some(0)),
            span("probe", 4.0, 5.0, Some(2)),
            span("probe", 4.5, 6.0, Some(2)),
        ];
        let times = self_times(&spans);
        let expected = [2.0, 2.0, 4.0, 1.0, 1.5];
        for (got, want) in times.iter().zip(expected) {
            assert!((got - want).abs() < 1e-12, "{times:?}");
        }
        let by_name = self_time_by_name(&spans);
        assert!((by_name["probe"] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut tracer = Tracer::new();
        let outer = tracer.open("outer", None);
        let inner = tracer.span("inner", Some(3), || 7);
        tracer.close(outer);
        assert_eq!(inner, 7);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, Some(3));
        assert!(spans[0].end >= spans[1].end);
    }
}
