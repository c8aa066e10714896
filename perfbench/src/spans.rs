//! In-memory spans recorded around calls into the product's layers.
//!
//! A span has a name, a start and end (seconds since the tracer was
//! created) and the span that caused it. A span's *self time* is its
//! duration minus the part of its interval covered by its children.

use std::sync::Mutex;
use std::time::Instant;

/// Identifies a span within its [`Tracer`].
pub type SpanId = usize;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span times (`search`, `eval_batch`, …).
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, seconds since the tracer origin.
    pub start: f64,
    /// End, seconds since the tracer origin (equal to `start` while open).
    pub end: f64,
    /// A count recorded at the boundary (e.g. jobs in a batch).
    pub count: u64,
}

impl Span {
    /// The span's wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans from any thread; read them back with [`Tracer::spans`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span under `parent`.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let t = self.now();
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(Span {
            name,
            parent,
            start: t,
            end: t,
            count: 0,
        });
        spans.len() - 1
    }

    /// Closes span `id`, recording `count` on it.
    pub fn close(&self, id: SpanId, count: u64) {
        let t = self.now();
        let mut spans = self.spans.lock().expect("span lock");
        spans[id].end = t;
        spans[id].count = count;
    }

    /// A snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }
}

/// Self time of span `id`: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_time(spans: &[Span], id: SpanId) -> f64 {
    let parent = &spans[id];
    let mut covered: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| b > a)
        .collect();
    covered.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut union = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in covered {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                union += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        union += cb - ca;
    }
    parent.duration() - union
}

/// Sum of the durations of every span named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .sum()
}

/// Sum of the self times of every span named `name`.
pub fn self_total(spans: &[Span], name: &str) -> f64 {
    (0..spans.len())
        .filter(|&i| spans[i].name == name)
        .map(|i| self_time(spans, i))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("search", None, 0.0, 10.0),
            span("eval_batch", Some(0), 1.0, 3.0),
            span("eval_batch", Some(0), 5.0, 9.0),
        ];
        assert!((self_time(&spans, 0) - 4.0).abs() < 1e-12);
        assert!((self_total(&spans, "search") - 4.0).abs() < 1e-12);
        assert!((total(&spans, "eval_batch") - 6.0).abs() < 1e-12);
        // Leaves are all self time.
        assert!((self_time(&spans, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("request", None, 0.0, 10.0),
            // Two concurrent children overlapping on [3, 4].
            span("eval_batch", Some(0), 2.0, 4.0),
            span("eval_batch", Some(0), 3.0, 6.0),
            // A child running past its parent counts only inside it.
            span("eval_batch", Some(0), 8.0, 12.0),
            // A grandchild is not a child.
            span("inner", Some(1), 2.5, 3.5),
        ];
        // Covered: [2, 6] and [8, 10] = 6 of 10.
        assert!((self_time(&spans, 0) - 4.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_nesting_and_counts() {
        let tracer = Tracer::new();
        let outer = tracer.open("search", None);
        let inner = tracer.open("eval_batch", Some(outer));
        tracer.close(inner, 0);
        tracer.close(outer, 3);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].count, 3);
        assert!(spans[0].end >= spans[1].end);
        assert!(self_time(&spans, 0) >= 0.0);
    }
}
