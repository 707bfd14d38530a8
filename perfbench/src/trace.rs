//! In-memory span recording for the traced run.
//!
//! Every call the traced run makes into a layer's public entry point is
//! wrapped in a span (workload, cell, layer, start, end, parent). Spans are
//! kept in memory and written as JSON lines when the run ends, so recording
//! costs two clock reads and a push per call. A layer's self time is its
//! spans' duration minus their child spans'.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer the span times (`core.qbf`, `verify`, ...).
    pub layer: &'static str,
    /// The cell the span belongs to, if any (set-up spans have none).
    pub cell: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, relative to the recorder's origin.
    pub start: Duration,
    /// End, relative to the recorder's origin (`None` while open).
    pub end: Option<Duration>,
}

impl Span {
    /// The span's duration (zero while still open).
    pub fn duration(&self) -> Duration {
        self.end
            .map_or(Duration::ZERO, |end| end.saturating_sub(self.start))
    }
}

/// A single-threaded span recorder: spans opened while another is open
/// become its children.
#[derive(Debug)]
pub struct Recorder {
    workload: &'static str,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    /// A recorder for one workload's traced run.
    pub fn new(workload: &'static str) -> Self {
        Recorder {
            workload,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Opens a span under the innermost open one; a span without a cell of
    /// its own inherits its parent's.
    pub fn open(&self, layer: &'static str, cell: Option<usize>) -> usize {
        let start = self.origin.elapsed();
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let cell = cell.or_else(|| parent.and_then(|p| spans[p].cell));
        spans.push(Span {
            layer,
            cell,
            parent,
            start,
            end: None,
        });
        let id = spans.len() - 1;
        self.open.borrow_mut().push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it).
    pub fn close(&self, id: usize) {
        let end = self.origin.elapsed();
        let mut open = self.open.borrow_mut();
        let mut spans = self.spans.borrow_mut();
        while let Some(top) = open.pop() {
            spans[top].end = Some(end);
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(layer, None);
        let value = f();
        self.close(id);
        value
    }

    /// Adds a closed child span of `parent` covering `duration` from
    /// `offset` after the parent's start: how the step timings an attack
    /// reports become spans.
    pub fn add_child(
        &self,
        parent: usize,
        layer: &'static str,
        offset: Duration,
        duration: Duration,
    ) {
        let mut spans = self.spans.borrow_mut();
        let start = spans[parent].start + offset;
        let cell = spans[parent].cell;
        spans.push(Span {
            layer,
            cell,
            parent: Some(parent),
            start,
            end: Some(start + duration),
        });
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Writes the spans as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, span) in self.spans.borrow().iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"workload\":\"{}\",\"cell\":{},\"layer\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{}}}",
                self.workload,
                opt(span.cell),
                span.layer,
                span.start.as_micros(),
                span.end.map_or("null".to_string(), |e| e.as_micros().to_string()),
                opt(span.parent),
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Runs `f` inside a span of `layer` when there is a recorder.
pub fn spanned<T>(recorder: Option<&Recorder>, layer: &'static str, f: impl FnOnce() -> T) -> T {
    match recorder {
        Some(recorder) => recorder.time(layer, f),
        None => f(),
    }
}

/// Per-layer totals of a span set: (total duration, self duration).
pub(crate) fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, (Duration, Duration)> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_time[parent] += span.duration();
        }
    }
    let mut totals: BTreeMap<&'static str, (Duration, Duration)> = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        let entry = totals.entry(span.layer).or_default();
        entry.0 += span.duration();
        entry.1 += span.duration().saturating_sub(child_time[id]);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_take_the_innermost_parent_and_inherit_the_cell() {
        let rec = Recorder::new("w");
        let cell = rec.open("cell", Some(7));
        let inner = rec.open("core.qbf", None);
        rec.close(inner);
        rec.add_child(cell, "dip.loop", Duration::ZERO, Duration::from_millis(1));
        rec.close(cell);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(cell));
        assert_eq!(spans[1].cell, Some(7));
        assert_eq!(spans[2].parent, Some(cell));
        assert!(spans.iter().all(|s| s.end.is_some()));
    }

    #[test]
    fn self_time_subtracts_children() {
        let ms = Duration::from_millis;
        let spans = vec![
            Span {
                layer: "cell",
                cell: Some(0),
                parent: None,
                start: ms(0),
                end: Some(ms(10)),
            },
            Span {
                layer: "verify",
                cell: Some(0),
                parent: Some(0),
                start: ms(2),
                end: Some(ms(6)),
            },
        ];
        let totals = layer_totals(&spans);
        assert_eq!(totals["cell"], (ms(10), ms(6)));
        assert_eq!(totals["verify"], (ms(4), ms(4)));
    }

    #[test]
    fn closing_an_outer_span_closes_inner_ones() {
        let rec = Recorder::new("w");
        let outer = rec.open("a", None);
        rec.open("b", None);
        rec.close(outer);
        assert!(rec.spans().iter().all(|s| s.end.is_some()));
        // The next span is a root again.
        let next = rec.open("c", None);
        assert_eq!(rec.spans()[next].parent, None);
    }
}
