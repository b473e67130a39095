//! In-memory spans recorded around calls into the program's layers.
//!
//! The harness times each public call from outside (no tracing inside
//! the program): a [`Guard`] marks a span's start when created and
//! records the finished span when dropped, so an early `?` return still
//! closes it. Spans stay in memory until the run ends, when
//! [`write_jsonl`] writes them out.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The harness's clock: every timing it reports starts from here.
pub fn now() -> Instant {
    // provlint: allow(direct-clock) -- the benchmark is a timing layer; its readings become metrics and never enter a program report
    Instant::now()
}

/// Identifier of a span within one [`Recorder`].
pub type SpanId = usize;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the recorder.
    pub id: SpanId,
    /// Layer name, e.g. `tool.record.opus` or `elastic.claim`.
    pub name: &'static str,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Small per-process index of the thread that ran the span.
    pub thread: usize,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Thread-safe span sink shared by every thread of a traced pass.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Open a span; it is recorded when the returned guard drops.
    pub fn span(&self, name: &'static str, parent: Option<SpanId>) -> Guard<'_> {
        Guard {
            rec: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            parent,
            start_ns: self.now_ns(),
        }
    }

    /// Remove and return every span finished so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// An open span.
#[derive(Debug)]
pub struct Guard<'r> {
    rec: &'r Recorder,
    id: SpanId,
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
}

impl Guard<'_> {
    /// This span's id, for parenting child spans.
    pub fn id(&self) -> Option<SpanId> {
        Some(self.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let span = Span {
            id: self.id,
            name: self.name,
            parent: self.parent,
            thread: thread_index(),
            start_ns: self.start_ns,
            end_ns: self.rec.now_ns(),
        };
        self.rec.lock().push(span);
    }
}

fn thread_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// Summed duration of every span named `name`, in milliseconds.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::ms).sum()
}

/// Every span lies within its parent's interval.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: std::collections::HashMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} `{}` ends before it starts", s.id, s.name));
        }
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                return Err(format!(
                    "span {} `{}` escapes its parent {} `{}`",
                    s.id, s.name, p.id, p.name
                ));
            }
        }
    }
    Ok(())
}

/// Write spans as JSON lines, one object per span, through the
/// workspace's durable write.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.name, s.thread, s.start_ns, s.end_ns
        ));
    }
    aspsolver::write_bytes_durable(path, out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_record_nested_spans_on_drop() {
        let rec = Recorder::default();
        {
            let outer = rec.span("pass", None);
            let inner = rec.span("row", outer.id());
            std::thread::sleep(std::time::Duration::from_millis(2));
            drop(inner);
        }
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "row");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans[0].ms() >= 2.0);
        assert!(spans[1].ms() >= spans[0].ms());
        check_nesting(&spans).unwrap();
        assert!(rec.take().is_empty(), "take drains");
    }

    #[test]
    fn nesting_violation_is_reported() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            name: "x",
            parent,
            thread: 0,
            start_ns,
            end_ns,
        };
        assert!(check_nesting(&[span(0, None, 10, 20), span(1, Some(0), 12, 18)]).is_ok());
        assert!(check_nesting(&[span(0, None, 10, 20), span(1, Some(0), 5, 18)]).is_err());
        assert!(check_nesting(&[span(0, None, 10, 20), span(1, Some(0), 12, 25)]).is_err());
        assert!(check_nesting(&[span(0, None, 20, 10)]).is_err());
    }

    #[test]
    fn totals_sum_by_name() {
        let span = |name, start_ns, end_ns| Span {
            id: 0,
            name,
            parent: None,
            thread: 0,
            start_ns,
            end_ns,
        };
        let spans = [
            span("a", 0, 1_000_000),
            span("a", 0, 2_000_000),
            span("b", 0, 500_000),
        ];
        assert_eq!(total_ms(&spans, "a"), 3.0);
        assert_eq!(total_ms(&spans, "b"), 0.5);
    }
}
