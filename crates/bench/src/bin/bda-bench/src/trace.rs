//! The bench-side span recorder: name, start, end, the span that caused
//! it, and the operation it belongs to. Spans are taken *around* calls
//! into each crate's public functions (spans inside the program are a
//! later change), kept in memory, and written in Chrome-trace form when
//! the run ends.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans, innermost last: a new span's parent is the top.
    open: Vec<usize>,
    op: u64,
}

/// Cheaply cloneable handle; the traced pass is single-threaded, the lock
/// exists because `Provider` decorators must be `Sync`.
#[derive(Debug, Clone)]
pub struct Recorder {
    origin: Instant,
    inner: Arc<Mutex<Inner>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            inner: Arc::new(Mutex::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
                op: 0,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("span recorder lock poisoned")
    }

    /// Spans recorded from here on belong to operation `op`.
    pub fn set_op(&self, op: u64) {
        self.lock().op = op;
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut g = self.lock();
            let id = g.spans.len();
            let (parent, op) = (g.open.last().copied(), g.op);
            g.spans.push(Span {
                name: name.to_string(),
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                op,
            });
            g.open.push(id);
            id
        };
        let out = f();
        let mut g = self.lock();
        g.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        g.open.retain(|&open| open != id);
        out
    }

    /// Record an already-measured interval as a child of the innermost
    /// open span (used for stage replays timed in a tight loop, where the
    /// span carries the median and not one particular call).
    pub fn record(&self, name: &str, start_ns: u64, duration_ns: u64) {
        let mut g = self.lock();
        let (parent, op) = (g.open.last().copied(), g.op);
        g.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + duration_ns,
            parent,
            op,
        });
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// The spans recorded since there were `first` of them, with parent
    /// indices rebased onto the returned slice (parents before it: none).
    pub fn spans_since(&self, first: usize) -> Vec<Span> {
        self.lock().spans[first..]
            .iter()
            .map(|s| Span {
                parent: s.parent.and_then(|p| p.checked_sub(first)),
                ..s.clone()
            })
            .collect()
    }

    /// Chrome-trace ("Trace Event") JSON: one complete event per span,
    /// the op id as the thread lane, the parent and self time as args.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[")?;
        for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{},\"self_us\":{}}}}}",
                json::quote(&s.name),
                s.op,
                json::number(s.start_ns as f64 / 1e3),
                json::number(s.duration_ns() as f64 / 1e3),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json::number(*self_ns as f64 / 1e3),
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),       // adjacent to b
            span("b", 30, 50, Some(0)),       // adjacent to a
            span("a.inner", 12, 20, Some(1)), // nested: charged to a, not root
            span("c", 45, 70, Some(0)),       // overlaps b by 5
            span("late", 90, 120, Some(0)),   // clipped to the parent's end
        ];
        let selfs = self_times(&spans);
        // root: 100 - (20 + 20 + 20 (c beyond b) + 10 (late, clipped)) = 30
        assert_eq!(selfs[0], 30);
        assert_eq!(selfs[1], 12); // 20 - 8
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 8);
        assert_eq!(selfs[4], 25);
        assert_eq!(selfs[5], 30);
    }

    #[test]
    fn recorder_nests_by_call_structure_and_tags_ops() {
        let r = Recorder::new();
        r.set_op(7);
        r.span("outer", || {
            r.span("inner", || std::hint::black_box(1 + 1));
            r.record("replayed", 5, 10);
        });
        r.span("sibling", || ());
        let spans = r.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(r.len(), 4);
        let tail = r.spans_since(1);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].parent, None, "a parent before the slice is dropped");
        assert_eq!(r.spans_since(0)[1].parent, Some(0));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let r = Recorder::new();
        r.span("needs \"escaping\"\n", || r.span("child", || ()));
        let path =
            std::env::temp_dir().join(format!("bda-bench-trace-{}.json", std::process::id()));
        r.write_chrome(&path).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("name").unwrap().as_str(),
            Some("needs \"escaping\"\n")
        );
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
