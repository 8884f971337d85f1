//! # `bda-obs`: observability for the federation
//!
//! A structured, low-overhead tracing and profiling layer. The federated
//! executor opens *query → fragment → transfer* spans on a [`Tracer`] and
//! installs the ambient [`scope`] around each provider call; providers
//! open per-operator spans through that scope, never through their
//! signatures, and `bda-net` reads it to propagate the trace id over the
//! wire so server-side spans reassemble into one cross-process timeline.
//!
//! Design constraints (see DESIGN.md, "Observability"):
//!
//! * **Off-by-default-cheap.** A disabled [`Tracer`] is a `None`; every
//!   hook is a null-check and the name/label closures are never invoked,
//!   so the disabled path allocates nothing.
//! * **Deterministic ids.** Span ids are sequential per tracer and the
//!   trace id is a pure function of the seed ([`Tracer::new`]), so tests
//!   can assert on trace *shape* under `BDA_FAULT_SEED`-style seeding.
//! * **Bounded.** The span buffer has a hard capacity; overflow is
//!   counted in [`Trace::dropped`], never unbounded growth.
//!
//! Exports: [`Trace::to_chrome_json`] renders a `chrome://tracing`
//! timeline; [`MetricsHub::render`] produces Prometheus text format.
//! Spans cross the wire in `bda-net`'s protocol, which owns their byte
//! layout, so this crate stays free of any codec dependency.
//!
//! The *live* layer (this crate's newer half) turns those artifacts into
//! an operator-facing surface: [`http`] is a dependency-free HTTP/1.1
//! ops server (`/metrics`, `/healthz`, `/readyz`, `/progress`,
//! `/traces/<id>`, `/flight`, `/queries`), [`progress`] tracks
//! in-flight queries and flags straggler providers, [`flight`] is the
//! always-on crash flight recorder dumped when a query fails
//! permanently, and [`profile`] distills finished traces into query
//! profiles feeding a persistent query log — which also keeps each
//! traced query's trace for `/traces/<id>`.

pub mod chrome;
pub mod flight;
pub mod http;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod scope;

pub use flight::FlightRecorder;
pub use http::{serve_ops, Health, HealthSource, OpsHandle, OpsOptions};
pub use metrics::{Counter, Gauge, Histogram, MetricsHub};
pub use profile::{QueryLog, QueryProfile};
pub use progress::{ProgressHandle, ProgressTracker, QueryProgress};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// SplitMix64: the seed→trace-id mix (deterministic, well distributed).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A timestamped annotation inside a span (a retry, a degradation step,
/// a breaker trip, an iteration boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Nanoseconds since the trace epoch.
    pub at_ns: u64,
    /// What happened, e.g. `attempt:push failed: …` or `degrade:app-routed`.
    pub label: String,
}

/// One recorded span: a named, timed piece of work at a site.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within the trace.
    pub id: u64,
    /// Parent span id, `None` for a root.
    pub parent: Option<u64>,
    /// Span name, e.g. `query`, `fragment:0`, `op:matmul`, `transfer:0`.
    pub name: String,
    /// Site that did the work (provider name, or `app` for the app tier).
    pub site: String,
    /// Start, nanoseconds since the trace epoch (monotonic clock).
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Output cardinality, when the work produced rows.
    pub rows: Option<u64>,
    /// Payload size in wire-encoded bytes, when the work moved data.
    pub bytes: Option<u64>,
    /// Timestamped events inside the span.
    pub events: Vec<SpanEvent>,
}

impl Span {
    /// Span duration in nanoseconds (saturating).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A finished trace: every span the tracer recorded (local and absorbed
/// remote), plus how many were discarded by the capacity bound.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Trace id.
    pub trace_id: u64,
    /// All spans, in emission order.
    pub spans: Vec<Span>,
    /// Spans discarded because the buffer was full.
    pub dropped: u64,
}

impl Trace {
    /// The span with the given id.
    pub fn span(&self, id: u64) -> Option<&Span> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Spans whose name starts with `prefix`, in emission order.
    pub fn spans_named(&self, prefix: &str) -> Vec<&Span> {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .collect()
    }

    /// Direct children of `id`, sorted by start time.
    pub fn children_of(&self, id: u64) -> Vec<&Span> {
        let mut out: Vec<&Span> = self.spans.iter().filter(|s| s.parent == Some(id)).collect();
        out.sort_by_key(|s| (s.start_ns, s.id));
        out
    }

    /// The distinct sites that contributed spans, sorted.
    pub fn sites(&self) -> Vec<String> {
        let mut out: Vec<String> = self.spans.iter().map(|s| s.site.clone()).collect();
        out.sort();
        out.dedup();
        out
    }
}

struct TracerInner {
    trace_id: u64,
    next_id: AtomicU64,
    epoch: Instant,
    capacity: usize,
    spans: Mutex<Vec<Span>>,
    /// Events recorded against a span that is still open (its guard owns
    /// the `Span` value); drained into the span when the guard finishes.
    pending_events: Mutex<Vec<(u64, SpanEvent)>>,
    dropped: AtomicU64,
}

/// The tracing handle. Cloning is cheap (an `Arc`); a disabled tracer is
/// a `None` and every operation on it is a no-op that allocates nothing.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

/// Default span-buffer capacity (spans beyond this are dropped, counted).
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

impl Tracer {
    /// The disabled tracer: every hook is a null check.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer with a seed-derived trace id and sequential span
    /// ids — same seed, same trace shape.
    pub fn new(seed: u64) -> Tracer {
        Tracer::with_trace_id(splitmix64(seed))
    }

    /// An enabled tracer adopting an existing trace id (the server side
    /// of a propagated trace).
    pub fn with_trace_id(trace_id: u64) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                trace_id,
                next_id: AtomicU64::new(1),
                epoch: Instant::now(),
                capacity: DEFAULT_SPAN_CAPACITY,
                spans: Mutex::new(Vec::new()),
                pending_events: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Is this tracer recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id (0 when disabled).
    pub fn trace_id(&self) -> u64 {
        self.inner.as_ref().map(|i| i.trace_id).unwrap_or(0)
    }

    /// Nanoseconds since the trace epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.epoch.elapsed().as_nanos() as u64)
            .unwrap_or(0)
    }

    /// Open a span. `name` is a closure so the disabled path never
    /// formats or allocates. Returns a guard that records the span when
    /// finished (or dropped).
    pub fn start(
        &self,
        parent: Option<u64>,
        name: impl FnOnce() -> String,
        site: &str,
    ) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { active: None };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = inner.epoch.elapsed().as_nanos() as u64;
        SpanGuard {
            active: Some(ActiveSpan {
                inner: Arc::clone(inner),
                span: Span {
                    id,
                    parent,
                    name: name(),
                    site: site.to_string(),
                    start_ns,
                    end_ns: start_ns,
                    rows: None,
                    bytes: None,
                    events: Vec::new(),
                },
            }),
        }
    }

    /// Record an event against a span that may still be open (attached
    /// when its guard finishes). No-op when disabled or `span` is `None`.
    pub fn event(&self, span: Option<u64>, label: impl FnOnce() -> String) {
        let (Some(inner), Some(span)) = (&self.inner, span) else {
            return;
        };
        let at_ns = inner.epoch.elapsed().as_nanos() as u64;
        let mut pending = inner.pending_events.lock().expect("tracer lock poisoned");
        pending.push((
            span,
            SpanEvent {
                at_ns,
                label: label(),
            },
        ));
    }

    /// Emit a fully-formed span (used when span boundaries don't nest as
    /// lexical scopes, e.g. a transfer assembled from attempt logs).
    pub fn emit(&self, span: Span) {
        if let Some(inner) = &self.inner {
            inner.push(span);
        }
    }

    /// Attach spans recorded by a remote tracer: ids are remapped into
    /// this tracer's id space (preserving the remote parent structure),
    /// parentless remote spans hang under `parent`, and times shift by
    /// `anchor_ns - min(remote start)` so the remote work lands at the
    /// moment the client observed it.
    pub fn absorb_remote(&self, spans: Vec<Span>, parent: Option<u64>, anchor_ns: u64) {
        let Some(inner) = &self.inner else { return };
        if spans.is_empty() {
            return;
        }
        let base = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let mut remap = std::collections::HashMap::new();
        for s in &spans {
            remap.insert(s.id, inner.next_id.fetch_add(1, Ordering::Relaxed));
        }
        for mut s in spans {
            s.id = remap[&s.id];
            s.parent = match s.parent.and_then(|p| remap.get(&p).copied()) {
                Some(p) => Some(p),
                None => parent,
            };
            s.start_ns = anchor_ns + (s.start_ns - base);
            s.end_ns = anchor_ns + (s.end_ns - base);
            for e in &mut s.events {
                e.at_ns = anchor_ns + e.at_ns.saturating_sub(base);
            }
            inner.push(s);
        }
    }

    /// Drain the recorded spans (the server side returns these over the
    /// wire after answering a traced request).
    pub fn take_spans(&self) -> Vec<Span> {
        match &self.inner {
            Some(inner) => {
                let mut spans = inner.spans.lock().expect("tracer lock poisoned");
                std::mem::take(&mut *spans)
            }
            None => Vec::new(),
        }
    }

    /// Snapshot the trace recorded so far.
    pub fn finish(&self) -> Trace {
        match &self.inner {
            Some(inner) => Trace {
                trace_id: inner.trace_id,
                spans: inner.spans.lock().expect("tracer lock poisoned").clone(),
                dropped: inner.dropped.load(Ordering::Relaxed),
            },
            None => Trace::default(),
        }
    }
}

impl TracerInner {
    fn push(&self, mut span: Span) {
        // Merge any events recorded while the span was open.
        {
            let mut pending = self.pending_events.lock().expect("tracer lock poisoned");
            let mut i = 0;
            while i < pending.len() {
                if pending[i].0 == span.id {
                    span.events.push(pending.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
        }
        span.events.sort_by_key(|e| e.at_ns);
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        if spans.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(span);
    }
}

struct ActiveSpan {
    inner: Arc<TracerInner>,
    span: Span,
}

/// An open span; finishing (or dropping) it records the span. All
/// methods are no-ops on the disabled tracer's guard.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// This span's id (`None` when tracing is disabled).
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.span.id)
    }

    /// Record a timestamped event inside this span.
    pub fn event(&mut self, label: impl FnOnce() -> String) {
        if let Some(a) = &mut self.active {
            let at_ns = a.inner.epoch.elapsed().as_nanos() as u64;
            a.span.events.push(SpanEvent {
                at_ns,
                label: label(),
            });
        }
    }

    /// Record the output cardinality.
    pub fn set_rows(&mut self, rows: usize) {
        if let Some(a) = &mut self.active {
            a.span.rows = Some(rows as u64);
        }
    }

    /// Record the payload size in bytes.
    pub fn set_bytes(&mut self, bytes: u64) {
        if let Some(a) = &mut self.active {
            a.span.bytes = Some(bytes);
        }
    }

    /// Close the span now (otherwise it closes on drop).
    pub fn finish(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if let Some(mut a) = self.active.take() {
            a.span.end_ns = a.inner.epoch.elapsed().as_nanos() as u64;
            a.inner.push(a.span);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert_and_allocation_free() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.trace_id(), 0);
        let mut g = t.start(None, || unreachable!("name closure must not run"), "app");
        assert_eq!(g.id(), None);
        g.event(|| unreachable!("label closure must not run"));
        g.set_rows(3);
        g.finish();
        t.event(Some(1), || unreachable!());
        let trace = t.finish();
        assert!(trace.spans.is_empty());
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn span_ids_are_sequential_and_trace_id_seeded() {
        let a = Tracer::new(42);
        let b = Tracer::new(42);
        assert_eq!(a.trace_id(), b.trace_id());
        assert_ne!(Tracer::new(7).trace_id(), a.trace_id());
        let s1 = a.start(None, || "query".into(), "app");
        let s2 = a.start(s1.id(), || "fragment:0".into(), "rel");
        assert_eq!(s1.id(), Some(1));
        assert_eq!(s2.id(), Some(2));
        drop(s2);
        drop(s1);
        let trace = a.finish();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.span(2).unwrap().parent, Some(1));
        assert_eq!(trace.children_of(1).len(), 1);
    }

    #[test]
    fn pending_events_merge_into_open_spans() {
        let t = Tracer::new(1);
        let g = t.start(None, || "fragment:0".into(), "rel");
        t.event(g.id(), || "retry:1".into());
        t.event(g.id(), || "retry:2".into());
        g.finish();
        let trace = t.finish();
        let s = trace.span(1).unwrap();
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].label, "retry:1");
        assert!(s.events[0].at_ns <= s.events[1].at_ns);
    }

    #[test]
    fn absorb_remote_remaps_ids_and_parents() {
        let t = Tracer::new(1);
        let g = t.start(None, || "fragment:0".into(), "rel");
        let parent = g.id();
        // Remote spans with their own id space: 1 → 2.
        let remote = vec![
            Span {
                id: 1,
                parent: None,
                name: "serve:execute".into(),
                site: "la".into(),
                start_ns: 100,
                end_ns: 300,
                rows: Some(4),
                bytes: None,
                events: vec![],
            },
            Span {
                id: 2,
                parent: Some(1),
                name: "op:matmul".into(),
                site: "la".into(),
                start_ns: 120,
                end_ns: 280,
                rows: Some(4),
                bytes: None,
                events: vec![],
            },
        ];
        t.absorb_remote(remote, parent, 1_000);
        g.finish();
        let trace = t.finish();
        assert_eq!(trace.spans.len(), 3);
        let serve = trace.spans_named("serve:")[0];
        let op = trace.spans_named("op:")[0];
        assert_eq!(serve.parent, parent);
        assert_eq!(op.parent, Some(serve.id));
        assert_eq!(serve.start_ns, 1_000, "anchored to the client timeline");
        assert_eq!(op.start_ns, 1_020);
        assert_eq!(trace.sites(), vec!["la".to_string(), "rel".to_string()]);
    }

    #[test]
    fn span_buffer_is_bounded() {
        let t = Tracer::with_trace_id(9);
        let cap = t.inner.as_ref().unwrap().capacity;
        for i in 0..cap + 10 {
            t.start(None, || format!("s{i}"), "app").finish();
        }
        let trace = t.finish();
        assert_eq!(trace.spans.len(), cap);
        assert_eq!(trace.dropped, 10);
    }
}
