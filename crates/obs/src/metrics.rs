//! A tiny metrics registry with Prometheus text-format export.
//!
//! Counters and histograms are lock-free atomics on the hot path;
//! registration takes a lock but happens once per metric (handles are
//! cheap `Arc` clones meant to be held, not re-looked-up). [`MetricsHub::render`]
//! produces the `text/plain; version=0.0.4` exposition format that the
//! `bda-served` protocol serves for a `Metrics` request and the HTTP
//! `GET /metrics` endpoint exposes to a stock Prometheus scraper.
//!
//! Series names carry their labels inline (`family{k="v"}`). Label
//! values are escaped per the exposition format (`\\`, `\"`, `\n`) —
//! both by the [`series`] builder and defensively at registration time
//! ([`sanitize_series`]), so a hostile dataset name can never smuggle a
//! newline into the scrape output and corrupt neighbouring series.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Histogram bucket upper bounds, in seconds (requests range from
/// sub-millisecond catalog calls to multi-second pushes).
const BUCKET_BOUNDS_S: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// A latency histogram over fixed buckets (100 µs to 10 s) plus a
/// terminal overflow bucket, fed in nanoseconds. Cloning shares the
/// underlying cells.
#[derive(Clone)]
pub struct Histogram {
    /// One cell per finite bound, plus a final overflow cell for
    /// observations beyond the last finite bound (rendered as the gap
    /// between the last finite `_bucket` and `+Inf`).
    buckets: Arc<Vec<AtomicU64>>,
    count: Arc<AtomicU64>,
    sum_ns: Arc<AtomicU64>,
}

impl Histogram {
    /// A free-standing histogram (not registered in any hub). Used for
    /// internal estimates like per-query fragment wall times.
    pub fn new() -> Histogram {
        Histogram {
            buckets: Arc::new(
                (0..BUCKET_BOUNDS_S.len() + 1)
                    .map(|_| AtomicU64::new(0))
                    .collect(),
            ),
            count: Arc::new(AtomicU64::new(0)),
            sum_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Record one observation, in nanoseconds. Observations beyond the
    /// last finite bound land in the terminal overflow bucket, so every
    /// observation is attributed to exactly one bucket — consistent with
    /// the [`Histogram::quantile`] clamp contract.
    pub fn observe_ns(&self, ns: u64) {
        let s = ns as f64 / 1e9;
        let idx = BUCKET_BOUNDS_S
            .iter()
            .position(|bound| s <= *bound)
            .unwrap_or(BUCKET_BOUNDS_S.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record one observation, in seconds.
    pub fn observe_s(&self, s: f64) {
        self.observe_ns((s.max(0.0) * 1e9) as u64);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`), in seconds, by linear
    /// interpolation inside the containing bucket's bounds (the usual
    /// Prometheus `histogram_quantile` estimate). `None` when the
    /// histogram is empty or `q` is out of range. Observations beyond
    /// the last finite bucket clamp to its bound — the estimator never
    /// extrapolates past what the buckets can resolve.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = q * total as f64;
        let mut cumulative = 0u64;
        let mut lower = 0.0f64;
        for (i, bound) in BUCKET_BOUNDS_S.iter().enumerate() {
            let n = self.buckets[i].load(Ordering::Relaxed);
            cumulative += n;
            if n > 0 && cumulative as f64 >= target {
                let within = (target - (cumulative - n) as f64) / n as f64;
                return Some(lower + (bound - lower) * within.clamp(0.0, 1.0));
            }
            lower = *bound;
        }
        Some(*BUCKET_BOUNDS_S.last().expect("bounds are non-empty"))
    }

    /// Median latency in seconds ([`Histogram::quantile`] at 0.5).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 99th-percentile latency in seconds.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency in seconds — the serving-bench tail
    /// statistic: at a thousand in-flight requests, "one in a thousand"
    /// is every batch, so saturation reports track p999 alongside p99.
    pub fn p999(&self) -> Option<f64> {
        self.quantile(0.999)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A point-in-time value with set/add semantics (query-log depth —
/// things that go down as well as up, which a [`Counter`] mis-types). Stored as `f64` bits in an atomic; cloning
/// shares the cell.
#[derive(Clone, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `d` (may be negative) to the gauge.
    pub fn add(&self, d: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Registered {
    /// Full series name including labels, e.g. `requests_total{kind="execute"}`.
    name: String,
    /// Family name (the part before `{`), for HELP/TYPE headers.
    family: String,
    help: String,
    metric: Metric,
}

/// A registry of named metrics with Prometheus text export. One hub per
/// server process; handles are registered once and cached by callers.
#[derive(Clone, Default)]
pub struct MetricsHub {
    metrics: Arc<Mutex<Vec<Registered>>>,
}

impl MetricsHub {
    /// A fresh, empty hub.
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// Get or register the counter with this exact series name (labels
    /// included, e.g. `requests_total{kind="execute"}`). Label values
    /// are normalized to exposition-format escaping on the way in.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let name = sanitize_series(name);
        let name = name.as_str();
        let mut metrics = self.metrics.lock().expect("metrics lock poisoned");
        for m in metrics.iter() {
            if m.name == name {
                if let Metric::Counter(c) = &m.metric {
                    return c.clone();
                }
            }
        }
        let c = Counter {
            value: Arc::new(AtomicU64::new(0)),
        };
        metrics.push(Registered {
            family: family_of(name),
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Counter(c.clone()),
        });
        c
    }

    /// Get or register the counter `family{labels…}`, escaping every
    /// label value.
    pub fn counter_labeled(&self, family: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        self.counter(&series(family, labels), help)
    }

    /// Get or register the gauge with this exact series name.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let name = sanitize_series(name);
        let name = name.as_str();
        let mut metrics = self.metrics.lock().expect("metrics lock poisoned");
        for m in metrics.iter() {
            if m.name == name {
                if let Metric::Gauge(g) = &m.metric {
                    return g.clone();
                }
            }
        }
        let g = Gauge::default();
        metrics.push(Registered {
            family: family_of(name),
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Gauge(g.clone()),
        });
        g
    }

    /// Get or register the gauge `family{labels…}`, escaping every
    /// label value.
    pub fn gauge_labeled(&self, family: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        self.gauge(&series(family, labels), help)
    }

    /// Get or register the histogram named `name` (unlabeled).
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        let name = sanitize_series(name);
        let name = name.as_str();
        let mut metrics = self.metrics.lock().expect("metrics lock poisoned");
        for m in metrics.iter() {
            if m.name == name {
                if let Metric::Histogram(h) = &m.metric {
                    return h.clone();
                }
            }
        }
        let h = Histogram::new();
        metrics.push(Registered {
            family: family_of(name),
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Histogram(h.clone()),
        });
        h
    }

    /// Get or register the histogram `family{labels…}`, escaping every
    /// label value (mirrors [`MetricsHub::counter_labeled`]). The
    /// renderer folds `le` into the label block so the exposition stays
    /// well-formed.
    pub fn histogram_labeled(
        &self,
        family: &str,
        labels: &[(&str, &str)],
        help: &str,
    ) -> Histogram {
        self.histogram(&series(family, labels), help)
    }

    /// Render every metric in Prometheus text exposition format, sorted
    /// by family then series name (HELP/TYPE emitted once per family).
    pub fn render(&self) -> String {
        let metrics = self.metrics.lock().expect("metrics lock poisoned");
        let mut order: Vec<usize> = (0..metrics.len()).collect();
        order.sort_by(|&a, &b| {
            (metrics[a].family.as_str(), metrics[a].name.as_str())
                .cmp(&(metrics[b].family.as_str(), metrics[b].name.as_str()))
        });
        let mut out = String::new();
        let mut last_family = "";
        for &i in &order {
            let m = &metrics[i];
            if m.family != last_family {
                out.push_str(&format!("# HELP {} {}\n", m.family, m.help));
                let kind = match m.metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {} {}\n", m.family, kind));
                last_family = &m.family;
            }
            match &m.metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{} {}\n", m.name, c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("{} {}\n", m.name, g.get()));
                }
                Metric::Histogram(h) => {
                    // Histogram suffixes attach to the family, with any
                    // labels carried over and `le` folded into the label
                    // block: `fam_bucket{k="v",le="0.1"}`.
                    let (labeled, plain) = suffixed_names(&m.name);
                    let mut cumulative = 0u64;
                    for (b, bound) in BUCKET_BOUNDS_S.iter().enumerate() {
                        cumulative += h.buckets[b].load(Ordering::Relaxed);
                        out.push_str(&format!("{} {}\n", labeled("bucket", bound), cumulative));
                    }
                    out.push_str(&format!("{} {}\n", labeled("bucket", &"+Inf"), h.count()));
                    out.push_str(&format!(
                        "{} {}\n",
                        plain("sum"),
                        h.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
                    ));
                    out.push_str(&format!("{} {}\n", plain("count"), h.count()));
                }
            }
        }
        out
    }
}

/// Suffix builders for histogram exposition lines: given the registered
/// series name (`fam` or `fam{labels}`), `labeled(suffix, le)` yields
/// `fam_suffix{labels,le="…"}` and `plain(suffix)` yields
/// `fam_suffix{labels}` — so labeled histograms keep the suffix on the
/// family where Prometheus expects it.
fn suffixed_names(
    name: &str,
) -> (
    impl Fn(&str, &dyn std::fmt::Display) -> String + '_,
    impl Fn(&str) -> String + '_,
) {
    let (family, labels) = match name.find('{') {
        Some(i) => {
            let block = name[i + 1..].strip_suffix('}').unwrap_or(&name[i + 1..]);
            (&name[..i], Some(block))
        }
        None => (name, None),
    };
    let labeled = move |suffix: &str, le: &dyn std::fmt::Display| match labels {
        Some(l) => format!("{family}_{suffix}{{{l},le=\"{le}\"}}"),
        None => format!("{family}_{suffix}{{le=\"{le}\"}}"),
    };
    let plain = move |suffix: &str| match labels {
        Some(l) => format!("{family}_{suffix}{{{l}}}"),
        None => format!("{family}_{suffix}"),
    };
    (labeled, plain)
}

/// The metric family: the series name up to the label block.
fn family_of(name: &str) -> String {
    match name.find('{') {
        Some(i) => name[..i].to_string(),
        None => name.to_string(),
    }
}

/// Escape a label value for the Prometheus text exposition format:
/// backslash, double quote and newline become `\\`, `\"`, `\n`.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Undo [`escape_label_value`] (scrape-side decoding; the round-trip
/// partner the tests exercise).
pub fn unescape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Build the series name `family{k="v",…}` with every label value
/// escaped. An empty label set yields the bare family name.
pub fn series(family: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return family.to_string();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{family}{{{}}}", body.join(","))
}

/// Normalize a series name so every label value is exposition-escaped,
/// whether the caller escaped it or not (idempotent: values are decoded
/// with [`unescape_label_value`] semantics, then re-escaped). A name the
/// parser cannot make sense of is returned unchanged — the renderer
/// must never lose a metric over a malformed name.
pub fn sanitize_series(name: &str) -> String {
    let Some(open) = name.find('{') else {
        return name.to_string();
    };
    if !name.ends_with('}') {
        return name.to_string();
    }
    let family = &name[..open];
    let block = &name[open + 1..name.len() - 1];
    let mut labels: Vec<(String, String)> = Vec::new();
    let chars: Vec<char> = block.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        // key up to '='
        let key_start = i;
        while i < chars.len() && chars[i] != '=' {
            i += 1;
        }
        if i >= chars.len() {
            return name.to_string();
        }
        let key: String = chars[key_start..i].iter().collect();
        i += 1; // '='
        if i >= chars.len() || chars[i] != '"' {
            return name.to_string();
        }
        i += 1; // opening quote
        let mut value = String::new();
        loop {
            if i >= chars.len() {
                return name.to_string(); // unterminated value
            }
            match chars[i] {
                '\\' if i + 1 < chars.len() => {
                    // Already-escaped sequence: decode it (re-escaped below).
                    match chars[i + 1] {
                        '\\' => value.push('\\'),
                        '"' => value.push('"'),
                        'n' => value.push('\n'),
                        other => {
                            value.push('\\');
                            value.push(other);
                        }
                    }
                    i += 2;
                }
                '"' => {
                    // A quote ends the value only before a separator or
                    // the end of the block; otherwise it is a raw quote
                    // the caller failed to escape.
                    if i + 1 >= chars.len() || chars[i + 1] == ',' {
                        i += 1;
                        break;
                    }
                    value.push('"');
                    i += 1;
                }
                c => {
                    value.push(c);
                    i += 1;
                }
            }
        }
        labels.push((key.trim().to_string(), value));
        if i < chars.len() {
            if chars[i] != ',' {
                return name.to_string();
            }
            i += 1;
        }
    }
    let pairs: Vec<(&str, &str)> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    series(family, &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_accumulate() {
        let hub = MetricsHub::new();
        let a = hub.counter("requests_total{kind=\"execute\"}", "Requests served");
        let b = hub.counter("requests_total{kind=\"execute\"}", "Requests served");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same series shares one cell");
        let text = hub.render();
        assert!(text.contains("# HELP requests_total Requests served"));
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total{kind=\"execute\"} 3"));
    }

    #[test]
    fn help_and_type_emitted_once_per_family() {
        let hub = MetricsHub::new();
        hub.counter("requests_total{kind=\"a\"}", "Requests served")
            .inc();
        hub.counter("requests_total{kind=\"b\"}", "Requests served")
            .inc();
        let text = hub.render();
        assert_eq!(text.matches("# HELP requests_total").count(), 1);
        assert_eq!(text.matches("# TYPE requests_total").count(), 1);
        assert!(text.contains("requests_total{kind=\"a\"} 1"));
        assert!(text.contains("requests_total{kind=\"b\"} 1"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let hub = MetricsHub::new();
        let h = hub.histogram("request_duration_seconds", "Request latency");
        h.observe_ns(50_000); // 50µs  -> first bucket (1e-4)
        h.observe_ns(2_000_000); // 2ms -> le 0.0025
        h.observe_ns(20_000_000_000); // 20s -> only +Inf
        let text = hub.render();
        assert!(text.contains("# TYPE request_duration_seconds histogram"));
        assert!(text.contains("request_duration_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(text.contains("request_duration_seconds_bucket{le=\"0.0025\"} 2"));
        assert!(text.contains("request_duration_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("request_duration_seconds_count 3"));
        let sum_line = text
            .lines()
            .find(|l| l.starts_with("request_duration_seconds_sum"))
            .unwrap();
        let sum: f64 = sum_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!((sum - 20.00205).abs() < 1e-6, "{sum}");
    }

    #[test]
    fn label_values_escape_and_round_trip() {
        for raw in [
            "plain",
            "with \"quotes\"",
            "line\nbreak",
            "back\\slash",
            "\\\"\n",
        ] {
            let escaped = escape_label_value(raw);
            assert!(!escaped.contains('\n'), "escaped value has a raw newline");
            assert_eq!(unescape_label_value(&escaped), raw, "round trip of {raw:?}");
        }
        assert_eq!(
            series("requests_total", &[("kind", "a\"b\nc\\d")]),
            "requests_total{kind=\"a\\\"b\\nc\\\\d\"}"
        );
    }

    #[test]
    fn renderer_escapes_raw_label_values() {
        let hub = MetricsHub::new();
        // The caller formatted a raw, unescaped value into the series name.
        hub.counter("requests_total{kind=\"a\"b\nc\\d\"}", "Requests served")
            .inc();
        let text = hub.render();
        // No data line may contain a raw newline: every line is either a
        // comment or a well-formed `name{...} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.ends_with(" 1"), "malformed exposition line: {line:?}");
        }
        assert!(
            text.contains("requests_total{kind=\"a\\\"b\\nc\\\\d\"} 1"),
            "{text}"
        );
        // Registering the pre-escaped form finds the same series.
        let again = hub.counter(
            "requests_total{kind=\"a\\\"b\\nc\\\\d\"}",
            "Requests served",
        );
        again.inc();
        assert_eq!(again.get(), 2, "sanitization is idempotent");
    }

    #[test]
    fn counter_labeled_builds_escaped_series() {
        let hub = MetricsHub::new();
        hub.counter_labeled("errs_total", &[("msg", "bad\nthing")], "Errors")
            .inc();
        assert!(hub.render().contains("errs_total{msg=\"bad\\nthing\"} 1"));
    }

    #[test]
    fn sanitize_leaves_unlabeled_and_malformed_names_alone() {
        assert_eq!(sanitize_series("plain_total"), "plain_total");
        assert_eq!(sanitize_series("x{notalabel}"), "x{notalabel}");
        assert_eq!(
            sanitize_series("x{k=\"unterminated}"),
            "x{k=\"unterminated}"
        );
    }

    #[test]
    fn quantile_on_empty_histogram_is_none() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        h.observe_ns(1_000);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.5), None);
    }

    #[test]
    fn quantile_single_bucket_interpolates_within_its_bounds() {
        let h = Histogram::new();
        // All observations land in the (0.0001, 0.00025] bucket.
        for _ in 0..100 {
            h.observe_ns(200_000); // 200µs
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 > 0.0001 && p50 <= 0.00025, "{p50}");
        assert!(p99 > p50 && p99 <= 0.00025, "{p99}");
        // Mid-bucket linear interpolation: p50 sits halfway.
        let mid = 0.0001 + (0.00025 - 0.0001) * 0.5;
        assert!((p50 - mid).abs() < 1e-9, "{p50} vs {mid}");
    }

    #[test]
    fn quantile_interpolates_across_buckets() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.observe_ns(50_000); // 50µs -> first bucket (le 0.0001)
        }
        for _ in 0..10 {
            h.observe_ns(2_000_000_000); // 2s -> le 2.5 bucket
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 <= 0.0001, "median stays in the fast bucket: {p50}");
        let p95 = h.quantile(0.95).unwrap();
        assert!(
            p95 > 1.0 && p95 <= 2.5,
            "p95 lands in the slow bucket: {p95}"
        );
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 >= p95, "{p99} < {p95}");
    }

    #[test]
    fn quantile_clamps_beyond_the_last_bucket() {
        let h = Histogram::new();
        h.observe_ns(60_000_000_000); // 60s: beyond every finite bound
        assert_eq!(h.quantile(0.5), Some(10.0), "clamped to the last bound");
    }

    #[test]
    fn overflow_observations_land_in_the_terminal_bucket() {
        let h = Histogram::new();
        let last = *BUCKET_BOUNDS_S.last().unwrap();
        h.observe_ns((last * 1e9) as u64); // exactly the last finite bound
        h.observe_ns((last * 1e9) as u64 + 1_000); // just beyond it
        let overflow = h.buckets[BUCKET_BOUNDS_S.len()].load(Ordering::Relaxed);
        let last_finite = h.buckets[BUCKET_BOUNDS_S.len() - 1].load(Ordering::Relaxed);
        assert_eq!(last_finite, 1, "boundary observation stays finite");
        assert_eq!(overflow, 1, "past-the-bound observation is not dropped");
        let bucketed: u64 = h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        assert_eq!(bucketed, h.count(), "every observation owns a bucket");
        // Consistent with the quantile clamp: the overflow observation
        // resolves to the last finite bound, never beyond it.
        assert_eq!(h.quantile(1.0), Some(last));
    }

    #[test]
    fn gauge_sets_adds_and_renders_as_gauge_type() {
        let hub = MetricsHub::new();
        let g = hub.gauge("query_log_depth", "Profiles retained");
        g.set(4.0);
        g.add(2.5);
        g.add(-1.5);
        assert!((g.get() - 5.0).abs() < 1e-12);
        let again = hub.gauge("query_log_depth", "Profiles retained");
        assert!((again.get() - 5.0).abs() < 1e-12, "same series, same cell");
        let text = hub.render();
        assert!(text.contains("# TYPE query_log_depth gauge"), "{text}");
        assert!(text.contains("query_log_depth 5\n"), "{text}");
        hub.gauge_labeled("log_entries", &[("kind", "slow\nquery")], "Entries")
            .set(3.0);
        assert!(
            hub.render()
                .contains("log_entries{kind=\"slow\\nquery\"} 3"),
            "labeled gauge escapes like counters do"
        );
    }

    #[test]
    fn histogram_labeled_folds_le_into_the_label_block() {
        let hub = MetricsHub::new();
        let h = hub.histogram_labeled("op_seconds", &[("class", "join\nx")], "Per-op latency");
        h.observe_ns(50_000);
        let text = hub.render();
        assert!(
            text.contains("op_seconds_bucket{class=\"join\\nx\",le=\"0.0001\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("op_seconds_bucket{class=\"join\\nx\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("op_seconds_sum{class=\"join\\nx\"} 0.00005"),
            "{text}"
        );
        assert!(
            text.contains("op_seconds_count{class=\"join\\nx\"} 1"),
            "{text}"
        );
        // Same family+labels resolves to the same cells.
        let again = hub.histogram_labeled("op_seconds", &[("class", "join\nx")], "Per-op latency");
        again.observe_ns(50_000);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn golden_exposition_render() {
        let hub = MetricsHub::new();
        hub.counter_labeled("requests_total", &[("kind", "z")], "Requests served")
            .add(2);
        hub.counter_labeled("requests_total", &[("kind", "a\nb")], "Requests served")
            .inc();
        hub.gauge("query_log_depth", "Profiles retained").set(3.0);
        let h = hub.histogram("request_duration_seconds", "Request latency");
        h.observe_ns(50_000); // le 0.0001
        h.observe_ns(2_000_000); // le 0.0025
        let expected = "\
# HELP query_log_depth Profiles retained
# TYPE query_log_depth gauge
query_log_depth 3
# HELP request_duration_seconds Request latency
# TYPE request_duration_seconds histogram
request_duration_seconds_bucket{le=\"0.0001\"} 1
request_duration_seconds_bucket{le=\"0.00025\"} 1
request_duration_seconds_bucket{le=\"0.0005\"} 1
request_duration_seconds_bucket{le=\"0.001\"} 1
request_duration_seconds_bucket{le=\"0.0025\"} 2
request_duration_seconds_bucket{le=\"0.005\"} 2
request_duration_seconds_bucket{le=\"0.01\"} 2
request_duration_seconds_bucket{le=\"0.025\"} 2
request_duration_seconds_bucket{le=\"0.05\"} 2
request_duration_seconds_bucket{le=\"0.1\"} 2
request_duration_seconds_bucket{le=\"0.25\"} 2
request_duration_seconds_bucket{le=\"0.5\"} 2
request_duration_seconds_bucket{le=\"1\"} 2
request_duration_seconds_bucket{le=\"2.5\"} 2
request_duration_seconds_bucket{le=\"5\"} 2
request_duration_seconds_bucket{le=\"10\"} 2
request_duration_seconds_bucket{le=\"+Inf\"} 2
request_duration_seconds_sum 0.00205
request_duration_seconds_count 2
# HELP requests_total Requests served
# TYPE requests_total counter
requests_total{kind=\"a\\nb\"} 1
requests_total{kind=\"z\"} 2
";
        assert_eq!(hub.render(), expected);
    }

    #[test]
    fn tail_percentile_helpers_resolve_the_slow_outlier() {
        let h = Histogram::new();
        // 998 fast observations and two slow ones: p50/p99 sit in the
        // fast bucket, p999 lands in the outliers'.
        for _ in 0..998 {
            h.observe_ns(150_000); // 0.15ms
        }
        h.observe_ns(2_000_000_000); // 2s
        h.observe_ns(2_000_000_000);
        let p50 = h.p50().expect("non-empty");
        let p99 = h.p99().expect("non-empty");
        let p999 = h.p999().expect("non-empty");
        assert!(p50 <= 0.00025, "{p50}");
        assert!(p99 <= 0.00025, "{p99}");
        assert!(p999 > 1.0, "p999 must see the 2s outlier, got {p999}");
        assert!(p50 <= p99 && p99 <= p999);
    }
}
