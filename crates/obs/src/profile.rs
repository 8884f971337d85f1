//! Query profiling.
//!
//! A [`QueryProfile`] distills a finished span tree ([`crate::Trace`])
//! into the numbers an operator actually consumes: per operator class,
//! how many rows and bytes went through and how long they took; per site, fragment wall times, transfer throughput,
//! and how often execution had to retry or fail over. Profiles live in
//! a bounded in-memory [`QueryLog`] ring — each entry holding the trace
//! it was distilled from, which `GET /traces/<id>` serves — and are
//! optionally persisted as JSONL (one profile per line, traces not
//! included) so the log survives restarts alongside the durability
//! subsystem's WAL.
//!
//! Everything here is hand-rolled JSON in and out (the workspace has no
//! serde); rendering follows the `/progress` idiom, and the JSONL
//! loader is lenient — a line it cannot parse is skipped, never fatal.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use crate::chrome::escape;
use crate::metrics::Histogram;
use crate::Trace;

/// Environment variable naming a directory for JSONL profile
/// persistence. When set, the process-global [`QueryLog`] loads the
/// existing log on first touch and appends every new profile.
pub const PROFILE_DIR_ENV: &str = "BDA_PROFILE_DIR";

/// File name of the JSONL query log inside the profile directory.
pub const PROFILE_FILE: &str = "profiles.jsonl";

/// Profiles retained in the in-memory query-log ring.
pub const DEFAULT_QUERIES_KEPT: usize = 64;

/// Slow entries kept past the ring's churn: the newest this many slow
/// queries survive eviction, profile and trace both.
pub const SLOW_KEPT: usize = 8;

/// Slow-query detection needs at least this many prior walls before the
/// p99 estimate is trusted.
const SLOW_MIN_SAMPLES: u64 = 8;

/// A query is slow when its wall time exceeds p99 × this factor.
const SLOW_FACTOR: f64 = 4.0;

/// Aggregate cost of one operator class within a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// Operator class, e.g. `join`, `matmul` (the `op:` span suffix).
    pub class: String,
    /// Number of operator spans of this class.
    pub count: u64,
    /// Rows produced, summed (spans without cardinality count 0).
    pub rows: u64,
    /// Bytes moved, summed (spans without a payload count 0).
    pub bytes: u64,
    /// Wall time, summed, in nanoseconds.
    pub wall_ns: u64,
}

/// Aggregate cost of one site within a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteProfile {
    /// Provider name (or `app` for the application tier).
    pub site: String,
    /// Fragments dispatched to this site.
    pub fragments: u64,
    /// Fragment wall time, summed, in nanoseconds.
    pub fragment_wall_ns: u64,
    /// Bytes moved to or from this site (transfers and reships).
    pub transfer_bytes: u64,
    /// Transfer wall time, summed, in nanoseconds.
    pub transfer_wall_ns: u64,
    /// Retry attempts recorded against this site's fragments.
    pub retries: u64,
    /// Failovers away from this site.
    pub failovers: u64,
}

/// A per-query profile record distilled from the span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfile {
    /// Trace id of the query this profile was distilled from.
    pub trace_id: u64,
    /// End-to-end wall time in nanoseconds (root `query` span).
    pub wall_ns: u64,
    /// Flagged slow by the query log (wall > p99 × k at push time).
    pub slow: bool,
    /// Per-operator-class aggregates, sorted by class.
    pub ops: Vec<OpProfile>,
    /// Per-site aggregates, sorted by site.
    pub sites: Vec<SiteProfile>,
}

impl QueryProfile {
    /// Distill a finished trace into a profile. `None` for an empty
    /// trace (a disabled tracer's `finish()`).
    pub fn from_trace(trace: &Trace) -> Option<QueryProfile> {
        if trace.spans.is_empty() {
            return None;
        }
        // Wall time: the root `query` span when present, otherwise the
        // extent of the recorded spans.
        let wall_ns = trace
            .spans
            .iter()
            .find(|s| s.parent.is_none() && s.name == "query")
            .map(|s| s.duration_ns())
            .unwrap_or_else(|| {
                let start = trace.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
                let end = trace.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
                end.saturating_sub(start)
            });
        let mut ops: BTreeMap<&str, OpProfile> = BTreeMap::new();
        let mut sites: BTreeMap<&str, SiteProfile> = BTreeMap::new();
        for span in &trace.spans {
            if let Some(class) = span.name.strip_prefix("op:") {
                let op = ops.entry(class).or_insert_with(|| OpProfile {
                    class: class.to_string(),
                    count: 0,
                    rows: 0,
                    bytes: 0,
                    wall_ns: 0,
                });
                op.count += 1;
                op.rows += span.rows.unwrap_or(0);
                op.bytes += span.bytes.unwrap_or(0);
                op.wall_ns += span.duration_ns();
                continue;
            }
            let site = sites
                .entry(span.site.as_str())
                .or_insert_with(|| SiteProfile {
                    site: span.site.clone(),
                    fragments: 0,
                    fragment_wall_ns: 0,
                    transfer_bytes: 0,
                    transfer_wall_ns: 0,
                    retries: 0,
                    failovers: 0,
                });
            if span.name.starts_with("fragment:") {
                site.fragments += 1;
                site.fragment_wall_ns += span.duration_ns();
                for ev in &span.events {
                    if ev.label.starts_with("retry:") {
                        site.retries += 1;
                    } else if ev.label.starts_with("failover:") {
                        site.failovers += 1;
                    }
                }
            } else if span.name.starts_with("transfer:") || span.name.starts_with("reship:") {
                site.transfer_bytes += span.bytes.unwrap_or(0);
                site.transfer_wall_ns += span.duration_ns();
            }
        }
        // Drop sites that contributed nothing measurable (e.g. the app
        // tier when it only held the root span).
        sites.retain(|_, s| {
            s.fragments > 0 || s.transfer_bytes > 0 || s.transfer_wall_ns > 0 || s.retries > 0
        });
        Some(QueryProfile {
            trace_id: trace.trace_id,
            wall_ns,
            slow: false,
            ops: ops.into_values().collect(),
            sites: sites.into_values().collect(),
        })
    }

    /// Render as a single JSON line (the JSONL persistence format and
    /// the `/queries` element shape).
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"trace_id\":\"{:#018x}\",\"wall_ns\":{},\"slow\":{},\"ops\":[",
            self.trace_id, self.wall_ns, self.slow
        ));
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"class\":\"{}\",\"count\":{},\"rows\":{},\"bytes\":{},\"wall_ns\":{}}}",
                escape(&op.class),
                op.count,
                op.rows,
                op.bytes,
                op.wall_ns
            ));
        }
        out.push_str("],\"sites\":[");
        for (i, s) in self.sites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"site\":\"{}\",\"fragments\":{},\"fragment_wall_ns\":{},\
                 \"transfer_bytes\":{},\"transfer_wall_ns\":{},\"retries\":{},\"failovers\":{}}}",
                escape(&s.site),
                s.fragments,
                s.fragment_wall_ns,
                s.transfer_bytes,
                s.transfer_wall_ns,
                s.retries,
                s.failovers
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parse one JSONL line produced by [`QueryProfile::render_json`].
    /// Lenient: `None` for anything malformed (the loader skips it).
    pub fn parse_json(line: &str) -> Option<QueryProfile> {
        let fields = object_fields(line)?;
        let trace_id = raw_of(&fields, "trace_id")
            .and_then(parse_string)
            .and_then(|s| u64::from_str_radix(s.strip_prefix("0x")?, 16).ok())?;
        let wall_ns = raw_of(&fields, "wall_ns").and_then(parse_u64)?;
        let slow = raw_of(&fields, "slow").and_then(parse_bool)?;
        let mut ops = Vec::new();
        for obj in array_objects(raw_of(&fields, "ops")?)? {
            let f = object_fields(obj)?;
            ops.push(OpProfile {
                class: raw_of(&f, "class").and_then(parse_string)?,
                count: raw_of(&f, "count").and_then(parse_u64)?,
                rows: raw_of(&f, "rows").and_then(parse_u64)?,
                bytes: raw_of(&f, "bytes").and_then(parse_u64)?,
                wall_ns: raw_of(&f, "wall_ns").and_then(parse_u64)?,
            });
        }
        let mut sites = Vec::new();
        for obj in array_objects(raw_of(&fields, "sites")?)? {
            let f = object_fields(obj)?;
            sites.push(SiteProfile {
                site: raw_of(&f, "site").and_then(parse_string)?,
                fragments: raw_of(&f, "fragments").and_then(parse_u64)?,
                fragment_wall_ns: raw_of(&f, "fragment_wall_ns").and_then(parse_u64)?,
                transfer_bytes: raw_of(&f, "transfer_bytes").and_then(parse_u64)?,
                transfer_wall_ns: raw_of(&f, "transfer_wall_ns").and_then(parse_u64)?,
                retries: raw_of(&f, "retries").and_then(parse_u64)?,
                failovers: raw_of(&f, "failovers").and_then(parse_u64)?,
            });
        }
        Some(QueryProfile {
            trace_id,
            wall_ns,
            slow,
            ops,
            sites,
        })
    }
}

// ---------------------------------------------------------------------
// Minimal JSON scanning (enough for our own output, strings included).

/// Split a JSON object into top-level `(key, raw value)` pairs.
pub(crate) fn object_fields(s: &str) -> Option<Vec<(String, &str)>> {
    let s = s.trim();
    let b = s.as_bytes();
    if b.first() != Some(&b'{') || b.last() != Some(&b'}') {
        return None;
    }
    let mut out = Vec::new();
    let mut i = 1;
    loop {
        i = skip_ws(b, i);
        if i >= b.len() {
            return None;
        }
        if b[i] == b'}' {
            return Some(out);
        }
        let (key, after) = scan_string(b, i)?;
        i = skip_ws(b, after);
        if b.get(i) != Some(&b':') {
            return None;
        }
        i = skip_ws(b, i + 1);
        let end = scan_value(b, i)?;
        out.push((key, s.get(i..end)?));
        i = skip_ws(b, end);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {}
            _ => return None,
        }
    }
}

/// The raw value of `key`, if present.
pub(crate) fn raw_of<'a>(fields: &[(String, &'a str)], key: &str) -> Option<&'a str> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

/// Split a raw `[…]` array value into its top-level objects.
fn array_objects(raw: &str) -> Option<Vec<&str>> {
    let raw = raw.trim();
    let b = raw.as_bytes();
    if b.first() != Some(&b'[') || b.last() != Some(&b']') {
        return None;
    }
    let mut out = Vec::new();
    let mut i = 1;
    loop {
        i = skip_ws(b, i);
        if i >= b.len() {
            return None;
        }
        if b[i] == b']' {
            return Some(out);
        }
        let end = scan_value(b, i)?;
        out.push(raw.get(i..end)?);
        i = skip_ws(b, end);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b']') => {}
            _ => return None,
        }
    }
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && (b[i] as char).is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Scan a `"…"` string starting at `i`; return (decoded, index past the
/// closing quote). Decodes the escapes [`crate::chrome::escape`] emits.
fn scan_string(b: &[u8], i: usize) -> Option<(String, usize)> {
    if b.get(i) != Some(&b'"') {
        return None;
    }
    let mut out = String::new();
    let mut i = i + 1;
    loop {
        match *b.get(i)? {
            b'"' => return Some((out, i + 1)),
            b'\\' => {
                match *b.get(i + 1)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = std::str::from_utf8(b.get(i + 2..i + 6)?).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        i += 6;
                        continue;
                    }
                    _ => return None,
                }
                i += 2;
            }
            c => {
                // Copy the full UTF-8 sequence starting here.
                let len = utf8_len(c);
                out.push_str(std::str::from_utf8(b.get(i..i + len)?).ok()?);
                i += len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Index one past the raw JSON value starting at `i` (string, number,
/// bool, or bracketed aggregate — nesting and strings respected).
fn scan_value(b: &[u8], i: usize) -> Option<usize> {
    match *b.get(i)? {
        b'"' => scan_string(b, i).map(|(_, end)| end),
        b'[' | b'{' => {
            let mut depth = 0usize;
            let mut j = i;
            while j < b.len() {
                match b[j] {
                    b'"' => j = scan_string(b, j)?.1,
                    b'[' | b'{' => {
                        depth += 1;
                        j += 1;
                    }
                    b']' | b'}' => {
                        depth -= 1;
                        j += 1;
                        if depth == 0 {
                            return Some(j);
                        }
                    }
                    _ => j += 1,
                }
            }
            None
        }
        _ => {
            let mut j = i;
            while j < b.len() && !matches!(b[j], b',' | b']' | b'}') {
                j += 1;
            }
            (j > i).then_some(j)
        }
    }
}

pub(crate) fn parse_string(raw: &str) -> Option<String> {
    scan_string(raw.trim().as_bytes(), 0).map(|(s, _)| s)
}

pub(crate) fn parse_u64(raw: &str) -> Option<u64> {
    raw.trim().parse().ok()
}

fn parse_bool(raw: &str) -> Option<bool> {
    match raw.trim() {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Query log.

/// What [`QueryLog::push`] decided about a profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushOutcome {
    /// The profile was flagged slow (wall > p99 × k with enough history).
    pub slow: bool,
    /// The p99 wall estimate (ns) the decision was made against, when
    /// enough history existed.
    pub p99_ns: Option<u64>,
}

/// One retained query: its profile and, when it was traced in this
/// process, the trace the profile was distilled from.
struct Entry {
    profile: QueryProfile,
    trace: Option<Trace>,
}

struct LogInner {
    entries: VecDeque<Entry>,
    /// Wall-time history backing the slow-query p99 estimate (bounded
    /// buckets, so unbounded history costs nothing).
    walls: Histogram,
    /// JSONL file appended on every push, once persistence is enabled.
    persist: Option<PathBuf>,
}

/// A bounded ring of recent query profiles (each with its trace, when
/// one was recorded) with optional JSONL persistence and p99-based
/// slow-query flagging. The ring keeps the newest `capacity` entries
/// plus the newest [`SLOW_KEPT`] slow ones, however old.
pub struct QueryLog {
    inner: Mutex<LogInner>,
    capacity: usize,
}

impl QueryLog {
    /// An in-memory log holding [`DEFAULT_QUERIES_KEPT`] profiles.
    pub fn new() -> QueryLog {
        QueryLog::with_capacity(DEFAULT_QUERIES_KEPT)
    }

    /// An in-memory log holding up to `capacity` profiles.
    pub fn with_capacity(capacity: usize) -> QueryLog {
        QueryLog {
            inner: Mutex::new(LogInner {
                entries: VecDeque::new(),
                walls: Histogram::new(),
                persist: None,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Enable JSONL persistence under `dir`: load whatever
    /// `profiles.jsonl` already holds (lenient — bad lines skipped)
    /// into the ring and wall history, then append every future push.
    /// Returns how many profiles were recovered.
    pub fn init_persistence(&self, dir: &Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(PROFILE_FILE);
        let mut recovered = 0usize;
        let mut inner = self.inner.lock().expect("query log lock poisoned");
        if let Ok(existing) = std::fs::read_to_string(&path) {
            for line in existing.lines() {
                if let Some(profile) = QueryProfile::parse_json(line) {
                    inner.walls.observe_ns(profile.wall_ns);
                    inner.entries.push_back(Entry {
                        profile,
                        trace: None,
                    });
                    evict(&mut inner.entries, self.capacity);
                    recovered += 1;
                }
            }
        }
        inner.persist = Some(path);
        Ok(recovered)
    }

    /// Record a profile and the trace it came from: decide slowness
    /// against the current p99, fold its wall into the history, append
    /// the profile to the JSONL log (best effort), and retain both in
    /// the ring. Returns the decision.
    pub fn push(&self, mut profile: QueryProfile, trace: Option<Trace>) -> PushOutcome {
        let mut inner = self.inner.lock().expect("query log lock poisoned");
        let p99 = if inner.walls.count() >= SLOW_MIN_SAMPLES {
            inner.walls.p99()
        } else {
            None
        };
        let slow = p99.is_some_and(|p| profile.wall_ns as f64 / 1e9 > p * SLOW_FACTOR);
        profile.slow = slow;
        inner.walls.observe_ns(profile.wall_ns);
        if let Some(path) = inner.persist.clone() {
            let _ = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{}", profile.render_json()));
        }
        inner.entries.push_back(Entry { profile, trace });
        evict(&mut inner.entries, self.capacity);
        PushOutcome {
            slow,
            p99_ns: p99.map(|s| (s * 1e9) as u64),
        }
    }

    /// Profiles currently retained, oldest first.
    pub fn snapshot(&self) -> Vec<QueryProfile> {
        let inner = self.inner.lock().expect("query log lock poisoned");
        inner.entries.iter().map(|e| e.profile.clone()).collect()
    }

    /// Chrome-trace JSON (`GET /traces/<id>`) of the newest retained
    /// entry with this trace id that holds a trace.
    pub fn chrome_json(&self, trace_id: u64) -> Option<String> {
        let inner = self.inner.lock().expect("query log lock poisoned");
        inner
            .entries
            .iter()
            .rev()
            .filter(|e| e.profile.trace_id == trace_id)
            .find_map(|e| e.trace.as_ref())
            .map(Trace::to_chrome_json)
    }

    /// Retained profiles flagged slow, oldest first.
    pub fn slow_snapshot(&self) -> Vec<QueryProfile> {
        self.snapshot().into_iter().filter(|p| p.slow).collect()
    }

    /// Number of retained profiles.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("query log lock poisoned")
            .entries
            .len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current p99 wall estimate in nanoseconds, once enough history.
    pub fn p99_ns(&self) -> Option<u64> {
        let inner = self.inner.lock().expect("query log lock poisoned");
        if inner.walls.count() >= SLOW_MIN_SAMPLES {
            inner.walls.p99().map(|s| (s * 1e9) as u64)
        } else {
            None
        }
    }

    /// The retained log as a JSON document (`GET /queries`).
    pub fn render_json(&self) -> String {
        render_queries(&self.snapshot())
    }

    /// The retained slow queries as a JSON document (`GET /queries/slow`).
    pub fn render_slow_json(&self) -> String {
        render_queries(&self.slow_snapshot())
    }
}

impl Default for QueryLog {
    fn default() -> Self {
        QueryLog::new()
    }
}

/// Drop what the ring no longer keeps: every entry older than the
/// newest `capacity`, unless it is one of the newest [`SLOW_KEPT`] slow
/// entries.
fn evict(entries: &mut VecDeque<Entry>, capacity: usize) {
    // Slow entries from the current one (inclusive) to the newest: a
    // slow entry is protected while it ranks within SLOW_KEPT.
    let mut slow_from_here = entries.iter().filter(|e| e.profile.slow).count();
    let mut age = entries.len();
    entries.retain(|e| {
        let recent = age <= capacity;
        let protected = e.profile.slow && slow_from_here <= SLOW_KEPT;
        age -= 1;
        slow_from_here -= usize::from(e.profile.slow);
        recent || protected
    });
}

fn render_queries(profiles: &[QueryProfile]) -> String {
    let body: Vec<String> = profiles.iter().map(|p| p.render_json()).collect();
    format!("{{\"queries\":[{}]}}\n", body.join(","))
}

/// The process-global query log. On first touch, honours
/// [`PROFILE_DIR_ENV`] by loading and enabling JSONL persistence.
pub fn global_log() -> &'static QueryLog {
    static LOG: OnceLock<QueryLog> = OnceLock::new();
    LOG.get_or_init(|| {
        let log = QueryLog::new();
        if let Ok(dir) = std::env::var(PROFILE_DIR_ENV) {
            if !dir.trim().is_empty() {
                let _ = log.init_persistence(Path::new(&dir));
            }
        }
        log
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Span, SpanEvent};

    fn span(id: u64, parent: Option<u64>, name: &str, site: &str, dur: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            site: site.to_string(),
            start_ns: 0,
            end_ns: dur,
            rows: None,
            bytes: None,
            events: Vec::new(),
        }
    }

    fn sample_trace() -> Trace {
        let mut root = span(1, None, "query", "app", 10_000);
        root.events.clear();
        let mut frag = span(2, Some(1), "fragment:0", "rel", 6_000);
        frag.events.push(SpanEvent {
            at_ns: 100,
            label: "retry:execute@rel attempt 2".into(),
        });
        frag.events.push(SpanEvent {
            at_ns: 200,
            label: "failover:rel2".into(),
        });
        let mut join = span(3, Some(2), "op:join", "rel", 4_000);
        join.rows = Some(100);
        let mut xfer = span(4, Some(1), "transfer:result", "rel", 2_000);
        xfer.bytes = Some(1_000);
        Trace {
            trace_id: 0xBDA,
            spans: vec![root, frag, join, xfer],
            dropped: 0,
        }
    }

    #[test]
    fn from_trace_distills_ops_sites_retries_and_wall() {
        let p = QueryProfile::from_trace(&sample_trace()).unwrap();
        assert_eq!(p.trace_id, 0xBDA);
        assert_eq!(p.wall_ns, 10_000, "wall from the root query span");
        assert_eq!(p.ops.len(), 1);
        let op = &p.ops[0];
        assert_eq!(
            (op.class.as_str(), op.count, op.rows, op.wall_ns),
            ("join", 1, 100, 4_000)
        );
        assert_eq!(p.sites.len(), 1, "app tier with no fragments is dropped");
        let s = &p.sites[0];
        assert_eq!(s.site, "rel");
        assert_eq!(s.fragments, 1);
        assert_eq!(s.fragment_wall_ns, 6_000);
        assert_eq!(s.transfer_bytes, 1_000);
        assert_eq!(s.transfer_wall_ns, 2_000);
        assert_eq!(s.retries, 1);
        assert_eq!(s.failovers, 1);
        assert!(QueryProfile::from_trace(&Trace::default()).is_none());
    }

    #[test]
    fn profile_json_round_trips() {
        let mut p = QueryProfile::from_trace(&sample_trace()).unwrap();
        p.slow = true;
        p.ops[0].class = "join \"odd\"\nname".into();
        let line = p.render_json();
        assert!(!line.contains('\n'), "one profile per line");
        let back = QueryProfile::parse_json(&line).unwrap();
        assert_eq!(back, p);
        assert_eq!(QueryProfile::parse_json("not json"), None);
        assert_eq!(QueryProfile::parse_json("{\"wall_ns\":1}"), None);
    }

    #[test]
    fn lines_persisted_with_a_tenant_still_load() {
        // Profiles once carried a `tenant` key; JSONL written then must
        // still load, the key ignored.
        let old = "{\"trace_id\":\"0x00000000000000ab\",\"tenant\":\"acme\",\"wall_ns\":5000,\
                   \"slow\":true,\"ops\":[{\"class\":\"scan\",\"count\":1,\"rows\":3,\"bytes\":24,\
                   \"wall_ns\":900}],\"sites\":[]}";
        let p = QueryProfile::parse_json(old).unwrap();
        assert_eq!((p.trace_id, p.wall_ns, p.slow), (0xab, 5000, true));
        assert_eq!(p.ops[0].class, "scan");
        assert_eq!(p.ops[0].rows, 3);
        let line = p.render_json();
        assert!(!line.contains("tenant"), "{line}");
        assert_eq!(QueryProfile::parse_json(&line).unwrap(), p);
    }

    #[test]
    fn query_log_flags_slow_against_p99_and_bounds_the_ring() {
        let log = QueryLog::with_capacity(4);
        let profile = |wall: u64| QueryProfile {
            trace_id: wall,
            wall_ns: wall,
            slow: false,
            ops: vec![],
            sites: vec![],
        };
        // Not enough history yet: a huge wall is not flagged.
        for _ in 0..7 {
            assert!(!log.push(profile(50_000), None).slow);
        }
        assert!(
            !log.push(profile(60_000_000_000), None).slow,
            "eighth push still lacks 8 prior samples"
        );
        // Now p99 exists (dominated by the 50µs cluster... and one 60s
        // outlier that clamps to 10s). Push walls against it.
        let out = log.push(profile(50_000), None);
        assert!(!out.slow);
        assert!(out.p99_ns.is_some());
        // Far beyond p99 × 4 (p99 ≤ 10s clamped): 60s is flagged.
        let out = log.push(profile(60_000_000_000), None);
        assert!(out.slow, "p99={:?}", out.p99_ns);
        assert_eq!(log.len(), 4, "ring stays bounded");
        assert_eq!(log.slow_snapshot().len(), 1);
        assert!(log.render_slow_json().contains("\"slow\":true"));
    }

    /// A profile distilled from a one-span trace named `name`.
    fn traced(id: u64, name: &'static str) -> (QueryProfile, Option<Trace>) {
        let t = crate::Tracer::with_trace_id(id);
        t.start(None, || name.into(), "app").finish();
        let trace = t.finish();
        (QueryProfile::from_trace(&trace).unwrap(), Some(trace))
    }

    fn push_traced(log: &QueryLog, id: u64, name: &'static str) {
        let (profile, trace) = traced(id, name);
        log.push(profile, trace);
    }

    #[test]
    fn traces_render_as_chrome_json_and_a_repeated_id_serves_the_newer() {
        let log = QueryLog::with_capacity(4);
        push_traced(&log, 7, "query");
        let json = log.chrome_json(7).expect("retained");
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"query\""), "{json}");
        assert_eq!(log.chrome_json(8), None);
        push_traced(&log, 7, "rerun");
        assert!(log.chrome_json(7).unwrap().contains("rerun"));
        // An untraced entry with the same id does not hide the trace.
        let (profile, _) = traced(7, "query");
        log.push(profile, None);
        assert!(log.chrome_json(7).unwrap().contains("rerun"));
    }

    #[test]
    fn eviction_honours_the_capacity_bound() {
        let log = QueryLog::with_capacity(2);
        for id in 1..=3 {
            push_traced(&log, id, "query");
        }
        let ids: Vec<u64> = log.snapshot().iter().map(|p| p.trace_id).collect();
        assert_eq!(ids, vec![2, 3], "oldest evicted");
        assert_eq!(log.chrome_json(1), None, "its trace went with it");
        assert!(log.chrome_json(2).is_some());
    }

    #[test]
    fn slow_entries_and_their_traces_outlive_churn_up_to_slow_kept() {
        let log = QueryLog::new();
        // Fast history first, so the p99 estimate exists.
        for id in 0..SLOW_MIN_SAMPLES {
            push_traced(&log, 0x100 + id, "query");
        }
        let slow = |id: u64| {
            let (mut profile, trace) = traced(id, "slow");
            profile.wall_ns = 60_000_000_000;
            assert!(log.push(profile, trace).slow);
        };
        for id in 1..=SLOW_KEPT as u64 + 1 {
            slow(id);
        }
        for id in 0..DEFAULT_QUERIES_KEPT as u64 + 1 {
            push_traced(&log, 0x1000 + id, "query");
        }
        // The oldest slow entry fell out; the newest SLOW_KEPT survive
        // more than a ring's worth of later pushes, trace included.
        let slow_ids: Vec<u64> = log.slow_snapshot().iter().map(|p| p.trace_id).collect();
        assert_eq!(slow_ids, (2..=SLOW_KEPT as u64 + 1).collect::<Vec<_>>());
        assert_eq!(log.chrome_json(1), None);
        assert!(log.chrome_json(2).unwrap().contains("slow"));
        assert_eq!(log.len(), DEFAULT_QUERIES_KEPT + SLOW_KEPT);
    }

    #[test]
    fn persistence_round_trips_across_logs() {
        let dir = std::env::temp_dir().join(format!("bda-profile-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log = QueryLog::new();
        assert_eq!(log.init_persistence(&dir).unwrap(), 0);
        let mut p = QueryProfile::from_trace(&sample_trace()).unwrap();
        log.push(p.clone(), Some(sample_trace()));
        assert!(log.chrome_json(0xBDA).is_some());
        p.trace_id = 0xFEED;
        log.push(p, None);
        // A reloaded log sees both profiles and keeps appending; traces
        // are not persisted, so a recovered entry has none.
        let reloaded = QueryLog::new();
        assert_eq!(reloaded.init_persistence(&dir).unwrap(), 2);
        let snap = reloaded.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].trace_id, 0xBDA);
        assert_eq!(snap[1].trace_id, 0xFEED);
        assert!(reloaded.render_json().contains("0x000000000000feed"));
        assert_eq!(reloaded.chrome_json(0xBDA), None);
        // Corrupt trailing line (a torn write) is skipped, not fatal.
        let path = dir.join(PROFILE_FILE);
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("{\"trace_id\":\"0x12\",\"wall_");
        std::fs::write(&path, content).unwrap();
        let torn = QueryLog::new();
        assert_eq!(torn.init_persistence(&dir).unwrap(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
