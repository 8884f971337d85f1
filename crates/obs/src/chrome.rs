//! Chrome-trace-format export: render a [`Trace`] as the
//! JSON array `chrome://tracing` / Perfetto load directly.
//!
//! Each span becomes a complete event (`"ph":"X"`) with microsecond
//! timestamps; span events become instant events (`"ph":"i"`). Sites map
//! to process names via a metadata event per site, so the timeline groups
//! client, app tier, and each provider into separate tracks.

use std::collections::BTreeMap;

use crate::Trace;

/// Minimal JSON string escaping (the only JSON we emit; no serde
/// in-tree). Shared with the `/progress` endpoint's renderer.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Trace {
    /// Render the trace as Chrome trace-event JSON (an array of events).
    /// Write it to a file and open it in `chrome://tracing` or Perfetto.
    pub fn to_chrome_json(&self) -> String {
        // Stable pid per site, in first-seen-then-sorted order.
        let mut pids: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &self.spans {
            let next = pids.len() as u64 + 1;
            pids.entry(s.site.as_str()).or_insert(next);
        }
        let mut events: Vec<String> = Vec::new();
        for (site, pid) in &pids {
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(site)
            ));
        }
        for s in &self.spans {
            let pid = pids[s.site.as_str()];
            let us = s.start_ns / 1_000;
            let dur = s.duration_ns().max(1) / 1_000;
            let mut args = format!("\"span\":{},\"parent\":{}", s.id, opt(s.parent));
            if let Some(rows) = s.rows {
                args.push_str(&format!(",\"rows\":{rows}"));
            }
            if let Some(bytes) = s.bytes {
                args.push_str(&format!(",\"bytes\":{bytes}"));
            }
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\
                 \"ts\":{us},\"dur\":{},\"args\":{{{args}}}}}",
                escape(&s.name),
                dur.max(1)
            ));
            for e in &s.events {
                events.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":0,\
                     \"ts\":{},\"args\":{{\"span\":{}}}}}",
                    escape(&e.label),
                    e.at_ns / 1_000,
                    s.id
                ));
            }
        }
        format!("[{}]", events.join(",\n"))
    }
}

fn opt(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use crate::Tracer;

    #[test]
    fn chrome_export_has_tracks_spans_and_instants() {
        let t = Tracer::new(3);
        let mut q = t.start(None, || "query".into(), "app");
        let mut f = t.start(q.id(), || "fragment:0".into(), "rel");
        f.event(|| "retry:1".into());
        f.set_rows(10);
        f.finish();
        q.set_bytes(128);
        q.finish();
        let json = t.finish().to_chrome_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        // One process-name metadata event per site.
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"app\""));
        assert!(json.contains("\"name\":\"rel\""));
        // Complete events with durations and args.
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"rows\":10"));
        assert!(json.contains("\"bytes\":128"));
        // The span event renders as an instant.
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"retry:1\""));
    }

    #[test]
    fn escaping_keeps_json_well_formed() {
        let t = Tracer::new(3);
        t.start(None, || "op:\"quoted\"\nline".into(), "a\\b")
            .finish();
        let json = t.finish().to_chrome_json();
        assert!(json.contains("op:\\\"quoted\\\"\\nline"));
        assert!(json.contains("a\\\\b"));
    }
}
