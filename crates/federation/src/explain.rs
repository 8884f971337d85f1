//! `EXPLAIN ANALYZE`: render a recorded trace as an annotated execution
//! tree — per-node wall time, row counts, payload bytes, and the
//! provider that did the work — plus the run's [`Metrics`] summary.
//!
//! The tree is the span tree the executor and the providers recorded
//! ([`crate::executor::execute_placement_traced`]): `query` at the app
//! tier, one `fragment:{id}` per placed fragment at its site,
//! `transfer:{id}` spans for inter-site movement (with the degradation
//! ladder's attempt events inline), and the providers' `op:{kind}` spans
//! — local or absorbed from the far side of a TCP connection — so every
//! operator line names the engine that executed it.

use crate::metrics::Metrics;
use bda_obs::{Span, Trace};

/// Render a finished trace and its metrics as an `EXPLAIN ANALYZE`
/// report. Deterministic given a deterministic trace shape (children
/// sort by start time, then span id).
pub fn render_analyze(trace: &Trace, metrics: &Metrics) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== EXPLAIN ANALYZE (trace {:#018x}) ==\n",
        trace.trace_id
    ));
    let mut roots: Vec<&Span> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
    roots.sort_by_key(|s| (s.start_ns, s.id));
    for root in roots {
        render_span(trace, root, 0, &mut out);
    }
    if trace.dropped > 0 {
        out.push_str(&format!(
            "({} spans dropped at the buffer bound)\n",
            trace.dropped
        ));
    }
    render_convergence(trace, &mut out);
    render_parallelism(trace, &mut out);
    render_pruning(trace, &mut out);
    out.push_str("== metrics ==\n");
    out.push_str(&metrics.to_string());
    out.push('\n');
    out
}

/// The per-iteration convergence table: one row per `iteration:{n}` span
/// (app-driven control iteration), with the wall time, convergence delta
/// and rows-changed the executor stamped on it. Omitted entirely for
/// non-iterative queries.
fn render_convergence(trace: &Trace, out: &mut String) {
    let mut iterations: Vec<(u64, &Span)> = trace
        .spans
        .iter()
        .filter_map(|s| {
            s.name
                .strip_prefix("iteration:")
                .and_then(|n| n.parse().ok())
                .map(|n: u64| (n, s))
        })
        .collect();
    if iterations.is_empty() {
        return;
    }
    iterations.sort_by_key(|(n, s)| (*n, s.id));
    out.push_str("== convergence ==\n");
    out.push_str("iter     wall_ms      delta                rows_changed\n");
    for (n, s) in iterations {
        let field = |prefix: &str| {
            s.events
                .iter()
                .find_map(|e| e.label.strip_prefix(prefix))
                .unwrap_or("-")
                .to_string()
        };
        out.push_str(&format!(
            "{n:<8} {:<12.3} {:<20} {}\n",
            s.duration_ns() as f64 / 1e6,
            field("delta:"),
            field("rows_changed:"),
        ));
    }
}

/// The partition-parallelism table: one row per operator that ran
/// partitioned kernels (its `partition:{i}` children), with the partition
/// count, the summed per-partition work, the operator's wall time, and
/// the resulting overlap factor (`sum / wall` — 1.0× means the partitions
/// ran back-to-back, higher means they overlapped). Omitted entirely when
/// nothing ran partitioned.
fn render_parallelism(trace: &Trace, out: &mut String) {
    let mut groups: Vec<(&Span, usize, u64)> = Vec::new();
    for s in &trace.spans {
        if !s.name.starts_with("partition:") {
            continue;
        }
        let Some(parent) = s.parent.and_then(|id| trace.span(id)) else {
            continue;
        };
        match groups.iter_mut().find(|(p, _, _)| p.id == parent.id) {
            Some((_, count, sum)) => {
                *count += 1;
                *sum += s.duration_ns();
            }
            None => groups.push((parent, 1, s.duration_ns())),
        }
    }
    if groups.is_empty() {
        return;
    }
    groups.sort_by_key(|(p, _, _)| (p.start_ns, p.id));
    out.push_str("== parallelism ==\n");
    out.push_str(
        "operator                  site        parts  sum_ms       wall_ms      overlap\n",
    );
    for (parent, count, sum_ns) in groups {
        let wall_ns = parent.duration_ns().max(1);
        out.push_str(&format!(
            "{:<25} {:<11} {:<6} {:<12.3} {:<12.3} {:.2}x\n",
            parent.name,
            parent.site,
            count,
            sum_ns as f64 / 1e6,
            parent.duration_ns() as f64 / 1e6,
            sum_ns as f64 / wall_ns as f64,
        ));
    }
}

/// The statistics-pruning section: every `pruning:` event any span
/// recorded — zone-map chunk skips, index lowerings, and whole fragments
/// disproved by table statistics — one line per event, stamped with the
/// site that did the skipping. Omitted entirely when nothing was pruned
/// (statistics off, or no skippable work).
fn render_pruning(trace: &Trace, out: &mut String) {
    let mut lines: Vec<(u64, u64, u64, String)> = Vec::new();
    for s in &trace.spans {
        for e in &s.events {
            if let Some(rest) = e.label.strip_prefix("pruning: ") {
                lines.push((s.start_ns, s.id, e.at_ns, format!("{rest} @ {}", s.site)));
            }
        }
    }
    if lines.is_empty() {
        return;
    }
    lines.sort();
    out.push_str("== pruning ==\n");
    for (_, _, _, line) in lines {
        out.push_str(&line);
        out.push('\n');
    }
}

fn render_span(trace: &Trace, span: &Span, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    out.push_str(&format!(
        "{pad}{} @ {}  [{:.3} ms",
        span.name,
        span.site,
        span.duration_ns() as f64 / 1e6
    ));
    if let Some(rows) = span.rows {
        out.push_str(&format!(", rows={rows}"));
    }
    if let Some(bytes) = span.bytes {
        out.push_str(&format!(", bytes={bytes}"));
    }
    out.push_str("]\n");
    for e in &span.events {
        out.push_str(&format!(
            "{pad}  - {} (+{:.3} ms)\n",
            e.label,
            e.at_ns.saturating_sub(span.start_ns) as f64 / 1e6
        ));
    }
    for child in trace.children_of(span.id) {
        render_span(trace, child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_obs::SpanEvent;

    /// `find` with context: a renderer format change fails with the full
    /// report, not an opaque `unwrap` on `None`.
    fn position_of(report: &str, needle: &str) -> usize {
        match report.find(needle) {
            Some(at) => at,
            None => panic!("rendered report is missing `{needle}`:\n{report}"),
        }
    }

    fn span(id: u64, parent: Option<u64>, name: &str, site: &str, start: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            site: site.into(),
            start_ns: start,
            end_ns: start + 1_500_000,
            rows: Some(4),
            bytes: None,
            events: Vec::new(),
        }
    }

    #[test]
    fn renders_tree_with_sites_and_events() {
        let mut transfer = span(3, Some(2), "transfer:0", "rel", 40);
        transfer.bytes = Some(256);
        transfer.events.push(SpanEvent {
            at_ns: 140,
            label: "attempt:push".into(),
        });
        transfer.events.push(SpanEvent {
            at_ns: 340,
            label: "mode:push".into(),
        });
        let trace = Trace {
            trace_id: 0xBDA,
            spans: vec![
                span(1, None, "query", "app", 0),
                span(2, Some(1), "fragment:0", "rel", 10),
                span(4, Some(2), "op:select", "rel", 20),
                transfer,
            ],
            dropped: 0,
        };
        let s = render_analyze(&trace, &Metrics::default());
        assert!(
            s.contains("EXPLAIN ANALYZE (trace 0x0000000000000bda)"),
            "{s}"
        );
        assert!(s.contains("query @ app"), "{s}");
        assert!(s.contains("  fragment:0 @ rel"), "{s}");
        assert!(s.contains("    op:select @ rel"), "{s}");
        assert!(s.contains("rows=4"), "{s}");
        assert!(s.contains("bytes=256"), "{s}");
        assert!(s.contains("- attempt:push"), "{s}");
        assert!(s.contains("- mode:push"), "{s}");
        // Children indent under parents; op comes before transfer (start order).
        let op_at = position_of(&s, "op:select");
        let tr_at = position_of(&s, "transfer:0");
        assert!(op_at < tr_at, "{s}");
        assert!(s.contains("== metrics =="), "{s}");
        assert!(
            !s.contains("== convergence =="),
            "non-iterative query must not render a convergence table:\n{s}"
        );
    }

    #[test]
    fn iterative_trace_renders_a_convergence_table() {
        let mut it1 = span(2, Some(1), "iteration:1", "app", 10);
        it1.events.push(SpanEvent {
            at_ns: 100,
            label: "delta:0.250000000".into(),
        });
        it1.events.push(SpanEvent {
            at_ns: 110,
            label: "rows_changed:3".into(),
        });
        let mut it2 = span(3, Some(1), "iteration:2", "app", 2_000_000);
        it2.events.push(SpanEvent {
            at_ns: 2_000_100,
            label: "delta:0.001000000".into(),
        });
        it2.events.push(SpanEvent {
            at_ns: 2_000_110,
            label: "rows_changed:1".into(),
        });
        let trace = Trace {
            trace_id: 0xBDA,
            spans: vec![span(1, None, "query", "app", 0), it1, it2],
            dropped: 0,
        };
        let s = render_analyze(&trace, &Metrics::default());
        let table_at = position_of(&s, "== convergence ==");
        let metrics_at = position_of(&s, "== metrics ==");
        assert!(table_at < metrics_at, "table precedes metrics:\n{s}");
        let table = &s[table_at..metrics_at];
        assert!(table.contains("0.250000000"), "{table}");
        assert!(table.contains("0.001000000"), "{table}");
        assert!(table.contains("rows_changed"), "{table}");
        let it1_at = position_of(table, "0.250000000");
        let it2_at = position_of(table, "0.001000000");
        assert!(it1_at < it2_at, "iterations in order:\n{table}");
    }

    #[test]
    fn partitioned_trace_renders_a_parallelism_table() {
        // op:join ran 3 partitions whose summed work exceeds the
        // operator's wall time — that overlap is the speedup story.
        let mut join = span(2, Some(1), "op:join", "rel", 0);
        join.end_ns = 2_000_000; // 2 ms wall
        let mut parts: Vec<Span> = (0..3)
            .map(|i| {
                let mut p = span(10 + i, Some(2), &format!("partition:{i}"), "rel", 0);
                p.end_ns = 1_500_000; // 1.5 ms each, 4.5 ms summed
                p
            })
            .collect();
        let mut spans = vec![span(1, None, "query", "app", 0), join];
        spans.append(&mut parts);
        let trace = Trace {
            trace_id: 0xBDA,
            spans,
            dropped: 0,
        };
        let s = render_analyze(&trace, &Metrics::default());
        let table_at = position_of(&s, "== parallelism ==");
        let metrics_at = position_of(&s, "== metrics ==");
        assert!(table_at < metrics_at, "table precedes metrics:\n{s}");
        let table = &s[table_at..metrics_at];
        assert!(table.contains("op:join"), "{table}");
        assert!(table.contains("rel"), "{table}");
        assert!(table.contains("2.25x"), "4.5ms over 2ms wall:\n{table}");
        // parts column
        assert!(table.contains(" 3 "), "{table}");
    }

    #[test]
    fn unpartitioned_trace_has_no_parallelism_table() {
        let trace = Trace {
            trace_id: 1,
            spans: vec![span(1, None, "query", "app", 0)],
            dropped: 0,
        };
        let s = render_analyze(&trace, &Metrics::default());
        assert!(!s.contains("== parallelism =="), "{s}");
    }

    #[test]
    fn pruning_section_is_pinned() {
        // Golden: the `== pruning ==` section renders one line per
        // `pruning:` event in (span start, span id, event time) order,
        // each stamped with the pruning site.
        let mut opt = span(3, Some(1), "optimize", "app", 5);
        opt.events.push(SpanEvent {
            at_ns: 6,
            label: "pruning: 1 fragment(s) eliminated by table stats".into(),
        });
        let mut op = span(2, Some(1), "op:select", "rel", 10);
        op.events.push(SpanEvent {
            at_ns: 20,
            label: "pruning: zone-map t chunks 3/4".into(),
        });
        op.events.push(SpanEvent {
            at_ns: 30,
            label: "pruning: index t.k (hash) candidates 2/100".into(),
        });
        let trace = Trace {
            trace_id: 0xBDA,
            spans: vec![span(1, None, "query", "app", 0), opt, op],
            dropped: 0,
        };
        let s = render_analyze(&trace, &Metrics::default());
        let section = &s[position_of(&s, "== pruning ==")..position_of(&s, "== metrics ==")];
        assert_eq!(
            section,
            "== pruning ==\n\
             1 fragment(s) eliminated by table stats @ app\n\
             zone-map t chunks 3/4 @ rel\n\
             index t.k (hash) candidates 2/100 @ rel\n"
        );

        // No pruning events: no section.
        let quiet = Trace {
            trace_id: 1,
            spans: vec![span(1, None, "query", "app", 0)],
            dropped: 0,
        };
        let plain = render_analyze(&quiet, &Metrics::default());
        assert!(!plain.contains("== pruning =="), "{plain}");
    }

    #[test]
    fn reports_dropped_spans() {
        let trace = Trace {
            trace_id: 1,
            spans: vec![span(1, None, "query", "app", 0)],
            dropped: 3,
        };
        let s = render_analyze(&trace, &Metrics::default());
        assert!(s.contains("3 spans dropped"), "{s}");
    }
}
