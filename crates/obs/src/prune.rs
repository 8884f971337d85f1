//! Process-wide pruning counters.
//!
//! The statistics layer (zone maps, secondary indexes, fragment
//! elimination) reports its skipping decisions here so operators can
//! see them without a trace: the counters surface in Prometheus
//! expositions and the `== pruning ==` EXPLAIN ANALYZE section sums a
//! query's per-span pruning events. Counters are relaxed atomics —
//! pruning sits on the scan hot path and must cost one `fetch_add`
//! per decision, nothing more.

use std::sync::atomic::{AtomicU64, Ordering};

static CHUNKS_CONSIDERED: AtomicU64 = AtomicU64::new(0);
static CHUNKS_PRUNED: AtomicU64 = AtomicU64::new(0);
static FRAGMENTS_PRUNED: AtomicU64 = AtomicU64::new(0);
static INDEX_HITS: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of the pruning counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneCounters {
    /// Chunks a zone-mapped scan inspected.
    pub chunks_considered: u64,
    /// Chunks skipped because a zone map disproved the predicate.
    pub chunks_pruned: u64,
    /// Whole plan fragments replaced by empty values at optimize time.
    pub fragments_pruned: u64,
    /// Selections answered from a secondary index.
    pub index_hits: u64,
}

/// Count chunks inspected (`considered`) and skipped (`pruned`) by one
/// zone-mapped scan.
pub fn record_chunks(considered: u64, pruned: u64) {
    CHUNKS_CONSIDERED.fetch_add(considered, Ordering::Relaxed);
    CHUNKS_PRUNED.fetch_add(pruned, Ordering::Relaxed);
}

/// Count a fragment eliminated wholesale by table-level statistics.
pub fn record_fragment_pruned() {
    FRAGMENTS_PRUNED.fetch_add(1, Ordering::Relaxed);
}

/// Count a selection served from a secondary index.
pub fn record_index_hit() {
    INDEX_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Read the current counter values.
pub fn snapshot() -> PruneCounters {
    PruneCounters {
        chunks_considered: CHUNKS_CONSIDERED.load(Ordering::Relaxed),
        chunks_pruned: CHUNKS_PRUNED.load(Ordering::Relaxed),
        fragments_pruned: FRAGMENTS_PRUNED.load(Ordering::Relaxed),
        index_hits: INDEX_HITS.load(Ordering::Relaxed),
    }
}

/// Reset every counter to zero (tests and benchmarks only; production
/// counters are cumulative like any Prometheus counter).
pub fn reset() {
    CHUNKS_CONSIDERED.store(0, Ordering::Relaxed);
    CHUNKS_PRUNED.store(0, Ordering::Relaxed);
    FRAGMENTS_PRUNED.store(0, Ordering::Relaxed);
    INDEX_HITS.store(0, Ordering::Relaxed);
}

/// Render the counters in Prometheus exposition format.
pub fn render_prometheus() -> String {
    let c = snapshot();
    let mut out = String::new();
    out.push_str("# TYPE bda_prune_chunks_considered_total counter\n");
    out.push_str(&format!(
        "bda_prune_chunks_considered_total {}\n",
        c.chunks_considered
    ));
    out.push_str("# TYPE bda_prune_chunks_pruned_total counter\n");
    out.push_str(&format!(
        "bda_prune_chunks_pruned_total {}\n",
        c.chunks_pruned
    ));
    out.push_str("# TYPE bda_prune_fragments_pruned_total counter\n");
    out.push_str(&format!(
        "bda_prune_fragments_pruned_total {}\n",
        c.fragments_pruned
    ));
    out.push_str("# TYPE bda_prune_index_hits_total counter\n");
    out.push_str(&format!("bda_prune_index_hits_total {}\n", c.index_hits));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        record_chunks(10, 7);
        record_chunks(5, 0);
        record_fragment_pruned();
        record_index_hit();
        record_index_hit();
        let c = snapshot();
        assert_eq!(c.chunks_considered, 15);
        assert_eq!(c.chunks_pruned, 7);
        assert_eq!(c.fragments_pruned, 1);
        assert_eq!(c.index_hits, 2);
        let text = render_prometheus();
        assert!(text.contains("bda_prune_chunks_pruned_total 7"));
        assert!(text.contains("bda_prune_index_hits_total 2"));
        reset();
        assert_eq!(snapshot(), PruneCounters::default());
    }
}
