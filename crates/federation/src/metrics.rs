//! The execution metrics of one federated run: exact counts of
//! fragments, messages, plan and data bytes, and recovery events.
//!
//! All transfers serialize through the real wire codec, so `bytes` fields
//! are actual message sizes, not estimates. Time is not modelled here:
//! wall time is measured by the tracer's spans and by `bda-bench`.

use std::fmt;

/// One recorded transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRecord {
    /// Sending site ("app" for the application tier).
    pub from: String,
    /// Receiving site.
    pub to: String,
    /// Payload size in (wire-encoded) bytes.
    pub bytes: usize,
    /// True when this hop passed through the application tier.
    pub via_app: bool,
}

/// Aggregated metrics for one federated execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Every transfer, in order.
    pub transfers: Vec<TransferRecord>,
    /// Total messages exchanged (transfers + plan shipments).
    pub messages: usize,
    /// Bytes of plan trees shipped to providers.
    pub plan_bytes: usize,
    /// Number of plan fragments executed.
    pub fragments: usize,
    /// Number of iterations driven by the client/app tier (0 when
    /// iteration ran server-side).
    pub client_driven_iterations: usize,
    /// Actual bytes observed on real transport connections (framed TCP
    /// traffic of remote providers, including direct server-to-server
    /// pushes). Zero when every provider is in-process; the counts above
    /// are charged either way.
    ///
    /// **Invariant: each wire byte is counted exactly once.** The
    /// executor charges this field from *deltas* of each provider's
    /// cumulative `Provider::wire_bytes()` counter taken around the
    /// specific call it issued — never from the absolute counter — so a
    /// byte can only ever land in the one [`Metrics`] that triggered it.
    /// [`Metrics::absorb`] sums child executions (nested app-driven
    /// iterations) into the parent; because the children charged deltas
    /// disjoint from the parent's, the sum stays double-count-free.
    pub real_wire_bytes: u64,
    /// Fragment execution attempts repeated after a transient failure.
    pub retries: usize,
    /// Fragments re-placed on a different provider after their assigned
    /// provider failed permanently.
    pub failovers: usize,
    /// Transfers that fell down the degradation ladder (a direct
    /// server-to-server push degraded to a store-based transfer, or a
    /// direct transfer degraded to an app-routed one).
    pub degraded_transfers: usize,
    /// Circuit breakers that tripped open during this execution.
    pub breaker_trips: usize,
}

impl Metrics {
    /// Total data bytes moved between sites (all hops).
    pub fn data_bytes(&self) -> usize {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// Data bytes that traversed the application tier.
    pub fn app_tier_bytes(&self) -> usize {
        self.transfers
            .iter()
            .filter(|t| t.via_app)
            .map(|t| t.bytes)
            .sum()
    }

    /// Record a transfer.
    pub fn record_transfer(&mut self, from: &str, to: &str, bytes: usize, via_app: bool) {
        // A hop through the app tier is two messages (server→app, app→server).
        self.messages += if via_app { 2 } else { 1 };
        self.transfers.push(TransferRecord {
            from: from.to_string(),
            to: to.to_string(),
            bytes,
            via_app,
        });
    }

    /// Record shipping a plan tree to a provider.
    pub fn record_plan_shipment(&mut self, bytes: usize) {
        self.messages += 1;
        self.plan_bytes += bytes;
    }

    /// Merge another metrics record into this one.
    pub fn absorb(&mut self, other: Metrics) {
        self.transfers.extend(other.transfers);
        self.messages += other.messages;
        self.plan_bytes += other.plan_bytes;
        self.fragments += other.fragments;
        self.client_driven_iterations += other.client_driven_iterations;
        self.real_wire_bytes += other.real_wire_bytes;
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.degraded_transfers += other.degraded_transfers;
        self.breaker_trips += other.breaker_trips;
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fragments: {}, messages: {}, plan bytes: {}",
            self.fragments, self.messages, self.plan_bytes
        )?;
        writeln!(
            f,
            "data bytes: {} (through app tier: {})",
            self.data_bytes(),
            self.app_tier_bytes()
        )?;
        writeln!(f, "real wire bytes: {}", self.real_wire_bytes)?;
        write!(
            f,
            "recovery: {} retries, {} failovers, {} degraded transfers, {} breaker trips",
            self.retries, self.failovers, self.degraded_transfers, self.breaker_trips
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_routed_costs_double() {
        let mut direct = Metrics::default();
        direct.record_transfer("a", "b", 1000, false);
        let mut routed = Metrics::default();
        routed.record_transfer("a", "b", 1000, true);
        assert_eq!(direct.messages, 1);
        assert_eq!(routed.messages, 2);
        assert_eq!(direct.app_tier_bytes(), 0);
        assert_eq!(routed.app_tier_bytes(), 1000);
        assert_eq!(direct.data_bytes(), routed.data_bytes());
    }

    #[test]
    fn absorb_sums_wire_bytes_from_disjoint_deltas() {
        // The executor charges `real_wire_bytes` from per-call counter
        // deltas, so nested executions hold disjoint byte ranges and
        // absorb() is a plain sum — never a re-count of the same bytes.
        let mut parent = Metrics {
            real_wire_bytes: 100,
            ..Metrics::default()
        };
        let child_a = Metrics {
            real_wire_bytes: 40,
            ..Metrics::default()
        };
        let child_b = Metrics {
            real_wire_bytes: 0, // fully in-process child
            ..Metrics::default()
        };
        parent.absorb(child_a);
        parent.absorb(child_b);
        assert_eq!(parent.real_wire_bytes, 140);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = Metrics::default();
        a.record_plan_shipment(100);
        let mut b = Metrics::default();
        b.record_transfer("x", "y", 50, false);
        b.fragments = 2;
        a.absorb(b);
        assert_eq!(a.messages, 2);
        assert_eq!(a.plan_bytes, 100);
        assert_eq!(a.data_bytes(), 50);
        assert_eq!(a.fragments, 2);
    }
}
