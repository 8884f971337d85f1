//! Change streams: committed WAL deltas as an iterator.
//!
//! `subscribe(dataset)` returns a [`ChangeStream`] that yields every
//! mutation committed *after* the subscription, in WAL sequence order.
//! Deltas are published under the provider's commit lock immediately
//! after the WAL append succeeds, so the stream sees exactly the
//! committed history — never a mutation that failed its append, never
//! out of order, never a gap.
//!
//! Streams are pull-based and buffered: a slow consumer queues deltas
//! (unbounded channel) rather than stalling ingest; a dropped consumer
//! is pruned at the next publish. With no subscriber attached a commit
//! builds no delta at all, so a store copies its dataset only when
//! someone will read the copy.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::Duration;

use bda_storage::DataSet;

use crate::record::WalOp;

/// One committed mutation, as seen by subscribers.
#[derive(Debug, Clone)]
pub struct Delta {
    /// The WAL sequence number that committed this change.
    pub seq: u64,
    /// Catalog name the change touches.
    pub name: String,
    /// What happened.
    pub change: Change,
}

/// The mutation payload of a [`Delta`].
#[derive(Debug, Clone)]
pub enum Change {
    /// The dataset was stored (insert or full replace) with this content.
    Stored(DataSet),
    /// The dataset was removed from the catalog.
    Removed,
}

impl Delta {
    /// `None` for ops that do not change dataset contents (index
    /// builds): change streams carry data, not metadata.
    pub(crate) fn from_op(seq: u64, op: WalOp) -> Option<Delta> {
        match op {
            WalOp::Store { name, data } => Some(Delta {
                seq,
                name,
                change: Change::Stored(data),
            }),
            WalOp::Remove { name } => Some(Delta {
                seq,
                name,
                change: Change::Removed,
            }),
            WalOp::BuildIndex { .. } => None,
        }
    }
}

struct Subscriber {
    /// `None`: all datasets; `Some(name)`: that catalog entry only.
    filter: Option<String>,
    tx: Sender<Delta>,
}

/// Fan-out point for committed deltas. One per durable provider.
#[derive(Default)]
pub struct ChangeHub {
    subs: Mutex<Vec<Subscriber>>,
}

impl ChangeHub {
    /// A hub with no subscribers.
    pub fn new() -> ChangeHub {
        ChangeHub::default()
    }

    /// Subscribe to committed changes of one dataset.
    pub fn subscribe(&self, dataset: &str) -> ChangeStream {
        self.attach(Some(dataset.to_string()))
    }

    /// Subscribe to every committed change.
    pub fn subscribe_all(&self) -> ChangeStream {
        self.attach(None)
    }

    fn attach(&self, filter: Option<String>) -> ChangeStream {
        let (tx, rx) = channel();
        self.subs
            .lock()
            .expect("change hub lock poisoned")
            .push(Subscriber { filter, tx });
        ChangeStream { rx }
    }

    /// Deliver the committed delta `make` builds to matching
    /// subscribers, pruning the ones whose streams were dropped. `make`
    /// runs only while some subscriber is attached (`None` publishes
    /// nothing), and the check and the delivery share one hub lock: a
    /// stream attached before the call sees the delta, one attached
    /// after it does not.
    pub(crate) fn publish_with(&self, make: impl FnOnce() -> Option<Delta>) {
        let mut subs = self.subs.lock().expect("change hub lock poisoned");
        if subs.is_empty() {
            return;
        }
        let Some(delta) = make() else { return };
        subs.retain(|s| {
            if s.filter.as_deref().is_some_and(|f| f != delta.name) {
                return true; // not interested, but still alive
            }
            s.tx.send(delta.clone()).is_ok()
        });
    }

    /// Number of live subscribers (observability).
    pub fn subscriber_count(&self) -> usize {
        self.subs.lock().expect("change hub lock poisoned").len()
    }
}

/// A subscription handle: an iterator of committed [`Delta`]s.
pub struct ChangeStream {
    rx: Receiver<Delta>,
}

impl ChangeStream {
    /// The next delta if one is already queued (non-blocking). `None`
    /// means "nothing queued right now" — the stream may still be live.
    pub fn try_next(&self) -> Option<Delta> {
        self.rx.try_recv().ok()
    }

    /// Wait up to `timeout` for the next delta. `None` on timeout or
    /// when the provider (and with it the hub) has shut down.
    pub fn next_timeout(&self, timeout: Duration) -> Option<Delta> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Drain everything currently queued.
    pub fn drain(&self) -> Vec<Delta> {
        let mut out = Vec::new();
        while let Some(d) = self.try_next() {
            out.push(d);
        }
        out
    }
}

impl Iterator for ChangeStream {
    type Item = Delta;

    /// Blocks until the next committed delta, ending when the provider
    /// is dropped.
    fn next(&mut self) -> Option<Delta> {
        self.rx.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_storage::Column;

    fn op(name: &str, k: i64) -> WalOp {
        WalOp::Store {
            name: name.into(),
            data: DataSet::from_columns(vec![("k", Column::from(vec![k]))]).unwrap(),
        }
    }

    #[test]
    fn filtered_subscription_sees_only_its_dataset() {
        let hub = ChangeHub::new();
        let a = hub.subscribe("a");
        let all = hub.subscribe_all();
        hub.publish_with(|| Delta::from_op(1, op("a", 1)));
        hub.publish_with(|| Delta::from_op(2, op("b", 2)));
        hub.publish_with(|| Delta::from_op(3, WalOp::Remove { name: "a".into() }));
        let got: Vec<u64> = a.drain().iter().map(|d| d.seq).collect();
        assert_eq!(got, [1, 3]);
        assert!(a.try_next().is_none());
        let everything: Vec<u64> = all.drain().iter().map(|d| d.seq).collect();
        assert_eq!(everything, [1, 2, 3]);
    }

    #[test]
    fn dropped_streams_are_pruned() {
        let hub = ChangeHub::new();
        let s = hub.subscribe_all();
        assert_eq!(hub.subscriber_count(), 1);
        drop(s);
        hub.publish_with(|| Delta::from_op(1, op("a", 1)));
        assert_eq!(hub.subscriber_count(), 0);
    }

    #[test]
    fn timeout_returns_none_without_a_delta() {
        let hub = ChangeHub::new();
        let s = hub.subscribe_all();
        assert!(s.next_timeout(Duration::from_millis(10)).is_none());
        hub.publish_with(|| Delta::from_op(1, op("a", 1)));
        assert_eq!(s.next_timeout(Duration::from_millis(10)).unwrap().seq, 1);
    }

    #[test]
    fn no_subscriber_builds_no_delta() {
        let hub = ChangeHub::new();
        hub.publish_with(|| panic!("built a delta nobody reads"));
        let s = hub.subscribe_all();
        let mut built = false;
        hub.publish_with(|| {
            built = true;
            Delta::from_op(1, op("a", 1))
        });
        assert!(built);
        assert_eq!(s.try_next().unwrap().seq, 1);
    }

    #[test]
    fn stored_delta_carries_the_dataset() {
        let hub = ChangeHub::new();
        let s = hub.subscribe("t");
        hub.publish_with(|| Delta::from_op(5, op("t", 42)));
        let d = s.try_next().unwrap();
        assert_eq!(d.name, "t");
        match d.change {
            Change::Stored(ds) => assert_eq!(ds.num_rows(), 1),
            Change::Removed => panic!("expected a store"),
        }
    }
}
