//! # `bda-durability`: crash-safe providers
//!
//! The paper's providers are long-lived servers, but until this crate
//! everything they held lived in memory: a crashed `bda-served` forgot
//! its catalog and rejoined the federation empty. This crate adds the
//! missing robustness layer as a *decorator* — [`DurableProvider`]
//! wraps any [`bda_core::Provider`] and makes every acknowledged
//! mutation survive `kill -9`:
//!
//! * **Write-ahead log** ([`wal`]): every `store`/`remove` appends a
//!   checksummed, length-prefixed record (the dataset bytes reuse the
//!   columnar `BDA1` wire codec) and fsyncs per policy *before* the
//!   call returns. See DESIGN.md § Durability for the format.
//! * **Snapshots** ([`snapshot`]): a background thread compacts the log
//!   into full-catalog snapshot files and truncates covered segments,
//!   bounding replay time.
//! * **Recovery** ([`DurableProvider::open`]): newest snapshot + WAL
//!   tail, tolerating a torn final record, refusing interior corruption
//!   loudly — recovered-or-error, never silently partial.
//! * **Disk-fault injection** ([`faults`]): torn appends, ENOSPC-style
//!   refusals, and truncated snapshots, deterministic under
//!   `BDA_FAULT_SEED`, so the chaos suite can exercise all of the above.
//!
//! Only real catalog entries are durable: names under the federation's
//! staged-fragment prefix are query scratch space, excluded from log
//! and snapshots and TTL-garbage-collected.

pub mod crc;
pub mod faults;
pub mod provider;
pub mod record;
pub mod snapshot;
pub mod wal;

pub use faults::DiskFaults;
pub use provider::{is_durability_error, DurableProvider, RecoveryReport};
pub use record::WalOp;
pub use wal::FsyncPolicy;

use std::path::PathBuf;
use std::time::Duration;

use bda_obs::MetricsHub;

/// Result alias: durability failures are [`bda_core::CoreError::Durability`].
pub type Result<T> = bda_core::provider::Result<T>;

/// The name federation staging uses for shipped fragments — kept in sync
/// with `bda_federation::planner` by a cross-crate test there. Names with
/// this prefix are query scratch: never logged or snapshotted,
/// TTL-collected.
pub const DEFAULT_EPHEMERAL_PREFIX: &str = "__bda_frag_";

/// Configuration for a [`DurableProvider`].
#[derive(Clone)]
pub struct Options {
    /// Data directory; WAL segments live in `wal/`, snapshots in
    /// `snapshots/` beneath it.
    pub dir: PathBuf,
    /// When appends reach the disk ([`FsyncPolicy::Always`] by default).
    pub fsync: FsyncPolicy,
    /// Snapshot once this many WAL bytes accumulate (64 MiB default).
    pub snapshot_every_bytes: u64,
    /// How often the background thread checks the threshold and sweeps
    /// staged datasets.
    pub snapshot_interval: Duration,
    /// How long a staged dataset may live before the GC assumes its
    /// query died and collects it.
    pub staged_ttl: Duration,
    /// Metrics sink (a private hub when `None`).
    pub metrics: Option<MetricsHub>,
    /// Disk-fault injection plan (none by default).
    pub faults: DiskFaults,
}

impl Options {
    /// Defaults for a data directory: always-fsync, 64 MiB snapshot
    /// threshold checked every 2 s, 5-minute staged TTL.
    pub fn new(dir: impl Into<PathBuf>) -> Options {
        Options {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            snapshot_every_bytes: 64 << 20,
            snapshot_interval: Duration::from_secs(2),
            staged_ttl: Duration::from_secs(300),
            metrics: None,
            faults: DiskFaults::default(),
        }
    }

    /// The WAL directory under [`Options::dir`].
    pub fn wal_dir(&self) -> PathBuf {
        self.dir.join("wal")
    }

    /// The snapshot directory under [`Options::dir`].
    pub fn snapshot_dir(&self) -> PathBuf {
        self.dir.join("snapshots")
    }

    /// Builder-style metrics hub.
    pub fn with_metrics(mut self, hub: MetricsHub) -> Options {
        self.metrics = Some(hub);
        self
    }

    /// Builder-style fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Options {
        self.fsync = fsync;
        self
    }

    /// Builder-style fault plan.
    pub fn with_faults(mut self, faults: DiskFaults) -> Options {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_paths_and_builders() {
        let o = Options::new("/tmp/x")
            .with_fsync(FsyncPolicy::Never)
            .with_faults(DiskFaults::enospc_from_seed(1));
        assert_eq!(o.wal_dir(), PathBuf::from("/tmp/x/wal"));
        assert_eq!(o.snapshot_dir(), PathBuf::from("/tmp/x/snapshots"));
        assert_eq!(o.fsync, FsyncPolicy::Never);
        assert!(o.faults.append_fail_after.is_some());
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }
}
