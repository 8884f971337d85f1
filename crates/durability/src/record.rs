//! WAL record payloads: the logical mutations a provider acknowledges.
//!
//! A record is one committed mutation — a full-dataset store or a
//! removal. Dataset bytes reuse the columnar wire codec
//! ([`bda_storage::wire`]), so the on-disk format is the same `BDA1`
//! encoding every inter-server transfer already speaks, and replay is
//! exercised by the same decode paths the network is.
//!
//! Records are *idempotent by construction*: `Store` carries the whole
//! dataset (not a diff) and `Remove` is a plain delete, so replaying a
//! suffix of the log over a snapshot that already contains some of its
//! effects converges to the same catalog.

use bda_storage::wire::{decode_dataset, encode_dataset, Reader, Writer};
use bda_storage::{DataSet, IndexKind, StorageError};

/// Result alias over storage errors (corruption is a [`StorageError`]).
pub type Result<T> = std::result::Result<T, StorageError>;

/// One logical mutation, as logged.
#[derive(Debug, Clone)]
pub enum WalOp {
    /// A full-dataset store under `name` (insert or replace).
    Store {
        /// Catalog name.
        name: String,
        /// The complete dataset.
        data: DataSet,
    },
    /// Removal of `name` from the catalog.
    Remove {
        /// Catalog name.
        name: String,
    },
    /// A secondary-index build on `name.column`. The log carries the
    /// *spec*, not the index bytes — indexes are deterministic functions
    /// of the dataset, so replay rebuilds them from the recovered data
    /// (and the kill-9 fingerprint test holds the rebuild to that).
    BuildIndex {
        /// Catalog name of the indexed dataset.
        name: String,
        /// Indexed column.
        column: String,
        /// Hash or sorted.
        kind: IndexKind,
    },
}

impl WalOp {
    /// The catalog name this mutation touches.
    pub fn name(&self) -> &str {
        match self {
            WalOp::Store { name, .. } | WalOp::Remove { name } | WalOp::BuildIndex { name, .. } => {
                name
            }
        }
    }

    /// Short label for metrics and log lines.
    pub fn kind(&self) -> &'static str {
        match self {
            WalOp::Store { .. } => "store",
            WalOp::Remove { .. } => "remove",
            WalOp::BuildIndex { .. } => "build-index",
        }
    }
}

const TAG_STORE: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_BUILD_INDEX: u8 = 3;

/// Encode one record payload (without the record header — the WAL frame
/// adds length, checksum, and sequence number).
pub fn encode_op(op: &WalOp) -> Vec<u8> {
    let mut w = Writer::new();
    match op {
        WalOp::Store { name, data } => return encode_store(name, data),
        WalOp::Remove { name } => {
            w.u8(TAG_REMOVE);
            w.str(name);
        }
        WalOp::BuildIndex { name, column, kind } => {
            w.u8(TAG_BUILD_INDEX);
            w.str(name);
            w.u8(kind.as_u8());
            w.str(column);
        }
    }
    w.into_vec()
}

/// The payload of `WalOp::Store { name, data }`, encoded from a borrowed
/// dataset: a provider encodes first, then moves the dataset into its
/// engine and appends these bytes.
pub fn encode_store(name: &str, data: &DataSet) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(TAG_STORE);
    w.str(name);
    w.block(&encode_dataset(data));
    w.into_vec()
}

/// Decode one record payload; the entire input must be consumed.
pub fn decode_op(payload: &[u8]) -> Result<WalOp> {
    let mut r = Reader::new(payload);
    let tag = r.u8("wal op tag")?;
    let name = r.string("wal op name")?;
    let op = match tag {
        TAG_STORE => WalOp::Store {
            name,
            data: decode_dataset(r.block("wal dataset")?)?,
        },
        TAG_REMOVE => WalOp::Remove { name },
        TAG_BUILD_INDEX => {
            let kind = r.tag(&IndexKind::ALL, "wal index kind")?;
            let column = r.string("wal index column")?;
            WalOp::BuildIndex { name, column, kind }
        }
        t => return Err(StorageError::Corrupt(format!("bad wal op tag {t}"))),
    };
    r.finish("wal op")?;
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_storage::Column;

    fn sample() -> DataSet {
        DataSet::from_columns(vec![
            ("k", Column::from(vec![1i64, 2, 3])),
            ("v", Column::from(vec![0.5f64, -1.0, f64::NAN])),
        ])
        .unwrap()
    }

    #[test]
    fn store_roundtrip() {
        let op = WalOp::Store {
            name: "metrics.p3".into(),
            data: sample(),
        };
        let bytes = encode_op(&op);
        match decode_op(&bytes).unwrap() {
            WalOp::Store { name, data } => {
                assert_eq!(name, "metrics.p3");
                assert!(data.same_bag(&sample()).unwrap());
            }
            other => panic!("expected store, got {other:?}"),
        }
    }

    #[test]
    fn remove_roundtrip() {
        let bytes = encode_op(&WalOp::Remove { name: "t".into() });
        match decode_op(&bytes).unwrap() {
            WalOp::Remove { name } => assert_eq!(name, "t"),
            other => panic!("expected remove, got {other:?}"),
        }
    }

    #[test]
    fn build_index_roundtrip() {
        let bytes = encode_op(&WalOp::BuildIndex {
            name: "t".into(),
            column: "k".into(),
            kind: IndexKind::Sorted,
        });
        match decode_op(&bytes).unwrap() {
            WalOp::BuildIndex { name, column, kind } => {
                assert_eq!(name, "t");
                assert_eq!(column, "k");
                assert_eq!(kind, IndexKind::Sorted);
            }
            other => panic!("expected build-index, got {other:?}"),
        }
        // A bad kind byte is corruption, not a silent default.
        let mut bad = bytes.clone();
        bad[6] = 0xEE;
        assert!(decode_op(&bad).is_err());
    }

    #[test]
    fn truncation_and_garbage_rejected() {
        let bytes = encode_op(&WalOp::Store {
            name: "t".into(),
            data: sample(),
        });
        for cut in [0, 1, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_op(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
        let mut padded = bytes.clone();
        padded.push(7);
        assert!(decode_op(&padded).is_err(), "trailing bytes must fail");
        assert!(decode_op(&[9]).is_err(), "bad tag must fail");
    }
}
