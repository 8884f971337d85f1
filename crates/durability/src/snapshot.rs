//! Full-catalog snapshots: the compaction target of the WAL.
//!
//! A snapshot is one file holding every durable dataset a provider
//! serves, together with the WAL sequence number it covers. Once a
//! snapshot is on disk (written to a temp name, fsynced, renamed into
//! place, directory fsynced), every WAL segment at or below its
//! sequence number is garbage and gets deleted; recovery becomes
//! "load newest snapshot, replay the WAL tail over it".
//!
//! ## On-disk format
//!
//! ```text
//! [ 8 bytes magic "BDASNAP1" ][ u64 LE covered_seq ][ u32 LE count ]
//! count × entries:
//!   [ u32 LE name_len ][ name ][ u32 LE data_len ][ BDA1 dataset bytes ]
//!   [ u32 LE crc32(name ‖ dataset bytes) ]
//! ```
//!
//! The file is written and read through `bda_storage::wire`'s
//! `Writer`/`Reader` pair, and dataset bytes reuse its columnar `BDA1`
//! codec. Each entry carries its own checksum; the entry count up front
//! makes any truncation detectable, and a count the file is too short to
//! hold (each entry takes at least 12 bytes) is refused before anything
//! is allocated for it. A snapshot that fails validation is **never**
//! silently skipped: the newest snapshot is the only one recovery will
//! accept, because falling back to an older one would resurrect deleted
//! data and roll back acknowledged writes without telling anyone.
//!
//! After the entries an optional **index trailer** records the secondary
//! index specs in force at snapshot time (`[u32 LE count]` then per spec
//! `[u32 LE name_len][name][u8 kind][u32 LE column_len][column]`).
//! Recovery rebuilds the indexes from the recovered datasets — the
//! trailer carries specs, not index bytes, because an index is a
//! deterministic function of its dataset. Snapshots written before the
//! trailer existed simply end after the last entry and load with no
//! specs.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use bda_core::CoreError;
use bda_storage::wire::{decode_dataset, encode_dataset, Reader, Writer};
use bda_storage::{DataSet, IndexKind, IndexSpec, StorageError};

use crate::crc::Hasher;
use crate::faults::DiskFaults;
use crate::Result;

const SNAP_MAGIC: &[u8; 8] = b"BDASNAP1";

fn dur_err(what: impl std::fmt::Display, e: std::io::Error) -> CoreError {
    CoreError::Durability(format!("{what}: {e}"))
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:020}.snap"))
}

/// A loaded snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// Highest WAL sequence number whose effects are included.
    pub covered_seq: u64,
    /// The full durable catalog at that point.
    pub datasets: Vec<(String, DataSet)>,
    /// Secondary-index specs in force at snapshot time, `(dataset,
    /// spec)`. Empty for snapshots written before the trailer existed.
    pub indexes: Vec<(String, IndexSpec)>,
}

/// Write the catalog as the snapshot covering `covered_seq`, atomically,
/// with the current secondary-index specs in the trailer. Returns the
/// number of bytes written.
pub fn write_snapshot(
    dir: &Path,
    covered_seq: u64,
    datasets: &[(String, DataSet)],
    indexes: &[(String, IndexSpec)],
    faults: &DiskFaults,
) -> Result<u64> {
    fs::create_dir_all(dir).map_err(|e| dur_err(format!("create {}", dir.display()), e))?;
    let mut w = Writer::new();
    w.bytes(SNAP_MAGIC);
    w.u64(covered_seq);
    w.list(datasets, |w, (name, data)| {
        let bytes = encode_dataset(data);
        w.str(name);
        w.block(&bytes);
        let mut h = Hasher::new();
        h.update(name.as_bytes());
        h.update(&bytes);
        w.u32(h.finish());
    });
    w.list(indexes, |w, (name, spec)| {
        w.str(name);
        w.u8(spec.kind.as_u8());
        w.str(&spec.column);
    });
    let buf = w.into_vec();
    let tmp = dir.join(format!("snap-{covered_seq:020}.tmp"));
    let final_path = snapshot_path(dir, covered_seq);
    let mut file =
        File::create(&tmp).map_err(|e| dur_err(format!("create {}", tmp.display()), e))?;
    file.write_all(&buf)
        .and_then(|_| file.sync_all())
        .map_err(|e| dur_err(format!("write {}", tmp.display()), e))?;
    drop(file);
    fs::rename(&tmp, &final_path).map_err(|e| {
        dur_err(
            format!("rename {} -> {}", tmp.display(), final_path.display()),
            e,
        )
    })?;
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| dur_err(format!("fsync dir {}", dir.display()), e))?;
    if faults.truncate_snapshot {
        // Injected misbehaving disk: the file loses its tail after the
        // rename. Recovery must refuse it loudly.
        let f = OpenOptions::new()
            .write(true)
            .open(&final_path)
            .map_err(|e| dur_err(format!("open {}", final_path.display()), e))?;
        f.set_len(buf.len() as u64 / 2)
            .map_err(|e| dur_err(format!("truncate {}", final_path.display()), e))?;
    }
    Ok(buf.len() as u64)
}

/// List `(covered_seq, path)` of snapshots in `dir`, ascending.
fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    let entries = fs::read_dir(dir).map_err(|e| dur_err(format!("read {}", dir.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| dur_err("read snapshot dir entry", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("snap-")
            .and_then(|s| s.strip_suffix(".snap"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Load the newest snapshot in `dir`, validating every checksum.
/// `Ok(None)` when no snapshot exists; a corrupt newest snapshot is a
/// loud error, never a silent fallback to an older file.
pub fn load_latest(dir: &Path) -> Result<Option<Snapshot>> {
    let Some((seq, path)) = list_snapshots(dir)?.pop() else {
        return Ok(None);
    };
    let mut bytes = Vec::new();
    File::open(&path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| dur_err(format!("read {}", path.display()), e))?;
    parse_snapshot(&bytes, seq).map(Some).map_err(|e| {
        CoreError::Durability(format!(
            "snapshot {} is corrupt ({e}); refusing to start from damaged state — \
             restore the file or move it aside to rebuild from a replica",
            path.display()
        ))
    })
}

fn parse_snapshot(bytes: &[u8], expect_seq: u64) -> bda_storage::Result<Snapshot> {
    let mut r = Reader::new(bytes);
    r.magic(SNAP_MAGIC, "snapshot magic")?;
    let covered_seq = r.u64("snapshot seq")?;
    if covered_seq != expect_seq {
        return Err(StorageError::Corrupt(format!(
            "file named for seq {expect_seq} claims seq {covered_seq}"
        )));
    }
    // An entry is at least its name prefix, length prefix and checksum.
    let datasets = r.list(12, "snapshot entries", |r| {
        let name = r.string("snapshot entry name")?;
        let raw = r.block("snapshot entry bytes")?;
        let stored_crc = r.u32("snapshot entry crc")?;
        let mut h = Hasher::new();
        h.update(name.as_bytes());
        h.update(raw);
        if h.finish() != stored_crc {
            return Err(StorageError::Corrupt(format!(
                "checksum mismatch on dataset {name:?}"
            )));
        }
        Ok((name, decode_dataset(raw)?))
    })?;
    // Optional index trailer; pre-trailer snapshots end right here. A spec
    // is at least its name prefix, kind byte and column prefix.
    let mut indexes = Vec::new();
    if r.remaining() != 0 {
        indexes = r.list(9, "snapshot index specs", |r| {
            let name = r.string("snapshot index dataset")?;
            let kind = r.tag(&IndexKind::ALL, "snapshot index kind")?;
            let column = r.string("snapshot index column")?;
            Ok((name, IndexSpec { column, kind }))
        })?;
    }
    r.finish("last entry")?;
    Ok(Snapshot {
        covered_seq,
        datasets,
        indexes,
    })
}

/// Delete all but the newest `keep` snapshots. Returns how many were
/// removed.
pub fn prune(dir: &Path, keep: usize) -> Result<usize> {
    let snaps = list_snapshots(dir)?;
    let mut removed = 0;
    if snaps.len() > keep {
        for (_, path) in &snaps[..snaps.len() - keep] {
            fs::remove_file(path).map_err(|e| dur_err(format!("remove {}", path.display()), e))?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_storage::Column;

    fn tmp() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bda-snap-test-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ds(k: i64) -> DataSet {
        DataSet::from_columns(vec![("k", Column::from(vec![k, k * 2]))]).unwrap()
    }

    #[test]
    fn write_load_roundtrip_and_prune() {
        let dir = tmp();
        assert!(load_latest(&dir).unwrap().is_none());
        let cat1 = vec![("a".to_string(), ds(1))];
        write_snapshot(&dir, 3, &cat1, &[], &DiskFaults::default()).unwrap();
        let cat2 = vec![("a".to_string(), ds(1)), ("b".to_string(), ds(9))];
        write_snapshot(&dir, 7, &cat2, &[], &DiskFaults::default()).unwrap();
        let snap = load_latest(&dir).unwrap().unwrap();
        assert_eq!(snap.covered_seq, 7);
        assert_eq!(snap.datasets.len(), 2);
        assert!(snap.datasets[1].1.same_bag(&ds(9)).unwrap());
        assert_eq!(prune(&dir, 1).unwrap(), 1);
        assert_eq!(list_snapshots(&dir).unwrap().len(), 1);
        assert_eq!(load_latest(&dir).unwrap().unwrap().covered_seq, 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_catalog_snapshot_roundtrips() {
        let dir = tmp();
        write_snapshot(&dir, 1, &[], &[], &DiskFaults::default()).unwrap();
        let snap = load_latest(&dir).unwrap().unwrap();
        assert_eq!(snap.covered_seq, 1);
        assert!(snap.datasets.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_specs_roundtrip_through_the_trailer() {
        let dir = tmp();
        let specs = vec![
            (
                "a".to_string(),
                IndexSpec {
                    column: "k".into(),
                    kind: IndexKind::Hash,
                },
            ),
            (
                "a".to_string(),
                IndexSpec {
                    column: "v".into(),
                    kind: IndexKind::Sorted,
                },
            ),
        ];
        write_snapshot(
            &dir,
            4,
            &[("a".to_string(), ds(1))],
            &specs,
            &DiskFaults::default(),
        )
        .unwrap();
        let snap = load_latest(&dir).unwrap().unwrap();
        assert_eq!(snap.indexes.len(), 2);
        assert_eq!(snap.indexes[0].1.column, "k");
        assert_eq!(snap.indexes[0].1.kind, IndexKind::Hash);
        assert_eq!(snap.indexes[1].1.kind, IndexKind::Sorted);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_trailer_snapshot_loads_with_no_specs() {
        // A file ending right after the last entry (the format before the
        // index trailer) must still load.
        let dir = tmp();
        write_snapshot(
            &dir,
            9,
            &[("a".to_string(), ds(2))],
            &[],
            &DiskFaults::default(),
        )
        .unwrap();
        let path = snapshot_path(&dir, 9);
        let bytes = fs::read(&path).unwrap();
        // Strip the empty trailer (its u32 count).
        fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        let snap = load_latest(&dir).unwrap().unwrap();
        assert_eq!(snap.datasets.len(), 1);
        assert!(snap.indexes.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_snapshot_is_refused_loudly() {
        let dir = tmp();
        write_snapshot(
            &dir,
            2,
            &[("a".to_string(), ds(4))],
            &[],
            &DiskFaults {
                truncate_snapshot: true,
                ..DiskFaults::default()
            },
        )
        .unwrap();
        let err = load_latest(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("refusing to start"), "{msg}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_entry_is_refused() {
        let dir = tmp();
        write_snapshot(
            &dir,
            5,
            &[("a".to_string(), ds(4))],
            &[],
            &DiskFaults::default(),
        )
        .unwrap();
        let path = snapshot_path(&dir, 5);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = load_latest(&dir).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newer_corrupt_snapshot_shadows_older_good_one() {
        // Policy: never silently fall back to an older snapshot.
        let dir = tmp();
        write_snapshot(
            &dir,
            2,
            &[("a".to_string(), ds(1))],
            &[],
            &DiskFaults::default(),
        )
        .unwrap();
        write_snapshot(
            &dir,
            6,
            &[("a".to_string(), ds(2))],
            &[],
            &DiskFaults {
                truncate_snapshot: true,
                ..DiskFaults::default()
            },
        )
        .unwrap();
        assert!(load_latest(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
