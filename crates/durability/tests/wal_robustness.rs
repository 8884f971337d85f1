//! Property tests for the WAL: the log is the durability contract, so
//! its replay must honour two promises under *any* damage pattern —
//! recover exactly the acknowledged prefix when the damage is a torn
//! tail, and refuse loudly (never silently drop committed records) when
//! the damage is interior.
//!
//! Damage is modelled the way real crashes and disk faults produce it:
//! truncation at an arbitrary byte (crash mid-append), a single
//! corrupted byte anywhere in the file (bit rot, bad sector), and
//! trailing garbage past the last commit (recycled blocks).

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bda_durability::record::{decode_op, encode_op, WalOp};
use bda_durability::snapshot::load_latest;
use bda_durability::wal::{replay_dir, FsyncPolicy, Wal};
use bda_durability::DiskFaults;
use bda_obs::MetricsHub;
use bda_storage::{Column, DataSet};
use proptest::prelude::*;

/// Bytes of segment header (magic + first_seq) — mirrors `wal::SEG_HEADER`.
const SEG_HEADER: u64 = 16;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bda-wal-prop-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn seg1(dir: &Path) -> PathBuf {
    dir.join("seg-0000000001.wal")
}

fn open_wal(dir: &Path) -> Wal {
    let replayed = replay_dir(dir).unwrap();
    Wal::open(
        dir,
        &replayed,
        FsyncPolicy::Never,
        DiskFaults::default(),
        MetricsHub::new(),
    )
    .unwrap()
}

/// Append `ops` into a fresh log; returns the byte offset where each
/// record *ends* in the (single) segment file.
fn write_ops(dir: &Path, ops: &[WalOp]) -> Vec<u64> {
    let mut wal = open_wal(dir);
    let mut ends = Vec::with_capacity(ops.len());
    let mut off = SEG_HEADER;
    for op in ops {
        let (_, bytes) = wal.append(op).unwrap();
        off += bytes;
        ends.push(off);
    }
    ends
}

fn same_op(a: &WalOp, b: &WalOp) -> bool {
    match (a, b) {
        (WalOp::Store { name: an, data: ad }, WalOp::Store { name: bn, data: bd }) => {
            an == bn && ad.same_bag(bd).unwrap_or(false)
        }
        (WalOp::Remove { name: an }, WalOp::Remove { name: bn }) => an == bn,
        _ => false,
    }
}

/// Assert that replay recovered exactly `want` (in order, seqs 1..=n).
fn assert_prefix(dir: &Path, want: &[WalOp]) {
    let replayed = replay_dir(dir).unwrap();
    assert_eq!(replayed.records.len(), want.len());
    for (i, ((seq, got), expected)) in replayed.records.iter().zip(want).enumerate() {
        assert_eq!(*seq, i as u64 + 1, "sequence numbers are consecutive");
        assert!(same_op(got, expected), "record {i} mismatch: {got:?}");
    }
}

/// A snapshot header whose entry count (2³²−1) the 20-byte file cannot
/// hold is refused as corrupt, before anything is allocated for it.
#[test]
fn snapshot_count_beyond_the_file_is_refused_loudly() {
    let dir = tmp();
    let mut bytes = b"BDASNAP1".to_vec();
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    fs::write(dir.join(format!("snap-{:020}.snap", 1)), &bytes).unwrap();
    let err = load_latest(&dir).unwrap_err().to_string();
    assert!(
        err.contains("snapshot") && err.contains("is corrupt"),
        "{err}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

fn name_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("alpha".to_string()),
        Just("beta".to_string()),
        Just("gamma".to_string()),
    ]
}

fn op_strategy() -> impl Strategy<Value = WalOp> {
    prop_oneof![
        3 => (name_strategy(), prop::collection::vec(any::<i64>(), 1..6)).prop_map(
            |(name, ks)| WalOp::Store {
                name,
                data: DataSet::from_columns(vec![("k", Column::from(ks))]).unwrap(),
            }
        ),
        1 => name_strategy().prop_map(|name| WalOp::Remove { name }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Undamaged logs replay every acknowledged op, byte-faithfully and
    /// in commit order.
    #[test]
    fn random_ops_replay_faithfully(ops in prop::collection::vec(op_strategy(), 1..16)) {
        let dir = tmp();
        write_ops(&dir, &ops);
        assert_prefix(&dir, &ops);
        let replayed = replay_dir(&dir).unwrap();
        prop_assert!(!replayed.torn_tail);
        prop_assert_eq!(replayed.last_seq, ops.len() as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Cutting the segment at *any* byte — even inside the header —
    /// replays the committed prefix, and the log accepts new appends
    /// with consecutive sequence numbers afterwards.
    #[test]
    fn any_truncation_recovers_the_committed_prefix(
        ops in prop::collection::vec(op_strategy(), 1..10),
        frac in 0.0f64..1.0,
    ) {
        let dir = tmp();
        let ends = write_ops(&dir, &ops);
        let len = *ends.last().unwrap();
        let cut = ((len as f64) * frac) as u64; // always < len
        let f = OpenOptions::new().write(true).open(seg1(&dir)).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        // Exactly the records wholly under the cut survive.
        let survivors = ends.iter().filter(|e| **e <= cut).count();
        assert_prefix(&dir, &ops[..survivors]);
        let clean_cut = cut == SEG_HEADER || ends.contains(&cut);
        prop_assert_eq!(replay_dir(&dir).unwrap().torn_tail, !clean_cut);

        // The writer reopens over the damage and the sequence continues.
        let mut wal = open_wal(&dir);
        let extra = WalOp::Remove { name: "tail".into() };
        let (seq, _) = wal.append(&extra).unwrap();
        prop_assert_eq!(seq, survivors as u64 + 1);
        drop(wal);
        let mut want: Vec<WalOp> = ops[..survivors].to_vec();
        want.push(extra);
        assert_prefix(&dir, &want);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One corrupted byte anywhere: damage confined to the *final*
    /// record is a torn tail (replay the prefix before it); damage to
    /// anything earlier — committed records or the segment header — is
    /// refused with a loud interior-corruption error.
    #[test]
    fn single_byte_corruption_is_prefix_or_loud_refusal(
        ops in prop::collection::vec(op_strategy(), 1..10),
        frac in 0.0f64..1.0,
        xor in 1u16..256,
    ) {
        let dir = tmp();
        let ends = write_ops(&dir, &ops);
        let len = *ends.last().unwrap();
        let pos = ((len as f64) * frac) as u64;
        let path = seg1(&dir);
        let mut bytes = fs::read(&path).unwrap();
        bytes[pos as usize] ^= xor as u8;
        fs::write(&path, &bytes).unwrap();

        let last_start = if ops.len() == 1 { SEG_HEADER } else { ends[ops.len() - 2] };
        if pos >= last_start {
            // Tail damage: the final record is gone, everything before
            // it survives.
            let replayed = replay_dir(&dir).unwrap();
            prop_assert!(replayed.torn_tail);
            assert_prefix(&dir, &ops[..ops.len() - 1]);
        } else {
            // Interior damage: committed data follows the failure
            // point, so replay must refuse, not truncate.
            let err = replay_dir(&dir).unwrap_err().to_string();
            prop_assert!(
                err.contains("interior corruption") || err.contains("bad segment magic"),
                "pos {} of {}: {}", pos, len, err
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Garbage past the last commit (recycled disk blocks) is classified
    /// as a torn tail: every committed record replays, and reopening the
    /// writer truncates the junk away for good.
    #[test]
    fn trailing_garbage_is_a_torn_tail(
        ops in prop::collection::vec(op_strategy(), 1..8),
        garbage in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let dir = tmp();
        write_ops(&dir, &ops);
        let mut f = OpenOptions::new().append(true).open(seg1(&dir)).unwrap();
        std::io::Write::write_all(&mut f, &garbage).unwrap();
        drop(f);

        let replayed = replay_dir(&dir).unwrap();
        prop_assert!(replayed.torn_tail);
        assert_prefix(&dir, &ops);

        let wal = open_wal(&dir); // truncates the garbage
        drop(wal);
        prop_assert!(!replay_dir(&dir).unwrap().torn_tail);
        assert_prefix(&dir, &ops);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The record codec never panics: arbitrary bytes and single-byte
    /// mutations of valid payloads decode to `Ok` or `Err`, nothing else.
    #[test]
    fn record_decode_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        ks in prop::collection::vec(any::<i64>(), 1..6),
        frac in 0.0f64..1.0,
        xor in 1u16..256,
    ) {
        let _ = decode_op(&bytes);
        let mut valid = encode_op(&WalOp::Store {
            name: "t".into(),
            data: DataSet::from_columns(vec![("k", Column::from(ks))]).unwrap(),
        });
        let pos = ((valid.len() as f64) * frac) as usize;
        valid[pos] ^= xor as u8;
        let _ = decode_op(&valid);
    }
}
