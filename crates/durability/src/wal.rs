//! The write-ahead log: checksummed, length-prefixed records in
//! append-only segment files.
//!
//! ## On-disk format
//!
//! A WAL directory holds numbered segments (`seg-0000000001.wal`, …).
//! Each segment starts with an 16-byte header:
//!
//! ```text
//! [ 8 bytes magic "BDAWSEG1" ][ u64 LE first_seq ]
//! ```
//!
//! followed by records:
//!
//! ```text
//! [ u32 LE payload_len ][ u32 LE crc32(seq ‖ payload) ][ u64 LE seq ][ payload ]
//! ```
//!
//! The payload is a [`crate::record::WalOp`] encoding, which in turn
//! reuses the columnar `BDA1` dataset codec. Sequence numbers are
//! assigned at append time, start at 1, and are strictly consecutive
//! across the whole log — a gap or regression can only mean corruption.
//!
//! ## Torn tails vs interior corruption
//!
//! A crash mid-append leaves a *torn tail*: the final record is
//! truncated or fails its checksum, and nothing follows it. Replay
//! tolerates this — the record was never acknowledged — by truncating
//! the segment at the last valid boundary. Any failed record that has a
//! checksum-valid record *after* it (in the same segment, found by a
//! bounded forward scan, or in a later segment) is **interior**
//! corruption: acknowledged data is damaged, and replay refuses with a
//! loud error instead of silently dropping committed writes.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bda_core::CoreError;
use bda_obs::MetricsHub;
use bda_storage::wire::{Reader, Writer};
use bda_storage::StorageError;

use crate::crc::{self, crc32};
use crate::faults::{AppendFate, DiskFaults, FaultState};
use crate::record::{decode_op, encode_op, WalOp};
use crate::Result;

/// Segment file magic.
const SEG_MAGIC: &[u8; 8] = b"BDAWSEG1";
/// Bytes of segment header (magic + first_seq).
const SEG_HEADER: u64 = 16;
/// Bytes of record header (len + crc + seq).
const REC_HEADER: u64 = 16;
/// How far past a failed record replay scans for a later valid record
/// before concluding the failure is a tolerable torn tail. Records can
/// be far larger than this window, so in addition to the byte-wise scan
/// replay probes the boundary the failed record's own length field
/// points at — a corrupted record followed by committed data is interior
/// corruption no matter how large it is.
const SCAN_WINDOW: u64 = 1 << 20;

/// When the WAL writer calls `fdatasync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Sync after every appended record before acknowledging — survives
    /// both process kill and OS crash.
    #[default]
    Always,
    /// Never sync explicitly; the OS flushes when it pleases. Survives
    /// process kill (the bytes are in the page cache) but not power
    /// loss. The F9 experiment measures what this buys.
    Never,
}

impl FsyncPolicy {
    /// Parse a CLI value.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" | "on" => Some(FsyncPolicy::Always),
            "never" | "off" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }
}

fn dur_err(what: impl std::fmt::Display, e: std::io::Error) -> CoreError {
    CoreError::Durability(format!("{what}: {e}"))
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:010}.wal"))
}

/// Sync a directory so a create/rename inside it is durable.
fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| dur_err(format!("fsync dir {}", dir.display()), e))
}

/// List `(index, path)` of the segments in `dir`, ascending.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| dur_err(format!("read {}", dir.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| dur_err("read wal dir entry", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(idx) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".wal"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((idx, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Everything replay learned from the log.
#[derive(Debug)]
pub struct ReplayedWal {
    /// Committed records, in sequence order.
    pub records: Vec<(u64, WalOp)>,
    /// Whether a torn final record was truncated away.
    pub torn_tail: bool,
    /// Highest committed sequence number (0 when the log is empty).
    pub last_seq: u64,
    /// Sequence number the next append must use. This is **not** always
    /// `last_seq + 1`: after a snapshot rotates the log and drops the
    /// covered segments, the surviving tail segment holds no records but
    /// its header still carries the next sequence — losing it would
    /// restart numbering at 1, making every later recovery refuse on a
    /// sequence jump and every later snapshot sort below the old one.
    pub next_seq: u64,
    /// Index of the newest segment (0 when none exist yet).
    pub(crate) last_segment_index: u64,
    /// Valid byte length of the newest segment (`None`: no segments).
    pub(crate) last_segment_valid_len: Option<u64>,
}

/// How reading one segment ended.
enum SegmentEnd {
    /// All bytes consumed cleanly.
    Clean,
    /// A final record is torn; valid bytes end here.
    Torn { valid_len: u64, reason: String },
}

/// Read one segment; records append into `out`, sequences validated
/// against `next_seq` (0 = accept any start).
fn read_segment(
    path: &Path,
    first_expected_seq: &mut u64,
    out: &mut Vec<(u64, WalOp)>,
) -> Result<SegmentEnd> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| dur_err(format!("read {}", path.display()), e))?;
    let corrupt = |off: u64, reason: &str| {
        CoreError::Durability(format!(
            "wal segment {} corrupt at offset {off}: {reason}; \
             refusing to replay past interior corruption",
            path.display()
        ))
    };
    if bytes.len() < SEG_HEADER as usize {
        // A header-less segment can only be a crash during rotation:
        // nothing was ever committed into it.
        return Ok(SegmentEnd::Torn {
            valid_len: 0,
            reason: "segment shorter than its header".into(),
        });
    }
    let mut header = Reader::new(&bytes);
    if header.magic(SEG_MAGIC, "segment magic").is_err() {
        return Err(corrupt(0, "bad segment magic"));
    }
    let first_seq = header
        .u64("segment first seq")
        .map_err(|e| corrupt(8, &e.to_string()))?;
    if *first_expected_seq != 0 && first_seq != *first_expected_seq {
        return Err(corrupt(
            8,
            &format!("segment claims first seq {first_seq}, expected {first_expected_seq}"),
        ));
    }
    let mut expected = first_seq;
    let mut pos = SEG_HEADER;
    let len = bytes.len() as u64;
    while pos < len {
        match parse_record(&bytes, pos, expected) {
            RecordParse::Ok { seq, op, end } => {
                out.push((seq, op));
                expected = seq + 1;
                pos = end;
            }
            RecordParse::SeqJump { reason } => return Err(corrupt(pos, &reason)),
            RecordParse::Bad { reason, next_hint } => {
                // Tail or interior? A checksum-valid record anywhere
                // after the failure point means committed data follows.
                // The bounded scan catches shifted/garbled framing; the
                // hint probe catches a corrupted record whose successor
                // starts beyond the scan window (large payloads).
                let later = scan_for_valid_record(&bytes, pos + 1).or_else(|| {
                    next_hint
                        .filter(|&at| matches!(parse_record(&bytes, at, 0), RecordParse::Ok { .. }))
                });
                if let Some(at) = later {
                    return Err(corrupt(
                        pos,
                        &format!("{reason}, but a valid record follows at offset {at}"),
                    ));
                }
                *first_expected_seq = expected;
                return Ok(SegmentEnd::Torn {
                    valid_len: pos,
                    reason,
                });
            }
        }
    }
    *first_expected_seq = expected;
    Ok(SegmentEnd::Clean)
}

enum RecordParse {
    Ok {
        seq: u64,
        op: WalOp,
        end: u64,
    },
    /// Framing or checksum failure — a candidate torn tail. When the
    /// record's length field was in bounds, `next_hint` is the offset
    /// where the next record would start if that length is trusted;
    /// replay probes it so a valid record past the scan window still
    /// flags interior corruption.
    Bad {
        reason: String,
        next_hint: Option<u64>,
    },
    /// Checksum-valid record with the wrong sequence number. The frame
    /// is intact, so a torn append cannot produce this; it can only be
    /// logical corruption (e.g. a damaged segment header) and must be
    /// refused rather than truncated away.
    SeqJump {
        reason: String,
    },
}

/// Try to parse the record at `pos`; `expected` is the required sequence
/// number (0 = any).
fn parse_record(bytes: &[u8], pos: u64, expected: u64) -> RecordParse {
    // `len | crc | seq | payload`, where the crc covers `seq ‖ payload`.
    let record = &bytes[pos as usize..];
    let mut r = Reader::new(record);
    let header = (|| {
        Ok::<_, StorageError>((
            r.u32("record length")?,
            r.u32("record crc")?,
            r.u64("record seq")?,
        ))
    })();
    let Ok((payload_len, stored_crc, seq)) = header else {
        return RecordParse::Bad {
            reason: format!("{} trailing bytes, less than a record header", record.len()),
            next_hint: None,
        };
    };
    let payload_len = u64::from(payload_len);
    let Ok(payload) = r.bytes(payload_len as usize, "record payload") else {
        return RecordParse::Bad {
            reason: format!(
                "record claims {payload_len} payload bytes, only {} remain",
                r.remaining()
            ),
            next_hint: None,
        };
    };
    if crc32(&record[8..REC_HEADER as usize + payload.len()]) != stored_crc {
        return RecordParse::Bad {
            reason: format!("checksum mismatch on record seq {seq}"),
            next_hint: Some(pos + REC_HEADER + payload_len),
        };
    }
    if expected != 0 && seq != expected {
        return RecordParse::SeqJump {
            reason: format!("sequence jump: record says {seq}, expected {expected}"),
        };
    }
    match decode_op(payload) {
        Ok(op) => RecordParse::Ok {
            seq,
            op,
            end: pos + REC_HEADER + payload_len,
        },
        Err(e) => RecordParse::Bad {
            reason: format!("checksummed payload failed to decode: {e}"),
            next_hint: Some(pos + REC_HEADER + payload_len),
        },
    }
}

/// Scan forward from `from` for any checksum-valid record, bounded by
/// [`SCAN_WINDOW`]. Used to tell interior corruption from a torn tail.
fn scan_for_valid_record(bytes: &[u8], from: u64) -> Option<u64> {
    let len = bytes.len() as u64;
    let stop = len.min(from.saturating_add(SCAN_WINDOW));
    let mut pos = from;
    while pos + REC_HEADER <= stop {
        if let RecordParse::Ok { .. } = parse_record(bytes, pos, 0) {
            return Some(pos);
        }
        pos += 1;
    }
    None
}

/// Replay every segment in `dir` (which may not exist yet). Torn tails
/// are tolerated only on the final segment; corruption with committed
/// data after it is refused.
pub fn replay_dir(dir: &Path) -> Result<ReplayedWal> {
    let mut replayed = ReplayedWal {
        records: Vec::new(),
        torn_tail: false,
        last_seq: 0,
        next_seq: 1,
        last_segment_index: 0,
        last_segment_valid_len: None,
    };
    if !dir.exists() {
        return Ok(replayed);
    }
    let segments = list_segments(dir)?;
    let last_pos = segments.len().saturating_sub(1);
    let mut expected_seq = 0u64;
    for (i, (index, path)) in segments.iter().enumerate() {
        match read_segment(path, &mut expected_seq, &mut replayed.records)? {
            SegmentEnd::Clean => {
                if i == last_pos {
                    replayed.last_segment_valid_len = Some(
                        fs::metadata(path)
                            .map_err(|e| dur_err(format!("stat {}", path.display()), e))?
                            .len(),
                    );
                }
            }
            SegmentEnd::Torn { valid_len, reason } => {
                if i != last_pos {
                    return Err(CoreError::Durability(format!(
                        "wal segment {} is torn ({reason}) but later segments exist; \
                         refusing to replay past interior corruption",
                        path.display()
                    )));
                }
                replayed.torn_tail = true;
                replayed.last_segment_valid_len = Some(valid_len);
            }
        }
        replayed.last_segment_index = *index;
    }
    replayed.last_seq = replayed.records.last().map(|(s, _)| *s).unwrap_or(0);
    // `expected_seq` carries the position even through record-less
    // segments (read_segment seeds it from the segment header), so a
    // freshly rotated, empty tail still yields the right next sequence.
    replayed.next_seq = expected_seq.max(replayed.last_seq + 1);
    Ok(replayed)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The append side of the log. One per provider, behind a mutex in
/// [`crate::DurableProvider`]; appends assign sequence numbers, so the
/// lock order *is* the commit order.
pub struct Wal {
    dir: PathBuf,
    file: File,
    segment_index: u64,
    next_seq: u64,
    fsync: FsyncPolicy,
    faults: FaultState,
    metrics: MetricsHub,
}

impl Wal {
    /// Open the log for appending, positioned after `replayed`'s last
    /// valid record (truncating a torn tail if one was found). Creates
    /// the directory and first segment as needed.
    pub fn open(
        dir: &Path,
        replayed: &ReplayedWal,
        fsync: FsyncPolicy,
        faults: DiskFaults,
        metrics: MetricsHub,
    ) -> Result<Wal> {
        fs::create_dir_all(dir).map_err(|e| dur_err(format!("create {}", dir.display()), e))?;
        let next_seq = replayed.next_seq;
        let (segment_index, file) = match replayed.last_segment_valid_len {
            Some(valid_len) if valid_len < SEG_HEADER => {
                // The tear hit the segment header itself (a crash during
                // rotation): nothing in this segment ever committed, so
                // recreate it wholesale rather than truncating.
                let index = replayed.last_segment_index;
                let path = segment_path(dir, index);
                fs::remove_file(&path)
                    .map_err(|e| dur_err(format!("remove torn {}", path.display()), e))?;
                let file = create_segment(dir, index, next_seq)?;
                (index, file)
            }
            Some(valid_len) => {
                let index = replayed.last_segment_index;
                let path = segment_path(dir, index);
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&path)
                    .map_err(|e| dur_err(format!("open {}", path.display()), e))?;
                if replayed.torn_tail {
                    file.set_len(valid_len)
                        .map_err(|e| dur_err(format!("truncate {}", path.display()), e))?;
                    file.sync_data()
                        .map_err(|e| dur_err(format!("fsync {}", path.display()), e))?;
                }
                let mut file = file;
                file.seek(SeekFrom::Start(valid_len))
                    .map_err(|e| dur_err(format!("seek {}", path.display()), e))?;
                (index, file)
            }
            None => {
                let index = 1;
                let file = create_segment(dir, index, next_seq)?;
                (index, file)
            }
        };
        Ok(Wal {
            dir: dir.to_path_buf(),
            file,
            segment_index,
            next_seq,
            fsync,
            faults: FaultState::new(faults),
            metrics,
        })
    }

    /// The sequence number the next committed append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append one record, fsync per policy, and return `(seq, bytes)`.
    /// On error nothing was committed and no sequence number was spent.
    pub fn append(&mut self, op: &WalOp) -> Result<(u64, u64)> {
        self.append_payload(&encode_op(op))
    }

    /// [`Wal::append`] of a payload already encoded by
    /// [`encode_op`] or [`crate::record::encode_store`].
    pub fn append_payload(&mut self, payload: &[u8]) -> Result<(u64, u64)> {
        let seq = self.next_seq;
        // `len | crc | seq | payload`: the crc covers `seq ‖ payload`.
        let mut sum = crc::Hasher::new();
        sum.update(&seq.to_le_bytes());
        sum.update(payload);
        let mut rec = Writer::with_capacity(REC_HEADER as usize + payload.len());
        rec.u32(payload.len() as u32);
        rec.u32(sum.finish());
        rec.u64(seq);
        rec.bytes(payload);
        let rec = rec.into_vec();
        match self.faults.decide() {
            AppendFate::Write => {}
            AppendFate::Tear => {
                // Simulated crash mid-append: half the record reaches
                // disk, the writer is dead from here on.
                let _ = self.file.write_all(&rec[..rec.len() / 2]);
                let _ = self.file.sync_data();
                return Err(CoreError::Durability(
                    "injected torn append: wal writer crashed mid-record".into(),
                ));
            }
            AppendFate::Refuse => {
                return Err(CoreError::Durability(
                    "injected append failure: no space left on wal device".into(),
                ));
            }
        }
        self.file
            .write_all(&rec)
            .map_err(|e| dur_err("wal append", e))?;
        if self.fsync == FsyncPolicy::Always {
            self.file.sync_data().map_err(|e| dur_err("wal fsync", e))?;
            self.metrics
                .counter("bda_durability_fsyncs_total", "WAL fsync calls.")
                .inc();
        }
        self.next_seq += 1;
        self.metrics
            .counter(
                "bda_durability_wal_records_total",
                "Records appended to the WAL.",
            )
            .inc();
        self.metrics
            .counter(
                "bda_durability_wal_bytes_total",
                "Bytes appended to the WAL.",
            )
            .add(rec.len() as u64);
        Ok((seq, rec.len() as u64))
    }

    /// Start a fresh segment; subsequent appends land there. Returns
    /// `(covered, new_index)`: the highest sequence number covered by
    /// the *previous* segments — the snapshot that triggers a rotation
    /// covers exactly those records — and the index of the new segment.
    /// The caller must pass that recorded index to
    /// [`Wal::drop_segments_below`], not re-read the current index: a
    /// concurrent rotation may have advanced it past segments whose
    /// covering snapshot is not on disk yet.
    pub fn rotate(&mut self) -> Result<(u64, u64)> {
        self.file
            .sync_data()
            .map_err(|e| dur_err("wal fsync before rotate", e))?;
        let covered = self.next_seq - 1;
        self.segment_index += 1;
        self.file = create_segment(&self.dir, self.segment_index, self.next_seq)?;
        Ok((covered, self.segment_index))
    }

    /// Delete every segment with an index below `index` (their records
    /// are covered by a durable snapshot).
    pub fn drop_segments_below(&self, index: u64) -> Result<usize> {
        let mut dropped = 0;
        for (seg_index, path) in list_segments(&self.dir)? {
            if seg_index < index {
                fs::remove_file(&path)
                    .map_err(|e| dur_err(format!("remove {}", path.display()), e))?;
                dropped += 1;
            }
        }
        if dropped > 0 {
            sync_dir(&self.dir)?;
        }
        Ok(dropped)
    }
}

/// Create segment `index` with its header, fsynced, directory synced.
fn create_segment(dir: &Path, index: u64, first_seq: u64) -> Result<File> {
    let path = segment_path(dir, index);
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)
        .map_err(|e| dur_err(format!("create {}", path.display()), e))?;
    let mut header = Writer::with_capacity(SEG_HEADER as usize);
    header.bytes(SEG_MAGIC);
    header.u64(first_seq);
    file.write_all(&header.into_vec())
        .and_then(|_| file.sync_data())
        .map_err(|e| dur_err(format!("write header {}", path.display()), e))?;
    sync_dir(dir)?;
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_storage::{Column, DataSet};

    fn tmp() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bda-wal-test-{}-{:x}",
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
        DataSet::from_columns(vec![("k", Column::from(vec![k, k + 1]))]).unwrap()
    }

    fn store(name: &str, k: i64) -> WalOp {
        WalOp::Store {
            name: name.into(),
            data: ds(k),
        }
    }

    fn open_empty(dir: &Path) -> Wal {
        let replayed = replay_dir(dir).unwrap();
        Wal::open(
            dir,
            &replayed,
            FsyncPolicy::Always,
            DiskFaults::default(),
            MetricsHub::new(),
        )
        .unwrap()
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = tmp();
        let mut wal = open_empty(&dir);
        assert_eq!(wal.append(&store("a", 1)).unwrap().0, 1);
        assert_eq!(
            wal.append(&WalOp::Remove { name: "a".into() }).unwrap().0,
            2
        );
        assert_eq!(wal.append(&store("b", 5)).unwrap().0, 3);
        drop(wal);
        let replayed = replay_dir(&dir).unwrap();
        assert!(!replayed.torn_tail);
        assert_eq!(replayed.last_seq, 3);
        let kinds: Vec<&str> = replayed.records.iter().map(|(_, op)| op.kind()).collect();
        assert_eq!(kinds, ["store", "remove", "store"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_sequence_continues() {
        let dir = tmp();
        let mut wal = open_empty(&dir);
        wal.append(&store("a", 1)).unwrap();
        wal.append(&store("b", 2)).unwrap();
        drop(wal);
        // Chop bytes off the final record: a crash mid-append.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let replayed = replay_dir(&dir).unwrap();
        assert!(replayed.torn_tail);
        assert_eq!(replayed.last_seq, 1, "only the intact record survives");
        // Re-open and append: the torn bytes are gone, seq continues at 2.
        let mut wal = Wal::open(
            &dir,
            &replayed,
            FsyncPolicy::Always,
            DiskFaults::default(),
            MetricsHub::new(),
        )
        .unwrap();
        assert_eq!(wal.append(&store("c", 3)).unwrap().0, 2);
        drop(wal);
        let replayed = replay_dir(&dir).unwrap();
        assert!(!replayed.torn_tail);
        assert_eq!(replayed.last_seq, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_corruption_is_refused() {
        let dir = tmp();
        let mut wal = open_empty(&dir);
        wal.append(&store("a", 1)).unwrap();
        let (_, first_end) = (
            0,
            fs::metadata(&list_segments(&dir).unwrap()[0].1)
                .unwrap()
                .len(),
        );
        wal.append(&store("b", 2)).unwrap();
        drop(wal);
        // Flip a byte inside the *first* record's payload: a valid
        // record follows, so this must be refused, not truncated.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let victim = (first_end - 3) as usize;
        bytes[victim] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let err = replay_dir(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("interior corruption"), "{msg}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_drops_covered_segments() {
        let dir = tmp();
        let mut wal = open_empty(&dir);
        wal.append(&store("a", 1)).unwrap();
        wal.append(&store("b", 2)).unwrap();
        let (covered, new_index) = wal.rotate().unwrap();
        assert_eq!(covered, 2);
        wal.append(&store("c", 3)).unwrap();
        assert_eq!(wal.drop_segments_below(new_index).unwrap(), 1);
        drop(wal);
        // Only the post-rotation record remains in the log.
        let replayed = replay_dir(&dir).unwrap();
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.last_seq, 3);
        assert_eq!(replayed.records[0].0, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_tail_segment_preserves_next_seq_across_reopen() {
        // snapshot -> restart -> ingest -> restart: the tail segment
        // holds no records, but its header must carry the sequence
        // forward or the next recovery refuses on a sequence jump.
        let dir = tmp();
        let mut wal = open_empty(&dir);
        wal.append(&store("a", 1)).unwrap();
        wal.append(&store("b", 2)).unwrap();
        let (covered, new_index) = wal.rotate().unwrap();
        assert_eq!(covered, 2);
        wal.drop_segments_below(new_index).unwrap();
        drop(wal);

        let replayed = replay_dir(&dir).unwrap();
        assert_eq!(replayed.last_seq, 0, "tail segment has no records");
        assert_eq!(replayed.next_seq, 3, "segment header carries the seq");
        let mut wal = Wal::open(
            &dir,
            &replayed,
            FsyncPolicy::Always,
            DiskFaults::default(),
            MetricsHub::new(),
        )
        .unwrap();
        assert_eq!(wal.append(&store("c", 3)).unwrap().0, 3);
        drop(wal);

        // The log replays cleanly — no SeqJump refusal on restart.
        let replayed = replay_dir(&dir).unwrap();
        assert_eq!(replayed.last_seq, 3);
        assert_eq!(replayed.next_seq, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_corruption_beyond_scan_window_is_refused() {
        // A corrupted record larger than SCAN_WINDOW: the next valid
        // record starts past the byte-wise scan, so only the length-field
        // boundary probe can tell interior corruption from a torn tail.
        let dir = tmp();
        let mut wal = open_empty(&dir);
        let big: Vec<i64> = (0..200_000).collect(); // ~1.6 MiB payload
        wal.append(&WalOp::Store {
            name: "big".into(),
            data: DataSet::from_columns(vec![("k", Column::from(big))]).unwrap(),
        })
        .unwrap();
        wal.append(&store("small", 2)).unwrap();
        drop(wal);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte early in the big record, > SCAN_WINDOW
        // before the small record that follows it.
        bytes[(SEG_HEADER + REC_HEADER) as usize + 64] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let err = replay_dir(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("interior corruption"), "{msg}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_fault_refuses_without_spending_a_seq() {
        let dir = tmp();
        let replayed = replay_dir(&dir).unwrap();
        let mut wal = Wal::open(
            &dir,
            &replayed,
            FsyncPolicy::Always,
            DiskFaults {
                append_fail_after: Some(1),
                ..DiskFaults::default()
            },
            MetricsHub::new(),
        )
        .unwrap();
        wal.append(&store("a", 1)).unwrap();
        let err = wal.append(&store("b", 2)).unwrap_err();
        assert!(err.to_string().contains("no space left"), "{err}");
        assert_eq!(wal.next_seq(), 2, "failed append spends no sequence");
        drop(wal);
        let replayed = replay_dir(&dir).unwrap();
        assert_eq!(replayed.last_seq, 1);
        assert!(!replayed.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_append_fault_recovers_to_last_commit() {
        let dir = tmp();
        let replayed = replay_dir(&dir).unwrap();
        let mut wal = Wal::open(
            &dir,
            &replayed,
            FsyncPolicy::Always,
            DiskFaults {
                torn_append_at: Some(2),
                ..DiskFaults::default()
            },
            MetricsHub::new(),
        )
        .unwrap();
        wal.append(&store("a", 1)).unwrap();
        let err = wal.append(&store("b", 2)).unwrap_err();
        assert!(err.to_string().contains("torn append"), "{err}");
        drop(wal);
        let replayed = replay_dir(&dir).unwrap();
        assert!(replayed.torn_tail);
        assert_eq!(replayed.last_seq, 1);
        assert_eq!(replayed.records.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
