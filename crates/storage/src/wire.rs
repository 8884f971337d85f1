//! The wire codec: a compact hand-rolled binary encoding for every storage
//! type, and the one [`Reader`]/[`Writer`] pair every byte format in the
//! workspace is written and read through.
//!
//! Every inter-server transfer in the federation layer serializes through
//! this module, so the byte counts the experiments report (desideratum 4,
//! "Server Interoperation") are the bytes this codec actually produces —
//! not estimates. Plans (`bda_core::codec`), protocol messages and span
//! lists (`bda_net::proto`), WAL records, WAL segment headers and
//! snapshots (`bda_durability`) use the same pair.
//!
//! Format notes: little-endian fixed-width integers, `u32` length prefixes
//! on strings and embedded blocks, one-byte type tags, and one flag byte
//! (`0` absent, `1` present) before an optional value.
//!
//! Decoding is fully checked and returns [`StorageError::Corrupt`] on
//! malformed input; it never panics or aborts. The limits that make that
//! true live in the [`Reader`], not in each format:
//! - every read checks the bytes it needs against the bytes remaining;
//! - a claimed element count must fit the remaining bytes at each
//!   element's minimum encoded size ([`Reader::checked_len`]), so a length
//!   prefix cannot demand an allocation larger than its input;
//! - nesting is bounded by [`MAX_NESTING`] ([`Reader::nested`]), so a deep
//!   message cannot overflow the stack of the thread decoding it;
//! - [`Reader::finish`] rejects trailing bytes.

use crate::bitmap::Bitmap;
use crate::chunk::{Chunk, RowsChunk};
use crate::column::Column;
use crate::dataset::DataSet;
use crate::dense::{DenseChunk, DimBox};
use crate::error::StorageError;
use crate::schema::{Field, Role, Schema};
use crate::types::DataType;
use crate::value::Value;
use crate::Result;

/// How deep one message may nest: each plan node and each expression node
/// inside it takes one level. Decoding recurses once per level, and so do
/// schema inference, every evaluator and `Drop` on the decoded tree; a
/// chain at the bound decodes, type-checks and executes on a default
/// 2 MiB thread stack in a debug build. Legitimate plans nest far less
/// (the workloads and test suites stay under 25 levels). Protobuf's
/// default recursion limit is also 100.
pub const MAX_NESTING: usize = 100;

fn corrupt(msg: String) -> StorageError {
    StorageError::Corrupt(msg)
}

/// A checked, position-tracking reader over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.short(n, what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[cold]
    fn short(&self, n: usize, what: &str) -> StorageError {
        corrupt(format!(
            "unexpected end of input reading {what}: need {n} bytes at offset {}, have {}",
            self.pos,
            self.remaining()
        ))
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.bytes(N, what)?);
        Ok(out)
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    /// Read a little-endian u32.
    #[inline]
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// Read a little-endian u64.
    #[inline]
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// Read a little-endian i64.
    #[inline]
    pub fn i64(&mut self, what: &str) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array(what)?))
    }

    /// Read a little-endian f64.
    #[inline]
    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Read a `u32`-length-prefixed block of raw bytes.
    pub fn block(&mut self, what: &str) -> Result<&'a [u8]> {
        let n = self.u32(what)? as usize;
        self.bytes(n, what)
    }

    /// Decode the next block with `read`, which must consume it whole.
    pub fn within<T>(
        &mut self,
        what: &str,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T>,
    ) -> Result<T> {
        let mut inner = Reader::new(self.block(what)?);
        let out = read(&mut inner)?;
        inner.finish(what)?;
        Ok(out)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self, what: &str) -> Result<String> {
        let raw = self.block(what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| corrupt(format!("invalid UTF-8 in {what}")))
    }

    /// Read a one-byte index into `table` (the encoding [`Writer::tag`]
    /// writes).
    pub fn tag<T: Copy>(&mut self, table: &[T], what: &str) -> Result<T> {
        let t = self.u8(what)?;
        table
            .get(t as usize)
            .copied()
            .ok_or_else(|| corrupt(format!("bad {what} tag {t}")))
    }

    /// Read a flag byte, then the value `read` decodes when it is `1`.
    pub fn opt<T, E: From<StorageError>>(
        &mut self,
        what: &str,
        read: impl FnOnce(&mut Self) -> std::result::Result<T, E>,
    ) -> std::result::Result<Option<T>, E> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => read(self).map(Some),
            t => Err(corrupt(format!("bad {what} flag {t}")).into()),
        }
    }

    /// Read a `u32` count, then that many elements with `read`. `min_size`
    /// is the fewest bytes one element can take (see
    /// [`Reader::checked_len`]).
    pub fn list<T, E: From<StorageError>>(
        &mut self,
        min_size: usize,
        what: &str,
        mut read: impl FnMut(&mut Self) -> std::result::Result<T, E>,
    ) -> std::result::Result<Vec<T>, E> {
        let n = self.u32(what)?;
        let n = self.checked_len(n, min_size, what)?;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// Read `expected.len()` bytes and require them to equal `expected`.
    pub fn magic(&mut self, expected: &[u8], what: &str) -> Result<()> {
        if self.bytes(expected.len(), what)? != expected {
            return Err(corrupt(format!("bad {what}")));
        }
        Ok(())
    }

    /// Require the input to be fully consumed.
    pub fn finish(&self, what: &str) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(corrupt(format!("{n} trailing bytes after {what}"))),
        }
    }

    /// Admit a claimed element count only if the remaining bytes can hold
    /// that many elements of at least `min_size` encoded bytes each, so a
    /// corrupt length prefix fails here instead of reserving memory for
    /// elements that are not there.
    pub fn checked_len(&self, n: u32, min_size: usize, what: &str) -> Result<usize> {
        let n = n as usize;
        if n.saturating_mul(min_size) > self.remaining() {
            return Err(corrupt(format!(
                "implausible length {n} for {what} with {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Decode one nesting level with `read`, refusing to go deeper than
    /// [`MAX_NESTING`] levels.
    pub fn nested<T, E: From<StorageError>>(
        &mut self,
        what: &str,
        read: impl FnOnce(&mut Self) -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        if self.depth == MAX_NESTING {
            return Err(corrupt(format!("{what} nests deeper than {MAX_NESTING} levels")).into());
        }
        self.depth += 1;
        let out = read(self);
        self.depth -= 1;
        out
    }
}

/// The encoding twin of [`Reader`]: appends the same layouts to a growable
/// buffer and hands it over with [`Writer::into_vec`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// The bytes written so far.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Write raw bytes, without a length prefix.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Write one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian u32.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Write a little-endian i64.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Write a little-endian f64.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a `u32`-length-prefixed block of raw bytes.
    pub fn block(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.bytes(b);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.block(s.as_bytes());
    }

    /// Write `v`'s one-byte index in `table` (read back by [`Reader::tag`]).
    pub fn tag<T: PartialEq>(&mut self, table: &[T], v: &T) {
        let t = table.iter().position(|x| x == v);
        self.u8(t.expect("the table lists every variant") as u8);
    }

    /// Write a `u32` count, then each of `items` with `write`.
    pub fn list<T>(&mut self, items: &[T], mut write: impl FnMut(&mut Self, &T)) {
        self.u32(items.len() as u32);
        for item in items {
            write(self, item);
        }
    }

    /// Write a flag byte, then `v` with `write` when it is present.
    pub fn opt<T>(&mut self, v: Option<T>, write: impl FnOnce(&mut Self, T)) {
        match v {
            Some(v) => {
                self.u8(1);
                write(self, v);
            }
            None => self.u8(0),
        }
    }
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

/// Encode a scalar value.
pub fn encode_value(v: &Value, w: &mut Writer) {
    match v {
        Value::Null => w.u8(0),
        Value::Int(x) => {
            w.u8(1);
            w.i64(*x);
        }
        Value::Float(x) => {
            w.u8(2);
            w.f64(*x);
        }
        Value::Bool(x) => {
            w.u8(3);
            w.u8(u8::from(*x));
        }
        Value::Str(x) => {
            w.u8(4);
            w.str(x);
        }
    }
}

/// Decode a scalar value.
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value> {
    match r.u8("value tag")? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(r.i64("int value")?)),
        2 => Ok(Value::Float(r.f64("float value")?)),
        3 => Ok(Value::Bool(r.u8("bool value")? != 0)),
        4 => Ok(Value::Str(r.string("string value")?)),
        t => Err(corrupt(format!("bad value tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

/// Encode a schema.
pub fn encode_schema(s: &Schema, w: &mut Writer) {
    w.list(s.fields(), |w, f| {
        w.str(&f.name);
        w.u8(f.dtype.wire_tag());
        match f.role {
            Role::Value => w.u8(0),
            Role::Dimension { lo, hi } => {
                w.u8(1);
                w.opt(lo, Writer::i64);
                w.opt(hi, Writer::i64);
            }
        }
    });
}

/// Decode a schema.
pub fn decode_schema(r: &mut Reader<'_>) -> Result<Schema> {
    // A field is at least its name prefix, dtype and role bytes.
    let fields = r.list(6, "schema fields", |r| {
        let name = r.string("field name")?;
        let dtype = r.tag(&DataType::ALL, "field dtype")?;
        let role = match r.u8("field role")? {
            0 => Role::Value,
            1 => Role::Dimension {
                lo: r.opt("dim lo", |r| r.i64("dim lo"))?,
                hi: r.opt("dim hi", |r| r.i64("dim hi"))?,
            },
            t => return Err(corrupt(format!("bad role tag {t}"))),
        };
        Ok(Field { name, dtype, role })
    })?;
    Schema::new(fields).map_err(|e| corrupt(format!("invalid schema on wire: {e}")))
}

// ---------------------------------------------------------------------------
// Bitmap & Column
// ---------------------------------------------------------------------------

/// Encode a bitmap.
pub fn encode_bitmap(bm: &Bitmap, w: &mut Writer) {
    w.u32(bm.len() as u32);
    // Re-pack via push to avoid exposing the word representation.
    let mut word = 0u64;
    let mut nbits = 0;
    for b in bm.iter() {
        if b {
            word |= 1 << nbits;
        }
        nbits += 1;
        if nbits == 64 {
            w.u64(word);
            word = 0;
            nbits = 0;
        }
    }
    if nbits > 0 {
        w.u64(word);
    }
}

/// Decode a bitmap.
pub fn decode_bitmap(r: &mut Reader<'_>) -> Result<Bitmap> {
    let len = r.u32("bitmap length")?;
    // One 8-byte word per 64 bits.
    let nwords = r.checked_len(len.div_ceil(64), 8, "bitmap words")?;
    let len = len as usize;
    let mut bm = Bitmap::filled(len, false);
    let mut i = 0usize;
    for _ in 0..nwords {
        let word = r.u64("bitmap word")?;
        for b in 0..64 {
            if i >= len {
                break;
            }
            if word >> b & 1 == 1 {
                bm.set(i, true);
            }
            i += 1;
        }
    }
    Ok(bm)
}

/// Encode a column.
pub fn encode_column(c: &Column, w: &mut Writer) {
    w.u8(c.dtype().wire_tag());
    w.u32(c.len() as u32);
    w.opt(c.validity(), |w, bm| encode_bitmap(bm, w));
    match c {
        Column::Int64(d, _) => d.iter().for_each(|&v| w.i64(v)),
        Column::Float64(d, _) => d.iter().for_each(|&v| w.f64(v)),
        Column::Bool(d, _) => d.iter().for_each(|&v| w.u8(u8::from(v))),
        Column::Utf8(d, _) => d.iter().for_each(|v| w.str(v)),
    }
}

/// Decode a column.
pub fn decode_column(r: &mut Reader<'_>) -> Result<Column> {
    let dtype = r.tag(&DataType::ALL, "column dtype")?;
    let raw = r.u32("column length")?;
    // The smallest encoding of one slot: the value itself, or a string's
    // length prefix.
    let slot = match dtype {
        DataType::Int64 | DataType::Float64 => 8,
        DataType::Bool => 1,
        DataType::Utf8 => 4,
    };
    let len = r.checked_len(raw, slot, "column")?;
    let validity = r.opt("validity", decode_bitmap)?;
    if let Some(bm) = &validity {
        if bm.len() != len {
            return Err(corrupt(format!(
                "validity length {} != column length {len}",
                bm.len()
            )));
        }
    }
    Ok(match dtype {
        DataType::Int64 => {
            let mut d = Vec::with_capacity(len);
            for _ in 0..len {
                d.push(r.i64("i64 slot")?);
            }
            Column::Int64(d, validity)
        }
        DataType::Float64 => {
            let mut d = Vec::with_capacity(len);
            for _ in 0..len {
                d.push(r.f64("f64 slot")?);
            }
            Column::Float64(d, validity)
        }
        DataType::Bool => {
            let mut d = Vec::with_capacity(len);
            for _ in 0..len {
                d.push(r.u8("bool slot")? != 0);
            }
            Column::Bool(d, validity)
        }
        DataType::Utf8 => {
            let mut d = Vec::with_capacity(len.min(u16::MAX as usize));
            for _ in 0..len {
                d.push(r.string("utf8 slot")?);
            }
            Column::Utf8(d, validity)
        }
    })
}

/// Encode a column list: a count, then each column.
fn encode_columns(cols: &[Column], w: &mut Writer) {
    w.list(cols, |w, c| encode_column(c, w));
}

/// Decode a column list; a column is at least its dtype tag, length and
/// validity flag.
fn decode_columns(r: &mut Reader<'_>, what: &str) -> Result<Vec<Column>> {
    r.list(6, what, decode_column)
}

// ---------------------------------------------------------------------------
// Chunks & DataSet
// ---------------------------------------------------------------------------

/// Encode a coordinate-list chunk.
pub fn encode_rows_chunk(c: &RowsChunk, w: &mut Writer) {
    encode_columns(c.columns(), w);
}

/// Decode a coordinate-list chunk.
pub fn decode_rows_chunk(r: &mut Reader<'_>) -> Result<RowsChunk> {
    let cols = decode_columns(r, "rows chunk columns")?;
    RowsChunk::new(cols).map_err(|e| corrupt(format!("bad rows chunk: {e}")))
}

/// Encode a box.
pub fn encode_box(b: &DimBox, w: &mut Writer) {
    w.u32(b.ndims() as u32);
    for d in 0..b.ndims() {
        w.i64(b.lo[d]);
        w.i64(b.hi[d]);
    }
}

/// Decode a box.
pub fn decode_box(r: &mut Reader<'_>) -> Result<DimBox> {
    let dims = r.list(16, "box rank", |r| Ok((r.i64("box lo")?, r.i64("box hi")?)))?;
    let (lo, hi) = dims.into_iter().unzip();
    DimBox::new(lo, hi).map_err(|e| corrupt(format!("bad box: {e}")))
}

/// Encode a dense chunk.
pub fn encode_dense_chunk(c: &DenseChunk, w: &mut Writer) {
    encode_box(c.bounds(), w);
    encode_columns(c.columns(), w);
    w.opt(c.present(), |w, bm| encode_bitmap(bm, w));
}

/// Decode a dense chunk.
pub fn decode_dense_chunk(r: &mut Reader<'_>) -> Result<DenseChunk> {
    let bounds = decode_box(r)?;
    let cols = decode_columns(r, "dense columns")?;
    let present = r.opt("present", decode_bitmap)?;
    DenseChunk::new(bounds, cols, present).map_err(|e| corrupt(format!("bad dense chunk: {e}")))
}

/// Encode a chunk.
pub fn encode_chunk(c: &Chunk, w: &mut Writer) {
    match c {
        Chunk::Rows(rc) => {
            w.u8(0);
            encode_rows_chunk(rc, w);
        }
        Chunk::Dense(dc) => {
            w.u8(1);
            encode_dense_chunk(dc, w);
        }
    }
}

/// Decode a chunk.
pub fn decode_chunk(r: &mut Reader<'_>) -> Result<Chunk> {
    match r.u8("chunk tag")? {
        0 => Ok(Chunk::Rows(decode_rows_chunk(r)?)),
        1 => Ok(Chunk::Dense(decode_dense_chunk(r)?)),
        t => Err(corrupt(format!("bad chunk tag {t}"))),
    }
}

/// Magic prefix on dataset messages (detects cross-protocol confusion).
const DATASET_MAGIC: &[u8; 4] = b"BDA1";

/// Encode a whole dataset into a fresh buffer.
pub fn encode_dataset(ds: &DataSet) -> Vec<u8> {
    let mut w = Writer::with_capacity(64 + ds.estimated_bytes());
    w.bytes(DATASET_MAGIC);
    encode_schema(ds.schema(), &mut w);
    w.list(ds.chunks(), |w, c| encode_chunk(c, w));
    w.into_vec()
}

/// Decode a dataset; the entire input must be consumed.
pub fn decode_dataset(bytes: &[u8]) -> Result<DataSet> {
    let mut r = Reader::new(bytes);
    r.magic(DATASET_MAGIC, "dataset magic")?;
    let schema = decode_schema(&mut r)?;
    // A chunk is at least its tag and column count.
    let chunks = r.list(5, "chunks", decode_chunk)?;
    r.finish("dataset")?;
    Ok(DataSet::new(schema, chunks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::matrix_dataset;

    fn sample_relation() -> DataSet {
        DataSet::from_columns(vec![
            ("k", Column::from(vec![1i64, 2, 3])),
            ("name", Column::from(vec!["alpha", "", "γβ"])),
            ("score", Column::from(vec![1.5f64, f64::NAN, -0.0])),
        ])
        .unwrap()
    }

    fn encoded(write: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::new();
        write(&mut w);
        w.into_vec()
    }

    #[test]
    fn value_roundtrip() {
        let vals = [
            Value::Null,
            Value::Int(-5),
            Value::Float(2.5),
            Value::Float(f64::INFINITY),
            Value::Bool(true),
            Value::from("héllo"),
        ];
        for v in &vals {
            let buf = encoded(|w| encode_value(v, w));
            let mut r = Reader::new(&buf);
            let back = decode_value(&mut r).unwrap();
            assert_eq!(&back, v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn schema_roundtrip() {
        let s = Schema::new(vec![
            Field::dimension_bounded("i", -2, 7),
            Field::dimension("j"),
            Field::value("v", DataType::Float64),
        ])
        .unwrap();
        let buf = encoded(|w| encode_schema(&s, w));
        let back = decode_schema(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn column_with_nulls_roundtrip() {
        let c = Column::from_values(
            DataType::Utf8,
            &[Value::from("a"), Value::Null, Value::from("c")],
        )
        .unwrap();
        let buf = encoded(|w| encode_column(&c, w));
        let back = decode_column(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn dataset_roundtrip_rows() {
        let ds = sample_relation();
        let bytes = encode_dataset(&ds);
        let back = decode_dataset(&bytes).unwrap();
        // NaN-containing columns: compare via sorted rows (total order).
        assert_eq!(back.schema(), ds.schema());
        assert_eq!(
            back.sorted_rows().unwrap().len(),
            ds.sorted_rows().unwrap().len()
        );
        assert!(back.same_bag(&ds).unwrap());
    }

    #[test]
    fn dataset_roundtrip_dense() {
        let ds = matrix_dataset(3, 4, (0..12).map(|i| i as f64).collect()).unwrap();
        let bytes = encode_dataset(&ds);
        let back = decode_dataset(&bytes).unwrap();
        assert!(back.same_bag(&ds).unwrap());
        // Layout must be preserved, not just the bag.
        assert!(matches!(back.chunks()[0], Chunk::Dense(_)));
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut bytes = encode_dataset(&sample_relation());
        bytes[0] = b'X';
        assert!(matches!(
            decode_dataset(&bytes),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = encode_dataset(&sample_relation());
        for cut in [3, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_dataset(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_dataset(&sample_relation());
        bytes.push(0);
        assert!(matches!(
            decode_dataset(&bytes),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn implausible_length_rejected_without_allocation() {
        // A column claiming u32::MAX i64 slots must fail fast, in a tiny
        // buffer and in a 70 MiB one: 8 bytes per slot cannot fit, and
        // reserving the claim would take 32 GiB.
        let mut buf = encoded(|w| {
            w.u8(DataType::Int64.wire_tag());
            w.u32(u32::MAX);
            w.u8(0);
        });
        assert!(decode_column(&mut Reader::new(&buf)).is_err());
        buf.resize(70 << 20, 0);
        assert!(decode_column(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn nesting_stops_at_the_bound() {
        fn descend(r: &mut Reader<'_>) -> Result<usize> {
            r.nested("probe", |r| match r.u8("probe")? {
                0 => Ok(1),
                _ => Ok(1 + descend(r)?),
            })
        }
        let chain = |depth: usize| {
            let mut bytes = vec![1; depth - 1];
            bytes.push(0);
            bytes
        };
        assert_eq!(
            descend(&mut Reader::new(&chain(MAX_NESTING))),
            Ok(MAX_NESTING)
        );
        let err = descend(&mut Reader::new(&chain(MAX_NESTING + 1))).unwrap_err();
        assert!(err.to_string().contains("nests deeper"), "{err}");
    }

    #[test]
    fn bitmap_roundtrip_cross_word() {
        let bits: Vec<bool> = (0..130).map(|i| i % 7 == 0).collect();
        let bm = Bitmap::from_bools(&bits);
        let buf = encoded(|w| encode_bitmap(&bm, w));
        let back = decode_bitmap(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, bm);
    }
}
