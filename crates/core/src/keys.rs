//! Typed row keys: hashing, equality and a hash-chained index over key
//! columns, read in place.
//!
//! Join, aggregate, distinct and the hash partitioner all key rows by a
//! tuple of columns. They read the slots straight out of the columns
//! instead of boxing each key as a `Row` of `Value`s:
//!
//! * [`hash_rows`] feeds each row's slots to one `DefaultHasher` in
//!   exactly the byte stream [`Value`]'s `Hash` feeds, so the hash
//!   equals [`crate::partition::hash_values`] over the boxed row and
//!   partition routing does not depend on which path computed it;
//! * [`rows_eq`] is slot-wise [`Value::grouping_eq`]: an Int equals the
//!   Float it converts to, a NaN equals the same NaN, −0.0 ≠ 0.0, and a
//!   null equals a null (join callers drop null keys before asking);
//! * [`KeyChains`] maps a precomputed hash to a chain of ids threaded
//!   through one `next` vector, so indexing allocates nothing per row;
//! * [`group_rows`] numbers the distinct keys in first-seen order.

use std::cmp::Ordering;
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

use bda_storage::Column;
#[cfg(doc)]
use bda_storage::Value;

/// One hash per row of `cols` (all of length `len`); a row of no columns
/// hashes like the empty tuple.
pub fn hash_rows(cols: &[&Column], len: usize) -> Vec<u64> {
    (0..len)
        .map(|i| {
            let mut h = DefaultHasher::new();
            for c in cols {
                hash_slot(c, i, &mut h);
            }
            h.finish()
        })
        .collect()
}

/// Feed slot `i` to `h` as `Value::hash` feeds the slot's value.
fn hash_slot(c: &Column, i: usize, h: &mut DefaultHasher) {
    if !valid(c, i) {
        0u8.hash(h);
        return;
    }
    match c {
        Column::Int64(d, _) => {
            1u8.hash(h);
            (d[i] as f64).to_bits().hash(h);
        }
        Column::Float64(d, _) => {
            1u8.hash(h);
            d[i].to_bits().hash(h);
        }
        Column::Bool(d, _) => {
            2u8.hash(h);
            d[i].hash(h);
        }
        Column::Utf8(d, _) => {
            3u8.hash(h);
            d[i].hash(h);
        }
    }
}

fn valid(c: &Column, i: usize) -> bool {
    c.validity().is_none_or(|bm| bm.get(i))
}

/// True when row `i` of `cols` has a null in some key column (such a row
/// never matches in a join).
pub fn has_null(cols: &[&Column], i: usize) -> bool {
    cols.iter().any(|c| !valid(c, i))
}

/// Row `i` of `a` equals row `j` of `b` under [`Value::grouping_eq`],
/// slot by slot.
pub fn rows_eq(a: &[&Column], i: usize, b: &[&Column], j: usize) -> bool {
    a.iter().zip(b).all(|(x, y)| slot_eq(x, i, y, j))
}

fn slot_eq(a: &Column, i: usize, b: &Column, j: usize) -> bool {
    match (valid(a, i), valid(b, j)) {
        (true, true) => {}
        (va, vb) => return va == vb,
    }
    let same = |x: f64, y: f64| x.total_cmp(&y) == Ordering::Equal;
    match (a, b) {
        (Column::Int64(x, _), Column::Int64(y, _)) => x[i] == y[j],
        (Column::Float64(x, _), Column::Float64(y, _)) => same(x[i], y[j]),
        (Column::Int64(x, _), Column::Float64(y, _)) => same(x[i] as f64, y[j]),
        (Column::Float64(x, _), Column::Int64(y, _)) => same(x[i], y[j] as f64),
        (Column::Bool(x, _), Column::Bool(y, _)) => x[i] == y[j],
        (Column::Utf8(x, _), Column::Utf8(y, _)) => x[i] == y[j],
        _ => false,
    }
}

/// Bucket placement for keys that already are hashes. `hash_rows` uses
/// SipHash's fixed default keys (routing must repeat across processes),
/// so data can be crafted to share a hash's low and high bits; each
/// table re-mixes its hashes under a random seed so such keys still
/// spread over its buckets.
#[derive(Clone)]
struct Reseeded(u64);

impl Default for Reseeded {
    fn default() -> Self {
        Reseeded(RandomState::new().hash_one(0u8))
    }
}

impl BuildHasher for Reseeded {
    type Hasher = Mixed;

    fn build_hasher(&self) -> Mixed {
        Mixed(self.0)
    }
}

struct Mixed(u64);

impl Hasher for Mixed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("KeyChains only hashes u64 keys")
    }

    /// The splitmix64 finalizer of `seed ^ h`.
    fn write_u64(&mut self, h: u64) {
        let mut z = self.0 ^ h;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

const END: u32 = u32::MAX;

/// Ids chained by hash: each distinct hash heads one chain, and the
/// chain lists its ids in insertion order. Different keys may share a
/// hash, so readers confirm each id with [`rows_eq`].
#[derive(Default)]
pub struct KeyChains {
    /// hash → (first id, last id) of its chain.
    ends: HashMap<u64, (u32, u32), Reseeded>,
    /// id → the next id on its chain, or `END`.
    next: Vec<u32>,
}

impl KeyChains {
    /// Append `id` to the end of the chain for `hash`. Ids are small
    /// (row or group numbers) and each is pushed at most once.
    pub fn push(&mut self, hash: u64, id: usize) {
        if self.next.len() <= id {
            self.next.resize(id + 1, END);
        }
        let id = id as u32;
        match self.ends.get_mut(&hash) {
            Some((_, last)) => {
                self.next[*last as usize] = id;
                *last = id;
            }
            None => {
                self.ends.insert(hash, (id, id));
            }
        }
    }

    /// The ids pushed under `hash`, in insertion order.
    pub fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.ends.get(&hash).map_or(END, |&(first, _)| first);
        std::iter::from_fn(move || {
            (at != END).then(|| {
                let id = at as usize;
                at = self.next[id];
                id
            })
        })
    }
}

/// The distinct keys of `cols` (all of length `len`), numbered in
/// first-seen order.
pub struct Groups {
    /// The group of each row.
    pub ids: Vec<usize>,
    /// The first row of each group, in group order.
    pub firsts: Vec<usize>,
}

/// Group the rows of `cols` by [`rows_eq`]. With no key columns every
/// row falls in one group.
pub fn group_rows(cols: &[&Column], len: usize) -> Groups {
    let hashes = hash_rows(cols, len);
    let mut chains = KeyChains::default();
    let mut ids = Vec::with_capacity(len);
    let mut firsts = Vec::new();
    for (i, &h) in hashes.iter().enumerate() {
        let found = chains.chain(h).find(|&g| rows_eq(cols, firsts[g], cols, i));
        ids.push(found.unwrap_or_else(|| {
            chains.push(h, firsts.len());
            firsts.push(i);
            firsts.len() - 1
        }));
    }
    Groups { ids, firsts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::hash_values;
    use bda_storage::{DataType, Value};

    fn column(dtype: DataType, vals: &[Value]) -> Column {
        Column::from_values(dtype, vals).unwrap()
    }

    #[test]
    fn hashes_match_the_boxed_row_hash() {
        let a = column(
            DataType::Int64,
            &[Value::Int(3), Value::Null, Value::Int(-7)],
        );
        let b = column(
            DataType::Utf8,
            &[Value::from("x"), Value::from(""), Value::Null],
        );
        let hashes = hash_rows(&[&a, &b], 3);
        for (i, h) in hashes.iter().enumerate() {
            assert_eq!(*h, hash_values(&[&a.get(i), &b.get(i)]));
        }
        assert_eq!(hash_rows(&[], 2), vec![hash_values(&[]); 2]);
    }

    #[test]
    fn equality_follows_grouping_eq() {
        let ints = column(DataType::Int64, &[Value::Int(2), Value::Int(0)]);
        let floats = column(
            DataType::Float64,
            &[
                Value::Float(2.0),
                Value::Float(-0.0),
                Value::Float(f64::NAN),
            ],
        );
        assert!(rows_eq(&[&ints], 0, &[&floats], 0));
        assert!(!rows_eq(&[&ints], 1, &[&floats], 1), "0 != -0.0");
        assert!(rows_eq(&[&floats], 2, &[&floats], 2), "NaN groups with NaN");
        let nulls = Column::nulls(DataType::Bool, 1);
        assert!(rows_eq(&[&nulls], 0, &[&nulls], 0));
        assert!(!rows_eq(&[&nulls], 0, &[&ints], 0));
    }

    #[test]
    fn chains_keep_insertion_order_and_groups_first_seen_order() {
        let mut c = KeyChains::default();
        for (h, id) in [(5, 0), (9, 1), (5, 3), (5, 7)] {
            c.push(h, id);
        }
        assert_eq!(c.chain(5).collect::<Vec<_>>(), vec![0, 3, 7]);
        assert_eq!(c.chain(9).collect::<Vec<_>>(), vec![1]);
        assert_eq!(c.chain(4).count(), 0);
        let k = Column::from(vec!["b", "a", "b", "c", "a"]);
        let g = group_rows(&[&k], 5);
        assert_eq!(g.ids, vec![0, 1, 0, 2, 1]);
        assert_eq!(g.firsts, vec![0, 1, 3]);
        assert_eq!(group_rows(&[], 3).firsts, vec![0]);
    }
}
