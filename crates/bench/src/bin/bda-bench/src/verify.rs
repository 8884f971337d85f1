//! Answer checking. The first answer to each distinct operation is
//! compared, as a bag, with `bda_core::reference::evaluate` over the same
//! generated inputs (floats approximately: engines and the oracle may sum
//! in different orders); every later answer must repeat the first one's
//! row count and order-insensitive checksum bit for bit.

use bda_storage::{DataSet, Row, Value};

/// Relative tolerance for float cells against the reference evaluator.
const FLOAT_TOLERANCE: f64 = 1e-9;

fn row_hash(row: &Row) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for v in &row.0 {
        match v {
            Value::Null => eat(&[0]),
            Value::Int(i) => {
                eat(&[1]);
                eat(&i.to_le_bytes());
            }
            Value::Float(f) => {
                eat(&[2]);
                eat(&f.to_bits().to_le_bytes());
            }
            Value::Bool(b) => eat(&[3, u8::from(*b)]),
            Value::Str(s) => {
                eat(&[4]);
                eat(&(s.len() as u64).to_le_bytes());
                eat(s.as_bytes());
            }
        }
    }
    h
}

/// Row count and a checksum that ignores row order (a wrapping sum of
/// per-row hashes), so chunking and ordering may differ between answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    pub checksum: u64,
}

pub fn fingerprint(ds: &DataSet) -> Result<Fingerprint, String> {
    let rows = ds.rows().map_err(|e| format!("materialize answer: {e}"))?;
    Ok(Fingerprint {
        rows: rows.len(),
        checksum: rows
            .iter()
            .fold(0u64, |acc, r| acc.wrapping_add(row_hash(r))),
    })
}

fn cells_match(got: &Value, want: &Value) -> bool {
    match (got, want) {
        (Value::Float(a), Value::Float(b)) => {
            a == b || (a - b).abs() <= FLOAT_TOLERANCE * a.abs().max(b.abs()).max(1.0)
        }
        (Value::Null, Value::Null) => true,
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Bool(a), Value::Bool(b)) => a == b,
        (Value::Str(a), Value::Str(b)) => a == b,
        _ => false,
    }
}

/// Bag equality with approximate floats: both sides sorted
/// lexicographically, then compared cell by cell. Every workload's answer
/// leads with exact key columns, so near-equal floats cannot reorder rows.
pub fn same_bag_approx(got: &DataSet, want: &DataSet) -> Result<(), String> {
    let names = |ds: &DataSet| -> Vec<String> {
        ds.schema()
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect()
    };
    if names(got) != names(want) {
        return Err(format!(
            "columns {:?}, reference has {:?}",
            names(got),
            names(want)
        ));
    }
    let got = got.sorted_rows().map_err(|e| e.to_string())?;
    let want = want.sorted_rows().map_err(|e| e.to_string())?;
    if got.len() != want.len() {
        return Err(format!("{} rows, reference has {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        if g.len() != w.len() || !g.0.iter().zip(&w.0).all(|(a, b)| cells_match(a, b)) {
            return Err(format!("sorted row {i} is {g:?}, reference has {w:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_storage::Column;

    fn table(k: Vec<i64>, v: Vec<f64>) -> DataSet {
        DataSet::from_columns(vec![("k", Column::from(k)), ("v", Column::from(v))]).unwrap()
    }

    #[test]
    fn fingerprint_ignores_order_but_not_content() {
        let a = fingerprint(&table(vec![1, 2, 3], vec![1.0, 2.0, 3.0])).unwrap();
        let b = fingerprint(&table(vec![3, 1, 2], vec![3.0, 1.0, 2.0])).unwrap();
        let c = fingerprint(&table(vec![1, 2, 3], vec![1.0, 2.0, 3.5])).unwrap();
        let d = fingerprint(&table(vec![1, 2], vec![1.0, 2.0])).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a.rows, d.rows);
    }

    #[test]
    fn approx_bags_tolerate_rounding_and_reject_real_differences() {
        let want = table(vec![1, 2], vec![0.1 + 0.2, 1e12]);
        assert!(same_bag_approx(&table(vec![2, 1], vec![1e12 + 1e-4, 0.3]), &want).is_ok());
        assert!(same_bag_approx(&table(vec![1, 2], vec![0.31, 1e12]), &want).is_err());
        assert!(same_bag_approx(&table(vec![1], vec![0.3]), &want).is_err());
        assert!(same_bag_approx(&table(vec![1, 3], vec![0.3, 1e12]), &want).is_err());
    }
}
