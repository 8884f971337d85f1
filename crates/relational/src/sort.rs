//! Sort: a permutation-based columnar implementation.

use bda_storage::{Chunk, DataSet, Schema};

use crate::exec::Result;

/// Stable multi-key sort via an index permutation + gather.
pub fn sort_exec(input: &DataSet, keys: &[(String, bool)], out_schema: Schema) -> Result<DataSet> {
    let schema = input.schema().clone();
    let chunk = input.to_rows_chunk()?;
    let key_idx: Vec<(usize, bool)> =
        keys.iter()
            .map(|(k, d)| Ok((schema.index_of(k)?, *d)))
            .collect::<std::result::Result<_, bda_storage::StorageError>>()?;
    let mut perm: Vec<usize> = (0..chunk.len()).collect();
    perm.sort_by(|&a, &b| {
        for &(i, desc) in &key_idx {
            let ord = chunk.column(i).get(a).total_cmp(&chunk.column(i).get(b));
            let ord = if desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(DataSet::new(
        out_schema,
        vec![Chunk::Rows(chunk.take(&perm))],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_storage::{Column, Row, Value};

    fn data() -> DataSet {
        DataSet::from_columns(vec![
            ("k", Column::from(vec![2i64, 1, 2, 1])),
            ("s", Column::from(vec!["b", "z", "a", "z"])),
        ])
        .unwrap()
    }

    #[test]
    fn multi_key_sort_with_directions() {
        let ds = data();
        let out = sort_exec(
            &ds,
            &[("k".into(), false), ("s".into(), true)],
            ds.schema().clone(),
        )
        .unwrap();
        let rows = out.rows().unwrap();
        assert_eq!(rows[0], Row(vec![Value::Int(1), Value::from("z")]));
        assert_eq!(rows[2], Row(vec![Value::Int(2), Value::from("b")]));
        assert_eq!(rows[3], Row(vec![Value::Int(2), Value::from("a")]));
    }

    #[test]
    fn sort_is_stable() {
        let ds = DataSet::from_columns(vec![
            ("k", Column::from(vec![1i64, 1, 1])),
            ("tag", Column::from(vec!["first", "second", "third"])),
        ])
        .unwrap();
        let out = sort_exec(&ds, &[("k".into(), false)], ds.schema().clone()).unwrap();
        let tags: Vec<Value> = out
            .rows()
            .unwrap()
            .iter()
            .map(|r| r.get(1).clone())
            .collect();
        assert_eq!(
            tags,
            vec![
                Value::from("first"),
                Value::from("second"),
                Value::from("third")
            ]
        );
    }
}
