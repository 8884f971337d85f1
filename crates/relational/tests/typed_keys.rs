//! Typed row keys against the boxed `Value` semantics they replace, and
//! the keyed operators against the reference evaluator row for row.
//!
//! `bda_core::keys` must hash exactly as `Value`'s `Hash` does (so hash
//! partition routing is unchanged) and compare exactly as
//! `Value::grouping_eq` does. Built on it, the width-1 `hash_join`,
//! `engine::aggregate` and `engine::distinct` must return the reference
//! evaluator's rows in the reference evaluator's order: left-major join
//! output, first-seen groups.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use bda_core::engine;
use bda_core::keys::{group_rows, hash_rows, rows_eq};
use bda_core::partition::hash_values;
use bda_core::reference::evaluate;
use bda_core::{col, infer_schema, AggExpr, AggFunc, JoinType, Plan};
use bda_relational::join::hash_join;
use bda_storage::{Column, DataSet, DataType, Field, Row, Schema, Value};

const DTYPES: [DataType; 4] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Utf8,
    DataType::Bool,
];

/// A value of `dtype` drawn by `seed` from a small domain, so equal
/// keys are common; one seed in five is a null. Floats include NaN,
/// −0.0 and 0.0, and the integral floats that equal the integers.
fn value_of(dtype: DataType, seed: u8) -> Value {
    if seed.is_multiple_of(5) {
        return Value::Null;
    }
    let k = usize::from(seed / 5);
    match dtype {
        DataType::Int64 => Value::Int(k as i64 % 5 - 1),
        DataType::Float64 => Value::Float([-0.0, 0.0, 0.5, 1.0, 2.0, 3.0, f64::NAN][k % 7]),
        DataType::Utf8 => Value::from(["", "a", "b"][k % 3]),
        DataType::Bool => Value::Bool(k % 2 == 0),
    }
}

/// One of `items`.
fn pick<T: Clone + 'static>(items: Vec<T>) -> impl Strategy<Value = T> {
    (0..items.len()).prop_map(move |i| items[i].clone())
}

/// Up to 24 rows of three slot seeds.
fn arb_seeds() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 3..4), 0..24)
}

/// Two key tables `a` and `b` with the same one to three key columns;
/// column pairs are often Int64 against Float64 (mixed join keys).
fn arb_key_tables() -> impl Strategy<Value = (Vec<Column>, Vec<Column>)> {
    let dtype = || pick(DTYPES.to_vec());
    let pair = prop_oneof![
        2 => Just((DataType::Int64, DataType::Float64)),
        1 => Just((DataType::Float64, DataType::Int64)),
        2 => dtype().prop_map(|t| (t, t)),
        1 => (dtype(), dtype()),
    ];
    (prop::collection::vec(pair, 1..4), arb_seeds(), arb_seeds()).prop_map(|(types, sa, sb)| {
        let columns = |seeds: &[Vec<u8>], side: fn(&(DataType, DataType)) -> DataType| {
            types
                .iter()
                .enumerate()
                .map(|(c, t)| {
                    let vals: Vec<Value> = seeds.iter().map(|r| value_of(side(t), r[c])).collect();
                    Column::from_values(side(t), &vals).unwrap()
                })
                .collect::<Vec<_>>()
        };
        (columns(&sa, |t| t.0), columns(&sb, |t| t.1))
    })
}

fn refs(cols: &[Column]) -> Vec<&Column> {
    cols.iter().collect()
}

fn boxed_hash(row: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    for v in row {
        v.hash(&mut h);
    }
    h.finish()
}

fn boxed_row(cols: &[Column], i: usize) -> Vec<Value> {
    cols.iter().map(|c| c.get(i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn typed_keys_agree_with_value_hash_and_grouping_eq((a, b) in arb_key_tables()) {
        let (na, nb) = (a[0].len(), b[0].len());
        let (ha, hb) = (hash_rows(&refs(&a), na), hash_rows(&refs(&b), nb));
        for (i, h) in ha.iter().enumerate() {
            let row = boxed_row(&a, i);
            prop_assert_eq!(*h, boxed_hash(&row));
            prop_assert_eq!(*h, hash_values(&row.iter().collect::<Vec<_>>()));
        }
        for (i, hi) in ha.iter().enumerate() {
            let x = boxed_row(&a, i);
            for (j, hj) in hb.iter().enumerate() {
                let y = boxed_row(&b, j);
                let boxed = x.iter().zip(&y).all(|(p, q)| p.grouping_eq(q));
                prop_assert_eq!(rows_eq(&refs(&a), i, &refs(&b), j), boxed, "{:?} vs {:?}", x, y);
                if boxed {
                    prop_assert_eq!(hi, hj, "equal keys must hash equally");
                }
            }
        }
        let groups = group_rows(&refs(&a), na);
        let mut firsts: Vec<usize> = Vec::new();
        for i in 0..na {
            let x = boxed_row(&a, i);
            let g = firsts
                .iter()
                .position(|&f| boxed_row(&a, f).iter().zip(&x).all(|(p, q)| p.grouping_eq(q)));
            let g = g.unwrap_or_else(|| {
                firsts.push(i);
                firsts.len() - 1
            });
            prop_assert_eq!(groups.ids[i], g);
        }
        prop_assert_eq!(groups.firsts, firsts);
    }
}

fn l_schema() -> Schema {
    Schema::new(vec![
        Field::value("k", DataType::Int64),
        Field::value("s", DataType::Utf8),
        Field::value("v", DataType::Float64),
    ])
    .unwrap()
}

fn r_schema() -> Schema {
    Schema::new(vec![
        Field::value("j", DataType::Float64),
        Field::value("t", DataType::Utf8),
        Field::value("w", DataType::Int64),
    ])
    .unwrap()
}

/// Up to 24 rows of a three-column `schema`.
fn arb_table(schema: Schema) -> impl Strategy<Value = DataSet> {
    arb_seeds().prop_map(move |seeds| {
        let rows: Vec<Row> = seeds
            .iter()
            .map(|r| {
                Row((0..3)
                    .map(|c| value_of(schema.field_at(c).dtype, r[c]))
                    .collect())
            })
            .collect();
        DataSet::from_rows(schema.clone(), &rows).unwrap()
    })
}

fn arb_on() -> impl Strategy<Value = Vec<(&'static str, &'static str)>> {
    pick(vec![
        vec![("k", "j")],
        vec![("k", "j"), ("s", "t")],
        vec![("v", "w")],
        vec![("s", "t")],
        vec![],
    ])
}

fn tables(l: &DataSet, r: &DataSet) -> BTreeMap<String, DataSet> {
    BTreeMap::from([("l".to_string(), l.clone()), ("r".to_string(), r.clone())])
}

fn join_plan(on: &[(&str, &str)], jt: JoinType) -> Plan {
    Plan::scan("l", l_schema()).join_as(Plan::scan("r", r_schema()), on.to_vec(), jt)
}

fn engine_join(l: &DataSet, r: &DataSet, on: &[(&str, &str)], jt: JoinType) -> Vec<Row> {
    let schema = infer_schema(&join_plan(on, jt)).unwrap();
    let on: Vec<(String, String)> = on
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    hash_join(l, r, &on, jt, schema).unwrap().rows().unwrap()
}

fn reference(plan: &Plan, src: &BTreeMap<String, DataSet>) -> Vec<Row> {
    evaluate(plan, src).unwrap().rows().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn joins_equal_the_reference_row_for_row(
        l in arb_table(l_schema()),
        r in arb_table(r_schema()),
        on in arb_on(),
    ) {
        let src = tables(&l, &r);
        for jt in [JoinType::Inner, JoinType::Semi, JoinType::Anti] {
            prop_assert_eq!(
                engine_join(&l, &r, &on, jt),
                reference(&join_plan(&on, jt), &src),
                "{:?} on {:?}", jt, on
            );
        }
        // Left join: the matched pairs left-major, then the unmatched
        // left rows in input order, padded with nulls.
        let mut expect = reference(&join_plan(&on, JoinType::Inner), &src);
        let pad = Row(vec![Value::Null; r_schema().len()]);
        expect.extend(
            reference(&join_plan(&on, JoinType::Anti), &src)
                .iter()
                .map(|row| row.concat(&pad)),
        );
        prop_assert_eq!(engine_join(&l, &r, &on, JoinType::Left), expect);
    }

    #[test]
    fn aggregate_and_distinct_equal_the_reference_row_for_row(
        t in arb_table(l_schema()),
        group_by in pick(vec![
            vec!["k"], vec!["s"], vec!["v"], vec!["k", "s"], vec!["s", "v", "k"], vec![],
        ]),
    ) {
        let src = BTreeMap::from([("l".to_string(), t.clone())]);
        let aggs = vec![
            AggExpr::new(AggFunc::Sum, col("v"), "sv"),
            AggExpr::count_star("n"),
            AggExpr::new(AggFunc::Min, col("s"), "mn"),
            AggExpr::new(AggFunc::Max, col("k"), "mx"),
            AggExpr::new(AggFunc::Avg, col("v"), "av"),
            AggExpr::new(AggFunc::Count, col("k"), "nk"),
        ];
        let plan = Plan::scan("l", l_schema()).aggregate(group_by.clone(), aggs.clone());
        let keys: Vec<String> = group_by.iter().map(|g| g.to_string()).collect();
        let ours = engine::aggregate(&t, &keys, &aggs, infer_schema(&plan).unwrap()).unwrap();
        prop_assert_eq!(ours.rows().unwrap(), reference(&plan, &src), "group by {:?}", group_by);

        let plan = Plan::scan("l", l_schema()).distinct();
        let ours = engine::distinct(&t, l_schema()).unwrap();
        prop_assert_eq!(ours.rows().unwrap(), reference(&plan, &src));
    }
}
