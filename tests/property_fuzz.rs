//! Decoder robustness: the wire codecs must never panic or abort, whatever
//! bytes arrive — corrupt input from a misbehaving peer yields `Err`, not
//! UB, a stack overflow or a failed allocation. Every codec reads through
//! `bda_storage::wire::Reader`, which holds the limits: reads checked
//! against the bytes remaining, element counts checked against the bytes
//! they need, and nesting bounded by `MAX_NESTING`. Random bytes rarely
//! reach those limits, so the inputs that used to abort (a 10⁵-deep
//! chain, a column or snapshot claiming 2³²−1 elements) are pinned by
//! targeted tests next to each codec. (Encoding round-trips are covered
//! in `property_equivalence`; this file is pure failure injection.)

use proptest::prelude::*;

use bda::core::codec::{decode_plan, encode_plan};
use bda::core::{col, lit, Plan};
use bda::storage::wire::{decode_dataset, decode_value, encode_dataset, Reader};
use bda::storage::{Column, DataSet, DataType, Field, Schema};

fn sample_plan() -> Plan {
    Plan::scan(
        "t",
        Schema::new(vec![
            Field::dimension_bounded("i", 0, 8),
            Field::value("v", DataType::Float64),
        ])
        .unwrap(),
    )
    .select(col("v").gt(lit(0.0)))
    .limit(3)
}

fn sample_dataset() -> DataSet {
    DataSet::from_columns(vec![
        ("k", Column::from(vec![1i64, 2, 3])),
        ("s", Column::from(vec!["a", "b", "c"])),
    ])
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_dataset_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Whatever happens, it must be an Err or a valid dataset.
        if let Ok(ds) = decode_dataset(&bytes) {
            let _ = ds.rows();
        }
    }

    #[test]
    fn decode_plan_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(p) = decode_plan(&bytes) {
            // A structurally valid decode may still fail type checking.
            let _ = bda::core::infer_schema(&p);
        }
    }

    #[test]
    fn decode_value_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut r = Reader::new(&bytes);
        let _ = decode_value(&mut r);
    }

    #[test]
    fn bitflips_in_valid_plans_never_panic(
        flip_at in 0usize..512,
        flip_bit in 0u8..8,
    ) {
        let mut bytes = encode_plan(&sample_plan());
        if flip_at < bytes.len() {
            bytes[flip_at] ^= 1 << flip_bit;
        }
        if let Ok(p) = decode_plan(&bytes) {
            let _ = bda::core::infer_schema(&p);
        }
    }

    #[test]
    fn bitflips_in_valid_datasets_never_panic(
        flip_at in 0usize..512,
        flip_bit in 0u8..8,
    ) {
        let mut bytes = encode_dataset(&sample_dataset());
        if flip_at < bytes.len() {
            bytes[flip_at] ^= 1 << flip_bit;
        }
        if let Ok(ds) = decode_dataset(&bytes) {
            let _ = ds.rows();
        }
    }

    /// Plans whose selects compare *null-bearing* columns against
    /// literals — the shapes the statistics layer lowers onto zone maps
    /// and indexes — survive arbitrary bitflips without panicking, and
    /// a clean round trip is exact.
    #[test]
    fn bitflips_in_comparison_predicate_plans_never_panic(
        threshold in -5i64..5,
        flip_at in 0usize..512,
        flip_bit in 0u8..8,
        op in 0u8..5,
    ) {
        let schema = Schema::new(vec![
            Field::value("k", DataType::Int64),
            Field::value("v", DataType::Float64),
        ])
        .unwrap();
        let pred = match op {
            0 => col("k").eq(lit(threshold)),
            1 => col("k").lt(lit(threshold)),
            2 => col("k").ge(lit(threshold)),
            3 => col("v").gt(lit(threshold as f64 / 2.0)).and(col("k").is_null().not()),
            _ => col("k").le(lit(threshold)).and(col("v").is_null()),
        };
        let plan = Plan::scan("t", schema).select(pred);
        let clean = encode_plan(&plan);
        prop_assert_eq!(&decode_plan(&clean).unwrap(), &plan);
        let mut bytes = clean;
        if flip_at < bytes.len() {
            bytes[flip_at] ^= 1 << flip_bit;
        }
        if let Ok(p) = decode_plan(&bytes) {
            let _ = bda::core::infer_schema(&p);
        }
    }

    /// Datasets with null slots round-trip exactly and survive bitflips:
    /// a corrupted validity bitmap must decode to `Err` or a readable
    /// dataset, never UB.
    #[test]
    fn bitflips_in_null_bearing_datasets_never_panic(
        flip_at in 0usize..512,
        flip_bit in 0u8..8,
    ) {
        use bda::storage::Value;
        let ds = DataSet::from_columns(vec![
            (
                "k",
                Column::from_values(
                    DataType::Int64,
                    &[Value::Int(1), Value::Null, Value::Int(3)],
                )
                .unwrap(),
            ),
            (
                "v",
                Column::from_values(
                    DataType::Float64,
                    &[Value::Null, Value::Float(f64::NAN), Value::Float(0.5)],
                )
                .unwrap(),
            ),
        ])
        .unwrap();
        let clean = encode_dataset(&ds);
        let back = decode_dataset(&clean).unwrap();
        prop_assert!(back.same_bag(&ds).unwrap());
        let mut bytes = clean;
        if flip_at < bytes.len() {
            bytes[flip_at] ^= 1 << flip_bit;
        }
        if let Ok(ds) = decode_dataset(&bytes) {
            let _ = ds.rows();
        }
    }

    #[test]
    fn truncations_of_valid_messages_fail_cleanly(cut in 0usize..400) {
        let plan_bytes = encode_plan(&sample_plan());
        if cut < plan_bytes.len() {
            prop_assert!(decode_plan(&plan_bytes[..cut]).is_err());
        }
        let data_bytes = encode_dataset(&sample_dataset());
        if cut < data_bytes.len() {
            prop_assert!(decode_dataset(&data_bytes[..cut]).is_err());
        }
    }
}
