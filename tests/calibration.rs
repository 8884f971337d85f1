//! Regression tests for measured-cost calibration (ISSUE 8): with
//! calibration off, plans are byte-identical to the static planner no
//! matter what the process-global cost book has learned; with it on,
//! the planner routes fragments away from a site the book measured
//! slow; and the EWMA fold is deterministic — two books fed the same
//! profiles dump byte-identically.

use std::sync::Arc;

use bda::core::Provider;
use bda::federation::Federation;
use bda::lang::parse_query;
use bda::relational::RelationalEngine;
use bda::storage::{Column, DataSet};
use bda_obs::profile::{CostBook, QueryProfile, SiteProfile};

fn table(n: i64) -> DataSet {
    DataSet::from_columns(vec![
        ("k", Column::from((0..n).collect::<Vec<i64>>())),
        (
            "v",
            Column::from((0..n).map(|i| i as f64).collect::<Vec<f64>>()),
        ),
    ])
    .unwrap()
}

/// Two replicas of `events`; `sluggish` registered first so the static
/// planner's row-count tie-break always picks it.
fn replicated_federation() -> Federation {
    let sluggish = RelationalEngine::new("sluggish");
    sluggish.store("events", table(512)).unwrap();
    let fast = RelationalEngine::new("fast");
    fast.store("events", table(512)).unwrap();
    let mut fed = Federation::new();
    fed.register(Arc::new(sluggish));
    fed.register(Arc::new(fast));
    fed
}

fn site_profile(site: &str, fragment_wall_ns: u64) -> QueryProfile {
    QueryProfile {
        trace_id: 1,
        wall_ns: fragment_wall_ns,
        slow: false,
        ops: Vec::new(),
        sites: vec![SiteProfile {
            site: site.to_string(),
            fragments: 1,
            fragment_wall_ns,
            transfer_bytes: 0,
            transfer_wall_ns: 0,
            retries: 0,
            failovers: 0,
        }],
    }
}

#[test]
fn calibration_off_plans_are_byte_identical_whatever_the_book_learned() {
    let mut fed = replicated_federation();
    fed.options_mut().calibrate = false;
    let plan = parse_query("scan events | where v > 10.0", &|name: &str| {
        fed.registry().schema_of(name).ok()
    })
    .unwrap();

    let before = fed.explain(&plan).unwrap();
    assert!(
        before.contains("sluggish"),
        "static tie-break must pick the first-registered replica:\n{before}"
    );

    // Teach the *process-global* book that `sluggish` is slow. With
    // calibration off this knowledge must change nothing.
    for _ in 0..8 {
        bda_obs::profile::global_costs().observe(&site_profile("sluggish", 30_000_000));
    }
    let after = fed.explain(&plan).unwrap();
    assert_eq!(
        before, after,
        "calibration off must stay byte-identical to the static planner"
    );

    // Calibration on consults the same global book and routes away from
    // the measured-slow replica (the unmeasured one costs an optimistic
    // zero — exploration).
    fed.options_mut().calibrate = true;
    let calibrated = fed.explain(&plan).unwrap();
    assert!(
        calibrated.contains("fast"),
        "calibrated placement must prefer the unmeasured replica:\n{calibrated}"
    );
    assert_ne!(before, calibrated);
}

#[test]
fn ewma_fold_is_deterministic_across_books() {
    let profiles: Vec<QueryProfile> = (0..12)
        .map(|i| site_profile(if i % 2 == 0 { "a" } else { "b" }, 1_000_000 + i * 37_501))
        .collect();
    let one = CostBook::new(9);
    let two = CostBook::new(9);
    for p in &profiles {
        one.observe(p);
        two.observe(p);
    }
    assert_eq!(one.render_json(), two.render_json());
    assert_ne!(
        one.render_json(),
        CostBook::new(9).render_json(),
        "observations must actually land in the dump"
    );
}
