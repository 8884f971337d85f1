//! The five workloads: what each fleet looks like, the data it is loaded
//! with, and the seeded operation stream driven at it. Everything here is
//! a pure function of `(workload, seed, scale)` — the servers see only the
//! generated inputs. Why each workload exists and why it has the sizes it
//! has is recorded in the README beside this crate.

use std::collections::HashMap;

use bda_core::{BinOp, Plan};
use bda_lang::Query;
use bda_storage::dataset::matrix_dataset;
use bda_storage::{Chunk, Column, DataSet, IndexKind, RowsChunk, Schema};

use crate::fleet::ServerSpec;

/// SplitMix64: tiny, seedable, and ours — so generated inputs cannot
/// change when a vendored RNG does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; the modulo bias is far below anything measured.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointLookup,
    StarJoin,
    CrossEngine,
    IteratePower,
    IngestMixed,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::PointLookup,
        Kind::StarJoin,
        Kind::CrossEngine,
        Kind::IteratePower,
        Kind::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PointLookup => "point_lookup",
            Kind::StarJoin => "star_join",
            Kind::CrossEngine => "cross_engine",
            Kind::IteratePower => "iterate_power",
            Kind::IngestMixed => "ingest_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop query clients (each waits for its reply before the
    /// next request). `ingest_mixed` adds its pipelined writer connection
    /// to its one reader, so no workload uses more than two connections.
    pub fn query_clients(self) -> usize {
        match self {
            Kind::PointLookup => 2,
            _ => 1,
        }
    }

    pub fn fleet(self) -> Vec<ServerSpec> {
        let server = |name, engine| ServerSpec {
            name,
            engine,
            durable_reactor: false,
        };
        match self {
            Kind::PointLookup | Kind::StarJoin => vec![server("rel", "relational")],
            Kind::CrossEngine => vec![server("la", "linalg"), server("rel", "relational")],
            Kind::IteratePower => vec![server("la", "linalg")],
            Kind::IngestMixed => vec![ServerSpec {
                name: "rel",
                engine: "relational",
                durable_reactor: true,
            }],
        }
    }
}

/// Sizes, frozen for comparable runs; `--smoke` divides them by 16.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    fn div(self, n: usize) -> usize {
        if self.smoke {
            (n / 16).max(1)
        } else {
            n
        }
    }

    /// `events` rows and chunk count (`point_lookup`, `ingest_mixed`).
    pub fn events_rows(self) -> usize {
        self.div(16_384)
    }
    pub const EVENTS_CHUNKS: usize = 16;

    pub fn sales_rows(self) -> usize {
        self.div(40_960)
    }
    pub fn sales_chunk_rows(self) -> usize {
        self.div(4_096)
    }
    pub fn customers(self) -> usize {
        self.div(5_000)
    }
    pub fn products(self) -> usize {
        self.div(1_000)
    }
    pub fn stores(self) -> usize {
        self.div(50).max(4)
    }

    /// Side of the square `cross_engine` operands (cells scale by 1/16).
    pub fn matrix_side(self) -> usize {
        if self.smoke {
            48
        } else {
            192
        }
    }

    /// Side of the `iterate_power` band matrix.
    pub fn band_side(self) -> usize {
        if self.smoke {
            16
        } else {
            64
        }
    }
    pub const ITERATE_ROUNDS: usize = 24;

    /// Rows of one stored dataset (two 8-byte columns: 16 bytes a row).
    pub fn store_rows(self) -> usize {
        self.div(4_096)
    }
    pub const STORE_NAMES: usize = 192;
    pub const STORE_POOL: usize = 8;
    pub const PIPELINE_DEPTH: usize = 8;

    /// Stores in one recovery drill: below the 64 MiB snapshot threshold,
    /// so recovery is a pure WAL replay.
    pub fn recovery_stores(self) -> usize {
        self.div(256)
    }
}

/// One dataset to load, where, and the index to build on it.
#[derive(Debug, Clone)]
pub struct Table {
    pub server: &'static str,
    pub name: String,
    pub data: DataSet,
    pub index: Option<(&'static str, IndexKind)>,
}

fn rows_dataset(columns: Vec<(&str, Vec<Column>)>) -> DataSet {
    // `columns[c].1[k]` is column c of chunk k.
    let chunks = columns[0].1.len();
    let first: Vec<(&str, Column)> = columns.iter().map(|(n, c)| (*n, c[0].clone())).collect();
    let schema = DataSet::from_columns(first)
        .expect("generated columns agree in length")
        .schema()
        .clone();
    let chunks = (0..chunks)
        .map(|k| {
            let cols = columns.iter().map(|(_, c)| c[k].clone()).collect();
            Chunk::Rows(RowsChunk::new(cols).expect("generated chunk columns agree in length"))
        })
        .collect();
    DataSet::new(schema, chunks)
}

/// Split `0..n` into chunk ranges of `chunk_rows`.
fn chunk_ranges(n: usize, chunk_rows: usize) -> Vec<std::ops::Range<usize>> {
    (0..n)
        .step_by(chunk_rows.max(1))
        .map(|lo| lo..(lo + chunk_rows.max(1)).min(n))
        .collect()
}

fn chunked<T: Clone>(values: &[T], ranges: &[std::ops::Range<usize>]) -> Vec<Column>
where
    Column: From<Vec<T>>,
{
    ranges
        .iter()
        .map(|r| Column::from(values[r.clone()].to_vec()))
        .collect()
}

/// `events(k, bucket, v)`: `k` is a seeded permutation of `0..rows`, so
/// every chunk's zone map spans the whole key range and only the hash
/// index on `k` can answer a point lookup without scanning.
pub fn events_table(seed: u64, scale: Scale) -> Table {
    let rows = scale.events_rows();
    let mut rng = Rng::new(seed ^ 0xE7E7);
    let mut k: Vec<i64> = (0..rows as i64).collect();
    for i in (1..rows).rev() {
        k.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let bucket: Vec<i64> = k.iter().map(|k| k % 16).collect();
    let v: Vec<f64> = (0..rows).map(|_| rng.unit() * 1000.0).collect();
    let ranges = chunk_ranges(rows, rows.div_ceil(Scale::EVENTS_CHUNKS));
    Table {
        server: "rel",
        name: "events".into(),
        data: rows_dataset(vec![
            ("k", chunked(&k, &ranges)),
            ("bucket", chunked(&bucket, &ranges)),
            ("v", chunked(&v, &ranges)),
        ]),
        index: Some(("k", IndexKind::Hash)),
    }
}

const REGIONS: [&str; 4] = ["north", "south", "east", "west"];
const CATEGORIES: [&str; 5] = ["grocery", "tools", "toys", "media", "apparel"];

/// The retail star schema: `sales` (chunked), `customers`, `products`, `stores`.
pub fn star_tables(seed: u64, scale: Scale) -> Vec<Table> {
    let mut rng = Rng::new(seed ^ 0x57A2);
    let (n_sales, n_cust, n_prod, n_store) = (
        scale.sales_rows(),
        scale.customers(),
        scale.products(),
        scale.stores(),
    );
    let one = |c: Column| vec![c];
    let pick = |rng: &mut Rng, from: &[&str], n: usize| -> Vec<String> {
        (0..n)
            .map(|_| from[rng.below(from.len() as u64) as usize].to_string())
            .collect()
    };
    let customers = rows_dataset(vec![
        (
            "customer_id",
            one(Column::from((0..n_cust as i64).collect::<Vec<_>>())),
        ),
        (
            "region",
            one(Column::from(pick(&mut rng, &REGIONS, n_cust))),
        ),
    ]);
    let products = rows_dataset(vec![
        (
            "product_id",
            one(Column::from((0..n_prod as i64).collect::<Vec<_>>())),
        ),
        (
            "category",
            one(Column::from(pick(&mut rng, &CATEGORIES, n_prod))),
        ),
        (
            "price",
            one(Column::from(
                (0..n_prod)
                    .map(|_| 1.0 + rng.below(19_900) as f64 / 100.0)
                    .collect::<Vec<f64>>(),
            )),
        ),
    ]);
    let stores = rows_dataset(vec![
        (
            "store_id",
            one(Column::from((0..n_store as i64).collect::<Vec<_>>())),
        ),
        (
            "store_region",
            one(Column::from(pick(&mut rng, &REGIONS, n_store))),
        ),
    ]);
    let ids = |rng: &mut Rng, below: usize| -> Vec<i64> {
        (0..n_sales)
            .map(|_| rng.below(below as u64) as i64)
            .collect()
    };
    let customer_id = ids(&mut rng, n_cust);
    let product_id = ids(&mut rng, n_prod);
    let store_id = ids(&mut rng, n_store);
    let amount: Vec<f64> = (0..n_sales)
        .map(|_| 0.5 + rng.below(49_950) as f64 / 100.0)
        .collect();
    let quantity: Vec<i64> = (0..n_sales).map(|_| 1 + rng.below(9) as i64).collect();
    let ranges = chunk_ranges(n_sales, scale.sales_chunk_rows());
    let sales = rows_dataset(vec![
        ("customer_id", chunked(&customer_id, &ranges)),
        ("product_id", chunked(&product_id, &ranges)),
        ("store_id", chunked(&store_id, &ranges)),
        ("amount", chunked(&amount, &ranges)),
        ("quantity", chunked(&quantity, &ranges)),
    ]);
    [
        ("sales", sales),
        ("customers", customers),
        ("products", products),
        ("stores", stores),
    ]
    .into_iter()
    .map(|(name, data)| Table {
        server: "rel",
        name: name.into(),
        data,
        index: None,
    })
    .collect()
}

fn seeded_matrix(rng: &mut Rng, n: usize) -> DataSet {
    let data = (0..n * n).map(|_| rng.unit() * 2.0 - 1.0).collect();
    matrix_dataset(n, n, data).expect("n*n cells")
}

/// `a`, `b` dense on `la`; `lookup(row, weight)` on `rel`.
pub fn cross_tables(seed: u64, scale: Scale) -> Vec<Table> {
    let n = scale.matrix_side();
    let mut rng = Rng::new(seed ^ 0xC205);
    let a = seeded_matrix(&mut rng, n);
    let b = seeded_matrix(&mut rng, n);
    let lookup = rows_dataset(vec![
        ("row", vec![Column::from((0..n as i64).collect::<Vec<_>>())]),
        (
            "weight",
            vec![Column::from(
                (0..n).map(|_| 0.5 + rng.unit()).collect::<Vec<f64>>(),
            )],
        ),
    ]);
    let table = |server, name: &str, data| Table {
        server,
        name: name.into(),
        data,
        index: None,
    };
    vec![
        table("la", "a", a),
        table("la", "b", b),
        table("rel", "lookup", lookup),
    ]
}

/// Band matrix `m` (bandwidth 3, seeded jitter on the band), the all-ones
/// start vector `x0`, and the cell-wise scale `s` that keeps 24 rounds of
/// `x <- (m.x) o s` finite (the band's dominant eigenvalue is about 3.2).
pub fn iterate_tables(seed: u64, scale: Scale) -> Vec<Table> {
    let n = scale.band_side();
    let mut rng = Rng::new(seed ^ 0x17E2);
    let mut m = vec![0.0f64; n * n];
    for i in 0..n {
        for j in i.saturating_sub(3)..(i + 4).min(n) {
            m[i * n + j] = (1.0 + 0.1 * rng.unit()) / (1.0 + i.abs_diff(j) as f64);
        }
    }
    let s: Vec<f64> = (0..n).map(|_| 0.29 + 0.04 * rng.unit()).collect();
    let table = |name: &str, data| Table {
        server: "la",
        name: name.into(),
        data,
        index: None,
    };
    vec![
        table("m", matrix_dataset(n, n, m).expect("n*n cells")),
        table("x0", matrix_dataset(n, 1, vec![1.0; n]).expect("n cells")),
        table("s", matrix_dataset(n, 1, s).expect("n cells")),
    ]
}

/// The pool of datasets the ingest writer stores: `store_rows` rows of
/// `(id: i64, x: f64)`, one chunk, 16 user bytes a row.
pub fn store_pool(seed: u64, scale: Scale) -> Vec<DataSet> {
    let rows = scale.store_rows();
    let mut rng = Rng::new(seed ^ 0x5704);
    (0..Scale::STORE_POOL)
        .map(|p| {
            let id: Vec<i64> = (0..rows as i64).map(|i| i * 8 + p as i64).collect();
            let x: Vec<f64> = (0..rows).map(|_| rng.unit()).collect();
            rows_dataset(vec![
                ("id", vec![Column::from(id)]),
                ("x", vec![Column::from(x)]),
            ])
        })
        .collect()
}

/// User bytes of one stored dataset (what the caller asked to keep).
pub fn store_user_bytes(scale: Scale) -> u64 {
    scale.store_rows() as u64 * 16
}

pub fn store_name(i: u64) -> String {
    format!("ingest_{:03}", i % Scale::STORE_NAMES as u64)
}

/// Name → schema of `tables`: what the application's parser resolves against.
pub fn schemas_of(tables: &[Table]) -> HashMap<String, Schema> {
    tables
        .iter()
        .map(|t| (t.name.clone(), t.data.schema().clone()))
        .collect()
}

/// The tables a workload's fleet is loaded with before the window opens.
pub fn tables(kind: Kind, seed: u64, scale: Scale) -> Vec<Table> {
    match kind {
        Kind::PointLookup | Kind::IngestMixed => vec![events_table(seed, scale)],
        Kind::StarJoin => star_tables(seed, scale),
        Kind::CrossEngine => cross_tables(seed, scale),
        Kind::IteratePower => iterate_tables(seed, scale),
    }
}

/// One query operation: its source text (BDL where the language can say
/// it), which of the workload's distinct shapes it is, and — for lookups —
/// the key, so the expected row is known without evaluating anything.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOp {
    pub text: String,
    /// Index among the workload's distinct plans (`usize::MAX` for
    /// lookups, whose distinct plans are as many as there are keys).
    pub variant: usize,
    pub key: Option<i64>,
}

/// Seeded generator of one client's operation stream.
#[derive(Debug, Clone)]
pub struct OpStream {
    kind: Kind,
    scale: Scale,
    rng: Rng,
    issued: u64,
    /// Where in the cycle of variants this client starts.
    offset: u64,
}

impl OpStream {
    pub fn new(kind: Kind, seed: u64, client: usize, scale: Scale) -> OpStream {
        let mut rng = Rng::new(seed ^ ((client as u64 + 1) << 40) ^ 0x0905);
        OpStream {
            kind,
            scale,
            offset: rng.next_u64(),
            rng,
            issued: 0,
        }
    }

    /// How many distinct plan shapes the stream cycles through.
    pub fn variants(kind: Kind) -> usize {
        match kind {
            Kind::PointLookup | Kind::IngestMixed => 0,
            Kind::StarJoin => 4,
            Kind::CrossEngine => 2,
            Kind::IteratePower => 1,
        }
    }

    pub fn next_op(&mut self) -> QueryOp {
        let i = self.issued;
        self.issued += 1;
        match self.kind {
            Kind::PointLookup | Kind::IngestMixed => {
                // 1 in 100 keys is absent, so the empty answer is exercised.
                let rows = self.scale.events_rows() as u64;
                let k = if self.rng.below(100) == 0 {
                    rows + self.rng.below(rows)
                } else {
                    self.rng.below(rows)
                } as i64;
                QueryOp {
                    text: format!("scan events | where k = {k}"),
                    variant: usize::MAX,
                    key: Some(k),
                }
            }
            // Every run sees the same mix of the four selectivities; the
            // seed only chooses where in the cycle a client starts.
            Kind::StarJoin => {
                let variant = (i.wrapping_add(self.offset) % 4) as usize;
                QueryOp {
                    text: star_query(variant),
                    variant,
                    key: None,
                }
            }
            Kind::CrossEngine => {
                let variant = (i.wrapping_add(self.offset) % 2) as usize;
                QueryOp {
                    text: cross_query(variant),
                    variant,
                    key: None,
                }
            }
            Kind::IteratePower => QueryOp {
                text: String::new(),
                variant: 0,
                key: None,
            },
        }
    }
}

/// `quantity >= Q` for `Q = variant + 1`, joined to two dimensions and
/// grouped to at most 20 rows.
pub fn star_query(variant: usize) -> String {
    format!(
        "scan sales | where quantity >= {} \
         | join (scan customers) on customer_id = customer_id \
         | join (scan products) on product_id = product_id \
         | groupby region, category: sum(amount) as total, count(*) as n",
        variant + 1
    )
}

/// Matmul on `la` (operand order alternates), untag, join `lookup` on
/// `rel`, weighted row sums: `matrix_side` rows.
pub fn cross_query(variant: usize) -> String {
    let (l, r) = if variant == 0 { ("a", "b") } else { ("b", "a") };
    format!(
        "scan {l} | matmul (scan {r}) | untag \
         | join (scan lookup) on row = row \
         | select row, v * weight as vw \
         | groupby row: sum(vw) as s"
    )
}

/// 24 fixed rounds of `x <- (m . x) o s`. BDL has no `iterate` stage, so
/// this one workload builds its plan through the fluent `Query` API.
pub fn iterate_plan(schemas: &HashMap<String, Schema>) -> Result<Plan, String> {
    let schema = |name: &str| {
        schemas
            .get(name)
            .cloned()
            .ok_or_else(|| format!("no schema for `{name}`"))
    };
    let (m, x, s) = (schema("m")?, schema("x0")?, schema("s")?);
    Query::scan("x0", x)
        .iterate(Scale::ITERATE_ROUNDS, None, |state| {
            Query::scan("m", m.clone())
                .matmul(state)
                .elemwise(BinOp::Mul, Query::scan("s", s.clone()))
        })
        .map(Query::into_plan)
        .map_err(|e| format!("build iterate plan: {e}"))
}

/// Build the plan for one op the way the application would: parse the
/// BDL text against the catalog's schemas (or build the iterate plan).
pub fn build_plan(
    kind: Kind,
    op: &QueryOp,
    schemas: &HashMap<String, Schema>,
) -> Result<Plan, String> {
    if kind == Kind::IteratePower {
        return iterate_plan(schemas);
    }
    bda_lang::parse_query(&op.text, schemas).map_err(|e| format!("parse `{}`: {e}", op.text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_storage::wire::encode_dataset;

    const FULL: Scale = Scale { smoke: false };
    const SMOKE: Scale = Scale { smoke: true };

    #[test]
    fn op_streams_are_identical_across_constructions_and_differ_by_seed_and_client() {
        for kind in Kind::ALL {
            let take = |seed, client| -> Vec<QueryOp> {
                let mut s = OpStream::new(kind, seed, client, FULL);
                (0..500).map(|_| s.next_op()).collect()
            };
            assert_eq!(take(42, 0), take(42, 0), "{}", kind.name());
            if matches!(kind, Kind::PointLookup | Kind::IngestMixed) {
                assert_ne!(take(42, 0), take(43, 0));
                assert_ne!(take(42, 0), take(42, 1));
            }
        }
    }

    #[test]
    fn generated_tables_are_byte_identical_across_constructions() {
        for kind in Kind::ALL {
            let bytes = |seed| -> Vec<Vec<u8>> {
                tables(kind, seed, SMOKE)
                    .iter()
                    .map(|t| encode_dataset(&t.data))
                    .collect()
            };
            assert_eq!(bytes(7), bytes(7), "{}", kind.name());
            assert_ne!(bytes(7), bytes(8), "{}", kind.name());
        }
        let pool =
            |seed| -> Vec<Vec<u8>> { store_pool(seed, SMOKE).iter().map(encode_dataset).collect() };
        assert_eq!(pool(7), pool(7));
        assert_ne!(pool(7), pool(8));
    }

    #[test]
    fn shapes_follow_the_frozen_sizes() {
        let events = events_table(42, FULL);
        assert_eq!(events.data.num_rows(), 16_384);
        assert_eq!(events.data.chunks().len(), 16);
        let star = star_tables(42, FULL);
        assert_eq!(star[0].data.num_rows(), 40_960);
        assert_eq!(star[0].data.chunks().len(), 10);
        assert_eq!(star[0].data.chunks()[0].len(), 4_096);
        assert_eq!(store_pool(42, FULL)[0].num_rows(), 4_096);
        assert_eq!(store_user_bytes(FULL), 65_536);
        assert_eq!(events_table(42, SMOKE).data.num_rows(), 1_024);
    }

    #[test]
    fn lookups_miss_about_one_time_in_a_hundred_and_variants_cycle_evenly() {
        let mut s = OpStream::new(Kind::PointLookup, 42, 0, FULL);
        let misses = (0..20_000)
            .filter(|_| s.next_op().key.unwrap() >= 16_384)
            .count();
        assert!((120..=280).contains(&misses), "{misses}");
        let mut s = OpStream::new(Kind::StarJoin, 42, 0, FULL);
        let mut seen = [0usize; 4];
        for _ in 0..400 {
            seen[s.next_op().variant] += 1;
        }
        assert_eq!(seen, [100; 4]);
    }

    #[test]
    fn every_query_text_parses_against_its_tables() {
        for kind in [
            Kind::PointLookup,
            Kind::StarJoin,
            Kind::CrossEngine,
            Kind::IteratePower,
        ] {
            let schemas = schemas_of(&tables(kind, 42, SMOKE));
            let mut s = OpStream::new(kind, 42, 0, SMOKE);
            for _ in 0..4 {
                build_plan(kind, &s.next_op(), &schemas).unwrap();
            }
        }
    }
}
