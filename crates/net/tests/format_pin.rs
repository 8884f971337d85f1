//! Byte pins for every wire and on-disk format: one fixed instance of
//! each message is encoded, its length and crc32 are compared with the
//! values the format has always produced, and the bytes are decoded and
//! re-encoded to the same bytes. Round-trip tests alone would accept a
//! codec change that rewrites both sides; these fail on any changed byte.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use bda_core::codec::{decode_plan, encode_plan};
use bda_core::{
    col, lit, null, AggExpr, AggFunc, BinOp, CapabilitySet, Expr, GraphOp, JoinType, Plan,
};
use bda_durability::crc::crc32;
use bda_durability::record::{decode_op, encode_op, WalOp};
use bda_durability::snapshot::{load_latest, write_snapshot};
use bda_durability::wal::{replay_dir, FsyncPolicy, Wal};
use bda_durability::DiskFaults;
use bda_net::proto::{decode_request, decode_response, encode_request, encode_response};
use bda_net::{CatalogEntry, Request, Response};
use bda_obs::{MetricsHub, Span, SpanEvent};
use bda_storage::wire::{decode_dataset, encode_dataset};
use bda_storage::{DataSet, DataType, Field, IndexKind, IndexSpec, Row, Schema, Value};

/// Fail unless `bytes` is `(len, crc32)`.
fn pin(what: &str, bytes: &[u8], (len, crc): (usize, u32)) {
    assert_eq!(
        (bytes.len(), crc32(bytes)),
        (len, crc),
        "{what}: encoded bytes changed"
    );
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bda-format-pin-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two dimensions plus one value column of each data type, nulls in
/// every value column, stored once as a rows chunk and once dense.
fn dataset() -> DataSet {
    let schema = Schema::new(vec![
        Field::dimension_bounded("i", 0, 3),
        Field::dimension_bounded("j", 0, 2),
        Field::value("n", DataType::Int64),
        Field::value("f", DataType::Float64),
        Field::value("b", DataType::Bool),
        Field::value("s", DataType::Utf8),
    ])
    .unwrap();
    let row = |i: i64, j: i64, n: Value, f: Value, b: Value, s: Value| {
        Row(vec![Value::Int(i), Value::Int(j), n, f, b, s])
    };
    let rows = DataSet::from_rows(
        schema.clone(),
        &[
            row(
                0,
                0,
                Value::Int(-7),
                Value::Float(1.5),
                Value::Bool(true),
                "α".into(),
            ),
            row(
                0,
                1,
                Value::Null,
                Value::Float(-0.0),
                Value::Bool(false),
                Value::Null,
            ),
            row(
                1,
                0,
                Value::Int(i64::MAX),
                Value::Null,
                Value::Null,
                "".into(),
            ),
            row(
                2,
                1,
                Value::Int(3),
                Value::Float(f64::INFINITY),
                Value::Bool(true),
                "x".into(),
            ),
        ],
    )
    .unwrap();
    let dense = rows.to_dense().unwrap();
    let mut chunks = rows.chunks().to_vec();
    chunks.extend(dense.chunks().iter().cloned());
    DataSet::new(schema, chunks)
}

fn small_schema() -> Schema {
    Schema::new(vec![
        Field::dimension_bounded("i", 0, 8),
        Field::dimension("j"),
        Field::value("v", DataType::Float64),
        Field::value("s", DataType::Utf8),
    ])
    .unwrap()
}

/// A plan using every expression tag.
fn predicate_plan() -> Plan {
    let predicate = Expr::Case {
        branches: vec![(col("v").gt(lit(0.5)), lit("hi"))],
        otherwise: Some(Box::new(Expr::Coalesce(vec![col("s"), null()]))),
    }
    .eq(lit("hi"))
    .and(col("i").cast(DataType::Float64).neg().lt(lit(2.0)).not());
    Plan::scan("t", small_schema()).select(predicate)
}

/// A plan using every plan tag (it need not type-check to encode).
fn every_node_plan() -> Plan {
    let s = small_schema();
    let t = || Plan::scan("t", s.clone());
    let edges = || Plan::scan("e", s.clone()).boxed();
    let graphs = [
        GraphOp::PageRank {
            edges: edges(),
            damping: 0.85,
            max_iters: 20,
            epsilon: 1e-9,
        },
        GraphOp::ConnectedComponents {
            edges: edges(),
            max_iters: 7,
        },
        GraphOp::TriangleCount { edges: edges() },
        GraphOp::Degrees { edges: edges() },
        GraphOp::BfsLevels {
            edges: edges(),
            source: -3,
        },
    ];
    let graph = graphs
        .into_iter()
        .map(Plan::Graph)
        .reduce(Plan::union)
        .unwrap();
    let array = Plan::Fill {
        input: Plan::TagDims {
            input: Plan::UntagDims {
                input: Plan::Window {
                    input: Plan::SliceAt {
                        input: Plan::Dice {
                            input: Plan::Permute {
                                input: t().boxed(),
                                order: vec!["i".into()],
                            }
                            .boxed(),
                            ranges: vec![("i".into(), 1, 5)],
                        }
                        .boxed(),
                        dim: "i".into(),
                        index: 2,
                    }
                    .boxed(),
                    radii: vec![("i".into(), 1)],
                    aggs: vec![AggExpr::new(AggFunc::Avg, col("v"), "m")],
                }
                .boxed(),
            }
            .boxed(),
            dims: vec![("i".into(), Some((0, 8))), ("j".into(), None)],
        }
        .boxed(),
        fill: Value::Float(0.0),
    };
    let relational = t()
        .join_as(t(), vec![("i", "i")], JoinType::Left)
        .aggregate(
            vec!["s"],
            vec![
                AggExpr::new(AggFunc::Sum, col("v"), "total"),
                AggExpr::count_star("n"),
            ],
        )
        .distinct()
        .sort_by(vec!["s"])
        .limit(5)
        .rename(vec![("s", "name")])
        .project(vec![("name", col("name"))]);
    let iterate = Plan::Iterate {
        init: Plan::Values {
            schema: s.clone(),
            rows: vec![Row(vec![
                Value::Int(1),
                Value::Int(-1),
                Value::Float(2.0),
                "z".into(),
            ])],
        }
        .boxed(),
        body: Plan::IterState { schema: s.clone() }
            .union(Plan::Range {
                name: "i".into(),
                lo: 0,
                hi: 4,
            })
            .boxed(),
        max_iters: 10,
        epsilon: Some(1e-6),
    };
    relational
        .union(array)
        .union(t().matmul(t()).elemwise(BinOp::Mul, t()))
        .union(graph)
        .union(iterate)
}

fn spans() -> Vec<Span> {
    vec![
        Span {
            id: 1,
            parent: None,
            name: "serve:execute".into(),
            site: "rel".into(),
            start_ns: 10,
            end_ns: 500,
            rows: Some(3),
            bytes: None,
            events: vec![SpanEvent {
                at_ns: 20,
                label: "decoded".into(),
            }],
        },
        Span {
            id: 2,
            parent: Some(1),
            name: "op:scan".into(),
            site: "rel".into(),
            start_ns: 30,
            end_ns: 400,
            rows: None,
            bytes: Some(4096),
            events: vec![],
        },
    ]
}

fn wal_ops() -> Vec<WalOp> {
    vec![
        WalOp::Store {
            name: "t".into(),
            data: dataset(),
        },
        WalOp::Remove {
            name: "gone".into(),
        },
        WalOp::BuildIndex {
            name: "t".into(),
            column: "n".into(),
            kind: IndexKind::Sorted,
        },
    ]
}

#[test]
fn dataset_bytes_are_pinned() {
    let bytes = encode_dataset(&dataset());
    pin("dataset", &bytes, (585, 0x16a8_7236));
    assert_eq!(encode_dataset(&decode_dataset(&bytes).unwrap()), bytes);
}

#[test]
fn plan_bytes_are_pinned() {
    for (what, plan, want) in [
        ("predicate plan", predicate_plan(), (144, 0x7fc8_72e0)),
        ("every-node plan", every_node_plan(), (1150, 0x633b_a8a1)),
    ] {
        let bytes = encode_plan(&plan);
        pin(what, &bytes, want);
        assert_eq!(decode_plan(&bytes).unwrap(), plan, "{what}");
    }
}

#[test]
fn request_bytes_are_pinned() {
    let plan = predicate_plan();
    let wrapped = |inner: Request| Request::Pipelined {
        tag: 0xFEED_0000_0000_BEEF,
        inner: Box::new(Request::Traced {
            trace_id: 0xBDA,
            inner: Box::new(inner),
        }),
    };
    let requests = [
        (Request::Hello, (0, 0)),
        (Request::Execute { plan: plan.clone() }, (148, 0x5f52_7266)),
        (
            Request::ExecutePush {
                dest_addr: "127.0.0.1:7401".into(),
                dest_name: "__bda_frag_0".into(),
                plan: plan.clone(),
            },
            (182, 0x4a77_c837),
        ),
        (
            Request::Store {
                name: "t".into(),
                data: dataset(),
            },
            (594, 0x3f9f_48b4),
        ),
        (Request::Remove { name: "t".into() }, (5, 0xac2a_6b88)),
        (
            Request::BuildIndex {
                name: "t".into(),
                column: "n".into(),
                kind: IndexKind::Hash,
            },
            (11, 0x820c_0f98),
        ),
        (Request::IndexInfo { name: "t".into() }, (5, 0xac2a_6b88)),
        (Request::Catalog, (0, 0)),
        (Request::Metrics, (0, 0)),
        (
            Request::Traced {
                trace_id: 7,
                inner: Box::new(Request::Execute { plan: plan.clone() }),
            },
            (161, 0x6d25_8daf),
        ),
        (
            Request::Pipelined {
                tag: 9,
                inner: Box::new(Request::Hello),
            },
            (13, 0xb581_65da),
        ),
        (wrapped(Request::Execute { plan }), (174, 0xc8e3_6a33)),
    ];
    for (req, want) in requests {
        let (kind, payload) = encode_request(&req);
        pin(&format!("request {kind:#04x}"), &payload, want);
        let back = decode_request(kind, &payload).unwrap();
        assert_eq!(encode_request(&back), (kind, payload), "{req:?}");
    }
}

#[test]
fn response_bytes_are_pinned() {
    let schema = dataset().schema().clone();
    let responses = [
        (
            Response::Hello {
                name: "rel".into(),
                capabilities: CapabilitySet::all_base(),
            },
            (187, 0x7cf8_e007),
        ),
        (Response::DataSet(dataset()), (589, 0xa564_2581)),
        (Response::Ack, (0, 0)),
        (Response::Pushed { bytes: 1234 }, (8, 0xd555_8a1b)),
        (
            Response::Catalog(vec![
                CatalogEntry {
                    name: "t".into(),
                    schema: schema.clone(),
                    rows: Some(8),
                },
                CatalogEntry {
                    name: "u".into(),
                    schema,
                    rows: None,
                },
            ]),
            (196, 0x7e64_a906),
        ),
        (
            Response::Text("# HELP x y\nx 1\n".into()),
            (19, 0x0369_a955),
        ),
        (
            Response::Error {
                msg: "socket hiccup".into(),
                transient: true,
            },
            (18, 0xc7a7_1d3e),
        ),
        (
            Response::Traced {
                spans: spans(),
                inner: Box::new(Response::Ack),
            },
            (160, 0x2274_f69a),
        ),
        (
            Response::Pipelined {
                tag: 42,
                inner: Box::new(Response::Traced {
                    spans: spans(),
                    inner: Box::new(Response::DataSet(dataset())),
                }),
            },
            (762, 0x7fd4_5ba9),
        ),
    ];
    for (resp, want) in responses {
        let (kind, payload) = encode_response(&resp);
        pin(&format!("response {kind:#04x}"), &payload, want);
        let back = decode_response(kind, &payload).unwrap();
        assert_eq!(encode_response(&back), (kind, payload), "{resp:?}");
    }
}

#[test]
fn wal_bytes_are_pinned() {
    let wants = [(595, 0x326d_0445), (9, 0x6f69_a28b), (12, 0x89d4_892d)];
    for (op, want) in wal_ops().iter().zip(wants) {
        let bytes = encode_op(op);
        pin(&format!("wal op {}", op.kind()), &bytes, want);
        assert_eq!(encode_op(&decode_op(&bytes).unwrap()), bytes);
    }

    // The same three ops framed into a segment file.
    let dir = tmp();
    let mut wal = Wal::open(
        &dir,
        &replay_dir(&dir).unwrap(),
        FsyncPolicy::Never,
        DiskFaults::default(),
        MetricsHub::new(),
    )
    .unwrap();
    for op in wal_ops() {
        wal.append(&op).unwrap();
    }
    drop(wal);
    let segment = fs::read(dir.join("seg-0000000001.wal")).unwrap();
    pin("wal segment", &segment, (680, 0x9f34_f2f5));
    let replayed = replay_dir(&dir).unwrap();
    let seqs: Vec<u64> = replayed.records.iter().map(|(seq, _)| *seq).collect();
    assert_eq!(seqs, [1, 2, 3]);
    for ((_, back), op) in replayed.records.iter().zip(wal_ops()) {
        assert_eq!(encode_op(back), encode_op(&op));
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_bytes_are_pinned() {
    let datasets = vec![
        ("t".to_string(), dataset()),
        ("u".to_string(), DataSet::empty(small_schema())),
    ];
    let indexes = vec![
        (
            "t".to_string(),
            IndexSpec {
                column: "n".into(),
                kind: IndexKind::Hash,
            },
        ),
        (
            "t".to_string(),
            IndexSpec {
                column: "s".into(),
                kind: IndexKind::Sorted,
            },
        ),
    ];
    let dir = tmp();
    write_snapshot(&dir, 9, &datasets, &indexes, &DiskFaults::default()).unwrap();
    let file = dir.join(format!("snap-{:020}.snap", 9));
    let bytes = fs::read(&file).unwrap();
    pin("snapshot", &bytes, (717, 0x017e_9e5d));

    // Load it back and write it again: the same file.
    let snap = load_latest(&dir).unwrap().unwrap();
    assert_eq!(snap.covered_seq, 9);
    fs::remove_file(&file).unwrap();
    write_snapshot(
        &dir,
        9,
        &snap.datasets,
        &snap.indexes,
        &DiskFaults::default(),
    )
    .unwrap();
    assert_eq!(fs::read(&file).unwrap(), bytes);
    fs::remove_dir_all(&dir).unwrap();
}
