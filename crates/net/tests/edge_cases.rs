//! Transport edge cases: half-written messages, hostile frames, faulty
//! servers, and shutdown races. The invariant under test is always the
//! same — clean errors (or clean recovery), never a panic or a hang.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use bda_core::codec::{decode_expr, decode_plan, encode_expr, encode_plan};
use bda_core::{lit, AggExpr, CapabilitySet, CoreError, Plan, Provider, ReferenceProvider};
use bda_net::{serve, serve_with_faults, NetFaults, RemoteOptions, RemoteProvider, RetryPolicy};
use bda_storage::wire::{Reader, Writer, MAX_NESTING};
use bda_storage::{Column, DataSet, Schema};

fn sample() -> DataSet {
    DataSet::from_columns(vec![
        ("k", Column::from(vec![1i64, 2, 3])),
        ("v", Column::from(vec![1.0f64, 2.0, 3.0])),
    ])
    .unwrap()
}

fn fast_opts() -> RemoteOptions {
    RemoteOptions {
        timeout: Duration::from_secs(2),
        retry: RetryPolicy {
            attempts: 2,
            initial_backoff: Duration::from_millis(1),
        },
        ..RemoteOptions::default()
    }
}

/// A peer that writes part of a request frame and hangs up must not take
/// the server down: the next well-formed client still gets answers.
#[test]
fn half_written_request_leaves_server_healthy() {
    let engine = Arc::new(ReferenceProvider::new("ref"));
    engine.store("t", sample()).unwrap();
    let server = serve(engine, "127.0.0.1:0").unwrap();

    {
        let mut rude = TcpStream::connect(server.addr()).unwrap();
        // A header promising 100 payload bytes, then only 3, then EOF.
        let mut partial = vec![0x02u8, 0x00];
        partial.extend_from_slice(&100u32.to_le_bytes());
        partial.extend_from_slice(b"abc");
        rude.write_all(&partial).unwrap();
        rude.flush().unwrap();
    } // dropped: disconnect mid-message

    let remote = RemoteProvider::connect_with(server.addr().to_string(), fast_opts()).unwrap();
    let out = remote
        .execute(&Plan::scan("t", remote.schema_of("t").unwrap()))
        .unwrap();
    assert_eq!(out.num_rows(), 3);
}

/// Garbage that parses as a frame but not as a request gets an error
/// response (not a dropped connection, not a panic).
#[test]
fn unknown_request_kind_is_reported_not_fatal() {
    let engine = Arc::new(ReferenceProvider::new("ref"));
    let server = serve(engine, "127.0.0.1:0").unwrap();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    bda_net::frame::write_message(&mut conn, 0x7E, b"junk").unwrap();
    conn.flush().unwrap();
    let (kind, payload, _) = bda_net::frame::read_message(&mut conn).unwrap();
    match bda_net::proto::decode_response(kind, &payload).unwrap() {
        bda_net::Response::Error { msg, transient } => {
            assert!(msg.contains("unknown request kind"), "{msg}");
            assert!(!transient, "a protocol violation never retries");
        }
        other => panic!("expected an error response, got {other:?}"),
    }
}

/// One wrapper message's kind and fixed fields: its encoding around an
/// empty-payload leaf, minus the trailing leaf kind byte and u32 length.
fn wrapper_head((kind, payload): (u8, Vec<u8>)) -> (u8, Vec<u8>) {
    (kind, payload[..payload.len() - 5].to_vec())
}

/// A frame nesting `depth` wrappers (`level(i)` is the i-th from the
/// outside) around an empty-payload `leaf` kind, built front to back so
/// the builder itself never recurses.
fn nested_frame(depth: usize, leaf: u8, level: impl Fn(usize) -> (u8, Vec<u8>)) -> (u8, Vec<u8>) {
    let levels: Vec<(u8, Vec<u8>)> = (0..depth).map(level).collect();
    let mut below: usize = levels.iter().map(|(_, head)| head.len() + 5).sum();
    let mut payload = Vec::with_capacity(below);
    for (i, (_, head)) in levels.iter().enumerate() {
        below -= head.len() + 5;
        payload.extend_from_slice(head);
        payload.push(levels.get(i + 1).map_or(leaf, |(k, _)| *k));
        payload.extend_from_slice(&(below as u32).to_le_bytes());
    }
    (levels[0].0, payload)
}

/// `Traced(Pipelined(Traced(…)))` 10 000 deep is ~130 KB — far under the
/// message cap — and must be refused by the wrapper order, not recursed
/// into until a default-sized thread stack overflows and aborts the
/// process.
#[test]
fn deeply_nested_wrapper_frames_are_refused_without_recursing() {
    use bda_net::proto::{decode_request, decode_response, encode_request, encode_response, kind};
    use bda_net::{Request, Response};
    const DEPTH: usize = 10_000;

    let hello = || Box::new(Request::Hello);
    let traced = wrapper_head(encode_request(&Request::Traced {
        trace_id: 0,
        inner: hello(),
    }));
    let pipelined = wrapper_head(encode_request(&Request::Pipelined {
        tag: 0,
        inner: hello(),
    }));
    let (req_kind, req) =
        nested_frame(DEPTH, kind::HELLO, |i| [&traced, &pipelined][i % 2].clone());
    let ack = || Box::new(Response::Ack);
    let r_traced = wrapper_head(encode_response(&Response::Traced {
        spans: vec![],
        inner: ack(),
    }));
    let r_pipelined = wrapper_head(encode_response(&Response::Pipelined {
        tag: 0,
        inner: ack(),
    }));
    let ack_kind = encode_response(&Response::Ack).0;
    let (resp_kind, resp) = nested_frame(DEPTH, ack_kind, |i| {
        [&r_traced, &r_pipelined][i % 2].clone()
    });

    // Both decoders, on a thread with the default stack.
    let frame = req.clone();
    let decoded = std::thread::spawn(move || {
        (
            decode_request(req_kind, &frame).is_err(),
            decode_response(resp_kind, &resp).is_err(),
        )
    })
    .join()
    .expect("decoding stays within a default thread stack");
    assert_eq!(decoded, (true, true));

    // A live server answers the frame with an error (or drops the
    // connection) and keeps serving.
    let server = serve(Arc::new(ReferenceProvider::new("ref")), "127.0.0.1:0").unwrap();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    bda_net::frame::write_message(&mut conn, req_kind, &req).unwrap();
    conn.flush().unwrap();
    if let Ok((kind, payload, _)) = bda_net::frame::read_message(&mut conn) {
        let reply = decode_response(kind, &payload).unwrap();
        assert!(matches!(reply, Response::Error { .. }), "{reply:?}");
    }
    let remote = RemoteProvider::connect_with(server.addr().to_string(), fast_opts()).unwrap();
    assert_eq!(remote.name(), "ref", "Hello still answered");
}

/// A one-row relation for the predicate chains below to filter.
fn one_row() -> Plan {
    let ds = sample();
    Plan::Values {
        schema: ds.schema().clone(),
        rows: ds.rows().unwrap()[..1].to_vec(),
    }
}

/// `Not(Not(…(true)))`, `depth` negations deep, built by splicing bytes:
/// `(one Not head, the leaf)`, taken from the encoding of one negation.
fn not_chain_parts() -> (Vec<u8>, Vec<u8>) {
    let mut w = Writer::new();
    encode_expr(&lit(true).not(), &mut w);
    let one = w.into_vec();
    let mut w = Writer::new();
    encode_expr(&lit(true), &mut w);
    let leaf = w.into_vec();
    assert_eq!(one[one.len() - leaf.len()..], leaf[..]);
    (one[..one.len() - leaf.len()].to_vec(), leaf)
}

fn not_chain(depth: usize) -> Vec<u8> {
    let (head, leaf) = not_chain_parts();
    let mut bytes = head.repeat(depth);
    bytes.extend_from_slice(&leaf);
    bytes
}

/// The plan `Select(not_chain(depth), one_row())` as plan bytes, spliced
/// so that neither building nor encoding it recurses `depth` times.
fn not_chain_plan(depth: usize) -> Vec<u8> {
    let shallow = encode_plan(&one_row().select(lit(true)));
    let (_, leaf) = not_chain_parts();
    // Magic and the Select tag, then the predicate, then the input.
    let at = shallow.windows(leaf.len()).position(|w| w == leaf).unwrap();
    let mut bytes = shallow[..at].to_vec();
    bytes.extend_from_slice(&not_chain(depth));
    bytes.extend_from_slice(&shallow[at + leaf.len()..]);
    bytes
}

/// The `Execute` payload shipping `plan` bytes: one length-prefixed block.
fn execute_payload(plan: &[u8]) -> Vec<u8> {
    let mut payload = (plan.len() as u32).to_le_bytes().to_vec();
    payload.extend_from_slice(plan);
    payload
}

/// A 10⁵-deep unary chain is a few hundred KB, far under any size cap.
/// Decoding it must stop at the nesting bound with an error instead of
/// recursing until a default-sized thread stack overflows and aborts
/// the process — bare, and inside a plan.
#[test]
fn deep_expression_chains_are_refused_without_overflowing_the_stack() {
    const DEPTH: usize = 100_000;
    let expr = not_chain(DEPTH);
    let plan = not_chain_plan(DEPTH);
    let decoded = std::thread::spawn(move || {
        let bare = decode_expr(&mut Reader::new(&expr)).map(|_| ());
        let in_plan = decode_plan(&plan).map(|_| ());
        (bare, in_plan)
    })
    .join()
    .expect("decoding stays within a default thread stack");
    for err in [decoded.0.unwrap_err(), decoded.1.unwrap_err()] {
        assert!(err.to_string().contains("nests deeper"), "{err}");
    }
}

/// A live server answers a 5 000-deep chain (a 10 KB frame) with an
/// error and keeps serving; a chain exactly at the nesting bound decodes,
/// type-checks and executes on the server's connection thread.
#[test]
fn deep_plans_get_an_error_reply_and_the_bound_itself_is_served() {
    use bda_net::proto::{decode_response, kind};
    use bda_net::Response;

    let engine = Arc::new(ReferenceProvider::new("ref"));
    let server = serve(engine, "127.0.0.1:0").unwrap();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let payload = execute_payload(&not_chain_plan(5_000));
    bda_net::frame::write_message(&mut conn, kind::EXECUTE, &payload).unwrap();
    conn.flush().unwrap();
    let (reply_kind, reply, _) = bda_net::frame::read_message(&mut conn).unwrap();
    match decode_response(reply_kind, &reply).unwrap() {
        Response::Error { msg, transient } => {
            assert!(msg.contains("nests deeper"), "{msg}");
            assert!(!transient);
        }
        other => panic!("expected an error response, got {other:?}"),
    }
    let remote = RemoteProvider::connect_with(server.addr().to_string(), fast_opts()).unwrap();
    assert_eq!(remote.name(), "ref", "Hello still answered");

    // The Select, the negations and the literal leaf each take a level.
    let at_bound = |depth: usize| {
        let predicate = (0..depth).fold(lit(true), |e, _| e.not());
        one_row().select(predicate)
    };
    let plan = at_bound(MAX_NESTING - 2);
    assert_eq!(encode_plan(&plan), not_chain_plan(MAX_NESTING - 2));
    let out = remote.execute(&plan).unwrap();
    // An even number of negations of `true` keeps the row.
    assert_eq!(
        out.num_rows(),
        usize::from((MAX_NESTING - 2).is_multiple_of(2))
    );
    let err = remote.execute(&at_bound(MAX_NESTING - 1)).unwrap_err();
    assert!(err.to_string().contains("nests deeper"), "{err}");
}

/// `Range{0, i64::MAX}` passes type checking (lo < hi) but can never be
/// materialized: its row buffer overflows any capacity.
fn oversized_range() -> Plan {
    Plan::Range {
        name: "i".into(),
        lo: 0,
        hi: i64::MAX,
    }
}

/// Every engine that runs `Range`, and the reference evaluator, refuse an
/// oversized range with a plan error instead of aborting on allocation.
#[test]
fn oversized_range_is_a_plan_error_in_every_engine() {
    let engines: [Arc<dyn Provider>; 3] = [
        Arc::new(bda_relational::RelationalEngine::new("rel")),
        Arc::new(bda_array::ArrayEngine::new("arr")),
        Arc::new(ReferenceProvider::new("ref")),
    ];
    for engine in engines {
        match engine.execute(&oversized_range()) {
            Err(CoreError::Plan(msg)) => assert!(msg.contains("range [0, "), "{msg}"),
            other => panic!("{}: expected a plan error, got {other:?}", engine.name()),
        }
    }
}

/// A tiny `Execute` frame carrying an oversized range gets a `Plan`
/// error reply — not a dropped connection — and the server keeps serving.
#[test]
fn oversized_range_gets_an_error_reply_and_the_server_keeps_serving() {
    use bda_net::proto::{decode_response, kind};
    use bda_net::Response;

    let engine = Arc::new(bda_relational::RelationalEngine::new("rel"));
    let server = serve(engine, "127.0.0.1:0").unwrap();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let payload = execute_payload(&encode_plan(&oversized_range()));
    bda_net::frame::write_message(&mut conn, kind::EXECUTE, &payload).unwrap();
    conn.flush().unwrap();
    let (reply_kind, reply, _) = bda_net::frame::read_message(&mut conn).unwrap();
    match decode_response(reply_kind, &reply).unwrap() {
        Response::Error { msg, transient } => {
            assert!(msg.starts_with("plan error: range [0, "), "{msg}");
            assert!(!transient);
        }
        other => panic!("expected an error response, got {other:?}"),
    }
    let remote = RemoteProvider::connect_with(server.addr().to_string(), fast_opts()).unwrap();
    assert_eq!(remote.name(), "rel", "Hello still answered");
}

/// `exchange(scan t, parts, key k)` in the encoding the retired
/// partition marker had (plan tag 24, a u64 partition count, an optional
/// key name, the input), spliced from bytes the current encoder writes.
fn retired_exchange_plan(parts: u64) -> Vec<u8> {
    let scan = encode_plan(&Plan::scan("t", sample().schema().clone()));
    let mut head = Writer::new();
    head.u8(24);
    head.u64(parts);
    head.opt(Some("k"), Writer::str);
    // Magic, then the marker head, then the scan node.
    let mut bytes = scan[..4].to_vec();
    bytes.extend_from_slice(&head.into_vec());
    bytes.extend_from_slice(&scan[4..]);
    bytes
}

/// `merge(aggregate(exchange(scan t, parts, key k)))`: the retired
/// merge marker (plan tag 25) over a grouped aggregate of the above.
fn retired_merge_plan(parts: u64) -> Vec<u8> {
    let scan = Plan::scan("t", sample().schema().clone());
    let scan_node = encode_plan(&scan).len() - 4;
    let agg = encode_plan(&scan.aggregate(vec!["k"], vec![AggExpr::count_star("n")]));
    // Magic, the merge tag, the aggregate up to its input, the exchange.
    let mut bytes = agg[..4].to_vec();
    bytes.push(25);
    bytes.extend_from_slice(&agg[4..agg.len() - scan_node]);
    bytes.extend_from_slice(&retired_exchange_plan(parts)[4..]);
    bytes
}

/// Plan tags 24 and 25 once carried the exchange and merge partition
/// markers, whose partition count came straight off the wire: an
/// `Execute` asking for 2^40 partitions made the relational engine
/// allocate 2^40 buckets and aborted the process. Both tags are now
/// unknown, so that frame gets an error reply and the handler keeps
/// answering; `decode_plan` names the refused tag.
#[test]
fn retired_partition_marker_tags_are_refused() {
    use bda_net::proto::kind;
    use bda_net::{RequestHandler, Response};

    let engine = Arc::new(bda_relational::RelationalEngine::new("rel"));
    engine.store("t", sample()).unwrap();
    let handler = RequestHandler::new(engine, bda_obs::MetricsHub::new(), None).unwrap();
    let execute = |plan: &[u8]| {
        let payload = execute_payload(plan);
        handler.handle_frame(kind::EXECUTE, &payload, payload.len() as u64)
    };
    match execute(&retired_merge_plan(1 << 40)) {
        Response::Error { msg, transient } => {
            assert!(msg.contains("bad plan tag 25"), "{msg}");
            assert!(!transient);
        }
        other => panic!("expected an error response, got {other:?}"),
    }
    assert!(matches!(
        handler.handle_frame(kind::HELLO, &[], 0),
        Response::Hello { .. }
    ));
    let scan = Plan::scan("t", sample().schema().clone());
    let agg = scan.aggregate(vec!["k"], vec![AggExpr::count_star("n")]);
    match execute(&encode_plan(&agg)) {
        Response::DataSet(out) => assert_eq!(out.num_rows(), 3),
        other => panic!("expected a dataset, got {other:?}"),
    }

    for (tag, bytes) in [
        (24, retired_exchange_plan(1 << 40)),
        (25, retired_merge_plan(1 << 40)),
        (24, retired_exchange_plan(2)),
    ] {
        let err = decode_plan(&bytes).unwrap_err();
        assert!(
            err.to_string().contains(&format!("bad plan tag {tag}")),
            "{err}"
        );
    }
}

/// Kind 0x12 once carried a client-chosen tenant id, and each distinct
/// id registered two metric series for good. The kind is retired: a
/// 0x12 frame gets an error reply, mints no series, and both serving
/// cores keep answering on the same connection.
#[test]
fn retired_tenant_kind_is_refused_and_mints_no_series() {
    use bda_net::frame::{read_message, write_message};
    use bda_net::proto::{decode_response, encode_request, kind};
    use bda_net::{Request, Response};

    const FRAMES: usize = 1_000;
    let call = |conn: &mut TcpStream, kind: u8, payload: &[u8]| -> Response {
        write_message(conn, kind, payload).unwrap();
        conn.flush().unwrap();
        let (k, p, _) = read_message(conn).unwrap();
        decode_response(k, &p).unwrap()
    };
    let exposition_lines = |conn: &mut TcpStream| match call(conn, kind::METRICS, &[]) {
        Response::Text(text) => text.lines().count(),
        other => panic!("expected the metrics text, got {other:?}"),
    };
    // The retired layout: tenant id, then a wrapped plain `Hello`.
    let tenant_frame = |i: usize| {
        let mut w = Writer::new();
        w.str(&format!("tenant-{i}"));
        w.u8(kind::HELLO);
        w.block(&[]);
        w.into_vec()
    };
    let refused = |conn: &mut TcpStream, i: usize| match call(conn, 0x12, &tenant_frame(i)) {
        Response::Error { msg, transient } => {
            assert!(msg.contains("unknown request kind 0x12"), "{msg}");
            assert!(!transient, "a protocol violation never retries");
        }
        other => panic!("frame {i}: expected an error response, got {other:?}"),
    };

    let engine = Arc::new(ReferenceProvider::new("ref"));
    engine.store("t", sample()).unwrap();
    let classic = serve(Arc::clone(&engine) as Arc<dyn Provider>, "127.0.0.1:0").unwrap();
    let reactor = bda_reactor::serve_reactor(
        Arc::clone(&engine) as Arc<dyn Provider>,
        "127.0.0.1:0",
        bda_reactor::ReactorOptions::default(),
    )
    .unwrap();
    for addr in [classic.addr(), reactor.addr()] {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_nodelay(true).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        refused(&mut conn, 0);
        // The first scrape charges the `metrics` kind after rendering;
        // the second is the baseline.
        exposition_lines(&mut conn);
        let baseline = exposition_lines(&mut conn);
        for i in 1..FRAMES {
            refused(&mut conn, i);
        }
        assert_eq!(exposition_lines(&mut conn), baseline, "{addr}");

        assert!(
            matches!(call(&mut conn, kind::HELLO, &[]), Response::Hello { .. }),
            "{addr}: Hello still answered"
        );
        let (k, p) = encode_request(&Request::Execute {
            plan: Plan::scan("t", sample().schema().clone()),
        });
        match call(&mut conn, k, &p) {
            Response::DataSet(out) => assert_eq!(out.num_rows(), 3),
            other => panic!("{addr}: expected a dataset, got {other:?}"),
        }
    }
}

/// A server that drops and truncates every response produces clean
/// errors after the client's retries — never a hang.
#[test]
fn always_faulty_server_yields_clean_errors() {
    let engine = Arc::new(ReferenceProvider::new("ref"));
    let server = serve_with_faults(engine, "127.0.0.1:0", NetFaults::new(42, 1.0)).unwrap();
    let err = RemoteProvider::connect_with(server.addr().to_string(), fast_opts()).unwrap_err();
    assert!(err.is_transient(), "transport faults are transient: {err}");
    assert!(err.to_string().contains("2 attempts"), "{err}");
}

/// At a moderate fault rate the client's retry-and-redial machinery
/// grinds through: every request eventually succeeds.
#[test]
fn flaky_server_is_survivable_with_retries() {
    let engine = Arc::new(ReferenceProvider::new("ref"));
    engine.store("t", sample()).unwrap();
    let server = serve_with_faults(engine, "127.0.0.1:0", NetFaults::new(7, 0.3)).unwrap();
    let opts = RemoteOptions {
        timeout: Duration::from_secs(2),
        retry: RetryPolicy {
            attempts: 10,
            initial_backoff: Duration::from_millis(1),
        },
        ..RemoteOptions::default()
    };
    let remote = RemoteProvider::connect_with(server.addr().to_string(), opts).unwrap();
    for _ in 0..10 {
        let out = remote
            .execute(&Plan::scan("t", remote.schema_of("t").unwrap()))
            .unwrap();
        assert_eq!(out.num_rows(), 3);
    }
}

/// An engine that takes its time to answer.
struct SlowProvider {
    inner: ReferenceProvider,
    delay: Duration,
}

impl Provider for SlowProvider {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn capabilities(&self) -> CapabilitySet {
        self.inner.capabilities()
    }
    fn catalog(&self) -> Vec<(String, Schema)> {
        self.inner.catalog()
    }
    fn execute(&self, plan: &Plan) -> Result<DataSet, CoreError> {
        std::thread::sleep(self.delay);
        self.inner.execute(plan)
    }
    fn store(&self, name: &str, data: DataSet) -> Result<(), CoreError> {
        self.inner.store(name, data)
    }
    fn remove(&self, name: &str) {
        self.inner.remove(name)
    }
}

/// Shutting the server down while a request is executing must neither
/// hang the shutdown nor strand the client: the in-flight request is
/// answered, then everything joins.
#[test]
fn shutdown_with_request_in_flight_completes_cleanly() {
    let slow = SlowProvider {
        inner: ReferenceProvider::new("slow"),
        delay: Duration::from_millis(400),
    };
    slow.inner.store("t", sample()).unwrap();
    let mut server = serve(Arc::new(slow), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let remote = RemoteProvider::connect_with(addr, fast_opts()).unwrap();
        let result = remote.execute(&Plan::scan("t", remote.schema_of("t").unwrap()));
        tx.send(result).unwrap();
    });

    // Let the request get in flight, then pull the plug.
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();

    let result = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("client neither hung nor was stranded");
    let out = result.expect("in-flight request is answered before shutdown");
    assert_eq!(out.num_rows(), 3);
    worker.join().unwrap();
}
