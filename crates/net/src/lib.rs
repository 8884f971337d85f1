//! # `bda-net`: a real TCP transport for the federation
//!
//! In process, `bda-federation` counts the bytes and messages a transfer
//! would put on the wire. This crate makes the federation run
//! **multi-process**: any registered engine can be served behind a
//! TCP listener ([`serve`] or the `bda-served` binary), and the
//! application tier reaches it through a [`RemoteProvider`] that
//! implements `bda_core::Provider` — so remote engines register in a
//! `Federation` exactly like in-process ones.
//!
//! Three layers:
//!
//! * [`frame`] — length-prefixed framing with multi-frame reassembly;
//!   strictly checked, panic-free decoding.
//! * [`proto`] — the request/response messages, reusing the existing
//!   plan (`BDAP`) and dataset (`BDA1`) wire codecs as payloads.
//! * [`server`] / [`client`] — a thread-per-connection provider server
//!   and a pooled, retrying client.
//!
//! The server also implements the paper's desideratum 4 for real: an
//! `ExecutePush` request makes it deliver its result *directly to a peer
//! server*, so with `TransferMode::RemoteTcp` intermediate results never
//! pass through the application tier, even physically.

pub mod client;
pub mod frame;
pub mod handler;
pub mod pipeline;
pub mod proto;
pub mod server;

pub use client::{jittered, RemoteOptions, RemoteProvider, RetryPolicy};
pub use frame::{
    read_message_limited, FrameError, FLAG_MORE, HEADER_LEN, MAX_FRAME_PAYLOAD, MAX_MESSAGE_BYTES,
};
pub use handler::RequestHandler;
pub use pipeline::{Pending, PipelinedClient};
pub use proto::{CatalogEntry, Request, Response};
pub use server::{
    serve, serve_with, serve_with_faults, LogSink, NetFaults, ServeOptions, ServerHandle,
};

/// Result alias matching the rest of the workspace.
pub type Result<T> = std::result::Result<T, bda_core::CoreError>;

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{col, lit, Plan, Provider, ReferenceProvider};
    use bda_storage::{Column, DataSet};
    use std::sync::Arc;

    fn sample() -> DataSet {
        DataSet::from_columns(vec![
            ("k", Column::from(vec![1i64, 2, 3, 4])),
            ("v", Column::from(vec![1.0f64, 2.0, 3.0, 4.0])),
        ])
        .unwrap()
    }

    #[test]
    fn remote_provider_round_trip() {
        let engine = Arc::new(ReferenceProvider::new("ref"));
        engine.store("t", sample()).unwrap();
        let server = serve(engine, "127.0.0.1:0").unwrap();
        let remote = RemoteProvider::connect(server.addr().to_string()).unwrap();

        assert_eq!(remote.name(), "ref");
        assert!(!remote.capabilities().is_empty());
        let catalog = remote.catalog();
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog[0].0, "t");

        let plan = Plan::scan("t", catalog[0].1.clone()).select(col("v").gt(lit(2.0)));
        let out = remote.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 2);

        remote.store("u", sample()).unwrap();
        assert_eq!(remote.catalog().len(), 2);
        remote.remove("u");
        assert_eq!(remote.catalog().len(), 1);

        let (sent, received) = remote.wire_bytes();
        assert!(sent > 0 && received > 0, "wire bytes counted");
    }

    #[test]
    fn remote_errors_propagate_not_panic() {
        let engine = Arc::new(ReferenceProvider::new("ref"));
        let server = serve(engine, "127.0.0.1:0").unwrap();
        let remote = RemoteProvider::connect(server.addr().to_string()).unwrap();
        let schema = sample().schema().clone();
        let err = remote.execute(&Plan::scan("missing", schema)).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn push_moves_data_server_to_server() {
        let a = Arc::new(ReferenceProvider::new("a"));
        a.store("t", sample()).unwrap();
        let b = Arc::new(ReferenceProvider::new("b"));
        let server_a = serve(a, "127.0.0.1:0").unwrap();
        let server_b = serve(Arc::clone(&b) as Arc<dyn Provider>, "127.0.0.1:0").unwrap();

        let remote_a = RemoteProvider::connect(server_a.addr().to_string()).unwrap();
        let schema = sample().schema().clone();
        let plan = Plan::scan("t", schema).select(col("k").gt(lit(1i64)));
        let pushed = remote_a
            .execute_push(&plan, &server_b.addr().to_string(), "staged")
            .expect("remote providers support push")
            .unwrap();
        assert!(pushed > 0);
        // The data landed on b without touching this process's client.
        let staged = b.execute(&Plan::scan("staged", sample().schema().clone()));
        assert_eq!(staged.unwrap().num_rows(), 3);
    }

    #[test]
    fn connect_to_dead_server_errors_after_retries() {
        // Bind then drop a listener so the port is (very likely) closed.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let opts = RemoteOptions {
            timeout: std::time::Duration::from_millis(200),
            retry: RetryPolicy {
                attempts: 2,
                initial_backoff: std::time::Duration::from_millis(1),
            },
            ..RemoteOptions::default()
        };
        let err = RemoteProvider::connect_with(format!("127.0.0.1:{port}"), opts).unwrap_err();
        assert!(err.to_string().contains("2 attempts"), "{err}");
    }

    #[test]
    fn shutdown_is_idempotent_and_joins() {
        let engine = Arc::new(ReferenceProvider::new("ref"));
        let mut server = serve(engine, "127.0.0.1:0").unwrap();
        server.shutdown();
        server.shutdown();
    }

    #[test]
    fn metrics_endpoint_renders_prometheus_text() {
        let engine = Arc::new(ReferenceProvider::new("ref"));
        engine.store("t", sample()).unwrap();
        let server = serve(engine, "127.0.0.1:0").unwrap();
        let remote = RemoteProvider::connect(server.addr().to_string()).unwrap();
        let plan = Plan::scan("t", sample().schema().clone());
        remote.execute(&plan).unwrap();
        remote.execute(&plan).unwrap();
        let text = remote.metrics_text().unwrap();
        assert!(
            text.contains("bda_net_requests_total{kind=\"execute\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("bda_net_requests_total{kind=\"hello\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE bda_net_requests_total counter"),
            "{text}"
        );
        assert!(
            text.contains("bda_net_request_duration_seconds_count"),
            "{text}"
        );
        assert!(
            text.contains("bda_net_wire_bytes_total{direction=\"received\"}"),
            "{text}"
        );
    }

    /// Run `call` under a trace scope whose parent is a `fragment:0` span,
    /// returning its result, the trace, and that parent's id.
    fn under_scope<T>(call: impl FnOnce() -> T) -> (T, bda_obs::Trace, u64) {
        let tracer = bda_obs::Tracer::new(0xFEED);
        let parent = tracer.start(None, || "fragment:0".into(), "app");
        let id = parent.id().unwrap();
        let out = {
            let _scope = bda_obs::scope::install(&tracer, "app", Some(id));
            call()
        };
        parent.finish();
        (out, tracer.finish(), id)
    }

    #[test]
    fn traced_execute_returns_server_side_spans() {
        let engine = Arc::new(ReferenceProvider::new("ref"));
        engine.store("t", sample()).unwrap();
        let server = serve(engine, "127.0.0.1:0").unwrap();
        let remote = RemoteProvider::connect(server.addr().to_string()).unwrap();
        let plan = Plan::scan("t", sample().schema().clone()).select(col("v").gt(lit(2.0)));
        let (out, trace, parent) = under_scope(|| remote.execute(&plan).unwrap());
        assert_eq!(out.num_rows(), 2);
        let serve_span = trace.spans_named("serve:execute")[0];
        assert_eq!(serve_span.site, "ref");
        assert_eq!(serve_span.rows, Some(2));
        assert_eq!(serve_span.parent, Some(parent), "absorbed under the scope");
        // The reference engine's per-operator spans came along under it.
        let select = trace.spans_named("op:select")[0];
        assert_eq!(select.parent, Some(serve_span.id));
        assert_eq!(trace.spans_named("op:scan")[0].parent, Some(select.id));
    }

    #[test]
    fn traced_errors_still_surface_as_core_errors() {
        let engine = Arc::new(ReferenceProvider::new("ref"));
        let server = serve(engine, "127.0.0.1:0").unwrap();
        let remote = RemoteProvider::connect(server.addr().to_string()).unwrap();
        let plan = Plan::scan("missing", sample().schema().clone());
        let (err, trace, _) = under_scope(|| remote.execute(&plan).unwrap_err());
        assert!(err.to_string().contains("missing"), "{err}");
        // The failed attempt's spans still made it back.
        assert_eq!(trace.spans_named("serve:execute").len(), 1);
    }

    #[test]
    fn request_log_writes_one_line_per_request() {
        let path = std::env::temp_dir().join(format!(
            "bda-served-log-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let engine = Arc::new(ReferenceProvider::new("ref"));
            engine.store("t", sample()).unwrap();
            let server = serve_with(
                engine,
                "127.0.0.1:0",
                ServeOptions {
                    log: Some(LogSink::File(path.clone())),
                    ..ServeOptions::default()
                },
            )
            .unwrap();
            let remote = RemoteProvider::connect(server.addr().to_string()).unwrap();
            remote
                .execute(&Plan::scan("t", sample().schema().clone()))
                .unwrap();
            let missing = Plan::scan("missing", sample().schema().clone());
            remote.execute(&missing).unwrap_err();
        }
        let log = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = log.lines().collect();
        // Hello + 1 ok execute + 3 failed execute attempts (client retries).
        assert!(lines.len() >= 3, "{log}");
        let ok = lines
            .iter()
            .find(|l| l.contains("kind=execute") && l.contains("outcome=ok"))
            .expect("successful execute logged");
        for key in [
            "server=ref",
            "dur_us=",
            "req_bytes=",
            "resp_bytes=",
            "traced=false",
        ] {
            assert!(ok.contains(key), "{ok}");
        }
        assert!(
            lines
                .iter()
                .any(|l| l.contains("kind=execute") && l.contains("outcome=error")),
            "{log}"
        );
    }
}
