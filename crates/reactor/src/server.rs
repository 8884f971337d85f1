//! Assembling the serving core: acceptor → shards → admission →
//! executor workers → completions, plus the operational handle that
//! readiness probes and benchmarks talk to.
//!
//! Thread layout for `serve_reactor(engine, bind, opts)`:
//!
//! ```text
//! acceptor ──round-robin──▶ shard 0..N   (event loops, never block)
//!                              │ parse + classify + admit
//!                              ▼
//!                         Admission (bounded priority queues)
//!                              │ next() … finish()
//!                              ▼
//!                         worker 0..M   (decode, execute, encode;
//!                                        at most M-1 in bulk work when
//!                                        the engine serializes stores)
//!                              │ completions + poller.notify()
//!                              ▼
//!                         back to the owning shard, onto the socket
//! ```
//!
//! The workers mount the *same* [`bda_net::RequestHandler`] as the
//! thread-per-connection server, so metrics series, structured log
//! lines, tracing, and push semantics are identical between cores —
//! `--reactor` changes scheduling, not meaning.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bda_core::Provider;
use bda_net::{LogSink, RequestHandler};
use bda_obs::{Health, HealthSource, MetricsHub};

use crate::admission::{Admission, AdmissionConfig, QueueDepths};
use crate::shard::{Completion, ShardConfig, ShardCtx, ShardShared};

/// Tuning for [`serve_reactor`]; `Default` suits tests and small
/// deployments (fields of `0` mean "derive from the machine").
#[derive(Clone)]
pub struct ReactorOptions {
    /// Event-loop shards (`0`: derived, capped at 4 — shards are I/O
    /// bound and cheap, but more than a few is pointless below 10k
    /// connections).
    pub shards: usize,
    /// Executor workers (`0`: one per core, minimum 2). With two or
    /// more over an engine that applies stores one at a time
    /// ([`Provider::serializes_stores`], a durable engine), at most all
    /// but one of them run bulk work (stores, removals) at once, so
    /// reads and operational requests always have a worker that is not
    /// queued behind a store.
    pub workers: usize,
    /// Admission bounds (queue capacity per class).
    pub admission: AdmissionConfig,
    /// Most admitted-but-unanswered requests per connection before the
    /// shard stops reading from it (pipelining backpressure).
    pub max_inflight_per_conn: usize,
    /// Connection cap; beyond it new connections are closed at accept.
    pub max_connections: usize,
    /// Close a connection stuck mid-message longer than this.
    pub stall_timeout: Duration,
    /// Per-request structured logging, as in `ServeOptions`.
    pub log: Option<LogSink>,
    /// Share a metrics hub (ops HTTP server) instead of a fresh one.
    pub metrics: Option<MetricsHub>,
}

impl Default for ReactorOptions {
    fn default() -> Self {
        ReactorOptions {
            shards: 0,
            workers: 0,
            admission: AdmissionConfig::default(),
            max_inflight_per_conn: 64,
            max_connections: 8192,
            stall_timeout: Duration::from_secs(10),
            log: None,
            metrics: None,
        }
    }
}

/// Point-in-time load, for `/readyz` and the saturation bench.
#[derive(Debug, Clone, Copy)]
pub struct Saturation {
    /// Admission queue depths per class.
    pub queues: QueueDepths,
    /// Open connections across all shards.
    pub connections: usize,
    /// The configured connection cap.
    pub max_connections: usize,
}

impl Saturation {
    /// Whether the server is refusing work (shedding requests or
    /// connections); `/readyz` answers 503 while this holds so load
    /// balancers prefer other replicas.
    pub fn overloaded(&self) -> bool {
        self.queues.saturated() || self.connections >= self.max_connections
    }
}

/// A running reactor server; dropping it shuts everything down.
pub struct ReactorHandle {
    addr: SocketAddr,
    metrics: MetricsHub,
    admission: Arc<Admission>,
    live_connections: Arc<AtomicUsize>,
    max_connections: usize,
    shutdown: Arc<AtomicBool>,
    shards: Vec<Arc<ShardShared>>,
    threads: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// The bound address (resolves the port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics hub shards and workers charge (shared cells).
    pub fn metrics(&self) -> MetricsHub {
        self.metrics.clone()
    }

    /// Current load, cheap enough for a probe on every request.
    pub fn saturation(&self) -> Saturation {
        Saturation {
            queues: self.admission.depths(),
            connections: self.live_connections.load(Ordering::SeqCst),
            max_connections: self.max_connections,
        }
    }

    /// A [`HealthSource`] for `bda_obs::serve_ops`: live always, ready
    /// while not [`Saturation::overloaded`] — the reactor's admission
    /// state drives `/readyz` exactly like the federation's circuit
    /// breakers drive the app tier's.
    pub fn health_source(&self) -> HealthSource {
        let admission = Arc::clone(&self.admission);
        let live = Arc::clone(&self.live_connections);
        let max = self.max_connections;
        Arc::new(move || {
            let queues = admission.depths();
            let connections = live.load(Ordering::SeqCst);
            let sat = Saturation {
                queues,
                connections,
                max_connections: max,
            };
            let detail = format!(
                "reactor: queued ops={} interactive={} bulk={} (cap {}) conns={}/{}",
                queues.ops, queues.interactive, queues.bulk, queues.capacity, connections, max
            );
            Health {
                healthy: true,
                ready: !sat.overloaded(),
                detail,
            }
        })
    }

    /// Stop accepting, drain the machinery, and join every thread.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor, the admission queue, and every shard.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        self.admission.close();
        for shard in &self.shards {
            let _ = shard.poller.notify();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn derived_parallelism() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// Serve `engine` on `bind` with the sharded event-loop core. Returns
/// once the listener is bound; everything else runs on background
/// threads until the handle shuts down.
pub fn serve_reactor(
    engine: Arc<dyn Provider>,
    bind: &str,
    opts: ReactorOptions,
) -> std::io::Result<ReactorHandle> {
    let shards_n = if opts.shards == 0 {
        derived_parallelism().min(4)
    } else {
        opts.shards
    };
    let workers_n = if opts.workers == 0 {
        derived_parallelism().max(2)
    } else {
        opts.workers
    };
    let mut admission = Admission::new(opts.admission);
    if workers_n > 1 && engine.serializes_stores() {
        // Workers beyond one in a store would only wait on the
        // engine's lock; keep one for everything else.
        admission = admission.with_bulk_limit(workers_n - 1);
    }
    let admission = Arc::new(admission);
    let handler = Arc::new(RequestHandler::new(
        engine,
        opts.metrics.unwrap_or_default(),
        opts.log,
    )?);
    let metrics = handler.metrics();
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let live_connections = Arc::new(AtomicUsize::new(0));

    let shards: Vec<Arc<ShardShared>> = (0..shards_n)
        .map(|_| ShardShared::new().map(Arc::new))
        .collect::<std::io::Result<_>>()?;

    let mut threads = Vec::new();
    for (index, shared) in shards.iter().enumerate() {
        let ctx = ShardCtx {
            index,
            shared: Arc::clone(shared),
            admission: Arc::clone(&admission),
            config: ShardConfig {
                max_inflight: opts.max_inflight_per_conn.max(1),
                stall_timeout: opts.stall_timeout,
            },
            metrics: metrics.clone(),
            live_connections: Arc::clone(&live_connections),
            shutdown: Arc::clone(&shutdown),
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("bda-reactor-shard-{index}"))
                .spawn(move || crate::shard::run(ctx))?,
        );
    }

    for w in 0..workers_n {
        let admission = Arc::clone(&admission);
        let handler = Arc::clone(&handler);
        let shards = shards.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("bda-reactor-worker-{w}"))
                .spawn(move || worker_loop(admission, handler, shards))?,
        );
    }

    {
        let shards = shards.clone();
        let shutdown = Arc::clone(&shutdown);
        let live = Arc::clone(&live_connections);
        let metrics = metrics.clone();
        let max_connections = opts.max_connections.max(1);
        threads.push(
            std::thread::Builder::new()
                .name("bda-reactor-accept".to_string())
                .spawn(move || {
                    accept_loop(listener, shards, shutdown, live, metrics, max_connections)
                })?,
        );
    }

    Ok(ReactorHandle {
        addr,
        metrics,
        admission,
        live_connections,
        max_connections: opts.max_connections.max(1),
        shutdown,
        shards,
        threads,
    })
}

fn accept_loop(
    listener: TcpListener,
    shards: Vec<Arc<ShardShared>>,
    shutdown: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
    metrics: MetricsHub,
    max_connections: usize,
) {
    let mut next_shard = 0usize;
    while !shutdown.load(Ordering::SeqCst) {
        let conn = match listener.accept() {
            Ok((conn, _)) => conn,
            Err(_) => continue,
        };
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        if live.load(Ordering::SeqCst) >= max_connections {
            // Shed at the door: an immediate close is a retryable
            // transport error to the client's redial machinery, and it
            // costs this process nothing that lingers.
            metrics
                .counter(
                    "bda_reactor_connections_refused_total",
                    "Connections closed at accept by the connection cap.",
                )
                .inc();
            drop(conn);
            continue;
        }
        live.fetch_add(1, Ordering::SeqCst);
        let shard = &shards[next_shard % shards.len()];
        next_shard = next_shard.wrapping_add(1);
        shard.incoming.lock().expect("incoming poisoned").push(conn);
        let _ = shard.poller.notify();
    }
}

/// Executor worker: claim → observe the queue wait → decode, execute and
/// frame via the shared handler → report it finished → hand the
/// completion to the owning shard.
fn worker_loop(
    admission: Arc<Admission>,
    handler: Arc<RequestHandler>,
    shards: Vec<Arc<ShardShared>>,
) {
    let queue_wait = handler.metrics().histogram(
        "bda_reactor_queue_wait_seconds",
        "Time from admission to a worker claiming the request.",
    );
    while let Some(job) = admission.next() {
        queue_wait.observe_ns(job.admitted_at.elapsed().as_nanos() as u64);
        let wire = handler.handle_frame_from(job.kind, &job.payload, job.req_bytes, &job.tenant);
        admission.finish(job.priority);
        let shard = &shards[job.shard];
        shard
            .completions
            .lock()
            .expect("completions poisoned")
            .push(Completion {
                conn: job.conn,
                seq: job.seq,
                wire,
            });
        let _ = shard.poller.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{Plan, Provider, ReferenceProvider};
    use bda_net::{PipelinedClient, RemoteProvider, Request, Response};
    use bda_storage::{Column, DataSet};

    fn sample() -> DataSet {
        DataSet::from_columns(vec![
            ("k", Column::from(vec![1i64, 2, 3, 4])),
            ("v", Column::from(vec![1.0f64, 2.0, 3.0, 4.0])),
        ])
        .unwrap()
    }

    fn reactor(engine: Arc<dyn Provider>) -> ReactorHandle {
        serve_reactor(engine, "127.0.0.1:0", ReactorOptions::default()).unwrap()
    }

    #[test]
    fn remote_provider_works_unchanged_against_the_reactor() {
        let engine = Arc::new(ReferenceProvider::new("ref"));
        engine.store("t", sample()).unwrap();
        let server = reactor(engine);
        let remote = RemoteProvider::connect(server.addr().to_string()).unwrap();
        assert_eq!(remote.name(), "ref");
        let catalog = remote.catalog();
        assert_eq!(catalog.len(), 1);
        let out = remote
            .execute(&Plan::scan("t", catalog[0].1.clone()))
            .unwrap();
        assert_eq!(out.num_rows(), 4);
        remote.store("u", sample()).unwrap();
        assert_eq!(remote.catalog().len(), 2);
        let text = remote.metrics_text().unwrap();
        assert!(text.contains("bda_net_requests_total"), "{text}");
    }

    #[test]
    fn pipelined_clients_overlap_requests() {
        let engine = Arc::new(ReferenceProvider::new("ref"));
        engine.store("t", sample()).unwrap();
        let server = reactor(engine);
        let client = PipelinedClient::connect(&server.addr().to_string()).unwrap();
        let plan = Plan::scan("t", sample().schema().clone());
        let pending: Vec<_> = (0..32)
            .map(|_| {
                client
                    .send(&Request::Execute { plan: plan.clone() })
                    .unwrap()
            })
            .collect();
        for p in pending {
            match p.wait(Duration::from_secs(30)).unwrap() {
                Response::DataSet(ds) => assert_eq!(ds.num_rows(), 4),
                other => panic!("expected dataset, got {other:?}"),
            }
        }
    }

    #[test]
    fn readyz_health_source_reports_saturation_detail() {
        let engine = Arc::new(ReferenceProvider::new("ref"));
        let server = reactor(engine);
        let health = (server.health_source())();
        assert!(health.healthy && health.ready, "{health:?}");
        assert!(
            health.detail.contains("reactor: queued"),
            "{}",
            health.detail
        );
        assert!(!server.saturation().overloaded());
    }

    #[test]
    fn connection_cap_refuses_not_hangs() {
        let engine = Arc::new(ReferenceProvider::new("ref"));
        let server = serve_reactor(
            engine,
            "127.0.0.1:0",
            ReactorOptions {
                max_connections: 2,
                ..ReactorOptions::default()
            },
        )
        .unwrap();
        let addr = server.addr().to_string();
        let _a = RemoteProvider::connect(addr.clone()).unwrap();
        let _b = RemoteProvider::connect(addr.clone()).unwrap();
        // The cap may briefly lag adoption, so allow a few tries: the
        // third client must either fail to connect or fail its first
        // request — never hang.
        let third = RemoteProvider::connect_with(
            addr,
            bda_net::RemoteOptions {
                timeout: Duration::from_secs(2),
                retry: bda_net::RetryPolicy {
                    attempts: 2,
                    initial_backoff: Duration::from_millis(10),
                },
                ..bda_net::RemoteOptions::default()
            },
        );
        match third {
            Err(_) => {}
            Ok(p) => {
                // Connected before the cap caught up: the connection is
                // closed rather than served; a request surfaces an error.
                let r = p.execute(&Plan::scan("t", sample().schema().clone()));
                assert!(r.is_err());
            }
        }
    }

    #[test]
    fn shutdown_joins_every_thread() {
        let engine = Arc::new(ReferenceProvider::new("ref"));
        let mut server = reactor(engine);
        let remote = RemoteProvider::connect(server.addr().to_string()).unwrap();
        drop(remote);
        server.shutdown();
        server.shutdown(); // idempotent
    }
}
