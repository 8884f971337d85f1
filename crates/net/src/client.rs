//! The client side: [`RemoteProvider`] implements `bda_core::Provider`
//! over the framed TCP protocol, so a server living in another process
//! registers in a `Federation` exactly like an in-process engine.
//!
//! Connections are pooled per provider and reused across requests;
//! every request carries read/write timeouts; transient transport
//! failures retry with bounded exponential backoff and ±50% jitter so a
//! burst of clients doesn't retry in lockstep (all requests in the
//! protocol are idempotent, so a retry after a half-done request is
//! safe). A failure on a *pooled* connection — typically a server-side
//! idle close — discards it and redials once within the same attempt.
//! Real wire traffic is counted on atomic counters, which the
//! federation's metrics read to report actual bytes alongside the
//! codec-size byte counts.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use bda_core::{CapabilitySet, CoreError, Plan, Provider};
use bda_storage::{DataSet, Schema};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::frame::{read_message, write_message, FrameError};
use crate::proto::{
    absorb_traced, decode_response, encode_request, trace_wrapped, CatalogEntry, Request, Response,
};
use crate::Result;

/// Bounded retry-with-backoff policy for transport failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Minimum 1.
    pub attempts: u32,
    /// Delay before the second attempt; doubles each retry.
    pub initial_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            initial_backoff: Duration::from_millis(20),
        }
    }
}

/// Connection options for a [`RemoteProvider`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteOptions {
    /// Per-request I/O timeout (connect, read, and write).
    pub timeout: Duration,
    /// Retry policy for transient transport failures.
    pub retry: RetryPolicy,
    /// Maximum idle connections kept in the pool.
    pub pool_capacity: usize,
    /// Seed of the backoff-jitter stream (deterministic per provider).
    pub jitter_seed: u64,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions {
            timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
            pool_capacity: 4,
            jitter_seed: 0xBDA,
        }
    }
}

/// `backoff` scaled by a uniform factor in `[0.5, 1.5)` — the ±50% jitter
/// that de-synchronizes concurrent retriers.
pub fn jittered(backoff: Duration, rng: &mut StdRng) -> Duration {
    backoff.mul_f64(rng.gen_range(0.5..1.5))
}

/// A provider whose engine runs in another process, reached over TCP.
#[derive(Debug)]
pub struct RemoteProvider {
    name: String,
    capabilities: CapabilitySet,
    addr: String,
    opts: RemoteOptions,
    pool: Mutex<Vec<TcpStream>>,
    jitter: Mutex<StdRng>,
    sent: AtomicU64,
    received: AtomicU64,
}

impl RemoteProvider {
    /// Connect to a server at `addr` (`host:port`) with default options.
    /// Performs a `Hello` round trip to learn the server's name and
    /// capabilities.
    pub fn connect(addr: impl Into<String>) -> Result<RemoteProvider> {
        RemoteProvider::connect_with(addr, RemoteOptions::default())
    }

    /// Connect with explicit options.
    pub fn connect_with(addr: impl Into<String>, opts: RemoteOptions) -> Result<RemoteProvider> {
        let mut p = RemoteProvider {
            name: String::new(),
            capabilities: CapabilitySet::new(),
            addr: addr.into(),
            opts,
            pool: Mutex::new(Vec::new()),
            jitter: Mutex::new(StdRng::seed_from_u64(opts.jitter_seed)),
            sent: AtomicU64::new(0),
            received: AtomicU64::new(0),
        };
        match p.request(&Request::Hello)? {
            Response::Hello { name, capabilities } => {
                p.name = name;
                p.capabilities = capabilities;
                Ok(p)
            }
            other => Err(unexpected("Hello", &other)),
        }
    }

    /// The address this provider talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Remote catalog with row counts (one round trip).
    pub fn catalog_entries(&self) -> Result<Vec<CatalogEntry>> {
        match self.request(&Request::Catalog)? {
            Response::Catalog(entries) => Ok(entries),
            other => Err(unexpected("Catalog", &other)),
        }
    }

    /// Fetch the server's metrics registry rendered in Prometheus text
    /// exposition format (one round trip).
    pub fn metrics_text(&self) -> Result<String> {
        match self.request(&Request::Metrics)? {
            Response::Text(text) => Ok(text),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// The server's index listing for `dataset`, parsed from the
    /// `column kind fingerprint` text lines of [`Request::IndexInfo`].
    /// Empty on transport errors or servers predating the request kind.
    fn index_lines(&self, dataset: &str) -> Vec<(String, String, String)> {
        let Ok(Response::Text(text)) = self.request(&Request::IndexInfo {
            name: dataset.to_string(),
        }) else {
            return Vec::new();
        };
        text.lines()
            .filter_map(|line| {
                let mut parts = line.split_whitespace();
                Some((
                    parts.next()?.to_string(),
                    parts.next()?.to_string(),
                    parts.next()?.to_string(),
                ))
            })
            .collect()
    }

    /// Issue one request, retrying transient transport failures with
    /// bounded, jittered exponential backoff. Server-reported *transient*
    /// errors retry too; permanent ones surface immediately as
    /// [`CoreError::Remote`].
    ///
    /// Under an installed [`bda_obs::scope`] the request travels as
    /// [`Request::Traced`], and the spans the server sends back — from
    /// every attempt, failed ones included — join the scope's trace under
    /// its current parent, anchored at the attempt's send time.
    pub fn request(&self, req: &Request) -> Result<Response> {
        let scope = bda_obs::scope::snapshot();
        let (kind, payload) = trace_wrapped(encode_request(req), scope.as_ref());
        let attempts = self.opts.retry.attempts.max(1);
        let mut backoff = self.opts.retry.initial_backoff;
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let delay = {
                    let mut rng = self.jitter.lock().expect("jitter rng poisoned");
                    jittered(backoff, &mut rng)
                };
                std::thread::sleep(delay);
                backoff = backoff.saturating_mul(2);
            }
            let anchor = scope.as_ref().map_or(0, |s| s.tracer.now_ns());
            let reply = self.try_request(kind, &payload);
            match reply.map(|resp| absorb_traced(resp, scope.as_ref(), anchor)) {
                Ok(Response::Error { msg, transient }) => {
                    let err = if transient {
                        CoreError::transient(CoreError::Net(format!(
                            "remote `{}`: {msg}",
                            self.addr
                        )))
                    } else {
                        return Err(CoreError::Remote {
                            addr: self.addr.clone(),
                            msg,
                        });
                    };
                    last = Some(err);
                }
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    last = Some(CoreError::Net(format!(
                        "request to {} failed: {e}",
                        self.addr
                    )))
                }
            }
        }
        let e = last.expect("at least one attempt ran");
        Err(CoreError::Net(format!(
            "request to {} failed after {attempts} attempts: {e}",
            self.addr
        )))
    }

    /// One attempt over one pooled (or fresh) connection. A roundtrip
    /// failure on a pooled connection usually means the server closed it
    /// while idle — discard it and redial once within the same attempt.
    /// Any failure discards the connection; success returns it to the
    /// pool.
    fn try_request(&self, kind: u8, payload: &[u8]) -> std::result::Result<Response, FrameError> {
        let (conn, pooled) = match self.checkout() {
            Some(c) => (c, true),
            None => (self.dial()?, false),
        };
        match self.roundtrip(conn, kind, payload) {
            Err(_) if pooled => self.roundtrip(self.dial()?, kind, payload),
            outcome => outcome,
        }
    }

    /// Send `kind`+`payload` on `conn` and read the response, returning
    /// `conn` to the pool on success.
    fn roundtrip(
        &self,
        mut conn: TcpStream,
        kind: u8,
        payload: &[u8],
    ) -> std::result::Result<Response, FrameError> {
        let outcome = (|| {
            let sent = write_message(&mut conn, kind, payload)?;
            conn.flush_write()?;
            let (rkind, rpayload, received) = read_message(&mut conn)?;
            self.sent.fetch_add(sent, Ordering::Relaxed);
            self.received.fetch_add(received, Ordering::Relaxed);
            decode_response(rkind, &rpayload)
                .map_err(|e| FrameError::Io(std::io::Error::other(e.to_string())))
        })();
        if outcome.is_ok() {
            self.checkin(conn);
        }
        outcome
    }

    fn dial(&self) -> std::io::Result<TcpStream> {
        let addrs: Vec<_> =
            std::net::ToSocketAddrs::to_socket_addrs(&self.addr.as_str())?.collect();
        let addr = addrs
            .first()
            .ok_or_else(|| std::io::Error::other(format!("no address for {}", self.addr)))?;
        let stream = TcpStream::connect_timeout(addr, self.opts.timeout)?;
        stream.set_read_timeout(Some(self.opts.timeout))?;
        stream.set_write_timeout(Some(self.opts.timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn checkout(&self) -> Option<TcpStream> {
        self.pool.lock().ok()?.pop()
    }

    fn checkin(&self, conn: TcpStream) {
        if let Ok(mut pool) = self.pool.lock() {
            if pool.len() < self.opts.pool_capacity {
                pool.push(conn);
            }
        }
    }
}

/// `flush` needs `Write` in scope; a tiny extension keeps call sites tidy.
trait FlushWrite {
    fn flush_write(&mut self) -> std::io::Result<()>;
}

impl FlushWrite for TcpStream {
    fn flush_write(&mut self) -> std::io::Result<()> {
        std::io::Write::flush(self)
    }
}

fn unexpected(what: &str, got: &Response) -> CoreError {
    CoreError::Net(format!("unexpected response to {what}: {got:?}"))
}

impl Provider for RemoteProvider {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> CapabilitySet {
        self.capabilities.clone()
    }

    fn catalog(&self) -> Vec<(String, Schema)> {
        self.catalog_entries()
            .map(|entries| entries.into_iter().map(|e| (e.name, e.schema)).collect())
            .unwrap_or_default()
    }

    fn execute(&self, plan: &Plan) -> Result<DataSet> {
        match self.request(&Request::Execute { plan: plan.clone() })? {
            Response::DataSet(ds) => Ok(ds),
            other => Err(unexpected("Execute", &other)),
        }
    }

    fn store(&self, name: &str, data: DataSet) -> Result<()> {
        match self.request(&Request::Store {
            name: name.to_string(),
            data,
        })? {
            Response::Ack => Ok(()),
            other => Err(unexpected("Store", &other)),
        }
    }

    fn remove(&self, name: &str) {
        let _ = self.request(&Request::Remove {
            name: name.to_string(),
        });
    }

    fn row_count_of(&self, name: &str) -> Option<usize> {
        self.catalog_entries()
            .ok()?
            .into_iter()
            .find(|e| e.name == name)
            .and_then(|e| e.rows)
            .map(|n| n as usize)
    }

    fn build_index(&self, dataset: &str, column: &str, kind: bda_storage::IndexKind) -> Result<()> {
        match self.request(&Request::BuildIndex {
            name: dataset.to_string(),
            column: column.to_string(),
            kind,
        })? {
            Response::Ack => Ok(()),
            other => Err(unexpected("BuildIndex", &other)),
        }
    }

    fn index_specs(&self, dataset: &str) -> Vec<bda_storage::IndexSpec> {
        self.index_lines(dataset)
            .into_iter()
            .filter_map(|(column, kind, _)| {
                Some(bda_storage::IndexSpec {
                    column,
                    kind: bda_storage::IndexKind::parse(&kind)?,
                })
            })
            .collect()
    }

    fn index_fingerprint(&self, dataset: &str, column: &str) -> Option<u64> {
        self.index_lines(dataset)
            .into_iter()
            .find(|(c, _, _)| c == column)
            .and_then(|(_, _, fp)| u64::from_str_radix(&fp, 16).ok())
    }

    fn endpoint(&self) -> Option<String> {
        Some(self.addr.clone())
    }

    fn execute_push(&self, plan: &Plan, peer_addr: &str, dest_name: &str) -> Option<Result<u64>> {
        Some(
            match self.request(&Request::ExecutePush {
                dest_addr: peer_addr.to_string(),
                dest_name: dest_name.to_string(),
                plan: plan.clone(),
            }) {
                Ok(Response::Pushed { bytes }) => Ok(bytes),
                Ok(other) => Err(unexpected("ExecutePush", &other)),
                Err(e) => Err(e),
            },
        )
    }

    fn wire_bytes(&self) -> (u64, u64) {
        (
            self.sent.load(Ordering::Relaxed),
            self.received.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_stays_within_half_to_three_halves() {
        let base = Duration::from_millis(100);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let d = jittered(base, &mut rng);
            assert!(d >= base / 2 && d < base * 3 / 2, "{d:?}");
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let base = Duration::from_millis(80);
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..32 {
            assert_eq!(jittered(base, &mut a), jittered(base, &mut b));
        }
    }
}
