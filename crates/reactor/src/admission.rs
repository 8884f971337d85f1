//! Admission control: every parsed request passes through here before
//! any CPU is spent on it. Three strict priority classes — operational
//! traffic (health, catalog, metrics) ahead of interactive queries ahead
//! of bulk data movement — each with a bounded FIFO queue.
//!
//! Classification reads exactly one byte (the frame kind, via
//! [`bda_net::proto::peek_pipelined`] for tagged requests), so a request
//! carrying a 100 MB dataset costs nothing to classify and can be shed
//! without ever being decoded.
//!
//! A full queue is not an error state — it is the *load-shedding
//! signal*. The shard answers the request immediately with a transient
//! [`bda_net::Response::Error`], which existing clients already treat as
//! retry-with-backoff and circuit-breaker fodder. Shed early, answer
//! fast, never hang.
//!
//! Bulk work can be capped: [`Admission::with_bulk_limit`] lets at most
//! that many bulk jobs run at once, and a worker that could only claim
//! bulk past the cap waits for other work. The reactor caps bulk at one
//! fewer than its workers when the engine applies stores one at a time
//! (a durable engine's WAL lock), so a lookup always finds a worker
//! that is not queued behind a store.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use bda_net::proto::kind;

/// Strict scheduling classes, highest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Health, catalog, metrics: tiny, operator-facing, must work even
    /// (especially) under overload.
    Ops = 0,
    /// Queries someone is waiting on.
    Interactive = 1,
    /// Data movement: stores, partition staging, removals.
    Bulk = 2,
}

impl Priority {
    /// The metrics label for this class.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Ops => "ops",
            Priority::Interactive => "interactive",
            Priority::Bulk => "bulk",
        }
    }
}

/// Classify a request by its frame kind byte (for pipelined requests,
/// the *inner* kind from the peek). Unknown kinds go to `Interactive`
/// so malformed requests still reach the handler and get their error
/// reply.
pub fn classify(kind_byte: u8) -> Priority {
    match kind_byte {
        kind::HELLO | kind::CATALOG | kind::METRICS => Priority::Ops,
        kind::STORE | kind::REMOVE => Priority::Bulk,
        _ => Priority::Interactive,
    }
}

/// One admitted-but-not-yet-executed request, owned by the scheduler
/// until an executor worker claims it.
#[derive(Debug)]
pub struct Job {
    /// Which shard the connection lives on.
    pub shard: usize,
    /// The shard-local connection key (never reused).
    pub conn: u64,
    /// In-order release slot for untagged requests (`None` for tagged
    /// pipelined requests, which may complete out of order).
    pub seq: Option<u64>,
    /// The frame kind byte as read off the wire.
    pub kind: u8,
    /// The undecoded message payload.
    pub payload: Vec<u8>,
    /// Framed size on the wire, for the handler's byte accounting.
    pub req_bytes: u64,
    /// The peer address, for the request log and flight-recorder lines.
    pub tenant: String,
    /// The class this job was admitted under.
    pub priority: Priority,
    /// When admission accepted the job; the claiming worker observes
    /// the queue wait from this instant.
    pub admitted_at: Instant,
}

/// Bounds for the scheduler.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Capacity of each class queue.
    pub queue_capacity: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 256,
        }
    }
}

struct State {
    queues: [VecDeque<Job>; 3],
    closed: bool,
    /// Bulk jobs claimed and not yet [finished](Admission::finish).
    bulk_running: usize,
}

/// Point-in-time scheduler fullness, surfaced through `/readyz` and the
/// saturation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueDepths {
    pub ops: usize,
    pub interactive: usize,
    pub bulk: usize,
    /// Capacity of each individual class queue.
    pub capacity: usize,
}

impl QueueDepths {
    /// Total queued across classes.
    pub fn total(&self) -> usize {
        self.ops + self.interactive + self.bulk
    }

    /// True when any class queue is full — the server is actively
    /// shedding that class, so a load balancer should prefer other
    /// replicas (`/readyz` turns 503).
    pub fn saturated(&self) -> bool {
        self.ops >= self.capacity || self.interactive >= self.capacity || self.bulk >= self.capacity
    }
}

/// The bounded priority scheduler between shards (producers) and
/// executor workers (consumers).
pub struct Admission {
    config: AdmissionConfig,
    /// Most bulk jobs that run at once (`usize::MAX`: no cap).
    bulk_limit: usize,
    state: Mutex<State>,
    available: Condvar,
}

impl Admission {
    pub fn new(config: AdmissionConfig) -> Admission {
        Admission {
            config,
            bulk_limit: usize::MAX,
            state: Mutex::new(State {
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                closed: false,
                bulk_running: 0,
            }),
            available: Condvar::new(),
        }
    }

    /// Let at most `limit` (at least one) bulk jobs run at once. A bulk
    /// job past the cap stays queued until [`Admission::finish`]
    /// reports a running one done; the other classes are claimed as
    /// usual meanwhile.
    pub fn with_bulk_limit(mut self, limit: usize) -> Admission {
        self.bulk_limit = limit.max(1);
        self
    }

    /// Offer a job. `Err` hands the job back when its class queue is
    /// full (or the scheduler closed); the caller answers the connection
    /// with a transient error.
    pub fn submit(&self, job: Job) -> Result<(), Job> {
        let mut state = self.state.lock().expect("admission state poisoned");
        let class = job.priority as usize;
        if state.closed || state.queues[class].len() >= self.config.queue_capacity {
            return Err(job);
        }
        state.queues[class].push_back(job);
        // A bulk job past the limit waits for `finish`, which wakes a
        // worker then; waking one now would find nothing to claim.
        let claimable = class != Priority::Bulk as usize || state.bulk_running < self.bulk_limit;
        drop(state);
        if claimable {
            self.available.notify_one();
        }
        Ok(())
    }

    /// Claim the next job, blocking while all queues are empty. `None`
    /// means the scheduler closed: the worker exits.
    ///
    /// Priority is strict — ops drains before interactive before bulk.
    /// Under sustained interactive overload bulk *will* starve; that is
    /// the intended policy (bulk callers retry with backoff), and the
    /// bounded queues mean starvation shows up as prompt shedding, not
    /// silent queue growth. Within a class, claiming is FIFO. Bulk is
    /// claimed only while fewer than the
    /// [bulk limit](Admission::with_bulk_limit) run; the claimer
    /// reports each job done through [`Admission::finish`].
    pub fn next(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("admission state poisoned");
        loop {
            let classes = match state.bulk_running < self.bulk_limit {
                true => Priority::Bulk as usize + 1,
                false => Priority::Bulk as usize,
            };
            if let Some(job) = state.queues[..classes]
                .iter_mut()
                .find_map(VecDeque::pop_front)
            {
                if job.priority == Priority::Bulk {
                    state.bulk_running += 1;
                }
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .expect("admission state poisoned");
        }
    }

    /// Report a claimed job of class `priority` done. A finished bulk
    /// job frees its place under the bulk limit, and a waiting worker
    /// is woken for the next queued one.
    pub fn finish(&self, priority: Priority) {
        if priority != Priority::Bulk {
            return;
        }
        let mut state = self.state.lock().expect("admission state poisoned");
        state.bulk_running = state.bulk_running.saturating_sub(1);
        let waiting = !state.queues[Priority::Bulk as usize].is_empty();
        drop(state);
        if waiting {
            self.available.notify_one();
        }
    }

    /// Close the scheduler: queued jobs are dropped, blocked and future
    /// [`Admission::next`] calls return `None`.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("admission state poisoned");
        state.closed = true;
        for q in &mut state.queues {
            q.clear();
        }
        drop(state);
        self.available.notify_all();
    }

    /// Current queue depths.
    pub fn depths(&self) -> QueueDepths {
        let state = self.state.lock().expect("admission state poisoned");
        QueueDepths {
            ops: state.queues[Priority::Ops as usize].len(),
            interactive: state.queues[Priority::Interactive as usize].len(),
            bulk: state.queues[Priority::Bulk as usize].len(),
            capacity: self.config.queue_capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(priority: Priority) -> Job {
        Job {
            shard: 0,
            conn: 0,
            seq: None,
            kind: 0,
            payload: Vec::new(),
            req_bytes: 0,
            tenant: "127.0.0.1:1".to_string(),
            priority,
            admitted_at: Instant::now(),
        }
    }

    #[test]
    fn classification_by_kind_byte() {
        assert_eq!(classify(kind::HELLO), Priority::Ops);
        assert_eq!(classify(kind::CATALOG), Priority::Ops);
        assert_eq!(classify(kind::METRICS), Priority::Ops);
        assert_eq!(classify(kind::EXECUTE), Priority::Interactive);
        assert_eq!(classify(kind::EXECUTE_PUSH), Priority::Interactive);
        assert_eq!(classify(kind::TRACED), Priority::Interactive);
        assert_eq!(classify(kind::STORE), Priority::Bulk);
        assert_eq!(classify(kind::REMOVE), Priority::Bulk);
        assert_eq!(
            classify(0xEE),
            Priority::Interactive,
            "unknown kinds pass through"
        );
    }

    #[test]
    fn ops_drains_before_interactive_before_bulk() {
        let adm = Admission::new(AdmissionConfig::default());
        adm.submit(job(Priority::Bulk)).unwrap();
        adm.submit(job(Priority::Interactive)).unwrap();
        adm.submit(job(Priority::Ops)).unwrap();
        assert_eq!(adm.next().unwrap().priority, Priority::Ops);
        assert_eq!(adm.next().unwrap().priority, Priority::Interactive);
        assert_eq!(adm.next().unwrap().priority, Priority::Bulk);
    }

    #[test]
    fn a_class_drains_in_arrival_order() {
        let adm = Admission::new(AdmissionConfig::default());
        for conn in 0..4 {
            let mut j = job(Priority::Interactive);
            j.conn = conn;
            adm.submit(j).unwrap();
        }
        let order: Vec<u64> = (0..4).map(|_| adm.next().unwrap().conn).collect();
        assert_eq!(order, [0, 1, 2, 3]);
    }

    #[test]
    fn full_class_queue_sheds_without_blocking() {
        let adm = Admission::new(AdmissionConfig { queue_capacity: 2 });
        adm.submit(job(Priority::Bulk)).unwrap();
        adm.submit(job(Priority::Bulk)).unwrap();
        let shed = adm.submit(job(Priority::Bulk)).unwrap_err();
        assert_eq!(shed.priority, Priority::Bulk, "the job comes back");
        // A full bulk queue does not block ops traffic.
        adm.submit(job(Priority::Ops)).unwrap();
        assert!(adm.depths().saturated());
    }

    #[test]
    fn other_classes_pass_bulk_held_at_the_limit() {
        let adm = Admission::new(AdmissionConfig::default()).with_bulk_limit(1);
        adm.submit(job(Priority::Bulk)).unwrap();
        adm.submit(job(Priority::Bulk)).unwrap();
        assert_eq!(adm.next().unwrap().priority, Priority::Bulk);
        adm.submit(job(Priority::Interactive)).unwrap();
        assert_eq!(adm.next().unwrap().priority, Priority::Interactive);
        assert_eq!(adm.depths().bulk, 1, "the second bulk job is held");
        adm.finish(Priority::Bulk);
        assert_eq!(adm.next().unwrap().priority, Priority::Bulk);
    }

    #[test]
    fn only_a_bulk_finish_releases_held_bulk() {
        // The finishing thread does not claim again, so the held job
        // must reach the worker blocked in `next`.
        let adm = Admission::new(AdmissionConfig::default()).with_bulk_limit(1);
        let adm = std::sync::Arc::new(adm);
        adm.submit(job(Priority::Bulk)).unwrap();
        assert_eq!(adm.next().unwrap().priority, Priority::Bulk);
        adm.submit(job(Priority::Bulk)).unwrap();
        let worker = std::sync::Arc::clone(&adm);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            while let Some(j) = worker.next() {
                tx.send(j.priority).unwrap();
            }
        });
        let wait = std::time::Duration::from_millis(50);
        assert!(rx.recv_timeout(wait).is_err(), "claimed past the limit");
        adm.finish(Priority::Interactive);
        assert!(
            rx.recv_timeout(wait).is_err(),
            "released by a non-bulk finish"
        );
        adm.finish(Priority::Bulk);
        let got = rx.recv_timeout(std::time::Duration::from_secs(5));
        assert_eq!(got.unwrap(), Priority::Bulk);
        adm.close();
        worker.join().unwrap();
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let adm = std::sync::Arc::new(Admission::new(AdmissionConfig::default()));
        let waiter = std::sync::Arc::clone(&adm);
        let h = std::thread::spawn(move || waiter.next());
        std::thread::sleep(std::time::Duration::from_millis(50));
        adm.close();
        assert!(h.join().unwrap().is_none());
        // Submissions after close shed.
        assert!(adm.submit(job(Priority::Ops)).is_err());
    }
}
