//! Admission control: every parsed request passes through here before
//! any CPU is spent on it. Three strict priority classes — operational
//! traffic (health, catalog, metrics) ahead of interactive queries ahead
//! of bulk data movement — each with a bounded queue, plus a per-tenant
//! cap so one chatty peer cannot own the whole admission budget.
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
//! With [`AdmissionConfig::fair_share`] on and a [`UsageBook`] mounted,
//! claiming switches from per-class FIFO to *usage-weighted fair
//! sharing* within each class: every queued tenant carries a virtual
//! time that advances by its recent metered cost (EWMA of CPU-ns and
//! bytes) each time one of its jobs is claimed, and the scheduler always
//! serves the tenant furthest behind. A tenant with no recorded usage
//! advances by a nominal unit, so unmetered tenants degrade to
//! round-robin instead of starving anyone. Per-tenant order stays FIFO —
//! fairness reorders *between* tenants, never within one.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use bda_net::proto::kind;
use bda_obs::UsageBook;

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
    /// The tenant identity the per-tenant cap and fair-share scheduler
    /// charge this request to: the wire tag when present, else the peer
    /// address.
    pub tenant: String,
    /// The class this job was admitted under.
    pub priority: Priority,
    /// When admission accepted the job; workers measure queue latency
    /// against the class SLO from this instant.
    pub admitted_at: Instant,
}

/// Why a request was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The class queue is at capacity.
    QueueFull,
    /// This tenant already has its fair share queued.
    TenantOverLimit,
}

impl ShedReason {
    /// Stable string form, shared by logs and metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::TenantOverLimit => "tenant-over-limit",
        }
    }

    /// The metrics label for this reason.
    pub fn label(self) -> &'static str {
        self.as_str()
    }
}

/// Bounds for the scheduler.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Capacity of each class queue.
    pub queue_capacity: usize,
    /// Maximum requests one tenant may have queued across all classes.
    pub per_tenant: usize,
    /// Claim by usage-weighted fair share within each class instead of
    /// FIFO (needs a [`UsageBook`] via [`Admission::with_usage`] to
    /// weight by metered cost; without one, fair share degrades to
    /// round-robin between queued tenants).
    pub fair_share: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 256,
            per_tenant: 128,
            fair_share: false,
        }
    }
}

struct State {
    queues: [VecDeque<Job>; 3],
    per_tenant: HashMap<String, usize>,
    /// Fair-share virtual time per *currently queued* tenant: advanced
    /// by recent metered cost on every claim, dropped when the tenant's
    /// last queued job drains (the [`UsageBook`] EWMA is the cross-burst
    /// memory). New arrivals start at the floor of the live values so a
    /// returning tenant cannot replay an empty backlog as credit.
    vt: HashMap<String, f64>,
    closed: bool,
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
    usage: Option<UsageBook>,
    state: Mutex<State>,
    available: Condvar,
}

impl Admission {
    pub fn new(config: AdmissionConfig) -> Admission {
        Admission {
            config,
            usage: None,
            state: Mutex::new(State {
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                per_tenant: HashMap::new(),
                vt: HashMap::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Mount the usage book whose recent-cost EWMAs weight fair-share
    /// claiming (no effect unless [`AdmissionConfig::fair_share`] is on).
    pub fn with_usage(mut self, usage: UsageBook) -> Admission {
        self.usage = Some(usage);
        self
    }

    /// Offer a job. `Err` hands the job back with the shed reason; the
    /// caller answers the connection with a transient error.
    pub fn submit(&self, job: Job) -> Result<(), (Job, ShedReason)> {
        let mut state = self.state.lock().expect("admission state poisoned");
        if state.closed {
            return Err((job, ShedReason::QueueFull));
        }
        let class = job.priority as usize;
        if state.queues[class].len() >= self.config.queue_capacity {
            return Err((job, ShedReason::QueueFull));
        }
        match state.per_tenant.get_mut(job.tenant.as_str()) {
            Some(n) if *n >= self.config.per_tenant => {
                return Err((job, ShedReason::TenantOverLimit));
            }
            Some(n) => *n += 1,
            None => {
                // First queued job for this tenant: enter the virtual
                // clock at the floor of the live tenants' values.
                let floor = state.vt.values().copied().fold(f64::INFINITY, f64::min);
                let floor = if floor.is_finite() { floor } else { 0.0 };
                state.vt.insert(job.tenant.clone(), floor);
                state.per_tenant.insert(job.tenant.clone(), 1);
            }
        }
        state.queues[class].push_back(job);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// How far the virtual clock advances when one of `tenant`'s jobs is
    /// claimed: its recent metered cost, or a nominal unit when nothing
    /// is recorded (degrading to round-robin between unmetered tenants).
    fn claim_cost(&self, tenant: &str) -> f64 {
        self.usage
            .as_ref()
            .and_then(|u| u.recent_cost_ns(tenant))
            .map_or(1.0, |c| c.max(1.0))
    }

    /// Claim the next job, blocking while all queues are empty. `None`
    /// means the scheduler closed: the worker exits.
    ///
    /// Priority is strict — ops drains before interactive before bulk.
    /// Under sustained interactive overload bulk *will* starve; that is
    /// the intended policy (bulk callers retry with backoff), and the
    /// bounded queues mean starvation shows up as prompt shedding, not
    /// silent queue growth. Within the chosen class, claiming is FIFO,
    /// or usage-weighted fair share when configured (see module docs).
    pub fn next(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("admission state poisoned");
        loop {
            if let Some(class) = (0..state.queues.len()).find(|&c| !state.queues[c].is_empty()) {
                let index = if self.config.fair_share {
                    fair_pick(&state.queues[class], &state.vt)
                } else {
                    0
                };
                let job = state.queues[class]
                    .remove(index)
                    .expect("picked index in bounds");
                let cost = self.claim_cost(&job.tenant);
                if let Some(v) = state.vt.get_mut(job.tenant.as_str()) {
                    *v += cost;
                }
                if let Some(n) = state.per_tenant.get_mut(job.tenant.as_str()) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        state.per_tenant.remove(job.tenant.as_str());
                        state.vt.remove(job.tenant.as_str());
                    }
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

    /// Close the scheduler: queued jobs are dropped, blocked and future
    /// [`Admission::next`] calls return `None`.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("admission state poisoned");
        state.closed = true;
        for q in &mut state.queues {
            q.clear();
        }
        state.per_tenant.clear();
        state.vt.clear();
        drop(state);
        self.available.notify_all();
    }

    /// Whether fair-share claiming is active.
    pub fn fair_share(&self) -> bool {
        self.config.fair_share
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

/// The queue position to claim under fair share: the first-queued job
/// of the tenant with the lowest virtual time (ties break to the
/// earlier queue position, which also keeps per-tenant order FIFO —
/// only a tenant's *first* queued job is ever eligible).
fn fair_pick(queue: &VecDeque<Job>, vt: &HashMap<String, f64>) -> usize {
    let mut best: Option<(f64, usize)> = None;
    let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for (i, job) in queue.iter().enumerate() {
        if !seen.insert(job.tenant.as_str()) {
            continue; // not the tenant's first queued job
        }
        let t = vt.get(job.tenant.as_str()).copied().unwrap_or(0.0);
        if best.is_none_or(|(b, _)| t < b) {
            best = Some((t, i));
        }
    }
    best.map_or(0, |(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(priority: Priority, tenant: &str) -> Job {
        Job {
            shard: 0,
            conn: 0,
            seq: None,
            kind: 0,
            payload: Vec::new(),
            req_bytes: 0,
            tenant: tenant.to_string(),
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
        adm.submit(job(Priority::Bulk, "a")).unwrap();
        adm.submit(job(Priority::Interactive, "a")).unwrap();
        adm.submit(job(Priority::Ops, "a")).unwrap();
        assert_eq!(adm.next().unwrap().priority, Priority::Ops);
        assert_eq!(adm.next().unwrap().priority, Priority::Interactive);
        assert_eq!(adm.next().unwrap().priority, Priority::Bulk);
    }

    #[test]
    fn full_class_queue_sheds_without_blocking() {
        let adm = Admission::new(AdmissionConfig {
            queue_capacity: 2,
            per_tenant: 100,
            fair_share: false,
        });
        adm.submit(job(Priority::Bulk, "a")).unwrap();
        adm.submit(job(Priority::Bulk, "a")).unwrap();
        let (_, reason) = adm.submit(job(Priority::Bulk, "a")).unwrap_err();
        assert_eq!(reason, ShedReason::QueueFull);
        // A full bulk queue does not block ops traffic.
        adm.submit(job(Priority::Ops, "a")).unwrap();
        assert!(adm.depths().saturated());
    }

    #[test]
    fn one_tenant_cannot_fill_the_queue() {
        let adm = Admission::new(AdmissionConfig {
            queue_capacity: 100,
            per_tenant: 2,
            fair_share: false,
        });
        adm.submit(job(Priority::Interactive, "a")).unwrap();
        adm.submit(job(Priority::Interactive, "a")).unwrap();
        let (_, reason) = adm.submit(job(Priority::Interactive, "a")).unwrap_err();
        assert_eq!(reason, ShedReason::TenantOverLimit);
        // Another tenant still gets in.
        adm.submit(job(Priority::Interactive, "b")).unwrap();
        // Draining releases the budget.
        adm.next().unwrap();
        adm.submit(job(Priority::Interactive, "a")).unwrap();
    }

    #[test]
    fn fair_share_interleaves_tenants_round_robin_without_usage() {
        let adm = Admission::new(AdmissionConfig {
            fair_share: true,
            ..AdmissionConfig::default()
        });
        // a, a, a, b, c queued; FIFO would serve three a's first.
        for t in ["a", "a", "a", "b", "c"] {
            adm.submit(job(Priority::Interactive, t)).unwrap();
        }
        let order: Vec<String> = (0..5).map(|_| adm.next().unwrap().tenant).collect();
        // Every claim advances the served tenant's clock by one unit, so
        // each tenant gets one turn before anyone gets a second.
        assert_eq!(order, ["a", "b", "c", "a", "a"]);
    }

    #[test]
    fn fair_share_prefers_the_light_tenant_under_metered_load() {
        let usage = UsageBook::new(42);
        // Heavy has consumed ~1e6 ns per claim recently; light ~1e3.
        usage.charge_query("heavy", 0, 0, 1_000_000, 0, 0);
        usage.charge_query("light", 0, 0, 1_000, 0, 0);
        let adm = Admission::new(AdmissionConfig {
            fair_share: true,
            ..AdmissionConfig::default()
        })
        .with_usage(usage);
        // Backlog alternating heavy-first: H H H H L L L L.
        for _ in 0..4 {
            adm.submit(job(Priority::Interactive, "heavy")).unwrap();
        }
        for _ in 0..4 {
            adm.submit(job(Priority::Interactive, "light")).unwrap();
        }
        let order: Vec<String> = (0..8).map(|_| adm.next().unwrap().tenant).collect();
        // One heavy claim costs as much as ~1000 light claims of virtual
        // time, so after its first turn the heavy tenant waits for the
        // whole light backlog — but is never starved outright.
        assert_eq!(
            order,
            ["heavy", "light", "light", "light", "light", "heavy", "heavy", "heavy"]
        );
    }

    #[test]
    fn fair_share_keeps_per_tenant_order_fifo() {
        let adm = Admission::new(AdmissionConfig {
            fair_share: true,
            ..AdmissionConfig::default()
        });
        for (i, t) in [("a"), ("b"), ("a"), ("b"), ("a")].iter().enumerate() {
            let mut j = job(Priority::Interactive, t);
            j.conn = i as u64; // tag submission order
            adm.submit(j).unwrap();
        }
        let mut a_conns = Vec::new();
        let mut b_conns = Vec::new();
        for _ in 0..5 {
            let j = adm.next().unwrap();
            match j.tenant.as_str() {
                "a" => a_conns.push(j.conn),
                _ => b_conns.push(j.conn),
            }
        }
        assert_eq!(a_conns, [0, 2, 4], "tenant a drains in arrival order");
        assert_eq!(b_conns, [1, 3], "tenant b drains in arrival order");
    }

    #[test]
    fn late_arrivals_enter_at_the_virtual_time_floor() {
        let adm = Admission::new(AdmissionConfig {
            fair_share: true,
            ..AdmissionConfig::default()
        });
        // Serve tenant a a few times so its clock is ahead.
        for _ in 0..3 {
            adm.submit(job(Priority::Interactive, "a")).unwrap();
        }
        adm.next().unwrap();
        adm.next().unwrap();
        // b arrives now: it enters at a's clock (the floor), so it gets
        // no make-up turns for history it was absent for — if it entered
        // at zero it would jump the whole queue (order b, b, a). The tie
        // breaks to the earlier queue position.
        adm.submit(job(Priority::Interactive, "b")).unwrap();
        adm.submit(job(Priority::Interactive, "b")).unwrap();
        let order: Vec<String> = (0..3).map(|_| adm.next().unwrap().tenant).collect();
        assert_eq!(order, ["a", "b", "b"]);
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
        assert!(adm.submit(job(Priority::Ops, "a")).is_err());
    }
}
