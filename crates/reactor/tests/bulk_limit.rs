//! The bulk limit: over an engine that applies stores one at a time,
//! at most all but one reactor worker run bulk work, so a read is
//! answered while stores hold the others — every store must still reach
//! a worker, and two servers pushing to each other must not starve each
//! other's stores.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bda_core::{CapabilitySet, CoreError, Plan, Provider, ReferenceProvider};
use bda_net::{PipelinedClient, Request, Response};
use bda_reactor::{serve_reactor, ReactorOptions};
use bda_storage::{Column, DataSet, Schema};

fn sample() -> DataSet {
    DataSet::from_columns(vec![
        ("k", Column::from(vec![1i64, 2, 3])),
        ("v", Column::from(vec![1.0f64, 2.0, 3.0])),
    ])
    .unwrap()
}

/// An engine that serializes its stores and whose `store` blocks until
/// the gate opens (or 30 s pass, so a failing test cannot hang the
/// suite).
struct GatedStores {
    inner: ReferenceProvider,
    open: Mutex<bool>,
    opened: Condvar,
    entered: AtomicUsize,
}

impl GatedStores {
    fn new(name: &str, open: bool) -> GatedStores {
        GatedStores {
            inner: ReferenceProvider::new(name),
            open: Mutex::new(open),
            opened: Condvar::new(),
            entered: AtomicUsize::new(0),
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl Provider for GatedStores {
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
        self.inner.execute(plan)
    }
    fn store(&self, name: &str, data: DataSet) -> Result<(), CoreError> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let open = self.open.lock().unwrap();
        let _open = self
            .opened
            .wait_timeout_while(open, Duration::from_secs(30), |open| !*open)
            .unwrap();
        self.inner.store(name, data)
    }
    fn remove(&self, name: &str) {
        self.inner.remove(name)
    }
    fn serializes_stores(&self) -> bool {
        true
    }
}

/// Opens the gate when dropped, so a failed assertion does not leave
/// workers blocked while the server shuts down.
struct ReleaseOnDrop(Arc<GatedStores>);

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        self.0.release();
    }
}

fn two_workers() -> ReactorOptions {
    ReactorOptions {
        workers: 2,
        ..ReactorOptions::default()
    }
}

#[test]
fn a_read_is_answered_while_stores_are_blocked() {
    let engine = Arc::new(GatedStores::new("gated", false));
    engine.inner.store("t", sample()).unwrap();
    let server = serve_reactor(engine.clone(), "127.0.0.1:0", two_workers()).unwrap();
    // Declared after the server so that it drops, and opens, first.
    let gate = ReleaseOnDrop(Arc::clone(&engine));
    let addr = server.addr().to_string();

    let writer = PipelinedClient::connect(&addr).unwrap();
    let stores: Vec<_> = (0..6)
        .map(|i| {
            let req = Request::Store {
                name: format!("s{i}"),
                data: sample(),
            };
            writer.send(&req).unwrap()
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while engine.entered.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "no store reached the engine");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Give a second worker the chance to pick up a store too.
    std::thread::sleep(Duration::from_millis(100));

    let reader = PipelinedClient::connect(&addr).unwrap();
    let plan = Plan::scan("t", sample().schema().clone());
    let read = reader.send(&Request::Execute { plan }).unwrap();
    match read.wait(Duration::from_secs(5)) {
        Ok(Response::DataSet(ds)) => assert_eq!(ds.num_rows(), 3),
        other => panic!("read behind blocked stores: {other:?}"),
    }
    assert_eq!(
        engine.entered.load(Ordering::SeqCst),
        1,
        "only one worker is in a store"
    );

    drop(gate);
    for (i, pending) in stores.into_iter().enumerate() {
        match pending.wait(Duration::from_secs(30)) {
            Ok(Response::Ack) => {}
            other => panic!("store {i} not acked: {other:?}"),
        }
    }
    assert_eq!(engine.inner.catalog().len(), 7);
}

#[test]
fn single_stores_on_an_idle_server_are_each_acked() {
    let engine = Arc::new(GatedStores::new("idle", true));
    let server = serve_reactor(engine.clone(), "127.0.0.1:0", two_workers()).unwrap();
    let client = PipelinedClient::connect(&server.addr().to_string()).unwrap();
    for i in 0..200 {
        let req = Request::Store {
            name: format!("s{}", i % 4),
            data: sample(),
        };
        match client.send(&req).unwrap().wait(Duration::from_secs(5)) {
            Ok(Response::Ack) => {}
            other => panic!("store {i} not acked: {other:?}"),
        }
    }
    assert_eq!(engine.catalog().len(), 4);
}

/// A store-serializing engine whose `execute` waits until the other
/// server's engine executes too, so two pushes are surely in flight at
/// once.
struct MeetingPeer {
    inner: ReferenceProvider,
    meeting: Arc<Meeting>,
}

/// Two-party rendezvous, given up after 5 s.
#[derive(Default)]
struct Meeting {
    /// (arrived this round, rounds completed)
    state: Mutex<(usize, u64)>,
    met: Condvar,
}

impl Meeting {
    fn arrive(&self) {
        let mut state = self.state.lock().unwrap();
        let round = state.1;
        state.0 += 1;
        if state.0 == 2 {
            *state = (0, round + 1);
            self.met.notify_all();
            return;
        }
        let _met = self
            .met
            .wait_timeout_while(state, Duration::from_secs(5), |s| s.1 == round)
            .unwrap();
    }
}

impl Provider for MeetingPeer {
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
        self.meeting.arrive();
        self.inner.execute(plan)
    }
    fn store(&self, name: &str, data: DataSet) -> Result<(), CoreError> {
        self.inner.store(name, data)
    }
    fn remove(&self, name: &str) {
        self.inner.remove(name)
    }
    fn serializes_stores(&self) -> bool {
        true
    }
}

#[test]
fn two_servers_pushing_to_each_other_are_both_acked() {
    // Each push holds a worker until the peer acks its store. With two
    // workers a side, the store that arrives must find a worker even
    // though the other one is in the opposite push.
    let meeting = Arc::new(Meeting::default());
    let peer = |name: &str| {
        let engine = MeetingPeer {
            inner: ReferenceProvider::new(name),
            meeting: Arc::clone(&meeting),
        };
        engine.inner.store("t", sample()).unwrap();
        serve_reactor(Arc::new(engine), "127.0.0.1:0", two_workers()).unwrap()
    };
    let (a, b) = (peer("a"), peer("b"));
    let (a_addr, b_addr) = (a.addr().to_string(), b.addr().to_string());
    let to_a = PipelinedClient::connect(&a_addr).unwrap();
    let to_b = PipelinedClient::connect(&b_addr).unwrap();
    let plan = Plan::scan("t", sample().schema().clone());
    for round in 0..12 {
        let push = |client: &PipelinedClient, dest: &str| {
            let req = Request::ExecutePush {
                dest_addr: dest.to_string(),
                dest_name: format!("pushed{round}"),
                plan: plan.clone(),
            };
            client.send(&req).unwrap()
        };
        let pushes = [push(&to_a, &b_addr), push(&to_b, &a_addr)];
        for (side, pending) in pushes.into_iter().enumerate() {
            match pending.wait(Duration::from_secs(10)) {
                Ok(Response::Pushed { bytes }) => assert!(bytes > 0),
                other => panic!("round {round}, push from side {side}: {other:?}"),
            }
        }
    }
}
