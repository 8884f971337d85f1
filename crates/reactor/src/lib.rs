//! # `bda-reactor`: the event-loop serving core
//!
//! `bda-net`'s thread-per-connection server is honest and simple, but a
//! thread per connection is the wrong shape for a serving tier meant to
//! face *many* users: a thousand mostly-idle connections cost a
//! thousand stacks, and one slow client pins a whole thread. This crate
//! is the production-shaped alternative — the same wire protocol, the
//! same [`bda_net::RequestHandler`] semantics, mounted on:
//!
//! * **Sharded readiness event loops** ([`shard`]) over the vendored
//!   `polling` crate (real epoll on Linux, reached by raw syscalls):
//!   each shard owns a set of non-blocking connections and parses
//!   frames incrementally as bytes arrive.
//! * **Request pipelining**: a connection may have many requests in
//!   flight; tagged ([`bda_net::Request::Pipelined`]) responses return
//!   as they finish, untagged ones release in order, so both pipelining
//!   and classic clients get exactly the semantics they expect.
//! * **Admission control** ([`admission`]): bounded FIFO queues in
//!   three strict priority classes (ops > interactive > bulk),
//!   classified by peeking one byte — no decoding before admission. The
//!   wait a request spends queued is the
//!   `bda_reactor_queue_wait_seconds` histogram.
//! * **Load shedding**: refused requests are answered *immediately*
//!   with a transient error that existing retry, backoff, and circuit
//!   breaker machinery already understands; `/readyz` (via
//!   [`ReactorHandle::health_source`]) turns 503 while saturated.
//!
//! The `bda-served` binary lives here too (`--reactor` selects this
//! core, the blocking server remains the default), because the binary
//! must see both cores to offer the choice.

pub mod admission;
mod server;
mod shard;

pub use admission::{classify, Admission, AdmissionConfig, Priority, QueueDepths};
pub use server::{serve_reactor, ReactorHandle, ReactorOptions, Saturation};
