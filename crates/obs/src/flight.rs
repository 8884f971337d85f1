//! The flight recorder: a fixed-size ring of recent operational events
//! that is **always on**, so a query that fails permanently — or a
//! process that falls over under chaos — leaves a post-mortem trail even
//! when nobody asked for a trace.
//!
//! Design constraints:
//!
//! * **Cheap enough to never turn off.** Recording is one relaxed
//!   `fetch_add` to claim a slot plus a `try_lock` on that slot; a
//!   record whose slot is contended is *dropped* (never blocked on), so
//!   the hot path cannot stall behind a reader. The recorder rides inside the
//!   same ≤2% budget the `overhead_guard` CI gate enforces for disabled
//!   tracing hooks (the guard compares recorder-on vs recorder-off runs).
//! * **Bounded.** The ring holds [`DEFAULT_FLIGHT_CAPACITY`] records;
//!   new records overwrite the oldest. A dump is therefore always a
//!   "last few seconds" view, which is exactly what a post-mortem wants.
//! * **Label closures.** Like the tracer, labels are closures so a
//!   disabled recorder ([`set_enabled`]) formats nothing.
//!
//! [`dump_for_failure`] writes the current ring to a file (directory
//! from `BDA_FLIGHT_DIR`, else the system temp dir) and returns the
//! path; the federation executor calls it when a query fails permanently
//! and attaches the path to the error it surfaces.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Records kept by the ring before overwriting the oldest.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// Environment variable naming the directory failure dumps are written
/// to (defaults to the system temp directory).
pub const FLIGHT_DIR_ENV: &str = "BDA_FLIGHT_DIR";

/// One recorded moment: what happened, where, and when (milliseconds
/// since the recorder was created).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// Microseconds since the recorder's epoch.
    pub at_us: u64,
    /// Site the event belongs to (provider name, `app`, `server`).
    pub site: String,
    /// What happened, e.g. `fragment:0@rel failed: network error: …`.
    pub label: String,
}

struct Slot {
    record: Mutex<Option<FlightRecord>>,
}

/// The fixed-size, always-on event ring. One global instance per process
/// ([`global`]); tests may build their own.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
    enabled: AtomicBool,
    epoch: Instant,
}

impl FlightRecorder {
    /// A recorder with the given ring capacity, enabled.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity)
                .map(|_| Slot {
                    record: Mutex::new(None),
                })
                .collect(),
            cursor: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
        }
    }

    /// Turn recording on or off. Off, [`FlightRecorder::record`] is one
    /// relaxed atomic load and the label closure never runs — the same
    /// contract as a disabled tracer.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Is the recorder currently recording?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record one event. Claims the next ring slot with a relaxed
    /// `fetch_add`; if the slot is momentarily held by a reader the
    /// record is dropped rather than blocking the caller.
    pub fn record(&self, site: &str, label: impl FnOnce() -> String) {
        if !self.enabled() {
            return;
        }
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let at_us = self.epoch.elapsed().as_micros() as u64;
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        if let Ok(mut r) = slot.record.try_lock() {
            *r = Some(FlightRecord {
                seq,
                at_us,
                site: site.to_string(),
                label: label(),
            });
        }
    }

    /// The ring's current contents, oldest first.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let mut out: Vec<FlightRecord> = self
            .slots
            .iter()
            .filter_map(|s| match s.record.try_lock() {
                Ok(r) => r.clone(),
                Err(_) => None,
            })
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Render the ring as one line per record (the dump file format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in self.snapshot() {
            out.push_str(&format!(
                "seq={} at_us={} site={} {}\n",
                r.seq, r.at_us, r.site, r.label
            ));
        }
        out
    }

    /// Write the ring to `<dir>/bda-flight-<tag>.log` where `dir` comes
    /// from [`FLIGHT_DIR_ENV`] (else the system temp dir). Returns the
    /// path written, or `None` when the write failed or the recorder is
    /// disabled/empty — a post-mortem helper must never turn a query
    /// failure into an I/O panic.
    pub fn dump_for_failure(&self, tag: &str) -> Option<PathBuf> {
        let rendered = self.render();
        if rendered.is_empty() {
            return None;
        }
        let dir = std::env::var(FLIGHT_DIR_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|_| std::env::temp_dir());
        let safe: String = tag
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("bda-flight-{safe}.log"));
        std::fs::write(&path, rendered).ok()?;
        Some(path)
    }
}

/// The process-wide recorder every layer records into.
pub fn global() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_records() {
        let r = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            r.record("app", || format!("event {i}"));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].label, "event 6", "oldest surviving record");
        assert_eq!(snap[3].label, "event 9");
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = FlightRecorder::with_capacity(4);
        r.set_enabled(false);
        r.record("app", || unreachable!("label closure must not run"));
        assert!(r.snapshot().is_empty());
        r.set_enabled(true);
        r.record("app", || "back".into());
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    fn dump_writes_a_file_with_every_line() {
        let r = FlightRecorder::with_capacity(8);
        r.record("rel", || "fragment:0@rel failed: boom".into());
        r.record("app", || "query abandoned".into());
        let path = r.dump_for_failure("test dump 1").expect("dump written");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("site=rel fragment:0@rel failed: boom"),
            "{text}"
        );
        assert!(text.contains("site=app query abandoned"), "{text}");
        assert!(
            path.file_name()
                .unwrap()
                .to_string_lossy()
                .contains("test-dump-1"),
            "{path:?}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn empty_ring_dumps_nothing() {
        let r = FlightRecorder::with_capacity(8);
        assert!(r.dump_for_failure("empty").is_none());
    }

    #[test]
    fn concurrent_recording_keeps_a_total_order() {
        use std::sync::Arc;
        let r = Arc::new(FlightRecorder::with_capacity(64));
        let mut handles = Vec::new();
        for t in 0..4 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..32 {
                    r.record("app", || format!("t{t}:{i}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = r.snapshot();
        assert!(snap.len() <= 64);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
