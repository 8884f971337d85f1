//! Thread-local span scope: the one way a provider call joins a trace.
//!
//! Only code that starts a trace or crosses a process boundary
//! [`install`]s a scope (tracer + site + parent span) around a plain
//! `Provider::execute`/`execute_push`: the federation executor around each
//! fragment call, the protocol server around a traced request. Everything
//! below reads it. Engines call [`enter`] at the top of each plan node;
//! the network client takes a [`snapshot`] to decide whether a request
//! travels traced and where the server's spans hang. Decorators see
//! nothing, so none can drop its inner engine's spans.
//!
//! When no scope is installed — the common, untraced case — `enter` is a
//! single thread-local borrow that returns `None` and allocates nothing
//! (the name closure never runs). Nesting comes for free: each [`Node`]
//! pushes itself as the parent for spans opened deeper in the recursion
//! and pops on drop, and a nested [`install`] restores the outer scope
//! when its guard drops.

use std::cell::RefCell;
use std::marker::PhantomData;

use crate::{SpanGuard, Tracer};

thread_local! {
    static SCOPE: RefCell<Option<State>> = const { RefCell::new(None) };
}

struct State {
    tracer: Tracer,
    site: String,
    parents: Vec<u64>,
}

/// The installed scope; dropping it reinstates whatever scope (or none)
/// was installed before. Tied to the installing thread.
pub struct Installed {
    prev: Option<State>,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        let prev = self.prev.take();
        SCOPE.with(|s| *s.borrow_mut() = prev);
    }
}

/// Install a tracing scope on this thread: spans [`enter`]ed until the
/// returned guard drops record into `tracer` at `site`, rooted under
/// `parent`. Returns `None` (and installs nothing) for a disabled
/// tracer.
pub fn install(tracer: &Tracer, site: &str, parent: Option<u64>) -> Option<Installed> {
    if !tracer.is_enabled() {
        return None;
    }
    let prev = SCOPE.with(|s| {
        s.borrow_mut().replace(State {
            tracer: tracer.clone(),
            site: site.to_string(),
            parents: parent.into_iter().collect(),
        })
    });
    Some(Installed {
        prev,
        _thread_bound: PhantomData,
    })
}

/// One traced plan node; finishes its span and pops the parent stack on
/// drop.
pub struct Node {
    guard: SpanGuard,
}

impl Node {
    /// Record the node's output cardinality.
    pub fn rows(&mut self, rows: usize) {
        self.guard.set_rows(rows);
    }

    /// Record a timestamped event inside the node's span (e.g. a
    /// pruning decision). The label closure never runs untraced.
    pub fn event(&mut self, label: impl FnOnce() -> String) {
        self.guard.event(label);
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        SCOPE.with(|s| {
            if let Some(st) = s.borrow_mut().as_mut() {
                st.parents.pop();
            }
        });
        // The span guard closes after the pop, via its own Drop.
    }
}

/// Open a span for one plan node under the installed scope. `None` when
/// no scope is installed (the name closure is not invoked).
pub fn enter(name: impl FnOnce() -> String) -> Option<Node> {
    SCOPE.with(|s| {
        let mut slot = s.borrow_mut();
        let st = slot.as_mut()?;
        let guard = st.tracer.start(st.parents.last().copied(), name, &st.site);
        if let Some(id) = guard.id() {
            st.parents.push(id);
        }
        Some(Node { guard })
    })
}

/// A portable copy of the installed scope: the tracer, the site, and the
/// current parent span id.
///
/// Partition-parallel kernels capture a snapshot on the coordinating
/// thread (where the scope is installed) and use it to open
/// `partition:{i}` spans from pool workers via [`Tracer::start`] —
/// worker threads never install a full scope of their own. The network
/// client captures one per request: its trace id rides the wire, and the
/// server's spans come back under its parent.
#[derive(Clone)]
pub struct Snapshot {
    /// The tracer the scope records into.
    pub tracer: Tracer,
    /// The site label spans are attributed to.
    pub site: String,
    /// The innermost open span, if any — the parent for worker spans.
    pub parent: Option<u64>,
}

/// Capture the scope installed on this thread, or `None` when untraced.
pub fn snapshot() -> Option<Snapshot> {
    SCOPE.with(|s| {
        let slot = s.borrow();
        let st = slot.as_ref()?;
        Some(Snapshot {
            tracer: st.tracer.clone(),
            site: st.site.clone(),
            parent: st.parents.last().copied(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_scope_is_inert() {
        assert!(enter(|| unreachable!("must not format")).is_none());
    }

    #[test]
    fn disabled_tracer_installs_nothing() {
        let t = Tracer::disabled();
        assert!(install(&t, "rel", None).is_none());
        assert!(enter(|| unreachable!()).is_none());
    }

    #[test]
    fn nested_enters_build_a_span_tree() {
        let t = Tracer::new(3);
        {
            let _scope = install(&t, "rel", None);
            let mut outer = enter(|| "op:join".into()).unwrap();
            {
                let _inner = enter(|| "op:scan".into()).unwrap();
            }
            outer.rows(5);
        }
        // Scope uninstalled: enter is inert again.
        assert!(enter(|| unreachable!()).is_none());
        let trace = t.finish();
        assert_eq!(trace.spans.len(), 2);
        let join = trace.spans_named("op:join")[0];
        let scan = trace.spans_named("op:scan")[0];
        assert_eq!(scan.parent, Some(join.id));
        assert_eq!(join.parent, None);
        assert_eq!(join.rows, Some(5));
        assert_eq!(join.site, "rel");
    }

    #[test]
    fn nested_install_restores_the_outer_scope() {
        let (outer_t, inner_t) = (Tracer::new(1), Tracer::new(2));
        {
            let _outer = install(&outer_t, "app", Some(7));
            {
                let _inner = install(&inner_t, "rel", None);
                assert_eq!(snapshot().unwrap().site, "rel");
                // A disabled install leaves the installed scope alone.
                assert!(install(&Tracer::disabled(), "off", None).is_none());
                enter(|| "op:scan".into()).unwrap();
            }
            let snap = snapshot().expect("outer scope back in place");
            assert_eq!((snap.site.as_str(), snap.parent), ("app", Some(7)));
            enter(|| "op:join".into()).unwrap();
        }
        assert!(snapshot().is_none());
        assert_eq!(inner_t.finish().spans_named("op:scan").len(), 1);
        let outer = outer_t.finish();
        assert_eq!(outer.spans.len(), 1);
        assert_eq!(outer.spans_named("op:join")[0].parent, Some(7));
    }

    #[test]
    fn snapshot_carries_tracer_site_and_parent() {
        assert!(snapshot().is_none());
        let t = Tracer::new(3);
        {
            let _scope = install(&t, "rel", None);
            let _outer = enter(|| "op:join".into()).unwrap();
            let snap = snapshot().unwrap();
            assert_eq!(snap.site, "rel");
            // A span started from the snapshot parents under the open node.
            let guard = snap
                .tracer
                .start(snap.parent, || "partition:0".into(), &snap.site);
            drop(guard);
        }
        let trace = t.finish();
        let join = trace.spans_named("op:join")[0];
        let part = trace.spans_named("partition:0")[0];
        assert_eq!(part.parent, Some(join.id));
    }
}
