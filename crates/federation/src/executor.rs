//! The federated executor: runs fragment DAGs across providers, moving
//! intermediates either **directly between servers** (desideratum 4) or
//! through the application tier (the baseline it is measured against).
//!
//! Execution is fault tolerant (see DESIGN.md, "The failure model"):
//! transient fragment failures retry with exponential backoff, permanent
//! failures trigger **failover** onto another provider whose capability
//! set covers the fragment (staged inputs are re-shipped), and transfer
//! failures walk a degradation ladder (`RemoteTcp` push → store-based
//! `Direct` → `AppRouted`). Provider health feeds the registry's circuit
//! breakers, which the planner consults on the next placement; a failed
//! call also drops the site's memoized catalog, and a query placed from a
//! catalog that turns out stale is placed and run once more
//! ([`run_plan_traced`]).

use std::cell::Cell;
use std::collections::HashMap;
use std::time::{Duration, Instant};

use bda_core::codec::encode_plan;
use bda_core::convergence::report;
use bda_core::{pool, CoreError, Plan};
use bda_obs::progress::ProgressHandle;
use bda_obs::{flight, progress, scope, SpanGuard, Tracer};
use bda_storage::wire::encode_dataset;
use bda_storage::{DataSet, Row, Value};

use parking_lot::Mutex;

use crate::metrics::Metrics;
use crate::optimize::{optimize_report, Law, Optimized, OptimizerConfig};
use crate::planner::{Fragment, Placement, Planner, APP_SITE, FRAG_PREFIX};
use crate::registry::Registry;

/// Result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// How fragment outputs travel between servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// Server → server, one hop (what the paper advocates).
    Direct,
    /// Server → application tier → server, two hops (the baseline the
    /// paper argues against).
    AppRouted,
    /// Server → server over a real TCP transport: the executing provider
    /// pushes its result straight to the consuming provider's endpoint
    /// (`Provider::execute_push`), so the intermediate bytes never reach
    /// the application tier even physically. Falls back to [`Direct`]
    /// hop-by-hop when a provider has no network endpoint.
    RemoteTcp,
}

/// How the executor reacts to provider failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Master switch; `false` reproduces the pre-fault-tolerance
    /// behaviour (any failure aborts the plan).
    pub enabled: bool,
    /// Execution attempts per provider (first try included) for
    /// *transient* failures. Permanent failures never retry.
    pub max_attempts: u32,
    /// Delay before the second attempt; doubles each retry.
    pub backoff: Duration,
    /// On permanent failure, re-place the fragment on another provider
    /// whose capabilities cover it (re-shipping staged inputs).
    pub failover: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            enabled: true,
            max_attempts: 3,
            backoff: Duration::from_millis(2),
            failover: true,
        }
    }
}

impl RecoveryPolicy {
    /// No retries, no failover: every failure aborts the plan.
    pub fn disabled() -> RecoveryPolicy {
        RecoveryPolicy {
            enabled: false,
            max_attempts: 1,
            backoff: Duration::ZERO,
            failover: false,
        }
    }

    fn attempts(&self) -> u32 {
        if self.enabled {
            self.max_attempts.max(1)
        } else {
            1
        }
    }
}

/// Execution options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Transfer mode for inter-server intermediates.
    pub transfer: TransferMode,
    /// Logical optimizer configuration.
    pub optimizer: OptimizerConfig,
    /// Fault-tolerance policy.
    pub recovery: RecoveryPolicy,
    /// Worker count. With `1` the executor runs every fragment inline on
    /// the calling thread, in placement order, and every kernel runs
    /// sequentially; with `n > 1` independent fragments dispatch onto a
    /// pool of `n` threads, and the planner gives each fragment with hot
    /// operators a partition width of up to `n` ([`Fragment::parts`]),
    /// which in-process engines split those operators by. A remote server
    /// partitions at its own width instead. Defaults to the `BDA_WORKERS`
    /// environment variable (falling back to 1).
    pub workers: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            transfer: TransferMode::Direct,
            optimizer: OptimizerConfig::default(),
            recovery: RecoveryPolicy::default(),
            workers: pool::workers_from_env(),
        }
    }
}

/// Optimize, place and execute a plan across the registry's providers.
pub fn run_plan(
    registry: &Registry,
    plan: &Plan,
    opts: &ExecOptions,
) -> Result<(DataSet, Metrics)> {
    run_plan_traced(registry, plan, opts, &Tracer::disabled(), None)
}

/// [`run_plan`], recording spans into `tracer`. `parent` is the span the
/// query hangs under (`None` for a top-level query; app-driven iteration
/// nests its inner queries under the iterating fragment's span).
///
/// A query placed from a memoized catalog that then fails for good is
/// checked against fresh catalogs: when a fragment's site no longer lists
/// a base dataset the fragment scans, the query is placed and run once
/// more (a `replan:stale-catalog` event on the second `query` span and a
/// flight-recorder line mark it). Otherwise the original error surfaces.
pub fn run_plan_traced(
    registry: &Registry,
    plan: &Plan,
    opts: &ExecOptions,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<(DataSet, Metrics)> {
    let (placement, used_memo) = place_traced(registry, plan, opts, tracer, parent)?;
    let progress = enter_query(&placement, tracer);
    let (mut metrics, mut outcome) =
        run_placement(registry, &placement, opts, tracer, parent, &progress, false);
    if let Err(e) = &outcome {
        if used_memo && !e.is_transient() && placed_on_stale_catalog(registry, &placement) {
            flight::global().record("app", || format!("replan:stale-catalog after: {e}"));
            outcome = place_traced(registry, plan, opts, tracer, parent).and_then(|(p, _)| {
                let (m, rerun) = run_placement(registry, &p, opts, tracer, parent, &progress, true);
                metrics.absorb(m);
                rerun
            });
        }
    }
    leave_query(progress, tracer, outcome).map(|ds| (ds, metrics))
}

/// Optimize and place `plan`, recording an `optimize` span when table
/// statistics pruned fragments or a law rewrote the plan. The flag is
/// [`Planner::used_memo`].
fn place_traced(
    registry: &Registry,
    plan: &Plan,
    opts: &ExecOptions,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<(Placement, bool)> {
    let (optimized, placement, used_memo) = plan_and_place(registry, plan, opts)?;
    if optimized.pruned > 0 || !optimized.laws.is_empty() {
        // A dedicated span (rather than an event on `parent`, which is
        // `None` for top-level queries) so `EXPLAIN ANALYZE`'s pruning
        // section sees statistics-disproved fragments, and its tree names
        // the laws that rewrote the plan.
        let mut s = tracer.start(parent, || "optimize".into(), "app");
        if optimized.pruned > 0 {
            let pruned = optimized.pruned;
            s.event(|| format!("pruning: {pruned} fragment(s) eliminated by table stats"));
        }
        if !optimized.laws.is_empty() {
            s.event(|| laws_line(&optimized.laws));
        }
        s.finish();
    }
    Ok((placement, used_memo))
}

/// After a failure, read every catalog again and say whether some
/// fragment's site no longer lists a base dataset the fragment scans: the
/// placement then rested on a stale catalog, and a fresh one differs.
fn placed_on_stale_catalog(registry: &Registry, placement: &Placement) -> bool {
    let fresh: HashMap<&str, _> = registry
        .providers()
        .iter()
        .map(|p| (p.name(), registry.read_catalog(p.as_ref())))
        .collect();
    placement.fragments.iter().any(|f| {
        fresh
            .get(f.site.as_str())
            .is_some_and(|names| base_scans(&f.plan).iter().any(|d| !names.contains(d)))
    })
}

/// The one line that names the laws that fired, for EXPLAIN and the
/// `optimize` span.
pub(crate) fn laws_line(laws: &[Law]) -> String {
    let names: Vec<&str> = laws.iter().map(|l| l.name()).collect();
    format!("laws: {}", names.join(", "))
}

/// The planning pipeline every entry point shares: statistics-aware
/// optimization, then placement under the options' worker count and
/// statistics switch. Returns the optimization report (plan, fragments
/// table statistics eliminated, laws that fired), the placement and
/// whether it was placed from a catalog memoized by an earlier op.
pub(crate) fn plan_and_place(
    registry: &Registry,
    plan: &Plan,
    opts: &ExecOptions,
) -> Result<(Optimized, Placement, bool)> {
    let optimized = optimize_report(plan, opts.optimizer, &|name| registry.table_stats(name));
    let planner = Planner::new(registry)
        .with_workers(opts.workers)
        .with_stats(opts.optimizer.use_stats);
    let placement = planner.place(&optimized.plan)?;
    Ok((optimized, placement, planner.used_memo()))
}

/// Execute an already-fragmented plan.
pub fn execute_placement(
    registry: &Registry,
    placement: &Placement,
    opts: &ExecOptions,
) -> Result<(DataSet, Metrics)> {
    execute_placement_traced(registry, placement, opts, &Tracer::disabled(), None)
}

/// [`execute_placement`], recording spans into `tracer`.
///
/// Span model (see DESIGN.md, "Observability"): one `query` span per
/// placement; under it one `fragment:{id}` span per fragment (site =
/// executing provider, rows = output cardinality) whose events record
/// retries, breaker trips and failovers; one `transfer:{id}` span per
/// staged fragment output whose events record every delivery attempt on
/// the degradation ladder; `reship:{id}` spans for failover re-shipment;
/// and a `transfer:result` span for the root result's return hop.
/// Each provider call runs under an installed [`bda_obs::scope`], so
/// provider-side spans (per-operator timings, server handling) nest
/// under the owning fragment span (a push's under its transfer span).
pub fn execute_placement_traced(
    registry: &Registry,
    placement: &Placement,
    opts: &ExecOptions,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<(DataSet, Metrics)> {
    if placement.fragments.is_empty() {
        return Err(CoreError::Plan(
            "empty placement: no fragments to execute".into(),
        ));
    }
    let progress = enter_query(placement, tracer);
    let (metrics, outcome) =
        run_placement(registry, placement, opts, tracer, parent, &progress, false);
    leave_query(progress, tracer, outcome).map(|ds| (ds, metrics))
}

/// One run of a placement under its own `query` span, staged
/// intermediates cleaned up whatever the outcome. `replan` marks the
/// span as the rerun of a query placed from a stale catalog.
fn run_placement(
    registry: &Registry,
    placement: &Placement,
    opts: &ExecOptions,
    tracer: &Tracer,
    parent: Option<u64>,
    progress: &ProgressHandle,
    replan: bool,
) -> (Metrics, Result<DataSet>) {
    let mut query_span = tracer.start(parent, || "query".into(), "app");
    if replan {
        query_span.event(|| "replan:stale-catalog".into());
    }
    let exec = Exec {
        registry,
        placement,
        opts,
        tracer,
        query_id: query_span.id(),
        staged: Mutex::new(Vec::new()),
        cache: Mutex::new(HashMap::new()),
    };
    let mut metrics = Metrics::default();
    let outcome = exec.run_fragments(&mut metrics, progress);

    // Clean up staged intermediates regardless of success.
    for (site, name) in exec.staged.into_inner() {
        if let Ok(p) = registry.provider(&site) {
            p.remove(&name);
        }
    }
    (metrics, outcome)
}

/// One placement in flight: what every fragment shares — where and how to
/// run, and the app tier's custody of intermediates. Shared by reference
/// with the worker pool.
struct Exec<'a> {
    registry: &'a Registry,
    placement: &'a Placement,
    opts: &'a ExecOptions,
    tracer: &'a Tracer,
    /// The placement's `query` span.
    query_id: Option<u64>,
    /// `(site, name)` of every staged intermediate, removed after the run.
    staged: Mutex<Vec<(String, String)>>,
    /// Fragment outputs the app tier has custody of, keyed by fragment id;
    /// failover re-ships a failed fragment's inputs from here.
    cache: Mutex<HashMap<usize, DataSet>>,
}

impl Exec<'_> {
    /// Run the fragments in dependency order (the edges recorded in
    /// [`Fragment::inputs`]) and return the root fragment's result.
    ///
    /// With `workers <= 1` no thread is spawned: every fragment runs inline
    /// on the calling thread, in placement order. Otherwise fragments whose
    /// inputs are done dispatch onto a pool of `workers` threads, except
    /// the root and app-site fragments, which always run inline — the root
    /// so its result transfer stays last, app-driven iteration because it
    /// re-enters the executor and must keep riding this thread's progress
    /// entry. Every fragment runs under [`pool::with_workers`] pinned to
    /// its [`Fragment::parts`], so in-process engines partition its hot
    /// operators at the width the planner chose.
    ///
    /// Per-fragment [`Metrics`] are absorbed in **placement order** once
    /// every fragment settles, so counters and the transfer log are
    /// identical run-to-run regardless of completion order. On failure,
    /// dispatch stops, in-flight fragments drain, and the error of the
    /// earliest-placed failed fragment surfaces.
    fn run_fragments(&self, metrics: &mut Metrics, progress: &ProgressHandle) -> Result<DataSet> {
        let frags = &self.placement.fragments;
        let n = frags.len();
        let last = n - 1;
        progress.set_fragments_total(n);
        // Fragment ids are planner counters, not positions; map them back.
        let pos_of = |id: &usize| frags.iter().position(|f| f.id == *id);
        let deps: Vec<Vec<usize>> = frags
            .iter()
            .map(|f| f.inputs.iter().filter_map(pos_of).collect())
            .collect();

        let mut done = vec![false; n];
        let mut dispatched = vec![false; n];
        let mut slots: Vec<Option<Metrics>> = (0..n).map(|_| None).collect();
        let mut failures: Vec<(usize, CoreError)> = Vec::new();
        let mut root_out: Option<DataSet> = None;
        let mut in_flight = 0usize;

        let workers = self.opts.workers;
        let threads = if workers <= 1 { 0 } else { workers.min(last) };
        let inline = |pos: usize| threads == 0 || pos == last || frags[pos].site == APP_SITE;
        let run = |pos: usize, progress: Option<&ProgressHandle>| {
            let started = Instant::now();
            let mut m = Metrics::default();
            let parts = frags[pos].parts;
            let result = pool::with_workers(parts, || self.run_fragment(pos, &mut m, progress));
            (pos, started.elapsed().as_secs_f64(), m, result)
        };
        let (job_tx, job_rx) = crossbeam::channel::unbounded::<usize>();
        let job_rx = Mutex::new(job_rx);
        let (res_tx, res_rx) = crossbeam::channel::unbounded();

        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (job_rx, res_tx, run) = (&job_rx, res_tx.clone(), &run);
                scope.spawn(move || loop {
                    // The mutex only serializes job pickup; execution runs
                    // unlocked and therefore concurrently across workers.
                    let job = job_rx.lock().recv();
                    let Ok(pos) = job else { break };
                    if res_tx.send(run(pos, None)).is_err() {
                        break;
                    }
                });
            }
            drop(res_tx);

            loop {
                // Queue every ready pool fragment up to the first ready
                // inline one; once a fragment has failed, only drain.
                let mut next_inline = None;
                for pos in 0..n {
                    if !failures.is_empty() {
                        break;
                    }
                    if dispatched[pos] || !deps[pos].iter().all(|d| done[*d]) {
                        continue;
                    }
                    dispatched[pos] = true;
                    if inline(pos) {
                        next_inline = Some(pos);
                        break;
                    }
                    in_flight += 1;
                    let _ = job_tx.send(pos);
                }
                let (pos, secs, m, result) = match next_inline {
                    Some(pos) => run(pos, Some(progress)),
                    None if in_flight > 0 => {
                        let Ok(completion) = res_rx.recv() else { break };
                        in_flight -= 1;
                        completion
                    }
                    None => break,
                };
                progress.fragment_done(frags[pos].id, &frags[pos].site, secs);
                slots[pos] = Some(m);
                match result {
                    Ok(out) => {
                        done[pos] = true;
                        if out.is_some() {
                            root_out = out;
                        }
                    }
                    Err(e) => failures.push((pos, e)),
                }
            }
            drop(job_tx); // closes the job channel; workers exit their loops
        });

        for m in slots.into_iter().flatten() {
            metrics.absorb(m);
        }
        if let Some((_, e)) = failures.into_iter().min_by_key(|(p, _)| *p) {
            return Err(e);
        }
        root_out.ok_or_else(|| CoreError::Plan("scheduler finished without a root result".into()))
    }

    /// One fragment, start to finish: fragment span, transfer log,
    /// RemoteTcp push short-circuit, execute (or app-driven iterate),
    /// failover cache and output staging, charged to the fragment-local
    /// `metrics`. Returns `Some(result)` only for the root fragment.
    /// `progress` is `Some` only on the coordinator thread, where
    /// app-driven iteration reports its rounds.
    fn run_fragment(
        &self,
        pos: usize,
        metrics: &mut Metrics,
        progress: Option<&ProgressHandle>,
    ) -> Result<Option<DataSet>> {
        let (opts, tracer) = (self.opts, self.tracer);
        let is_root = pos == self.placement.fragments.len() - 1;
        let frag = &self.placement.fragments[pos];
        metrics.fragments += 1;
        let mut fspan = tracer.start(
            self.query_id,
            || format!("fragment:{}", frag.id),
            &frag.site,
        );
        // The transfer log accumulates the attempt history of this
        // fragment's output delivery (push and/or store attempts) into one
        // `transfer:{id}` span. The root stages nothing: its log is inert.
        let mut tlog = if is_root {
            TransferLog::inert()
        } else {
            TransferLog::start(tracer, fspan.id(), frag)
        };
        if frag.site != APP_SITE
            && !is_root
            && opts.transfer == TransferMode::RemoteTcp
            && self.try_remote_push(frag, metrics, &mut tlog)?
        {
            return Ok(None);
        }
        let out = if frag.site == APP_SITE {
            // App-driven control iteration (see planner docs).
            let noop = progress::ProgressTracker::noop();
            let progress = progress.unwrap_or(&noop);
            self.run_app_iterate(&frag.plan, metrics, fspan.id(), progress)?
        } else {
            self.execute_fragment(frag, metrics, fspan.id())?
        };
        fspan.set_rows(out.num_rows());
        if is_root {
            // Root fragment: the result returns to the application.
            let bytes = encode_dataset(&out).len();
            metrics.record_transfer(&frag.site, "app", bytes, false);
            let mut rspan = tracer.start(self.query_id, || "transfer:result".into(), &frag.site);
            rspan.set_bytes(bytes as u64);
            rspan.set_rows(out.num_rows());
            rspan.finish();
            return Ok(Some(out));
        }
        let failover = opts.recovery.enabled && opts.recovery.failover;
        if failover {
            self.cache.lock().insert(frag.id, out.clone());
        }
        match self.stage_output(frag, out, metrics, &mut tlog) {
            // The consuming site refused the staged input. Leave delivery
            // to the consumer's failover path, which re-ships inputs from
            // the app-tier cache onto whichever provider ends up running
            // the fragment.
            Err(_) if failover => Ok(None),
            staged => staged.map(|()| None),
        }
    }

    /// Client/app-driven iteration: the fallback when no provider can host an
    /// `Iterate` node. Each iteration re-enters the federation with the loop
    /// state inlined as a `Values` literal — so the state crosses the wire
    /// (inside the shipped plan) every round, which is precisely the cost the
    /// paper's "control iteration" extension avoids.
    fn run_app_iterate(
        &self,
        plan: &Plan,
        metrics: &mut Metrics,
        span: Option<u64>,
        progress: &ProgressHandle,
    ) -> Result<DataSet> {
        let (registry, opts, tracer) = (self.registry, self.opts, self.tracer);
        let Plan::Iterate {
            init,
            body,
            max_iters,
            epsilon,
        } = plan
        else {
            return Err(CoreError::Plan(format!(
                "app-site fragment must be an iterate, got {}",
                plan.op_kind().name()
            )));
        };
        let (mut cur, m) = run_plan_traced(registry, init, opts, tracer, span)?;
        metrics.absorb(m);
        for round in 0..*max_iters {
            tracer.event(span, || format!("iteration:{}", round + 1));
            // One span per iteration: the round's fragments nest under it and
            // its events carry the convergence numbers the `/progress`
            // endpoint and `EXPLAIN ANALYZE`'s convergence table render.
            let mut ispan = tracer.start(span, || format!("iteration:{}", round + 1), APP_SITE);
            let state_rows: Vec<Row> = cur.rows()?;
            let body_inlined = substitute_state(body, &cur, &state_rows);
            let (next, m) = run_plan_traced(registry, &body_inlined, opts, tracer, ispan.id())?;
            metrics.absorb(m);
            metrics.client_driven_iterations += 1;
            let rep = report(&cur, &next, *epsilon)?;
            ispan.set_rows(next.num_rows());
            ispan.event(|| match rep.delta {
                Some(d) => format!("delta:{d:.9}"),
                None => "delta:undefined".into(),
            });
            ispan.event(|| format!("rows_changed:{}", rep.rows_changed));
            ispan.finish();
            progress.iteration(round + 1, *max_iters, rep.delta, Some(rep.rows_changed));
            flight::global().record(APP_SITE, || {
                format!(
                    "iteration:{} delta:{:?} rows_changed:{}",
                    round + 1,
                    rep.delta,
                    rep.rows_changed
                )
            });
            cur = next;
            if rep.converged {
                break;
            }
        }
        Ok(cur)
    }

    /// Attempt the real server→server push of a non-root fragment's output
    /// (RemoteTcp mode). Returns `Ok(true)` when the output was delivered,
    /// `Ok(false)` to fall back to the store-based path — either because
    /// the providers have no transport, or because the push failed and the
    /// executor degrades the transfer (counted in `degraded_transfers`).
    fn try_remote_push(
        &self,
        frag: &Fragment,
        metrics: &mut Metrics,
        tlog: &mut TransferLog,
    ) -> Result<bool> {
        let tracer = self.tracer;
        let provider = self.registry.provider(&frag.site)?;
        let dest = self.registry.provider(&frag.dest_site)?;
        let Some(dest_ep) = dest.endpoint() else {
            return Ok(false);
        };
        let name = format!("{FRAG_PREFIX}{}", frag.id);
        let plan_bytes = encode_plan(&frag.plan).len();
        let span = tlog.span_id();
        let pushed = self.with_retry(
            &frag.site,
            Call::Push(frag.id),
            metrics,
            &mut |label| tlog.event(label),
            |metrics| {
                let before = wire_total(provider.as_ref());
                // The producer's and the peer's spans land under the
                // transfer span.
                let pushed = {
                    let _scope = scope::install(tracer, &frag.site, span);
                    provider.execute_push(&frag.plan, &dest_ep, &name)
                }?;
                // Only a provider with a transport has shipped the plan.
                metrics.record_plan_shipment(plan_bytes);
                metrics.real_wire_bytes += wire_total(provider.as_ref()) - before;
                Some(pushed)
            },
        );
        match pushed {
            None => Ok(false),
            Some(Ok(pushed)) => {
                // The server-to-server payload is real wire traffic too.
                metrics.real_wire_bytes += pushed;
                metrics.record_transfer(&frag.site, &frag.dest_site, pushed as usize, false);
                self.stage(&frag.dest_site, name);
                tlog.delivered("push", pushed as usize);
                Ok(true)
            }
            Some(Err(e)) if !self.opts.recovery.enabled => Err(e),
            Some(Err(_)) => {
                // Push is unrecoverable here: degrade to the store-based
                // Direct path (the executor re-runs the fragment below).
                metrics.degraded_transfers += 1;
                tlog.event(|| "degrade:direct".into());
                Ok(false)
            }
        }
    }

    /// Run one non-app fragment with retry and, when that fails for good,
    /// failover onto another capable provider.
    fn execute_fragment(
        &self,
        frag: &Fragment,
        metrics: &mut Metrics,
        span: Option<u64>,
    ) -> Result<DataSet> {
        let primary = match self.execute_at(&frag.site, &frag.plan, metrics, span) {
            Ok(out) => return Ok(out),
            Err(e) => e,
        };
        if !(self.opts.recovery.enabled && self.opts.recovery.failover) {
            return Err(primary);
        }
        self.tracer
            .event(span, || format!("failed:{}:{primary}", frag.site));
        flight::global().record(&frag.site, || {
            format!(
                "fragment:{}@{} failed permanently: {primary}",
                frag.id, frag.site
            )
        });
        for candidate in failover_candidates(self.registry, frag) {
            if self.reship_inputs(frag, &candidate, metrics, span).is_err() {
                continue;
            }
            if let Ok(out) = self.execute_at(&candidate, &frag.plan, metrics, span) {
                metrics.failovers += 1;
                self.tracer.event(span, || format!("failover:{candidate}"));
                flight::global().record(&candidate, || {
                    format!("failover: fragment:{} {}→{candidate}", frag.id, frag.site)
                });
                return Ok(out);
            }
        }
        // No candidate could take over: surface the original failure.
        Err(primary)
    }

    /// Ship `plan` to the provider at `site` and execute it under the
    /// retry ladder ([`Exec::with_retry`]).
    fn execute_at(
        &self,
        site: &str,
        plan: &Plan,
        metrics: &mut Metrics,
        span: Option<u64>,
    ) -> Result<DataSet> {
        let tracer = self.tracer;
        let provider = self.registry.provider(site)?;
        let plan_bytes = encode_plan(plan).len();
        self.with_retry(
            site,
            Call::Execute,
            metrics,
            &mut |label| tracer.event(span, label),
            |metrics| {
                // The plan ships to the provider as one expression tree,
                // once per attempt — retries are not free.
                metrics.record_plan_shipment(plan_bytes);
                let before = wire_total(provider.as_ref());
                // The provider's own spans (per-operator timings,
                // server-side handling) land under this fragment's span.
                let result = {
                    let _scope = scope::install(tracer, site, span);
                    provider.execute(plan)
                };
                metrics.real_wire_bytes += wire_total(provider.as_ref()) - before;
                Some(result)
            },
        )
        .expect("execute always answers")
    }

    /// Re-ship a failed-over fragment's staged inputs to its new site.
    /// Inputs the app tier never saw (RemoteTcp pushes) are recovered by
    /// re-running their producer fragments.
    fn reship_inputs(
        &self,
        frag: &Fragment,
        new_site: &str,
        metrics: &mut Metrics,
        span: Option<u64>,
    ) -> Result<()> {
        let dest = self.registry.provider(new_site)?;
        for &input in &frag.inputs {
            // Never hold the cache lock across a provider call: on a miss
            // the producer re-runs (possibly slowly) and other fragments
            // must keep making progress.
            let cached = self.cache.lock().get(&input).cloned();
            let data = match cached {
                Some(d) => d,
                None => {
                    let producer = self
                        .placement
                        .fragments
                        .iter()
                        .find(|f| f.id == input)
                        .ok_or_else(|| {
                            CoreError::Plan(format!("unknown fragment input {input}"))
                        })?;
                    let out = self.execute_at(&producer.site, &producer.plan, metrics, span)?;
                    self.cache.lock().insert(input, out.clone());
                    out
                }
            };
            let name = format!("{FRAG_PREFIX}{input}");
            let bytes = encode_dataset(&data).len();
            // The recovery hop goes through the app tier by construction.
            metrics.record_transfer("app", new_site, bytes, true);
            let mut rspan = self.tracer.start(span, || format!("reship:{input}"), "app");
            rspan.set_bytes(bytes as u64);
            let before = wire_total(dest.as_ref());
            dest.store(&name, data)?;
            metrics.real_wire_bytes += wire_total(dest.as_ref()) - before;
            rspan.finish();
            self.stage(new_site, name);
        }
        Ok(())
    }

    /// Stage a fragment's output at the consuming site, retrying transient
    /// store failures; a Direct transfer that keeps failing degrades to the
    /// app-routed path (counted in `degraded_transfers`) before giving up.
    fn stage_output(
        &self,
        frag: &Fragment,
        out: DataSet,
        metrics: &mut Metrics,
        tlog: &mut TransferLog,
    ) -> Result<()> {
        let name = format!("{FRAG_PREFIX}{}", frag.id);
        let bytes = encode_dataset(&out).len();
        let span = tlog.span_id();
        let store =
            |metrics: &mut Metrics| self.store_at(&frag.dest_site, &name, &out, metrics, span);
        let rung = |via_app| if via_app { "app-routed" } else { "direct" };
        let via_app = self.opts.transfer == TransferMode::AppRouted;
        tlog.event(|| format!("attempt:{}", rung(via_app)));
        let via_app = match store(metrics) {
            Ok(()) => via_app,
            Err(e) if !via_app && self.opts.recovery.enabled => {
                // Degrade Direct → AppRouted: the app tier takes custody of
                // the intermediate and re-delivers it on the two-hop path.
                metrics.degraded_transfers += 1;
                tlog.event(|| format!("error:{e}"));
                tlog.event(|| "degrade:app-routed".into());
                tlog.event(|| "attempt:app-routed".into());
                store(metrics).map_err(|_| e)?;
                true
            }
            Err(e) => return Err(e),
        };
        metrics.record_transfer(&frag.site, &frag.dest_site, bytes, via_app);
        self.stage(&frag.dest_site, name);
        tlog.delivered(rung(via_app), bytes);
        Ok(())
    }

    /// `Provider::store` at `site` under the retry ladder
    /// ([`Exec::with_retry`]).
    fn store_at(
        &self,
        site: &str,
        name: &str,
        data: &DataSet,
        metrics: &mut Metrics,
        span: Option<u64>,
    ) -> Result<()> {
        let provider = self.registry.provider(site)?;
        self.with_retry(
            site,
            Call::Store(name),
            metrics,
            &mut |label| self.tracer.event(span, label),
            |metrics| {
                let before = wire_total(provider.as_ref());
                let result = provider.store(name, data.clone());
                metrics.real_wire_bytes += wire_total(provider.as_ref()) - before;
                Some(result)
            },
        )
        .expect("store always answers")
    }

    /// Record a dataset staged at `site` for removal after the run.
    fn stage(&self, site: &str, name: String) {
        self.staged.lock().push((site.to_string(), name));
    }

    /// The retry rung of the recovery ladder, stated once for every
    /// provider call the executor makes: `attempt` runs up to
    /// [`RecoveryPolicy::attempts`] times, sleeping a doubling backoff
    /// before each retry (counted in `metrics.retries`), for as long as it
    /// fails transiently. Every failure is flight-recorded and reported to
    /// `site`'s circuit breaker — a trip is counted, traced and
    /// flight-recorded too — and a success closes the breaker. Trace events
    /// go to `trace`.
    ///
    /// `attempt` answers `None` when the provider cannot take the call at
    /// all (a push from a provider without a transport); the ladder then
    /// stops without touching the breaker.
    fn with_retry<T>(
        &self,
        site: &str,
        call: Call<'_>,
        metrics: &mut Metrics,
        trace: &mut dyn FnMut(&dyn Fn() -> String),
        mut attempt: impl FnMut(&mut Metrics) -> Option<Result<T>>,
    ) -> Option<Result<T>> {
        let health = self.registry.health();
        let attempts = self.opts.recovery.attempts();
        let mut backoff = self.opts.recovery.backoff;
        for n in 1..=attempts {
            if n > 1 {
                metrics.retries += 1;
                match call {
                    Call::Execute => trace(&|| format!("retry:execute@{site} attempt {n}")),
                    Call::Store(_) => trace(&|| format!("retry:store@{site} attempt {n}")),
                    Call::Push(_) => {}
                }
                sleep_backoff(&mut backoff);
            }
            if let Call::Push(_) = call {
                trace(&|| "attempt:push".into());
            }
            let e = match attempt(metrics)? {
                Ok(out) => {
                    health.record_success(site);
                    return Some(Ok(out));
                }
                Err(e) => e,
            };
            if let Call::Push(_) = call {
                trace(&|| format!("error:{e}"));
            }
            flight::global().record(site, || match call {
                Call::Execute => format!("execute@{site} attempt {n} failed: {e}"),
                Call::Store(name) => format!("store {name}@{site} attempt {n} failed: {e}"),
                Call::Push(id) => format!("push fragment:{id}@{site} failed: {e}"),
            });
            // The failure may be the site refusing a dataset it no longer
            // holds: its catalog is read again before it is trusted.
            self.registry.forget_catalog(site);
            if health.record_failure(site) {
                metrics.breaker_trips += 1;
                trace(&|| format!("breaker:trip:{site}"));
                flight::global().record(site, || format!("breaker trip: {site}"));
            }
            if !e.is_transient() || n == attempts {
                return Some(Err(e));
            }
        }
        unreachable!("the last attempt always returns")
    }
}

/// A provider call the retry ladder repeats; it names the call's trace
/// events and flight-recorder lines.
#[derive(Clone, Copy)]
enum Call<'a> {
    /// `Provider::execute`: retries are traced on the fragment span.
    Execute,
    /// `Provider::store` of the named dataset: retries are traced on the
    /// transfer span.
    Store(&'a str),
    /// `Provider::execute_push` of a fragment's output: every attempt and
    /// error lands in the fragment's transfer log.
    Push(usize),
}

/// Providers able to take over `frag` after its pinned site failed for
/// good: breaker-available, capability-covering, and already holding every
/// base dataset the fragment scans (staged inputs are re-shipped, base
/// data is not). Recovery must see current state, so each remaining
/// candidate's catalog is read fresh, once, which also refreshes the
/// registry's memo for the next op.
fn failover_candidates(registry: &Registry, frag: &Fragment) -> Vec<String> {
    let scans = base_scans(&frag.plan);
    registry
        .providers()
        .iter()
        .filter(|p| p.name() != frag.site)
        .filter(|p| registry.health().is_available(p.name()))
        .filter(|p| p.capabilities().supports_plan(&frag.plan))
        .filter(|p| {
            // A fragment that scans only staged inputs needs no catalog.
            scans.is_empty() || {
                let names = registry.read_catalog(p.as_ref());
                scans.iter().all(|d| names.contains(d))
            }
        })
        .map(|p| p.name().to_string())
        .collect()
}

/// The base (not staged) datasets a plan scans.
fn base_scans(plan: &Plan) -> Vec<String> {
    plan.scanned_datasets()
        .into_iter()
        .filter(|d| !d.starts_with(FRAG_PREFIX))
        .collect()
}

/// Sleep the current backoff, then double it for the next retry.
fn sleep_backoff(backoff: &mut Duration) {
    if !backoff.is_zero() {
        std::thread::sleep(*backoff);
        *backoff = backoff.saturating_mul(2);
    }
}

/// Total real transport traffic of a provider (sent + received).
fn wire_total(p: &dyn bda_core::Provider) -> u64 {
    let (sent, received) = p.wire_bytes();
    sent + received
}

thread_local! {
    /// Placement nesting depth on this thread: 0 outside a query, >0
    /// inside (app-driven iteration re-enters the executor per round).
    static QUERY_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Register the outermost placement of this thread on the global
/// progress board; nested placements get an inert handle.
fn enter_query(placement: &Placement, tracer: &Tracer) -> ProgressHandle {
    let depth = QUERY_DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    if depth > 0 {
        return progress::ProgressTracker::noop();
    }
    let root = placement
        .fragments
        .last()
        .expect("placement checked non-empty");
    let label = format!("query:{}", root.plan.op_kind().name());
    flight::global().record("app", || {
        format!(
            "query start: {label} ({} fragments)",
            placement.fragments.len()
        )
    });
    progress::global().start(&label, tracer.trace_id())
}

/// Counterpart of [`enter_query`]: pop the depth, settle the progress
/// entry, and — when the outermost query failed permanently — dump the
/// flight recorder and attach the dump path to the surfaced error.
fn leave_query(
    progress: ProgressHandle,
    tracer: &Tracer,
    outcome: Result<DataSet>,
) -> Result<DataSet> {
    let top_level = progress.is_active();
    QUERY_DEPTH.with(|d| d.set(d.get() - 1));
    match outcome {
        Ok(ds) => {
            progress.finish();
            Ok(ds)
        }
        Err(e) => {
            flight::global().record("app", || format!("query failed permanently: {e}"));
            progress.fail();
            if !top_level {
                return Err(e);
            }
            let tag = dump_tag(tracer);
            match flight::global().dump_for_failure(&tag) {
                Some(path) => Err(attach_note(e, &format!("flight:{}", path.display()))),
                None => Err(e),
            }
        }
    }
}

/// A unique-enough dump-file tag: the trace id when tracing, else a
/// process-wide failure counter.
fn dump_tag(tracer: &Tracer) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static FAILURES: AtomicU64 = AtomicU64::new(0);
    let n = FAILURES.fetch_add(1, Ordering::Relaxed);
    if tracer.is_enabled() {
        format!("{:016x}", tracer.trace_id())
    } else {
        format!("q{n}")
    }
}

/// Append an operator-facing note (the flight-dump path) to an error
/// without changing its variant or transience. Structured variants that
/// carry no free-form message pass through untouched — the dump file
/// still exists on disk either way.
fn attach_note(e: CoreError, note: &str) -> CoreError {
    match e {
        CoreError::Plan(m) => CoreError::Plan(format!("{m} [{note}]")),
        CoreError::Expr(m) => CoreError::Expr(format!("{m} [{note}]")),
        CoreError::Lower(m) => CoreError::Lower(format!("{m} [{note}]")),
        CoreError::Net(m) => CoreError::Net(format!("{m} [{note}]")),
        CoreError::Remote { addr, msg } => CoreError::Remote {
            addr,
            msg: format!("{msg} [{note}]"),
        },
        CoreError::Transient(inner) => CoreError::transient(attach_note(*inner, note)),
        other => other,
    }
}

/// The attempt history of one fragment-output transfer, emitted as a
/// single `transfer:{id}` span once delivery succeeds (or, on total
/// failure, when the log drops — the span then ends without a `mode:`
/// event). Inert when tracing is disabled: every method is a null check.
struct TransferLog {
    guard: Option<SpanGuard>,
}

impl TransferLog {
    fn start(tracer: &Tracer, parent: Option<u64>, frag: &Fragment) -> TransferLog {
        TransferLog {
            guard: Some(tracer.start(parent, || format!("transfer:{}", frag.id), &frag.site)),
        }
    }

    /// A log that records nothing (root fragments stage no output).
    fn inert() -> TransferLog {
        TransferLog { guard: None }
    }

    /// The transfer span's id, for parenting retry events onto it.
    fn span_id(&self) -> Option<u64> {
        self.guard.as_ref().and_then(|g| g.id())
    }

    fn event(&mut self, label: impl FnOnce() -> String) {
        if let Some(g) = &mut self.guard {
            g.event(label);
        }
    }

    /// Delivery succeeded on the given ladder rung: stamp the final mode
    /// and payload size and close the span.
    fn delivered(&mut self, mode: &'static str, bytes: usize) {
        if let Some(mut g) = self.guard.take() {
            g.event(|| format!("mode:{mode}"));
            g.set_bytes(bytes as u64);
            g.finish();
        }
    }
}

/// Replace every `IterState` leaf by a `Values` literal of the current
/// state.
fn substitute_state(body: &Plan, state: &DataSet, rows: &[Row]) -> Plan {
    body.transform_up(&|node| match node {
        Plan::IterState { .. } => Plan::Values {
            schema: state.schema().clone(),
            rows: rows.to_vec(),
        },
        other => other,
    })
}

/// Convenience for tests: the total float of a single-cell result.
pub fn scalar_of(ds: &DataSet) -> Result<Value> {
    let rows = ds.rows()?;
    if rows.len() != 1 || rows[0].len() != 1 {
        return Err(CoreError::Plan(format!(
            "expected a scalar result, got {} rows x {} cols",
            rows.len(),
            rows.first().map(|r| r.len()).unwrap_or(0)
        )));
    }
    Ok(rows[0].get(0).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::reference::evaluate;
    use bda_core::{col, lit, AggExpr, AggFunc, Provider};
    use bda_linalg::LinAlgEngine;
    use bda_relational::RelationalEngine;
    use bda_storage::dataset::{dataset_matrix, matrix_dataset};
    use bda_storage::Column;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn registry() -> Registry {
        let rel = RelationalEngine::new("rel");
        rel.store(
            "sales",
            DataSet::from_columns(vec![
                ("k", Column::from(vec![1i64, 2, 3, 4])),
                ("v", Column::from(vec![1.0f64, 2.0, 3.0, 4.0])),
            ])
            .unwrap(),
        )
        .unwrap();
        rel.store(
            "a_rows",
            matrix_dataset(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap(),
        )
        .unwrap();
        let la = LinAlgEngine::new("la");
        la.store(
            "b",
            matrix_dataset(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap(),
        )
        .unwrap();
        let mut r = Registry::new();
        r.register(Arc::new(rel));
        r.register(Arc::new(la));
        r
    }

    #[test]
    fn single_site_query() {
        let r = registry();
        let plan = Plan::scan("sales", r.schema_of("sales").unwrap())
            .select(col("v").gt(lit(1.5)))
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, col("v"), "s")]);
        let (out, m) = run_plan(&r, &plan, &ExecOptions::default()).unwrap();
        assert_eq!(scalar_of(&out).unwrap(), Value::Float(9.0));
        assert_eq!(m.fragments, 1);
        assert_eq!(m.app_tier_bytes(), 0);
    }

    #[test]
    fn cross_engine_matmul_direct_vs_routed() {
        let r = registry();
        let plan = Plan::scan("a_rows", r.schema_of("a_rows").unwrap()).matmul(Plan::scan(
            "b",
            r.provider("la").unwrap().schema_of("b").unwrap(),
        ));
        let direct = run_plan(&r, &plan, &ExecOptions::default()).unwrap();
        let routed = run_plan(
            &r,
            &plan,
            &ExecOptions {
                transfer: TransferMode::AppRouted,
                ..Default::default()
            },
        )
        .unwrap();
        // Same answer either way.
        let (_, _, d1) = dataset_matrix(&direct.0).unwrap();
        let (_, _, d2) = dataset_matrix(&routed.0).unwrap();
        assert_eq!(d1, vec![58., 64., 139., 154.]);
        assert_eq!(d1, d2);
        // Direct: zero bytes through the app tier; routed: all
        // intermediate bytes through it; both move the same data total.
        assert_eq!(direct.1.app_tier_bytes(), 0);
        assert!(routed.1.app_tier_bytes() > 0);
        assert_eq!(direct.1.data_bytes(), routed.1.data_bytes());
        assert!(routed.1.messages > direct.1.messages);
        // Intermediates are cleaned up afterwards.
        assert!(r
            .provider("la")
            .unwrap()
            .catalog()
            .iter()
            .all(|(n, _)| !n.starts_with(FRAG_PREFIX)));
    }

    #[test]
    fn federated_result_matches_reference() {
        let r = registry();
        let plan = Plan::scan("a_rows", r.schema_of("a_rows").unwrap()).matmul(Plan::scan(
            "b",
            r.provider("la").unwrap().schema_of("b").unwrap(),
        ));
        let (out, _) = run_plan(&r, &plan, &ExecOptions::default()).unwrap();
        // Oracle over a merged source.
        let mut src = HashMap::new();
        src.insert(
            "a_rows".to_string(),
            matrix_dataset(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap(),
        );
        src.insert(
            "b".to_string(),
            matrix_dataset(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap(),
        );
        let oracle = evaluate(&plan, &src).unwrap();
        // linalg result is dense; compare after normalizing layout.
        assert_eq!(out.sorted_rows().unwrap(), oracle.sorted_rows().unwrap());
    }

    #[test]
    fn server_side_iteration_stays_on_server() {
        let r = registry();
        // halve `v` until it converges; relational engine hosts Iterate.
        let schema = r.schema_of("sales").unwrap();
        let plan = Plan::Iterate {
            init: Plan::scan("sales", schema.clone()).boxed(),
            body: Plan::IterState { schema }
                .project(vec![("k", col("k")), ("v", col("v").mul(lit(0.5)))])
                .boxed(),
            max_iters: 50,
            epsilon: Some(1e-6),
        };
        let (out, m) = run_plan(&r, &plan, &ExecOptions::default()).unwrap();
        assert_eq!(m.client_driven_iterations, 0, "loop must run server-side");
        assert_eq!(m.fragments, 1);
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn app_driven_iteration_when_no_server_supports_it() {
        // Registry with linalg only: Iterate is driven by the app tier.
        let la = LinAlgEngine::new("la");
        la.store("m", matrix_dataset(2, 2, vec![0.5, 0., 0., 0.5]).unwrap())
            .unwrap();
        la.store("x", matrix_dataset(2, 2, vec![1., 0., 0., 1.]).unwrap())
            .unwrap();
        let mut r = Registry::new();
        r.register(Arc::new(la));
        let m_schema = r.provider("la").unwrap().schema_of("m").unwrap();
        let x_schema = r.provider("la").unwrap().schema_of("x").unwrap();
        let plan = Plan::Iterate {
            init: Plan::scan("x", x_schema.clone()).boxed(),
            body: Plan::scan("m", m_schema)
                .matmul(Plan::IterState { schema: x_schema })
                .boxed(),
            max_iters: 4,
            epsilon: None,
        };
        let (out, m) = run_plan(&r, &plan, &ExecOptions::default()).unwrap();
        assert_eq!(m.client_driven_iterations, 4);
        let (_, _, data) = dataset_matrix(&out).unwrap();
        // (0.5 I)^4 = 0.0625 I.
        assert!((data[0] - 0.0625).abs() < 1e-12, "{data:?}");
        assert!((data[3] - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn empty_placement_is_an_error() {
        let r = registry();
        let err = execute_placement(
            &r,
            &Placement { fragments: vec![] },
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("empty placement"), "{err}");
    }

    #[test]
    fn transient_failures_retry_to_success() {
        use crate::fault::{FaultConfig, FaultyProvider};
        let rel = RelationalEngine::new("rel");
        rel.store(
            "sales",
            DataSet::from_columns(vec![
                ("k", Column::from(vec![1i64, 2, 3, 4])),
                ("v", Column::from(vec![1.0f64, 2.0, 3.0, 4.0])),
            ])
            .unwrap(),
        )
        .unwrap();
        let faulty = FaultyProvider::new(
            Arc::new(rel),
            FaultConfig {
                fail_first: 2,
                ..FaultConfig::default()
            },
        );
        let mut r = Registry::new();
        r.register(Arc::new(faulty));
        let plan = Plan::scan("sales", r.schema_of("sales").unwrap())
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, col("v"), "s")]);
        let (out, m) = run_plan(&r, &plan, &ExecOptions::default()).unwrap();
        assert_eq!(scalar_of(&out).unwrap(), Value::Float(10.0));
        assert_eq!(m.retries, 2);
        assert_eq!(m.failovers, 0);
    }

    #[test]
    fn recovery_disabled_surfaces_the_failure() {
        use crate::fault::{FaultConfig, FaultyProvider};
        let rel = RelationalEngine::new("rel");
        rel.store(
            "sales",
            DataSet::from_columns(vec![("v", Column::from(vec![1.0f64]))]).unwrap(),
        )
        .unwrap();
        let faulty = FaultyProvider::new(
            Arc::new(rel),
            FaultConfig {
                fail_first: 1,
                ..FaultConfig::default()
            },
        );
        let mut r = Registry::new();
        r.register(Arc::new(faulty));
        let plan = Plan::scan("sales", r.schema_of("sales").unwrap()).limit(1);
        let opts = ExecOptions {
            recovery: RecoveryPolicy::disabled(),
            ..Default::default()
        };
        let err = run_plan(&r, &plan, &opts).unwrap_err();
        assert!(err.to_string().contains("injected transient"), "{err}");
    }

    #[test]
    fn crashed_provider_fails_over_to_replica() {
        use crate::fault::{FaultConfig, FaultyProvider};
        let rel = RelationalEngine::new("rel");
        rel.store(
            "a_rows",
            matrix_dataset(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap(),
        )
        .unwrap();
        let b = matrix_dataset(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let la1 = LinAlgEngine::new("la1");
        la1.store("b", b.clone()).unwrap();
        let la2 = LinAlgEngine::new("la2");
        la2.store("b", b).unwrap();
        let mut r = Registry::new();
        r.register(Arc::new(rel));
        // la1 registers first, so the planner pins the matmul there — but
        // it is dead on arrival. la2 is the identical replica.
        r.register(Arc::new(FaultyProvider::new(
            Arc::new(la1),
            FaultConfig::crash_after(0),
        )));
        r.register(Arc::new(la2));
        let plan = Plan::scan("a_rows", r.schema_of("a_rows").unwrap()).matmul(Plan::scan(
            "b",
            r.provider("la2").unwrap().schema_of("b").unwrap(),
        ));
        let (out, m) = run_plan(&r, &plan, &ExecOptions::default()).unwrap();
        let (_, _, data) = dataset_matrix(&out).unwrap();
        assert_eq!(data, vec![58., 64., 139., 154.]);
        assert_eq!(m.failovers, 1);
        assert!(m.degraded_transfers >= 1, "staging at la1 degraded first");
        // The failover re-ship is cleaned up like any staged intermediate.
        assert!(r
            .provider("la2")
            .unwrap()
            .catalog()
            .iter()
            .all(|(n, _)| !n.starts_with(FRAG_PREFIX)));
    }

    #[test]
    fn degraded_transfer_is_one_span_with_every_attempt() {
        use crate::fault::{FaultConfig, FaultyProvider};

        /// A provider with a (fake) network endpoint, so the RemoteTcp
        /// path actually attempts a push at its producer.
        struct WithEndpoint {
            inner: LinAlgEngine,
        }
        impl Provider for WithEndpoint {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn capabilities(&self) -> bda_core::CapabilitySet {
                self.inner.capabilities()
            }
            fn catalog(&self) -> Vec<(String, bda_storage::Schema)> {
                self.inner.catalog()
            }
            fn execute(&self, plan: &Plan) -> Result<DataSet> {
                self.inner.execute(plan)
            }
            fn store(&self, name: &str, data: DataSet) -> Result<()> {
                self.inner.store(name, data)
            }
            fn remove(&self, name: &str) {
                self.inner.remove(name)
            }
            fn row_count_of(&self, name: &str) -> Option<usize> {
                self.inner.row_count_of(name)
            }
            fn endpoint(&self) -> Option<String> {
                Some("127.0.0.1:9".into())
            }
        }

        let rel = RelationalEngine::new("rel");
        rel.store(
            "a_rows",
            matrix_dataset(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap(),
        )
        .unwrap();
        let la = LinAlgEngine::new("la");
        la.store(
            "b",
            matrix_dataset(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap(),
        )
        .unwrap();
        // Producer: its first 3 faultable calls (the 3 push attempts)
        // fail, then the fragment's execute succeeds. Consumer: its
        // first 3 faultable calls (the 3 direct-store attempts) fail,
        // then the app-routed store and the matmul succeed. Both
        // streams are seeded and deterministic.
        let mut r = Registry::new();
        r.register(Arc::new(FaultyProvider::new(
            Arc::new(rel),
            FaultConfig {
                seed: 7,
                fail_first: 3,
                ..FaultConfig::default()
            },
        )));
        r.register(Arc::new(FaultyProvider::new(
            Arc::new(WithEndpoint { inner: la }),
            FaultConfig {
                seed: 7,
                fail_first: 3,
                ..FaultConfig::default()
            },
        )));
        let plan = Plan::scan("a_rows", r.schema_of("a_rows").unwrap()).matmul(Plan::scan(
            "b",
            r.provider("la").unwrap().schema_of("b").unwrap(),
        ));
        let opts = ExecOptions {
            transfer: TransferMode::RemoteTcp,
            ..Default::default()
        };
        let tracer = Tracer::new(7);
        let (out, m) = run_plan_traced(&r, &plan, &opts, &tracer, None).unwrap();
        let (_, _, data) = dataset_matrix(&out).unwrap();
        assert_eq!(data, vec![58., 64., 139., 154.]);
        assert_eq!(m.degraded_transfers, 2, "push→direct and direct→app-routed");

        // The whole ladder is ONE transfer span whose events record
        // every attempt: 3 pushes, the direct try, the app-routed try.
        let trace = tracer.finish();
        let transfers = trace.spans_named("transfer:0");
        assert_eq!(transfers.len(), 1, "one span per transfer:\n{transfers:#?}");
        let t = transfers[0];
        let labels: Vec<&str> = t.events.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(
            labels.iter().filter(|l| **l == "attempt:push").count(),
            3,
            "{labels:?}"
        );
        for needed in [
            "degrade:direct",
            "attempt:direct",
            "degrade:app-routed",
            "attempt:app-routed",
            "mode:app-routed",
        ] {
            assert!(labels.contains(&needed), "missing {needed}: {labels:?}");
        }
        // Attempts appear in ladder order.
        let pos = |l: &str| labels.iter().position(|x| *x == l).unwrap();
        assert!(pos("attempt:push") < pos("attempt:direct"), "{labels:?}");
        assert!(
            pos("attempt:direct") < pos("attempt:app-routed"),
            "{labels:?}"
        );
        assert!(t.bytes.is_some(), "delivered payload size recorded");
    }

    #[test]
    fn store_retries_are_traced_under_the_transfer_span_at_any_worker_count() {
        use crate::fault::{FaultConfig, FaultyProvider};
        let base = registry();
        let schema = |site: &str, name| base.provider(site).unwrap().schema_of(name).unwrap();
        let plan = Plan::scan("a_rows", schema("rel", "a_rows"))
            .matmul(Plan::scan("b", schema("la", "b")));
        let src = [("a_rows", "rel"), ("b", "la")].map(|(name, site)| {
            let scan = Plan::scan(name, schema(site, name));
            (
                name.to_string(),
                base.provider(site).unwrap().execute(&scan).unwrap(),
            )
        });
        let oracle = evaluate(&plan, &HashMap::from(src)).unwrap();
        let run = |workers| {
            // The destination's first two faultable calls are the first
            // two attempts to stage `a_rows` there; the third succeeds.
            let mut r = Registry::new();
            r.register(base.provider("rel").unwrap());
            let la = base.provider("la").unwrap();
            let fail_first = FaultConfig {
                fail_first: 2,
                ..FaultConfig::default()
            };
            r.register(Arc::new(FaultyProvider::new(la, fail_first)));
            let tracer = Tracer::new(5);
            let opts = ExecOptions {
                workers,
                ..Default::default()
            };
            let (out, m) = run_plan_traced(&r, &plan, &opts, &tracer, None).unwrap();
            assert!(out.same_bag(&oracle).unwrap(), "workers={workers}");
            assert_eq!(m.retries, 2, "workers={workers}");
            let trace = tracer.finish();
            let events = &trace.spans_named("transfer:0")[0].events;
            let retries = events
                .iter()
                .filter(|e| e.label.starts_with("retry:store@la"));
            assert_eq!(retries.count(), 2, "workers={workers}: {events:?}");
            m
        };
        let (sequential, parallel) = (run(1), run(4));
        assert_eq!(sequential.retries, parallel.retries);
        assert_eq!(sequential.messages, parallel.messages);
        assert_eq!(sequential.transfers, parallel.transfers);
    }

    #[test]
    fn parallel_execution_matches_sequential_and_records_partition_spans() {
        let r = registry();
        let schema = r.schema_of("sales").unwrap();
        let scan = Plan::scan("sales", schema);
        let plan = scan
            .clone()
            .join(scan, vec![("k", "k")])
            .aggregate(vec!["k"], vec![AggExpr::new(AggFunc::Sum, col("v"), "s")]);
        let seq = run_plan(
            &r,
            &plan,
            &ExecOptions {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let tracer = Tracer::new(11);
        let opts = ExecOptions {
            workers: 4,
            ..Default::default()
        };
        let (out, m) = run_plan_traced(&r, &plan, &opts, &tracer, None).unwrap();
        assert!(out.same_bag(&seq.0).unwrap());
        assert_eq!(m.fragments, seq.1.fragments);
        // The engine ran partitioned kernels: per-partition spans land in
        // the trace (join and aggregate each split into 4).
        let parts = tracer.finish().spans_named("partition:").len();
        assert!(parts >= 8, "expected per-partition spans, got {parts}");
    }

    #[test]
    fn parallel_execution_preserves_failover() {
        use crate::fault::{FaultConfig, FaultyProvider};
        let rel = RelationalEngine::new("rel");
        rel.store(
            "a_rows",
            matrix_dataset(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap(),
        )
        .unwrap();
        let b = matrix_dataset(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let la1 = LinAlgEngine::new("la1");
        la1.store("b", b.clone()).unwrap();
        let la2 = LinAlgEngine::new("la2");
        la2.store("b", b).unwrap();
        let mut r = Registry::new();
        r.register(Arc::new(rel));
        r.register(Arc::new(FaultyProvider::new(
            Arc::new(la1),
            FaultConfig::crash_after(0),
        )));
        r.register(Arc::new(la2));
        let plan = Plan::scan("a_rows", r.schema_of("a_rows").unwrap()).matmul(Plan::scan(
            "b",
            r.provider("la2").unwrap().schema_of("b").unwrap(),
        ));
        let opts = ExecOptions {
            workers: 4,
            ..Default::default()
        };
        let (out, m) = run_plan(&r, &plan, &opts).unwrap();
        let (_, _, data) = dataset_matrix(&out).unwrap();
        assert_eq!(data, vec![58., 64., 139., 154.]);
        assert_eq!(m.failovers, 1);
        assert!(r
            .provider("la2")
            .unwrap()
            .catalog()
            .iter()
            .all(|(n, _)| !n.starts_with(FRAG_PREFIX)));
    }

    #[test]
    fn parallel_app_driven_iteration_matches_sequential() {
        let la = LinAlgEngine::new("la");
        la.store("m", matrix_dataset(2, 2, vec![0.5, 0., 0., 0.5]).unwrap())
            .unwrap();
        la.store("x", matrix_dataset(2, 2, vec![1., 0., 0., 1.]).unwrap())
            .unwrap();
        let mut r = Registry::new();
        r.register(Arc::new(la));
        let m_schema = r.provider("la").unwrap().schema_of("m").unwrap();
        let x_schema = r.provider("la").unwrap().schema_of("x").unwrap();
        let plan = Plan::Iterate {
            init: Plan::scan("x", x_schema.clone()).boxed(),
            body: Plan::scan("m", m_schema)
                .matmul(Plan::IterState { schema: x_schema })
                .boxed(),
            max_iters: 4,
            epsilon: None,
        };
        let opts = ExecOptions {
            workers: 4,
            ..Default::default()
        };
        let (out, m) = run_plan(&r, &plan, &opts).unwrap();
        assert_eq!(m.client_driven_iterations, 4);
        let (_, _, data) = dataset_matrix(&out).unwrap();
        assert!((data[0] - 0.0625).abs() < 1e-12, "{data:?}");
        assert!((data[3] - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn parallel_failure_surfaces_earliest_fragment_error() {
        use crate::fault::{FaultConfig, FaultyProvider};
        let rel = RelationalEngine::new("rel");
        rel.store(
            "sales",
            DataSet::from_columns(vec![("v", Column::from(vec![1.0f64]))]).unwrap(),
        )
        .unwrap();
        let faulty = FaultyProvider::new(
            Arc::new(rel),
            FaultConfig {
                fail_first: 10,
                ..FaultConfig::default()
            },
        );
        let mut r = Registry::new();
        r.register(Arc::new(faulty));
        let plan = Plan::scan("sales", r.schema_of("sales").unwrap()).limit(1);
        let opts = ExecOptions {
            recovery: RecoveryPolicy::disabled(),
            workers: 4,
            ..Default::default()
        };
        let err = run_plan(&r, &plan, &opts).unwrap_err();
        assert!(err.to_string().contains("injected transient"), "{err}");
    }

    #[test]
    fn plan_shipping_counts_bytes() {
        let r = registry();
        let plan = Plan::scan("sales", r.schema_of("sales").unwrap()).limit(1);
        let (_, m) = run_plan(&r, &plan, &ExecOptions::default()).unwrap();
        assert!(m.plan_bytes > 0);
        assert!(m.messages >= 2); // plan shipment + result return
    }
}
