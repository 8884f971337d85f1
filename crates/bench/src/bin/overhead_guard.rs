//! The CI overhead guard: tracing must be off-by-default-cheap, and the
//! always-on flight recorder must ride inside the same budget.
//!
//! Runs the cross-engine join⋈matmul plan through four entry points —
//! the untraced `Federation::run` with the flight recorder silenced
//! (the true baseline), the same run with the recorder on (what every
//! production query pays for the crash flight recorder), the traced
//! path with a *disabled* tracer (the hook cost), and a live tracer —
//! interleaved round-robin so clock drift hits all four equally, and
//! compares medians.
//!
//! Exit 1 if the disabled-tracer path or the recorder-on path exceeds
//! the recorder-off untraced baseline by more than `BDA_OBS_BUDGET_PCT`
//! percent (default 2) *and* the gap is above a small absolute noise
//! floor. The enabled-path overhead is reported for context but not
//! gated — recording spans is allowed to cost something; the hooks and
//! the recorder when nobody is looking are not.
//!
//! ```text
//! BDA_OBS_BUDGET_PCT=2 cargo run --release -p bda-bench --bin overhead_guard
//! ```

use bda_bench::observed_federation;
use bda_obs::{flight, Tracer};
use std::time::Instant;

const N: usize = 128;
const WARMUP: usize = 3;
const REPS: usize = 21;
/// Gaps below this many seconds are indistinguishable from scheduler
/// noise at this workload size and never fail the guard.
const NOISE_FLOOR_S: f64 = 50e-6;

fn main() {
    let budget_pct: f64 = std::env::var("BDA_OBS_BUDGET_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);

    let (fed, plan) = observed_federation(N);
    let disabled = Tracer::disabled();
    // The recorder is a process-global; default it off so the baseline,
    // hook, and live-tracer variants measure *only* what they claim to,
    // and switch it on just for the recorder-on variant.
    flight::global().set_enabled(false);

    for _ in 0..WARMUP {
        fed.run(&plan).unwrap();
        fed.run_traced(&plan, &disabled).unwrap();
        fed.run_traced(&plan, &Tracer::new(7)).unwrap();
    }

    // Rotate which variant runs first each rep: allocator and cache
    // state left by the previous run otherwise bias whichever variant
    // holds a fixed slot in the round.
    let mut samples: [Vec<f64>; 4] = [
        Vec::with_capacity(REPS),
        Vec::with_capacity(REPS),
        Vec::with_capacity(REPS),
        Vec::with_capacity(REPS),
    ];
    for rep in 0..REPS {
        for k in 0..4 {
            let which = (rep + k) % 4;
            if which == 1 {
                flight::global().set_enabled(true);
            }
            let s = Instant::now();
            match which {
                0 => drop(fed.run(&plan).unwrap()),
                1 => drop(fed.run(&plan).unwrap()),
                2 => drop(fed.run_traced(&plan, &disabled).unwrap()),
                _ => drop(fed.run_traced(&plan, &Tracer::new(7)).unwrap()),
            }
            samples[which].push(s.elapsed().as_secs_f64());
            if which == 1 {
                flight::global().set_enabled(false);
            }
        }
    }
    let [mut t_untraced, mut t_recorder, mut t_hooks_off, mut t_traced] = samples;

    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let untraced = median(&mut t_untraced);
    let recorder = median(&mut t_recorder);
    let hooks_off = median(&mut t_hooks_off);
    let traced = median(&mut t_traced);
    let pct = |x: f64| (x - untraced) / untraced * 100.0;

    println!("overhead guard (n={N}, {REPS} interleaved reps, median):");
    println!("  untraced run():          {:>10.1} us", untraced * 1e6);
    println!(
        "  flight recorder on:      {:>10.1} us ({:+.2}%)",
        recorder * 1e6,
        pct(recorder)
    );
    println!(
        "  disabled-tracer hooks:   {:>10.1} us ({:+.2}%)",
        hooks_off * 1e6,
        pct(hooks_off)
    );
    println!(
        "  live tracer:             {:>10.1} us ({:+.2}%)",
        traced * 1e6,
        pct(traced)
    );

    // Trace completeness rides along: every transfer in the metrics has
    // a matching span, and none were dropped.
    let tracer = Tracer::new(7);
    let (_, m) = fed.run_traced(&plan, &tracer).unwrap();
    let trace = tracer.finish();
    let moved = trace.spans_named("transfer:").len() + trace.spans_named("reship:").len();
    if m.transfers.len() != moved || trace.dropped > 0 {
        eprintln!(
            "FAIL: trace incomplete — {} metrics transfers vs {moved} \
             transfer/reship spans ({} dropped)",
            m.transfers.len(),
            trace.dropped
        );
        std::process::exit(1);
    }
    println!(
        "  trace complete: {} transfers, {} spans, 0 dropped",
        m.transfers.len(),
        trace.spans.len()
    );

    // Gate on the *minimum* sample of each variant: the best-case run
    // is the least noisy estimate of true cost, and the gated paths are
    // identical code modulo the tracer's null check / the recorder's
    // enabled flag — any stable gap between minima is real overhead.
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let u_min = min(&t_untraced);
    let mut failed = false;
    for (label, variant_min) in [
        ("disabled-tracing hooks", min(&t_hooks_off)),
        ("always-on flight recorder", min(&t_recorder)),
    ] {
        let gap = variant_min - u_min;
        let gap_pct = gap / u_min * 100.0;
        if gap_pct > budget_pct && gap > NOISE_FLOOR_S {
            eprintln!(
                "FAIL: {label} cost {gap_pct:+.2}% at the minimum \
                 (budget {budget_pct}%, gap {:.1} us)",
                gap * 1e6
            );
            failed = true;
        } else {
            println!("  {label} within budget ({budget_pct}%; min-to-min gap {gap_pct:+.2}%)");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
