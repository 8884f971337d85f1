//! Export a Chrome-trace JSON file for the cross-engine join⋈matmul
//! plan: the CI observability job uploads it as an artifact so any PR's
//! execution timeline can be opened in `chrome://tracing` / Perfetto
//! without rerunning anything.
//!
//! ```text
//! cargo run -p bda-bench --bin trace_export -- out/trace.json
//! ```

use bda_bench::observed_federation;
use bda_obs::Tracer;

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "bda-trace.json".to_string());
    let (fed, plan) = observed_federation(64);
    let tracer = Tracer::new(0xBDA);
    let (_, metrics) = fed.run_traced(&plan, &tracer).expect("traced run");
    let trace = tracer.finish();
    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&out, trace.to_chrome_json()).expect("write trace file");
    println!(
        "trace {:#018x}: {} spans over {} sites -> {out}",
        trace.trace_id,
        trace.spans.len(),
        trace.sites().len()
    );
    println!("{metrics}");
}
