//! Metric names and units (held equal to BENCHMARK.json by a test), the
//! per-workload run, the printed report with its final JSON line, and the
//! `--aa` repeatability check.

use std::collections::BTreeMap;

use crate::fleet::{self, WorkDir};
use crate::json;
use crate::layers;
use crate::run::{self, Oracle, Settings};
use crate::stats;
use crate::workloads::{self, Kind};

/// The committed contract, read at compile time so the binary cannot
/// drift from it unnoticed.
const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// `--trace 0`: untraced run, end-to-end metrics.
    Off,
    /// `--trace 1`: traced pass, per-layer metrics.
    On,
    /// No `--trace`: both, against one fleet.
    Both,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Correct,
    Wrong,
}

/// End-to-end metrics, in print order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("latency_p50_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("read_latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("client_wire_bytes_per_op", "bytes"),
    ("recovery_s", "s"),
    ("wal_bytes_per_user_byte", "ratio"),
];

/// Unit of a metric of either list (names are unique across both).
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(layers::PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

pub fn contract() -> json::Value {
    json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
}

/// `run_seconds` of the committed contract.
pub fn run_seconds() -> f64 {
    contract()
        .get("run_seconds")
        .and_then(json::Value::as_f64)
        .expect("BENCHMARK.json has run_seconds")
}

/// Bound of an end-to-end metric, from the committed contract.
fn bound_of(name: &str) -> Option<f64> {
    contract()
        .get("end_to_end")?
        .as_array()
        .iter()
        .find(|m| m.get("name").and_then(json::Value::as_str) == Some(name))?
        .get("bound")?
        .as_f64()
}

/// One workload's results.
pub struct RunResult {
    pub workload: Kind,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub first_problem: Option<String>,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    fn absorb(&mut self, tally: run::Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.wrong += tally.wrong;
        if self.first_problem.is_none() {
            self.first_problem = tally.first_problem;
        }
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`. Wrong answers count as failed operations.
    fn json_line(&self, mode: TraceMode) -> String {
        let mut metrics: Vec<String> = Vec::new();
        let mut put = |list: &[(&'static str, f64)]| {
            for (name, value) in list {
                metrics.push(format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::number(*value),
                    json::quote(unit_of(name))
                ));
            }
        };
        if mode != TraceMode::On {
            put(&self.end_to_end);
        }
        if mode != TraceMode::Off {
            put(&self.per_layer);
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed + self.wrong,
            metrics.join(", ")
        )
    }
}

/// Run one workload in the given mode.
pub fn run_workload(kind: Kind, settings: &Settings, mode: TraceMode) -> Result<RunResult, String> {
    std::fs::create_dir_all(&settings.out)
        .map_err(|e| format!("create {}: {e}", settings.out.display()))?;
    let work = WorkDir::create(&settings.out)?;
    let tables = workloads::tables(kind, settings.seed, settings.scale);
    let oracle = Oracle::build(kind, &tables)?;
    let mut result = RunResult {
        workload: kind,
        attempted: 0,
        failed: 0,
        wrong: 0,
        first_problem: None,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        notes: Vec::new(),
    };
    let live = if mode == TraceMode::On {
        run::bring_up(kind, &tables, &work, 0)?.0
    } else {
        let m = run::measure(kind, settings, &tables, &oracle, &work)?;
        result.end_to_end = vec![
            ("latency_p50_ms", m.primary.p50_ms),
            ("throughput_ops_s", m.primary.ops_per_s),
            ("read_latency_p50_ms", m.reads.p50_ms),
            ("setup_s", m.setup_s),
            ("peak_rss_mib", m.peak_rss_mib),
            ("client_wire_bytes_per_op", m.wire_bytes_per_op),
        ];
        result.notes.push(format!(
            "window: {} primary samples (slice medians {:.4?} ms), {} read samples, p95 {:.4} ms, p99 {:.4} ms, \
             fleet cpu {:.4} ms/op",
            m.primary.count,
            m.primary.slice_p50_ms,
            m.reads.count,
            m.primary.p95_ms,
            m.primary.p99_ms,
            m.cpu_ms_per_op
        ));
        result.absorb(m.tally);
        result.notes.extend(m.notes);
        m.live
    };
    // One recovery drill per run, after the fleet is gone: the traced
    // pass ends with it, an untraced-only run does it here.
    let drill = if mode == TraceMode::Off {
        drop(live);
        let mut tally = run::Tally::default();
        let drill = run::recovery_drill(settings, &work, &mut tally, &mut result.notes)?;
        result.absorb(tally);
        drill
    } else {
        let traced = layers::traced_pass(kind, settings, live, &tables, &oracle, &work)?;
        result.absorb(traced.tally);
        result.per_layer = traced.metrics;
        result.notes.extend(traced.notes);
        traced.drill
    };
    if mode != TraceMode::On {
        result.end_to_end.extend([
            ("recovery_s", drill.recovery_s),
            ("wal_bytes_per_user_byte", drill.wal_bytes_per_user_byte),
        ]);
    }
    Ok(result)
}

fn print_result(r: &RunResult, settings: &Settings, mode: TraceMode) {
    println!(
        "== workload {} (seed {}, window {} s) ==",
        r.workload.name(),
        settings.seed,
        settings.seconds
    );
    if settings.scale.smoke {
        println!("   SMOKE RUN: 1/16 sizes and a short window; these numbers are not comparable with any other run");
    }
    for (name, value) in r.end_to_end.iter().chain(&r.per_layer) {
        println!("   {name:<36} {value:>16.6} {}", unit_of(name));
    }
    println!(
        "   attempted {}  failed {}  wrong {}  failed_frac {}",
        r.attempted,
        r.failed,
        r.wrong,
        (r.failed + r.wrong) as f64 / r.attempted.max(1) as f64
    );
    for note in &r.notes {
        println!("   note: {note}");
    }
    if let Some(p) = &r.first_problem {
        println!("   FIRST PROBLEM: {p}");
    }
    println!("{}", r.json_line(mode));
}

fn print_stamp(settings: &Settings) {
    println!("== bda-bench ==");
    for (key, value) in fleet::stamp(&settings.out) {
        println!("   {key}: {value}");
    }
    println!(
        "   load: one process, closed loop, at most 2 client connections; BDA_* unset on both sides; \
         server flags at their defaults; fsync policy `always` (the default) on the durable server"
    );
    println!(
        "   note: SIGKILL leaves the OS page cache intact, so recovery reads the log from memory; \
         latencies are this sandbox's, not a storage device's"
    );
}

pub fn run_and_print(
    kinds: &[Kind],
    settings: &Settings,
    mode: TraceMode,
) -> Result<Outcome, String> {
    print_stamp(settings);
    let mut outcome = Outcome::Correct;
    for &kind in kinds {
        let r = run_workload(kind, settings, mode)?;
        if !r.correct() {
            outcome = Outcome::Wrong;
        }
        print_result(&r, settings, mode);
    }
    Ok(outcome)
}

/// A/A: the full set `n` times with `seed`, then `n` times with `seed+1`.
/// Per metric and workload, prints (max - min) / median of each group
/// beside the metric's bound — and the quartile distance over the median,
/// the statistic the driver judges a benchmark by. End-to-end metrics
/// whose spread exceeds their bound are `UNRESOLVED` and make the exit
/// code non-zero.
pub fn aa(kinds: &[Kind], settings: &Settings, n: usize) -> Result<Outcome, String> {
    print_stamp(settings);
    let mut outcome = Outcome::Correct;
    let mut unresolved = 0usize;
    for seed in [settings.seed, settings.seed + 1] {
        let settings = Settings {
            seed,
            ..settings.clone()
        };
        // values[(workload, metric)] = one value per repetition.
        let mut values: BTreeMap<(&'static str, &'static str), Vec<f64>> = BTreeMap::new();
        for rep in 0..n {
            for &kind in kinds {
                let r = run_workload(kind, &settings, TraceMode::Both)?;
                if !r.correct() {
                    outcome = Outcome::Wrong;
                }
                println!(
                    "aa: seed {seed} repetition {}/{n} {}: attempted {} failed {} wrong {}",
                    rep + 1,
                    kind.name(),
                    r.attempted,
                    r.failed,
                    r.wrong
                );
                for (name, value) in r.end_to_end.iter().chain(&r.per_layer) {
                    values.entry((kind.name(), name)).or_default().push(*value);
                }
            }
        }
        println!("== A/A, seed {seed}, {n} repetitions: spread = (max - min) / median, iqr = (q3 - q1) / median ==");
        for ((workload, metric), vs) in &values {
            let (lo, hi) = vs
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(*v), hi.max(*v))
                });
            let med = stats::median(vs);
            let (q1, _, q3) = stats::quartiles(vs);
            let over_median = |d: f64| if med == 0.0 { 0.0 } else { d / med.abs() };
            let (spread, iqr) = (over_median(hi - lo), over_median(q3 - q1));
            let verdict = match bound_of(metric) {
                Some(bound) if spread > bound => {
                    unresolved += 1;
                    format!("bound {bound}  UNRESOLVED")
                }
                Some(bound) => format!("bound {bound}  ok"),
                None => "per-layer, no bound".to_string(),
            };
            println!(
                "   {workload:<14} {metric:<36} median {med:>14.6}  spread {spread:>8.4}  iqr {iqr:>8.4}  {verdict}"
            );
        }
    }
    if unresolved > 0 {
        println!("aa: {unresolved} end-to-end metric x workload pairs are UNRESOLVED");
        return Ok(Outcome::Wrong);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(section: &str) -> Vec<(String, String)> {
        contract()
            .get(section)
            .unwrap_or_else(|| panic!("BENCHMARK.json has `{section}`"))
            .as_array()
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(json::Value::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn contract_names_are_well_formed_and_equal_what_the_binary_prints() {
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&layers::PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(workloads, kinds);
        let mut all: Vec<String> = names("end_to_end")
            .into_iter()
            .chain(names("per_layer"))
            .map(|(n, _)| n)
            .chain(workloads)
            .collect();
        assert!(all.iter().all(|n| well_formed(n)), "{all:?}");
        let total = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used twice");
    }

    #[test]
    fn contract_shape_is_what_the_driver_accepts() {
        let c = contract();
        let keys: Vec<&str> = match &c {
            json::Value::Object(m) => m.keys().map(String::as_str).collect(),
            _ => panic!("BENCHMARK.json is not an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let secs = run_seconds();
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
        let e2e = c.get("end_to_end").unwrap().as_array();
        assert!(e2e.iter().all(|m| m
            .get("bound")
            .and_then(json::Value::as_f64)
            .is_some_and(|b| b <= 0.25)));
        let setup = e2e
            .iter()
            .find(|m| m.get("name").and_then(json::Value::as_str) == Some("setup_s"))
            .expect("setup_s is an end-to-end metric");
        assert_eq!(setup.get("unit").and_then(json::Value::as_str), Some("s"));
        assert_eq!(
            setup.get("better").and_then(json::Value::as_str),
            Some("lower")
        );
        assert!(c.get("per_layer").unwrap().as_array().len() <= 128);
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys_and_counts_wrong_answers_as_failed() {
        let r = RunResult {
            workload: Kind::PointLookup,
            attempted: 10,
            failed: 1,
            wrong: 2,
            first_problem: None,
            end_to_end: vec![("latency_p50_ms", 1.25), ("setup_s", 0.5)],
            per_layer: vec![("lang.parse_us", 3.5)],
            notes: vec![],
        };
        let line = json::parse(&r.json_line(TraceMode::Off)).unwrap();
        assert_eq!(line.get("correct"), Some(&json::Value::Bool(false)));
        assert_eq!(line.get("attempted").unwrap().as_f64(), Some(10.0));
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(3.0));
        let m = line.get("metrics").unwrap();
        assert_eq!(
            m.get("latency_p50_ms")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("ms")
        );
        assert!(m.get("lang.parse_us").is_none());
        let traced = json::parse(&r.json_line(TraceMode::On)).unwrap();
        assert!(traced
            .get("metrics")
            .unwrap()
            .get("latency_p50_ms")
            .is_none());
        assert_eq!(
            traced
                .get("metrics")
                .unwrap()
                .get("lang.parse_us")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(3.5)
        );
    }
}
