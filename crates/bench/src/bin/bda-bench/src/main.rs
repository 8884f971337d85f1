//! `bda-bench`: the repository's benchmark. See README.md beside this
//! crate for the workloads, the metrics and how they interact, and
//! BENCHMARK.json at the repository root for the frozen contract.

mod fleet;
mod json;
mod layers;
mod report;
mod run;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, TraceMode};
use workloads::{Kind, Scale};

const USAGE: &str = "usage: bda-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                 [--out DIR] [--smoke] [--aa N]

  --workload NAME  one of point_lookup, star_join, cross_engine, iterate_power,
                   ingest_mixed (default: all five, one after the other)
  --seed N         drives key, constant and operand choice (default 42)
  --seconds S      length of the measured window (default: BENCHMARK.json's
                   run_seconds; 1 with --smoke)
  --trace 0|1      0: untraced run, end-to-end metrics only; 1: traced pass,
                   per-layer metrics only (default: both, one after the other)
  --out DIR        where the per-run work directory and trace-<workload>.json
                   go (default: bda-bench-out)
  --smoke          1 s windows and 1/16 sizes; output is not comparable
  --aa N           run the set N times with --seed and N times with seed+1,
                   print every metric's spread beside its bound, and exit
                   non-zero if an end-to-end spread exceeds its bound";

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: TraceMode,
    out: PathBuf,
    smoke: bool,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Kind::ALL.to_vec(),
        seed: 42,
        seconds: None,
        trace: TraceMode::Both,
        out: PathBuf::from("bda-bench-out"),
        smoke: false,
        aa: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("missing value after {arg}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads =
                    vec![Kind::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?];
            }
            "--seed" => {
                let raw = value()?;
                args.seed = raw
                    .parse()
                    .map_err(|_| format!("--seed wants a whole number, got `{raw}`"))?;
            }
            "--seconds" => {
                let raw = value()?;
                args.seconds = Some(
                    raw.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("--seconds wants a positive number, got `{raw}`"))?,
                );
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => TraceMode::Off,
                    "1" => TraceMode::On,
                    other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--aa" => {
                let raw = value()?;
                args.aa = Some(
                    raw.parse::<usize>()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or_else(|| format!("--aa wants a count of at least 2, got `{raw}`"))?,
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bda-bench: {e}");
            return ExitCode::from(2);
        }
    };
    // Neither side of the wire may be steered by the environment: this
    // process drops every `BDA_*` variable before any thread exists
    // (`ExecOptions::default` reads them), and the children inherit what
    // is left.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("BDA_") {
            std::env::remove_var(key);
        }
    }
    fleet::install_panic_hook();
    let settings = run::Settings {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            1.0
        } else {
            report::run_seconds()
        }),
        scale: Scale { smoke: args.smoke },
        out: args.out,
    };
    let outcome = match args.aa {
        Some(n) => report::aa(&args.workloads, &settings, n),
        None => report::run_and_print(&args.workloads, &settings, args.trace),
    };
    fleet::cleanup_all();
    match outcome {
        Ok(Outcome::Correct) => ExitCode::SUCCESS,
        Ok(Outcome::Wrong) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bda-bench: {e}");
            ExitCode::from(1)
        }
    }
}
