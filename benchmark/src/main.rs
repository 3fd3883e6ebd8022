//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload interactive|mixed-peak|train-aa-d20 --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with telemetry
//! off; with `--trace 1` it measures the per-layer split of the same work
//! (a telemetry-on repeat of the run plus an in-process replay). Every
//! input — dataset, checkpoint training seeds, each simulated user's
//! hidden utility, the arrival schedule — is derived from `--seed`; the
//! program only ever sees the generated inputs. The benchmark drives the
//! program through its public API alone and checks every answer against
//! the simulated user's true utility. The last stdout line is the result
//! object; a failed correctness check exits non-zero. `WORKLOADS.md`
//! documents each workload and metric.

mod replay;
mod report;
mod serve;
mod train;
mod wire;
mod workload;

use std::process::ExitCode;

use report::Report;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: &[&str] = &["interactive", "mixed-peak", "train-aa-d20"];

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "interactive" => serve::run(serve::Traffic::Interactive, args),
        "mixed-peak" => serve::run(serve::Traffic::MixedPeak, args),
        "train-aa-d20" => train::run(args),
        other => Err(format!(
            "unknown workload {other:?} (want {} or all)",
            WORKLOADS.join(", ")
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<String> = if args.workload == "all" {
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    } else {
        vec![args.workload.clone()]
    };
    let mut ok = true;
    for workload in names {
        println!("== {workload}");
        match run(&Args { workload, ..args }) {
            Ok(report) => {
                report.print(args.trace);
                ok &= report.correct();
            }
            Err(e) => {
                eprintln!("benchmark failed: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
