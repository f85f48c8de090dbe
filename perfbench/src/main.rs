//! The repository benchmark: one command that runs one workload for a
//! fixed time, prints every metric by name and unit, checks the outputs,
//! and ends with a one-line JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-dense --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced. `--trace 1`
//! spends half the time untraced and half with the benchmark's timing
//! wrappers around each layer's calls, and reports the per-layer metrics
//! and the tracing overhead. See `README.md` for the workloads.

mod measure;
mod report;
mod runtime;
mod sweep;
mod timed;

use report::{Report, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: quest-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                     quest-perfbench --manifest";

/// Parsed command line of a measuring run.
#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .map(|(n, _)| *n)
                        .find(|n| n == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                });
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

/// Runs one workload into a fresh report.
fn run(args: &Args) -> Report {
    let mut report = Report::new(args.trace);
    let budget = Duration::from_secs(args.seconds);
    match args.workload {
        "sweep-sparse" => sweep::sparse(args.seed, budget, &mut report),
        "sweep-dense" => sweep::dense(args.seed, budget, &mut report),
        "runtime-escalate" => runtime::escalate(args.seed, budget, &mut report),
        other => unreachable!("parse admits only catalogued workloads, not {other}"),
    }
    report
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `nproc`, `rustc -V` and the CPU model, printed with every result.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!("machine: nproc={nproc} rustc=\"{rustc}\" cpu=\"{cpu}\"")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--manifest"] {
        print!("{}", report::manifest_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", fingerprint());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = run(&args);
    match peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb),
        None => report.check("peak RSS readable from /proc/self/status", false),
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse(&argv(
            "--workload sweep-dense --seed 7 --seconds 10 --trace 1",
        ));
        assert_eq!(
            args,
            Ok(Args {
                workload: "sweep-dense",
                seed: 7,
                seconds: 10,
                trace: true
            })
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sweep-dense --seed 1 --seconds 0 --trace 0",
            "--workload sweep-dense --seed x --seconds 1 --trace 0",
            "--workload sweep-dense --seed 1 --seconds 1 --trace 2",
            "--workload sweep-dense --seed 1 --seconds 1",
            "--workload sweep-dense --seed",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// The metric names of a result line.
    fn json_keys(line: &str) -> Vec<String> {
        let mut chunks: Vec<&str> = line.split("\": {\"value\"").collect();
        chunks.pop();
        chunks
            .iter()
            .filter_map(|c| c.rsplit('"').next().map(str::to_owned))
            .collect()
    }

    /// A different seed changes the inputs (so the deterministic event
    /// counts) but not the set of metrics.
    #[test]
    fn seed_changes_inputs_not_metric_set() {
        let mut keys = Vec::new();
        let mut events = Vec::new();
        for seed in [1, 2] {
            let report = run(&Args {
                workload: "sweep-dense",
                seed,
                seconds: 1,
                trace: true,
            });
            assert!(report.correct());
            keys.push(json_keys(&report.to_json()));
            events.push(report.value("surface.sampler.events_per_shot"));
        }
        assert_eq!(keys[0], keys[1]);
        let catalogue: Vec<&str> = report::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(keys[0], catalogue);
        assert!(events[0].is_some_and(|e| e > 0.0));
        assert_ne!(events[0], events[1]);
    }
}
