//! The COAX workspace's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <read-mix|sharded-mix|drift-ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's rows and queries from `--seed`, sets the
//! index up several times, checks every distinct query against a full
//! scan, then drives the service for `--seconds`. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` a second, traced phase follows and the metrics are
//! the per-layer ones, with the span records written to
//! `perfbench/out/<workload>-seed<n>.spans.jsonl`. `BENCHMARK.json` at
//! the repository root lists every metric, its unit and direction.

mod check;
mod inputs;
mod openloop;
mod service;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use workload::{Metric, Workload};

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(attempted: usize, failed: usize, metrics: &[Metric]) -> Result<String, String> {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0
    ))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = Workload::named(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    eprintln!(
        "perfbench: {} seed={} seconds={} trace={} threads={}",
        w.name,
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let outcome = workload::run(&w, args.seed, args.seconds as f64, args.trace).and_then(|r| {
        let line = result_json(r.attempted, r.failed, &r.metrics)?;
        Ok((r, line))
    });
    let (report, line) = match outcome {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            std::process::exit(1);
        }
    };
    for note in &report.notes {
        eprintln!("perfbench: {note}");
    }
    for m in &report.metrics {
        eprintln!("perfbench:   {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if let Some(spans) = &report.spans {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{}-seed{}.spans.jsonl", w.name, args.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => eprintln!("perfbench: {} spans written to {path}", spans.lines().count()),
            Err(e) => {
                eprintln!("perfbench: writing {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "read-mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]));
        assert_eq!(
            a,
            Ok(Args { workload: "read-mix".into(), seed: 7, seconds: 10, trace: true })
        );
        assert!(parse_args(&strings(&["--workload", "read-mix"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let m = [Metric { name: "setup_s", value: 0.8127, unit: "s" }];
        assert_eq!(
            result_json(10, 0, &m).unwrap(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(result_json(10, 1, &m).unwrap().starts_with("{\"correct\": false"));
        let nan = [Metric { name: "x", value: f64::NAN, unit: "s" }];
        assert!(result_json(1, 0, &nan).is_err());
    }
}
