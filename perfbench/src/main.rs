//! Command line of the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_closed|scale_1024|replay_clf|open_flash|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints the run's tables, then, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run also writes its spans to
//! `perfbench/out/spans-<workload>-<seed>.csv`. `--workload all` runs
//! every workload in turn and ends with a summary table.

use perfbench::{reset_peak_rss, run, Outcome, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <paper_closed|scale_1024|replay_clf|open_flash|all> \
[--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 50.0,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Writes a traced run's spans next to the benchmark's sources.
fn write_spans(outcome: &Outcome, seed: u64) -> Result<PathBuf, String> {
    let Some(tracer) = &outcome.tracer else {
        return Err("untraced run has no spans".into());
    };
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{seed}.csv", outcome.workload.name()));
    std::fs::write(&path, tracer.to_csv()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

fn print_outcome(outcome: &Outcome, traced: bool) {
    print!("{}", outcome.report);
    println!(
        "\n{} metrics ({}):",
        outcome.workload.name(),
        if traced {
            "per layer, traced"
        } else {
            "end to end, tracing off"
        }
    );
    for (name, unit, basis, value) in outcome.metrics(traced) {
        println!("  {name:<30} {value:>16.6} {unit:<12} [{}]", basis.tag());
    }
    println!(
        "  {:<30} {:>16.6} {:<12} [host] ({} failed of {} attempted)",
        "error_rate",
        outcome.error_rate(),
        "fraction",
        outcome.failed,
        outcome.attempted
    );
    for failure in &outcome.check_failures {
        println!("  CHECK FAILED: {failure}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Vec::new();
    for &workload in &args.workloads {
        // Drop earlier workloads' peaks from the mark. Heap the allocator
        // kept from them still counts; single-workload runs are exact.
        if !outcomes.is_empty() && !reset_peak_rss() {
            eprintln!("perfbench: cannot reset the peak-RSS mark; peak_rss_mb covers every workload so far");
        }
        let outcome = match run(workload, args.seed, args.seconds, args.traced, &Size::FULL) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        print_outcome(&outcome, args.traced);
        if args.traced {
            match write_spans(&outcome, args.seed) {
                Ok(path) => println!("  spans: {}", path.display()),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!();
        outcomes.push(outcome);
    }
    if outcomes.len() > 1 {
        println!("summary (end to end, tracing off unless --trace 1):");
        println!(
            "  {:<13} {:>14} {:>10} {:>12} {:>11} {:>8}",
            "workload", "host_req/s", "setup_s", "peak_rss_MB", "error_rate", "correct"
        );
        for o in &outcomes {
            let v = |k: &str| o.values.get(k).copied().unwrap_or(0.0);
            println!(
                "  {:<13} {:>14.0} {:>10.4} {:>12.1} {:>11.6} {:>8}",
                o.workload.name(),
                v("host_req_per_s"),
                v("setup_s"),
                v("peak_rss_mb"),
                o.error_rate(),
                o.correct()
            );
        }
        for o in &outcomes {
            println!("{} {}", o.workload.name(), o.json(args.traced));
        }
    } else if let Some(o) = outcomes.first() {
        println!("{}", o.json(args.traced));
    }
    ExitCode::SUCCESS
}
