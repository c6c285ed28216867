//! Regenerates every paper table/figure in one process, sharing the
//! memoized traces across experiments (`run_experiments.sh` invokes
//! this). Quick mode by default; `L2S_BENCH_FULL=1` for full fidelity.
//!
//! ```text
//! all_figures [--only <experiment>]...
//! ```
//!
//! `--only` (repeatable) runs just the named experiments of
//! `l2s_bench::experiments::ALL`, in suite order; an unknown name exits
//! 2 and lists the valid ones. The environment is read once, here, by
//! `RunCtx::from_env`: `L2S_WORKERS`, `L2S_BENCH_CAP`, `L2S_BENCH_FULL`
//! and `L2S_RESULTS_DIR` (see `l2s_bench::RunCtx`).
//!
//! After a whole-suite run the wall-clock accounting is written to
//! `BENCH_suite.json` (override the path with `L2S_SUITE_JSON`):
//! worker/core counts, total and per-experiment wall-clock, and the
//! speedup against the recorded 1-worker baseline. A run with
//! `L2S_WORKERS=1` records itself as that baseline; later parallel runs
//! carry it over and report `speedup_vs_1worker` against it. A `--only`
//! run leaves the file alone, since it records the whole suite. Timing
//! is measurement *about* the suite — every figure's content is
//! byte-identical for any worker count.

use l2s_bench::experiments::{Entry, ALL};
use l2s_bench::RunCtx;

/// The experiments selected by the command line: every one without
/// `--only`, else the named ones in suite order.
fn select(args: &[String]) -> Result<Vec<Entry>, String> {
    let mut only: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match (arg.as_str(), it.next()) {
            ("--only", Some(name)) if ALL.iter().any(|(n, _)| n == name) => only.push(name),
            ("--only", Some(name)) => return Err(format!("unknown experiment {name:?}")),
            ("--only", None) => return Err("--only needs an experiment name".into()),
            (other, _) => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(ALL
        .iter()
        .filter(|(name, _)| only.is_empty() || only.contains(name))
        .copied()
        .collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected = match select(&args) {
        Ok(s) => s,
        Err(e) => {
            let names: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
            eprintln!(
                "error: {e}\nusage: all_figures [--only <experiment>]...\nexperiments: {}",
                names.join(", ")
            );
            std::process::exit(2);
        }
    };
    let ctx = RunCtx::from_env(|key| std::env::var_os(key));
    let timing = match l2s_bench::run_suite(&ctx, &selected) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if selected.len() < ALL.len() {
        return;
    }

    let cores = l2s_util::pool::available_workers();
    let path: std::path::PathBuf = std::env::var_os("L2S_SUITE_JSON")
        .map(Into::into)
        .unwrap_or_else(|| "BENCH_suite.json".into());
    let old = std::fs::read_to_string(&path).ok();
    // A 1-worker run defines the sequential baseline; a parallel run
    // compares against the last recorded one (itself, if none exists yet
    // — speedup then reads 1.0 rather than inventing a baseline).
    let baseline_wall_s = if ctx.workers == 1 {
        timing.wall_s
    } else {
        old.as_deref()
            .and_then(|j| l2s_bench::extract_json_num(j, "baseline_wall_s_1worker"))
            .unwrap_or(timing.wall_s)
    };
    let speedup = baseline_wall_s / timing.wall_s.max(1e-9);
    println!(
        "suite: {} experiments in {:.2}s with {} worker(s) on {cores} core(s); \
         {speedup:.2}x vs the 1-worker baseline of {baseline_wall_s:.2}s",
        timing.per_experiment.len(),
        timing.wall_s,
        ctx.workers,
    );

    let workload = match ctx.cap {
        None => "full fidelity (Table 2 request counts)".to_string(),
        Some(cap) => format!("quick mode ({cap} requests/cell cap)"),
    };
    let experiments: Vec<String> = timing
        .per_experiment
        .iter()
        .map(|(name, wall_s)| format!("    {{\"name\": \"{name}\", \"wall_s\": {wall_s:.3}}}"))
        .collect();
    let json = format!(
        "{{\n  \"schema\": 1,\n  \
         \"workload\": \"all_figures suite: {} experiments, {workload}\",\n  \
         \"workers\": {},\n  \"cores\": {cores},\n  \"wall_s_total\": {:.3},\n  \
         \"baseline_wall_s_1worker\": {baseline_wall_s:.3},\n  \
         \"speedup_vs_1worker\": {speedup:.3},\n  \
         \"experiments\": [\n{}\n  ]\n}}\n",
        experiments.len(),
        ctx.workers,
        timing.wall_s,
        experiments.join(",\n"),
    );
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
