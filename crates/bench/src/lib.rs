//! Experiment harness behind the `all_figures` binary.
//!
//! Each experiment in [`experiments::ALL`] regenerates one table or
//! figure of the paper (see DESIGN.md's experiment index). `all_figures`
//! runs the whole suite in one process, sharing memoized traces, and
//! `all_figures --only <name>` reruns a selection. This library holds
//! the common machinery: the run context ([`RunCtx`]), the
//! deterministic parallel cell executor ([`RunCtx::run_cells`]), the
//! analytic "model" line of Figures 7–10, and output helpers.
//!
//! # Run context
//!
//! Every experiment takes a [`RunCtx`]: the worker count, the
//! per-run request cap and the results directory. Library code never
//! reads the process environment; `all_figures` builds the context once
//! with [`RunCtx::from_env`], and tests build it as a struct literal, so
//! two settings can run side by side in one test binary.
//!
//! # Parallel execution
//!
//! Every experiment decomposes into independent *cells* — one
//! simulation (or model evaluation) per `(trace, policy, nodes, knob)`
//! combination. [`RunCtx::run_cells`] fans cells across
//! `min(ctx.workers, cells)` scoped threads and collects results **by
//! cell index, never by completion order**, so every CSV and chart is
//! byte-identical to a sequential run regardless of worker count or
//! scheduling.
//!
//! # Scale control
//!
//! By default the harness runs a *quick* configuration (full file
//! populations, request streams capped at [`RunCtx::QUICK_CAP`]) so
//! every figure regenerates in seconds. `cap: None` simulates the
//! complete Table 2 request counts (up to 3.1 M requests per run), which
//! reproduces the paper at full fidelity; a smaller cap shrinks every
//! run further (the determinism test uses 2000).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;

use l2s::PolicyKind;
use l2s_model::{ModelParams, QueueModel, ServerKind};
use l2s_sim::{simulate, SimConfig, SimReport};
use l2s_trace::{Trace, TraceSpec, TraceStats};
use l2s_util::ascii::{line_chart, Series};
use l2s_util::cast;
use l2s_util::csv::CsvTable;
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// The cluster sizes of Figures 7–10.
pub const PAPER_NODE_COUNTS: [usize; 6] = [1, 2, 4, 8, 12, 16];

/// The three servers of Figures 7–10, in plotting order.
pub const PAPER_POLICIES: [PolicyKind; 3] =
    [PolicyKind::L2s, PolicyKind::Lard, PolicyKind::Traditional];

/// The settings of one figure-suite run, passed explicitly to every
/// experiment. No figure depends on `workers`: the executor orders
/// results by cell index, so it only trades wall-clock for cores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunCtx {
    /// Worker threads for the parallel cell executor (1 runs inline).
    pub workers: usize,
    /// Request cap per simulation run; `None` is full fidelity (the
    /// complete Table 2 request counts).
    pub cap: Option<usize>,
    /// Directory the CSV outputs are written to.
    pub results_dir: PathBuf,
}

impl RunCtx {
    /// The quick-mode request cap.
    pub const QUICK_CAP: usize = 150_000;

    /// Builds the context from environment variables, read through
    /// `lookup` (the `all_figures` binary passes `std::env::var_os`):
    ///
    /// * `L2S_WORKERS` — worker count, capped at the core count
    ///   (threads past it only add context switches to CPU-bound
    ///   cells); default all cores;
    /// * `L2S_BENCH_CAP` — request cap, default [`Self::QUICK_CAP`];
    /// * `L2S_BENCH_FULL=1` — full fidelity, which beats the cap;
    /// * `L2S_RESULTS_DIR` — output directory, default `results`.
    ///
    /// A zero or unparsable count is ignored.
    pub fn from_env(lookup: impl Fn(&str) -> Option<OsString>) -> Self {
        let count = |key: &str| {
            lookup(key)
                .and_then(|v| v.to_str().and_then(|v| v.trim().parse::<usize>().ok()))
                .filter(|&n| n >= 1)
        };
        let cores = l2s_util::pool::available_workers();
        let full = lookup("L2S_BENCH_FULL").is_some_and(|v| v == "1");
        Self {
            workers: count("L2S_WORKERS").map_or(cores, |n| n.min(cores)),
            cap: (!full).then(|| count("L2S_BENCH_CAP").unwrap_or(Self::QUICK_CAP)),
            results_dir: lookup("L2S_RESULTS_DIR").map_or_else(|| "results".into(), PathBuf::from),
        }
    }

    /// `n` requests, or the cap if it is smaller: for experiments whose
    /// own request budget sits below the quick-mode cap.
    pub fn capped(&self, n: usize) -> usize {
        self.cap.map_or(n, |c| c.min(n))
    }

    /// Writes `table` as `name` under the results directory and returns
    /// the path written.
    pub fn write_csv(&self, table: &CsvTable, name: &str) -> Result<PathBuf, String> {
        let path = self.results_dir.join(name);
        table
            .write_to(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Runs `cells` independent jobs across `workers` threads and
    /// returns their results ordered by cell index — the determinism
    /// contract every experiment relies on: output order depends only on
    /// how the experiment *enumerates* its cells, never on completion
    /// order.
    pub fn run_cells<T, F>(&self, cells: usize, run: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        l2s_util::pool::run_indexed(self.workers, cells, run)
    }
}

/// Deterministic per-trace generation seed.
pub fn trace_seed(spec: &TraceSpec) -> u64 {
    // Stable hash of the trace name.
    spec.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Bit-exact memoization key for a [`TraceSpec`]: the name plus every
/// numeric field rendered via `to_bits`, so two specs share a cached
/// trace only when generation would be identical.
fn trace_key(spec: &TraceSpec) -> String {
    format!(
        "{}|{}|{:016x}|{}|{:016x}|{:016x}|{:016x}|{:016x}|{}",
        spec.name,
        spec.num_files,
        spec.avg_file_kb.to_bits(),
        spec.num_requests,
        spec.avg_request_kb.to_bits(),
        spec.alpha.to_bits(),
        spec.size_sigma.to_bits(),
        spec.temporal.to_bits(),
        spec.temporal_window,
    )
}

/// Generates a Table 2 trace at harness scale, memoized per spec.
///
/// Trace generation is the single largest fixed cost of an experiment
/// run, and the experiments reuse a handful of Table 2 specs; running
/// them in one process (the `all_figures` binary) makes each distinct
/// spec pay generation once. The cache key is bit-exact over every spec
/// field, so memoization cannot change what any experiment sees —
/// `spec.generate(trace_seed(spec))` is deterministic in the spec.
///
/// Thread-safety: the map lock is held only long enough to fetch or
/// insert a per-key slot; generation itself runs under the slot's own
/// `OnceLock`. Two workers asking for the *same* spec concurrently share
/// one generation (the second blocks), while workers generating
/// *different* specs proceed in parallel.
pub fn paper_trace(spec: &TraceSpec) -> Arc<Trace> {
    type Slot = Arc<OnceLock<Arc<Trace>>>;
    static CACHE: OnceLock<Mutex<BTreeMap<String, Slot>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let key = trace_key(spec);
    let slot: Slot = {
        let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(key).or_default())
    };
    Arc::clone(slot.get_or_init(|| Arc::new(spec.generate(trace_seed(spec)))))
}

/// One cell of a node sweep.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Cluster size.
    pub nodes: usize,
    /// Policy simulated.
    pub policy: PolicyKind,
    /// Full measurement report.
    pub report: SimReport,
}

impl RunCtx {
    /// Runs `trace` under every `(nodes, policy)` combination in parallel
    /// and returns the cells sorted by `(nodes, policy index)`.
    ///
    /// `configure` builds the [`SimConfig`] per cluster size: usually
    /// [`paper_config`], or a closure over it for cache size overrides,
    /// sensitivity knobs, ...
    pub fn sweep<F>(
        &self,
        trace: &Trace,
        node_counts: &[usize],
        policies: &[PolicyKind],
        configure: F,
    ) -> Vec<SweepCell>
    where
        F: Fn(&RunCtx, usize) -> SimConfig + Sync,
    {
        let jobs: Vec<(usize, PolicyKind)> = node_counts
            .iter()
            .flat_map(|&n| policies.iter().map(move |&p| (n, p)))
            .collect();
        // Index-ordered collection: cell i is always jobs[i]'s result, so
        // the output is identical for every worker count.
        let mut cells = self.run_cells(jobs.len(), |i| {
            let (n, policy) = jobs[i];
            let config = configure(self, n);
            let report = simulate(&config, policy, trace);
            SweepCell {
                nodes: n,
                policy,
                report,
            }
        });
        // The enumeration above already emits (nodes, policy index) order
        // for ascending node_counts; the sort keeps the documented
        // contract even for unsorted caller input.
        let order = |p: PolicyKind| policies.iter().position(|&q| q == p).unwrap_or(usize::MAX);
        cells.sort_by_key(|c| (c.nodes, order(c.policy)));
        cells
    }
}

/// The default per-figure configuration: Section 5.1 parameters with the
/// run's request cap applied.
pub fn paper_config(ctx: &RunCtx, nodes: usize) -> SimConfig {
    SimConfig {
        max_requests: ctx.cap,
        ..SimConfig::paper_default(nodes)
    }
}

/// The analytic model line of Figures 7–10: the throughput upper bound
/// of a locality-conscious server with 15 % replication, instantiated
/// with the trace's measured population, Zipf exponent, and mean
/// requested-file size.
pub fn model_line(
    stats: &TraceStats,
    node_counts: &[usize],
    cache_kb: f64,
) -> Result<Vec<(usize, f64)>, String> {
    node_counts
        .iter()
        .map(|&n| {
            let params = ModelParams {
                nodes: n,
                replication: 0.15,
                alpha: stats.alpha.max(0.05),
                cache_kb,
                avg_file_kb: stats.avg_request_kb,
                ..ModelParams::default()
            };
            let model = QueueModel::new(params)?;
            let derived = model.derived_from_population(
                ServerKind::LocalityConscious,
                cast::len_f64(stats.num_files),
            );
            Ok((n, model.max_throughput_derived(&derived)))
        })
        .collect()
}

/// Renders and writes one Figures 7–10 style experiment: simulated
/// throughput for the three servers plus the model bound, as CSV and an
/// ASCII chart under `dir`. Returns the path written and the chart
/// text. Taking the directory explicitly keeps tests and embedders free
/// of process-global environment mutation.
pub fn write_throughput_figure_to(
    dir: &Path,
    fig: &str,
    spec: &TraceSpec,
    cells: &[SweepCell],
    model: &[(usize, f64)],
) -> std::io::Result<(PathBuf, String)> {
    let mut table = CsvTable::new(["nodes", "model", "l2s", "lard", "traditional"]);
    let mut series: Vec<Series> = vec![
        Series::new("model", Vec::new()),
        Series::new("l2s", Vec::new()),
        Series::new("lard", Vec::new()),
        Series::new("traditional", Vec::new()),
    ];
    let nodes: Vec<usize> = model.iter().map(|&(n, _)| n).collect();
    for (i, &n) in nodes.iter().enumerate() {
        let get = |p: PolicyKind| {
            cell(cells, n, p)
                .map(|c| c.report.throughput_rps)
                .ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("{fig}: no {} cell at {n} nodes", p.name()),
                    )
                })
        };
        let row = [
            model[i].1,
            get(PolicyKind::L2s)?,
            get(PolicyKind::Lard)?,
            get(PolicyKind::Traditional)?,
        ];
        table.row_f64([cast::len_f64(n), row[0], row[1], row[2], row[3]]);
        for (s, v) in series.iter_mut().zip(row) {
            s.points.push((cast::len_f64(n), v));
        }
    }
    let path = dir.join(format!("{fig}.csv"));
    table.write_to(&path)?;
    let chart = line_chart(
        &format!(
            "{fig}: throughput (requests/s) vs nodes — {} trace",
            spec.name
        ),
        &series,
        64,
        20,
    );
    Ok((path, chart))
}

/// Runs one complete Figures 7–10 experiment (sweep + model line +
/// outputs) and prints the chart plus the paper's headline comparisons.
pub fn run_paper_figure(ctx: &RunCtx, fig: &str, spec: &TraceSpec) -> Result<(), String> {
    println!(
        "== {fig}: {} trace ({} files, {} requests{}) ==",
        spec.name,
        spec.num_files,
        spec.num_requests,
        if ctx.cap.is_none() {
            ", full fidelity"
        } else {
            ", quick mode (L2S_BENCH_FULL=1 for full)"
        }
    );
    let trace = paper_trace(spec);
    let stats = TraceStats::compute(&trace);
    println!(
        "   generated: avg file {:.1} KB, avg request {:.1} KB, alpha {:.2}, working set {:.0} MB",
        stats.avg_file_kb,
        stats.avg_request_kb,
        stats.alpha,
        stats.working_set_kb / 1024.0
    );
    let cells = ctx.sweep(&trace, &PAPER_NODE_COUNTS, &PAPER_POLICIES, paper_config);
    let model = model_line(&stats, &PAPER_NODE_COUNTS, paper_config(ctx, 1).cache_kb)?;
    let (path, chart) = write_throughput_figure_to(&ctx.results_dir, fig, spec, &cells, &model)
        .map_err(|e| format!("write {fig} outputs: {e}"))?;
    println!("{chart}");

    let at16 = |p: PolicyKind| {
        cell(&cells, 16, p)
            .map(|c| c.report.throughput_rps)
            .ok_or_else(|| format!("{fig}: missing 16-node {} cell", p.name()))
    };
    let l2s = at16(PolicyKind::L2s)?;
    let lard = at16(PolicyKind::Lard)?;
    let trad = at16(PolicyKind::Traditional)?;
    let bound = model.last().map(|&(_, x)| x).unwrap_or(f64::NAN);
    println!("  at 16 nodes: L2S {l2s:.0} r/s, LARD {lard:.0} r/s, traditional {trad:.0} r/s");
    println!(
        "  L2S vs LARD {:+.0}%, L2S vs traditional {:+.0}%, L2S at {:.0}% of the model bound",
        (l2s / lard - 1.0) * 100.0,
        (l2s / trad - 1.0) * 100.0,
        l2s / bound * 100.0
    );
    println!("  CSV: {}", path.display());
    Ok(())
}

/// Convenience accessor: the cell for `(nodes, policy)`, if the sweep
/// produced one.
pub fn cell(cells: &[SweepCell], nodes: usize, policy: PolicyKind) -> Option<&SweepCell> {
    cells
        .iter()
        .find(|c| c.nodes == nodes && c.policy == policy)
}

/// Extracts the first `"key": <number>` occurrence from a JSON string.
///
/// Hand-rolled because the workspace deliberately has no serde; the
/// `BENCH_*.json` files this reads are machine-written by the binaries
/// in this crate, so the format is known.
pub fn extract_json_num(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)?;
    let rest = &json[at + needle.len()..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Wall-clock accounting for one figure-suite run, recorded by
/// [`run_suite`] and written to `BENCH_suite.json` by the
/// `all_figures` binary. Wall-clock here is measurement *about* the
/// suite, not input *to* it — every simulated quantity still comes from
/// the event queue, so timing cannot perturb any figure.
#[derive(Clone, Debug)]
pub struct SuiteTiming {
    /// Total suite wall-clock in seconds.
    pub wall_s: f64,
    /// `(experiment name, wall-clock seconds)` in execution order.
    pub per_experiment: Vec<(String, f64)>,
}

/// Runs `experiments` (entries of [`experiments::ALL`]) in this
/// process, in order, sharing the memoized traces, and times each one.
/// Stops at the first failure, naming the experiment.
pub fn run_suite(ctx: &RunCtx, experiments: &[experiments::Entry]) -> Result<SuiteTiming, String> {
    let total = experiments.len();
    let suite_start = std::time::Instant::now();
    let mut per_experiment = Vec::with_capacity(total);
    for (i, (name, run)) in experiments.iter().enumerate() {
        println!("=== [{}/{total}] {name} ===", i + 1);
        let start = std::time::Instant::now();
        run(ctx).map_err(|e| format!("{name}: {e}"))?;
        per_experiment.push((name.to_string(), start.elapsed().as_secs_f64()));
        println!();
    }
    Ok(SuiteTiming {
        wall_s: suite_start.elapsed().as_secs_f64(),
        per_experiment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(workers: usize) -> RunCtx {
        RunCtx {
            workers,
            cap: None,
            results_dir: std::env::temp_dir(),
        }
    }

    /// `RunCtx::from_env` over a fixed set of variables.
    fn from_vars(vars: &[(&str, &str)]) -> RunCtx {
        RunCtx::from_env(|key| {
            vars.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| OsString::from(v))
        })
    }

    #[test]
    fn run_ctx_from_env_parses_each_setting() {
        let cores = l2s_util::pool::available_workers();
        let quick = RunCtx {
            workers: cores,
            cap: Some(RunCtx::QUICK_CAP),
            results_dir: PathBuf::from("results"),
        };
        assert_eq!(from_vars(&[]), quick);
        // A zero or unparsable count falls back to its default.
        for bad in ["0", "abc", "", "-3"] {
            let vars = [("L2S_BENCH_CAP", bad), ("L2S_WORKERS", bad)];
            assert_eq!(from_vars(&vars), quick, "{bad:?}");
        }
        // Full fidelity (exactly "1") beats the cap.
        let full = [("L2S_BENCH_FULL", "1"), ("L2S_BENCH_CAP", "2000")];
        assert_eq!(from_vars(&full).cap, None);
        let not_full = [("L2S_BENCH_FULL", "yes"), ("L2S_BENCH_CAP", " 2000 ")];
        assert_eq!(from_vars(&not_full).cap, Some(2000));
        // The worker count is capped at the core count.
        assert_eq!(from_vars(&[("L2S_WORKERS", "100000")]).workers, cores);
        assert_eq!(from_vars(&[("L2S_WORKERS", "1")]).workers, 1);
        let dir = from_vars(&[("L2S_RESULTS_DIR", "out")]).results_dir;
        assert_eq!(dir, PathBuf::from("out"));
    }

    #[test]
    fn capped_takes_the_smaller_budget() {
        let mut ctx = ctx(1);
        assert_eq!(ctx.capped(80_000), 80_000);
        ctx.cap = Some(RunCtx::QUICK_CAP);
        assert_eq!(ctx.capped(80_000), 80_000);
        ctx.cap = Some(2_000);
        assert_eq!(ctx.capped(80_000), 2_000);
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let presets = TraceSpec::paper_presets();
        let seeds: Vec<u64> = presets.iter().map(trace_seed).collect();
        assert_eq!(seeds, presets.iter().map(trace_seed).collect::<Vec<_>>());
        for i in 0..seeds.len() {
            for j in i + 1..seeds.len() {
                assert_ne!(seeds[i], seeds[j]);
            }
        }
    }

    #[test]
    fn sweep_covers_the_matrix() {
        let trace = TraceSpec::calgary().scaled(200, 3_000).generate(1);
        let cells = ctx(2).sweep(
            &trace,
            &[1, 2],
            &[PolicyKind::Traditional, PolicyKind::L2s],
            |_, n| SimConfig::quick(n, 1_000.0),
        );
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].nodes, 1);
        assert_eq!(cells[3].nodes, 2);
        for c in &cells {
            assert_eq!(c.report.completed, 3_000);
        }
    }

    #[test]
    fn sweep_is_deterministic_despite_parallelism() {
        let trace = TraceSpec::nasa().scaled(150, 2_000).generate(2);
        let run = |workers| {
            ctx(workers)
                .sweep(&trace, &[1, 2, 4], &[PolicyKind::L2s], |_, n| {
                    SimConfig::quick(n, 800.0)
                })
                .iter()
                .map(|c| c.report.throughput_rps)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn model_line_grows_with_nodes() {
        let trace = TraceSpec::calgary().scaled(2_000, 50_000).generate(3);
        let stats = TraceStats::compute(&trace);
        let line = model_line(&stats, &[1, 4, 16], 32.0 * 1024.0).unwrap();
        assert_eq!(line.len(), 3);
        assert!(line[0].1 < line[1].1 && line[1].1 < line[2].1);
    }

    #[test]
    fn figure_writer_emits_csv_and_chart() {
        let dir = std::env::temp_dir().join("l2s-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = TraceSpec::calgary().scaled(200, 2_000);
        let trace = spec.generate(4);
        let cells = ctx(2).sweep(&trace, &[1, 2], &PAPER_POLICIES, |_, n| {
            SimConfig::quick(n, 1_000.0)
        });
        let stats = TraceStats::compute(&trace);
        let model = model_line(&stats, &[1, 2], 1_000.0).unwrap();
        let (path, chart) =
            write_throughput_figure_to(&dir, "figtest", &spec, &cells, &model).unwrap();
        assert!(path.exists());
        assert!(chart.contains("figtest"));
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("nodes,model,l2s,lard,traditional"));
        assert_eq!(csv.lines().count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn figure_writer_refuses_a_missing_cell() {
        let dir = std::env::temp_dir().join("l2s-bench-test-missing-cell");
        let spec = TraceSpec::calgary().scaled(200, 2_000);
        let trace = spec.generate(4);
        let cells = ctx(2).sweep(
            &trace,
            &[1],
            &[PolicyKind::L2s, PolicyKind::Lard],
            |_, n| SimConfig::quick(n, 1_000.0),
        );
        let model = [(1, 1_000.0)];
        let err = write_throughput_figure_to(&dir, "figtest", &spec, &cells, &model)
            .expect_err("a missing traditional cell must not print as 0");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(
            err.to_string().contains("no traditional cell at 1 nodes"),
            "{err}"
        );
        assert!(!dir.join("figtest.csv").exists(), "nothing is written");
    }

    #[test]
    fn paper_trace_memoizes_per_spec() {
        let spec = TraceSpec::calgary().scaled(100, 1_000);
        let a = paper_trace(&spec);
        let b = paper_trace(&spec);
        assert!(Arc::ptr_eq(&a, &b), "same spec must share one trace");
        let other = TraceSpec::calgary().scaled(100, 1_001);
        let c = paper_trace(&other);
        assert!(!Arc::ptr_eq(&a, &c), "different specs must not collide");
        // Memoization must be invisible: the cached trace is exactly
        // what direct generation produces.
        assert_eq!(
            a.requests(),
            spec.generate(trace_seed(&spec)).requests(),
            "cached trace must equal direct generation"
        );
    }
}
