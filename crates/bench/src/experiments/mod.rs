//! The experiment bodies behind the figure suite.
//!
//! Each submodule owns one experiment as a
//! `run(&RunCtx) -> Result<(), String>` function. [`ALL`] lists them
//! all; the `all_figures` binary runs the list (or its `--only`
//! selection) in one process, so the memoized traces of
//! [`crate::paper_trace`] are generated once per spec instead of once
//! per experiment.

use crate::{run_paper_figure, RunCtx};
use l2s_trace::TraceSpec;

pub mod exp_cache_policy;
pub mod exp_dfs;
pub mod exp_faults;
pub mod exp_forwarding;
pub mod exp_hetero;
pub mod exp_idle_times;
pub mod exp_lard_variants;
pub mod exp_latency_curve;
pub mod exp_memory_sim;
pub mod exp_memory_sweep;
pub mod exp_miss_rates;
pub mod exp_persistent;
pub mod exp_replay;
pub mod exp_replication;
pub mod exp_sensitivity;
pub mod exp_workload;
pub mod fig03_oblivious_surface;
pub mod fig04_conscious_surface;
pub mod fig05_throughput_increase;
pub mod table2_traces;

/// Figure 7: throughput vs cluster size for the Calgary trace.
pub fn fig07_calgary(ctx: &RunCtx) -> Result<(), String> {
    run_paper_figure(ctx, "fig07_calgary", &TraceSpec::calgary())
}

/// Figure 8: throughput vs cluster size for the Clarknet trace.
pub fn fig08_clarknet(ctx: &RunCtx) -> Result<(), String> {
    run_paper_figure(ctx, "fig08_clarknet", &TraceSpec::clarknet())
}

/// Figure 9: throughput vs cluster size for the NASA trace.
pub fn fig09_nasa(ctx: &RunCtx) -> Result<(), String> {
    run_paper_figure(ctx, "fig09_nasa", &TraceSpec::nasa())
}

/// Figure 10: throughput vs cluster size for the Rutgers trace.
pub fn fig10_rutgers(ctx: &RunCtx) -> Result<(), String> {
    run_paper_figure(ctx, "fig10_rutgers", &TraceSpec::rutgers())
}

/// One experiment: its name (the `all_figures --only` argument) and
/// its body.
pub type Entry = (&'static str, fn(&RunCtx) -> Result<(), String>);

/// Every experiment, in suite order: model studies first, then the
/// four headline figures, then the simulator-level studies.
pub const ALL: &[Entry] = &[
    ("fig03_oblivious_surface", fig03_oblivious_surface::run),
    ("fig04_conscious_surface", fig04_conscious_surface::run),
    ("fig05_throughput_increase", fig05_throughput_increase::run),
    ("exp_memory_sweep", exp_memory_sweep::run),
    ("exp_replication", exp_replication::run),
    ("table2_traces", table2_traces::run),
    ("fig07_calgary", fig07_calgary),
    ("fig08_clarknet", fig08_clarknet),
    ("fig09_nasa", fig09_nasa),
    ("fig10_rutgers", fig10_rutgers),
    ("exp_miss_rates", exp_miss_rates::run),
    ("exp_idle_times", exp_idle_times::run),
    ("exp_forwarding", exp_forwarding::run),
    ("exp_memory_sim", exp_memory_sim::run),
    ("exp_sensitivity", exp_sensitivity::run),
    ("exp_lard_variants", exp_lard_variants::run),
    ("exp_latency_curve", exp_latency_curve::run),
    ("exp_persistent", exp_persistent::run),
    ("exp_dfs", exp_dfs::run),
    ("exp_cache_policy", exp_cache_policy::run),
    ("exp_faults", exp_faults::run),
    ("exp_hetero", exp_hetero::run),
    ("exp_workload", exp_workload::run),
    ("exp_replay", exp_replay::run),
];
