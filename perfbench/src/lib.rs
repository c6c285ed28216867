//! The repository benchmark: how fast the simulator and the CLF replay
//! path run on this host, end to end and layer by layer.
//!
//! A run measures one named [`Workload`] for a fixed number of host
//! seconds with tracing off and reports the end-to-end metrics in
//! [`END_TO_END`]. A traced run measures the same workload, then runs the
//! DES once more with the placement observer and a counting
//! [`l2s_sim::Workload`] wrapper attached (the two in-place boundaries the
//! public API offers), replays each captured operation stream against
//! its layer alone and reports the metrics in [`PER_LAYER`], including the
//! residual that the layers do not explain. `README.md` next to this
//! file documents every metric, workload and seed.

#![forbid(unsafe_code)]

mod clf;
mod des;
mod layers;

use l2s_sim::SimReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// What a metric measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Basis {
    /// Host time or memory: what running the code costs on this machine.
    Host,
    /// What the modelled cluster does. Deterministic for a seed, so a
    /// change that only affects speed must leave it identical.
    Sim,
    /// A machine-independent operation count or ratio. Deterministic for
    /// a seed.
    Count,
}

impl Basis {
    /// Short tag printed next to each metric.
    pub fn tag(self) -> &'static str {
        match self {
            Basis::Host => "host",
            Basis::Sim => "sim",
            Basis::Count => "count",
        }
    }
}

/// End-to-end metrics, reported with tracing off: `(name, unit, basis)`.
pub const END_TO_END: [(&str, &str, Basis); 3] = [
    ("host_req_per_s", "req/s", Basis::Host),
    ("setup_s", "s", Basis::Host),
    ("peak_rss_mb", "MB", Basis::Host),
];

/// Per-layer metrics, reported by a traced run: `(name, unit, basis)`.
/// A layer the workload never calls reports 0 (its calls-per-request
/// counter says so).
pub const PER_LAYER: [(&str, &str, Basis); 38] = [
    ("devs.fel_ns_per_op", "ns", Basis::Host),
    ("devs.fel_shifts_per_event", "shifts/event", Basis::Count),
    ("devs.fel_far_share", "fraction", Basis::Count),
    ("devs.peak_fel_depth", "events", Basis::Count),
    ("devs.station_ns_per_op", "ns", Basis::Host),
    ("devs.station_ops_per_req", "ops/req", Basis::Count),
    ("core.place_ns", "ns", Basis::Host),
    ("core.complete_ns", "ns", Basis::Host),
    ("core.decisions_per_req", "calls/req", Basis::Count),
    ("core.control_msgs_per_req", "msgs/req", Basis::Sim),
    ("core.forwarded_fraction", "fraction", Basis::Sim),
    ("cluster.cache_ns_per_access", "ns", Basis::Host),
    ("cluster.accesses_per_req", "calls/req", Basis::Count),
    ("cluster.evictions_per_access", "evict/access", Basis::Count),
    ("cluster.replay_hit_ratio", "fraction", Basis::Count),
    ("cluster.miss_rate", "fraction", Basis::Sim),
    ("cluster.cpu_idle", "fraction", Basis::Sim),
    ("cluster.disk_utilization", "fraction", Basis::Sim),
    ("net.router_utilization", "fraction", Basis::Sim),
    ("trace.next_file_ns", "ns", Basis::Host),
    ("trace.calls_per_req", "calls/req", Basis::Count),
    ("trace.generate_s", "s", Basis::Host),
    ("trace.clf_ns_per_line", "ns", Basis::Host),
    ("trace.clf_dropped", "lines", Basis::Count),
    ("workload.next_ns", "ns", Basis::Host),
    ("workload.calls_per_req", "calls/req", Basis::Count),
    ("replay.offer_ns", "ns", Basis::Host),
    ("replay.snapshot_ns_per_line", "ns", Basis::Host),
    ("replay.residual_ns_per_line", "ns", Basis::Host),
    ("sim.events_per_req", "events/req", Basis::Count),
    ("sim.ns_per_event", "ns", Basis::Host),
    ("sim.residual_ns_per_req", "ns", Basis::Host),
    ("sim.residual_share", "fraction", Basis::Host),
    ("sim.trace_overhead_share", "fraction", Basis::Host),
    ("sim.throughput_rps", "req/s", Basis::Sim),
    ("sim.mean_response_s", "s", Basis::Sim),
    ("sim.p99_response_s", "s", Basis::Sim),
    ("sim.digest", "hash", Basis::Sim),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Rutgers, 16 nodes, paper defaults, L2S + LARD + traditional.
    PaperClosed,
    /// Streamed Calgary population, 1024 nodes, traditional + LARD.
    Scale1024,
    /// Seeded CLF log replayed through `ClfStream` + `replay_stream`.
    ReplayClf,
    /// Clarknet, 8 nodes, open loop under diurnal + flash + drift.
    OpenFlash,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperClosed,
        Workload::Scale1024,
        Workload::ReplayClf,
        Workload::OpenFlash,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperClosed => "paper_closed",
            Workload::Scale1024 => "scale_1024",
            Workload::ReplayClf => "replay_clf",
            Workload::OpenFlash => "open_flash",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Size::FULL`] is the benchmark; [`Size::SMOKE`] keeps
/// the same shapes at a few thousand requests for the benchmark's tests.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// `(files, requests)` of the Rutgers trace; `None` is Table 2 as
    /// published.
    pub paper: Option<(usize, usize)>,
    /// Requests streamed per `scale_1024` cell.
    pub scale_requests: usize,
    /// Lines in the rendered CLF log.
    pub clf_lines: usize,
    /// Requests per `open_flash` cell.
    pub flash_requests: usize,
    /// Measured passes a run makes even when `--seconds` runs out first.
    pub min_passes: usize,
    /// Set-up repetitions: DES workloads set up three times per seed of
    /// the panel `1..=setup_reps`; `replay_clf` sets up `8 × setup_reps`
    /// times after each pass. `setup_s` is the median.
    pub setup_reps: usize,
}

impl Size {
    /// The benchmark's input sizes.
    pub const FULL: Size = Size {
        paper: None,
        scale_requests: 250_000,
        clf_lines: 400_000,
        flash_requests: 120_000,
        min_passes: 3,
        setup_reps: 7,
    };

    /// Short inputs for the benchmark's own tests.
    pub const SMOKE: Size = Size {
        paper: Some((2_000, 6_000)),
        scale_requests: 20_000,
        clf_lines: 4_000,
        flash_requests: 4_000,
        min_passes: 2,
        setup_reps: 2,
    };
}

/// One traced-run span: a timed call (or batch of calls) into a layer.
#[derive(Clone, Debug, PartialEq)]
struct Span {
    /// Layer-qualified span name, e.g. `cluster.cache`.
    name: &'static str,
    /// Request id: the `PlacementRecord.seq` (or line index) of the first
    /// request the span covers.
    id: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Start, in ns since the run began.
    start_ns: u64,
    /// End, in ns since the run began.
    end_ns: u64,
    /// Calls the span covers.
    calls: u64,
}

/// In-memory span recorder; the spans are written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub(crate) fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index.
    pub(crate) fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        // Push first, then read the clock, so a growing span buffer is
        // not billed to the span it stores.
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: 0,
            end_ns: 0,
            calls: 0,
        });
        let idx = self.spans.len() - 1;
        let start_ns = self.now_ns();
        self.spans[idx].start_ns = start_ns;
        self.spans[idx].end_ns = start_ns;
        idx
    }

    /// Closes span `idx`, recording the calls it covered; returns its
    /// duration in ns.
    pub(crate) fn close(&mut self, idx: usize, calls: u64) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.calls = calls;
        end_ns - span.start_ns
    }

    /// The spans as CSV, one line per span.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("index,name,id,parent,start_ns,end_ns,calls\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(String::new, |p| p.to_string());
            let _ = writeln!(
                out,
                "{i},{},{},{parent},{},{},{}",
                s.name, s.id, s.start_ns, s.end_ns, s.calls
            );
        }
        out
    }
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// The workload measured.
    pub workload: Workload,
    /// Requests (or log lines) attempted across every measured pass.
    pub attempted: u64,
    /// Of those, the ones not completed: failed or refused requests,
    /// dropped log lines, and every request of a cell whose output check
    /// failed.
    pub failed: u64,
    /// Output checks that failed, one message each.
    pub check_failures: Vec<String>,
    /// Metric values by name: the end-to-end set, plus the per-layer set
    /// when the run was traced.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable tables: per-cell figures, counters, residuals.
    pub report: String,
    /// Spans of the traced run (empty when tracing is off).
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Requests not completed over requests attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// `(name, unit, basis, value)` for the metrics a run with `traced`
    /// reports, in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub fn metrics(&self, traced: bool) -> Vec<(&'static str, &'static str, Basis, f64)> {
        let list: &[(&str, &str, Basis)] = if traced { &PER_LAYER } else { &END_TO_END };
        list.iter()
            .map(|&(name, unit, basis)| {
                (
                    name,
                    unit,
                    basis,
                    self.values.get(name).copied().unwrap_or(0.0),
                )
            })
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the metrics of the run's mode.
    pub fn json(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .metrics(traced)
            .into_iter()
            .map(|(name, unit, _, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite `f64` in JSON, with every digit Rust's shortest round-trip
/// rendering gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Runs `workload` at `seed` for `seconds` host seconds of measurement.
/// With `traced`, also makes the traced run and the layer replays.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: &Size,
) -> Result<Outcome, String> {
    let mut outcome = match workload {
        Workload::ReplayClf => clf::run(seed, seconds, traced, size)?,
        _ => des::run(workload, seed, seconds, traced, size)?,
    };
    outcome.values.insert(
        "peak_rss_mb",
        peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0),
    );
    Ok(outcome)
}

/// Peak resident set size of this process in kB (`VmHWM`).
pub(crate) fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Resets the peak-RSS mark to the current RSS, so the next reading
/// belongs to what runs after this call. Returns whether the kernel
/// accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Median of `values` (0 for an empty slice).
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Wall time of one call of `setup`, in seconds. Dropping its result is
/// not timed.
pub(crate) fn time_setup<T>(setup: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    let built = setup();
    let s = t0.elapsed().as_secs_f64();
    drop(built);
    s
}

/// FNV-1a over 64-bit words: the digest of a run's deterministic output.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds a float in by its bits, so any change of value shows.
    pub fn eat_f64(&mut self, v: f64) {
        self.eat(v.to_bits());
    }

    /// The digest, cut to 53 bits so a JSON number holds it exactly.
    pub fn value(&self) -> u64 {
        self.0 & ((1 << 53) - 1)
    }
}

/// Digest of what the modelled cluster did: every outcome field of a
/// report, none of the engine's own operation counters, so a change that
/// only affects speed leaves it identical.
pub(crate) fn sim_digest(r: &SimReport) -> Digest {
    let mut d = Digest::default();
    for v in [r.completed, r.elapsed.as_nanos(), r.failed, r.retried] {
        d.eat(v);
    }
    for v in [
        r.throughput_rps,
        r.miss_rate,
        r.forwarded_fraction,
        r.cpu_idle,
        r.router_utilization,
        r.control_msgs_per_request,
        r.mean_response_s,
        r.p99_response_s.unwrap_or(-1.0),
        r.unavailability,
    ] {
        d.eat_f64(v);
    }
    for v in r.segment_means_s.iter().chain(&r.phase_rps) {
        d.eat_f64(*v);
    }
    for n in &r.per_node {
        d.eat(n.completed);
        d.eat(n.cache_hits);
        d.eat(n.cache_misses);
        d.eat_f64(n.cpu_utilization);
        d.eat_f64(n.disk_utilization);
    }
    d
}

/// [`sim_digest`] plus the engine's operation counters (events, queue
/// depth, `fel_ops`): everything a run of one seed must repeat.
pub(crate) fn report_digest(r: &SimReport) -> Digest {
    let mut d = sim_digest(r);
    d.eat(r.events_handled);
    d.eat(r.peak_fel_depth as u64);
    let q = &r.fel_ops;
    for v in [
        q.near_pushes,
        q.far_pushes,
        q.ins_shifted,
        q.sweep_sorted,
        q.sweeps,
        q.scanned,
        q.deferred,
        q.full_laps,
    ] {
        d.eat(v);
    }
    d
}
