//! The three DES workloads: `paper_closed`, `scale_1024` and
//! `open_flash`.

use crate::layers::{self, Placed, QueueShape, Timed};
use crate::{
    median, report_digest, sim_digest, time_setup, Digest, Outcome, Size, Tracer, Workload,
};
use l2s::PolicyKind;
use l2s_sim::{
    simulate_workload, simulate_workload_observed, ArrivalMode, DriftSpec, FlashCrowd,
    ModulatedWorkload, PlacementRecord, RateSchedule, SimConfig, SimReport, SynthWorkload,
    TraceWorkload, Workload as SimWorkload, WorkloadMod,
};
use l2s_trace::{FileId, FileSet, Trace, TraceSpec};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mean offered rate of `open_flash` in req/s, before the diurnal swing
/// and the flash crowd. Chosen so every policy keeps up on average and
/// queues build only at the peaks.
const FLASH_BASE_RPS: f64 = 400.0;

/// Event-queue ops the hold model replays per cell.
const FEL_OPS: usize = 1_000_000;

/// Set-ups per panel seed; `setup_s` is the median over all of them.
const SETUP_REPEATS: usize = 3;

/// Salt that derives the engine's own seed from the workload seed.
const ENGINE_SALT: u64 = 0x0be9_c4a1_d5e1_0001;

/// Where a DES workload's requests come from.
enum Source {
    /// A trace materialized up front by `TraceSpec::generate`.
    Trace(Trace),
    /// The streaming generator.
    Synth(SynthWorkload),
}

impl Source {
    fn len(&self) -> usize {
        match self {
            Source::Trace(t) => t.len(),
            Source::Synth(s) => s.len(),
        }
    }

    fn files(&self) -> &FileSet {
        match self {
            Source::Trace(t) => t.files(),
            Source::Synth(s) => s.files(),
        }
    }

    /// Runs `f` on a workload positioned at the first request.
    fn with<R>(&mut self, f: impl FnOnce(&mut dyn SimWorkload) -> R) -> R {
        match self {
            Source::Trace(t) => f(&mut TraceWorkload::new(t)),
            Source::Synth(s) => {
                s.rewind();
                f(s)
            }
        }
    }
}

/// One simulated configuration of a workload: a policy on a cluster.
struct Cell {
    policy: PolicyKind,
    config: SimConfig,
}

/// A set-up DES workload: its inputs and its cells.
struct Setup {
    source: Source,
    cells: Vec<Cell>,
    /// Host seconds spent building the request source.
    trace_s: f64,
}

/// Builds `workload`'s inputs from `seed`. Everything here is set-up:
/// it runs before the first call into the simulator.
fn setup(workload: Workload, seed: u64, size: &Size) -> Setup {
    let engine_seed = seed ^ ENGINE_SALT;
    let cells = |policies: &[PolicyKind], config: SimConfig| -> Vec<Cell> {
        policies
            .iter()
            .map(|&policy| Cell {
                policy,
                config: SimConfig {
                    seed: engine_seed,
                    ..config.clone()
                },
            })
            .collect()
    };
    let t0 = Instant::now();
    match workload {
        Workload::PaperClosed => {
            let spec = match size.paper {
                None => TraceSpec::rutgers(),
                Some((files, requests)) => TraceSpec::rutgers().scaled(files, requests),
            };
            let trace = spec.generate(seed);
            let trace_s = t0.elapsed().as_secs_f64();
            Setup {
                source: Source::Trace(trace),
                cells: cells(
                    &[PolicyKind::L2s, PolicyKind::Lard, PolicyKind::Traditional],
                    SimConfig::paper_default(16),
                ),
                trace_s,
            }
        }
        Workload::Scale1024 => {
            let spec = TraceSpec {
                num_requests: size.scale_requests,
                ..TraceSpec::calgary()
            };
            let synth = SynthWorkload::new(&spec, seed);
            let trace_s = t0.elapsed().as_secs_f64();
            let config = SimConfig {
                warmup: false,
                response_samples: false,
                ..SimConfig::paper_default(1024)
            };
            Setup {
                source: Source::Synth(synth),
                cells: cells(&[PolicyKind::Traditional, PolicyKind::Lard], config),
                trace_s,
            }
        }
        Workload::OpenFlash => {
            let spec = TraceSpec {
                num_requests: size.flash_requests,
                ..TraceSpec::clarknet()
            };
            let synth = SynthWorkload::new(&spec, seed);
            let trace_s = t0.elapsed().as_secs_f64();
            let config = SimConfig {
                arrivals: ArrivalMode::Poisson {
                    rate_rps: FLASH_BASE_RPS,
                },
                workload_mod: flash_mod(size.flash_requests, spec.num_files),
                ..SimConfig::paper_default(8)
            };
            Setup {
                source: Source::Synth(synth),
                cells: cells(
                    &[PolicyKind::L2s, PolicyKind::Jsq, PolicyKind::Sita],
                    config,
                ),
                trace_s,
            }
        }
        Workload::ReplayClf => unreachable!("replay_clf is not a DES workload"),
    }
}

/// The X9 shapes over one pass of `requests` arrivals: two diurnal
/// cycles, one flash crowd on eight hot files, and a working-set drift
/// that rotates popularity eight times a pass.
fn flash_mod(requests: usize, files: usize) -> WorkloadMod {
    let horizon_s = requests as f64 / FLASH_BASE_RPS;
    WorkloadMod {
        rate: Some(
            RateSchedule::diurnal(FLASH_BASE_RPS, 0.5, horizon_s / 2.0)
                .expect("a positive rate with amplitude below 1 is a valid schedule"),
        ),
        flash: vec![FlashCrowd {
            start_s: 0.25 * horizon_s,
            ramp_s: 0.05 * horizon_s,
            hold_s: 0.20 * horizon_s,
            decay_s: 0.10 * horizon_s,
            peak_weight: 0.45,
            hot_files: 8,
            first_id: 0,
        }],
        drift: Some(DriftSpec {
            period_s: horizon_s / 8.0,
            step: u32::try_from(files / 12).expect("file populations fit in u32"),
        }),
    }
}

/// A `Workload` wrapper that counts `next_file` calls in place.
struct Counting<'a> {
    inner: &'a mut dyn SimWorkload,
    calls: u64,
}

impl SimWorkload for Counting<'_> {
    fn files(&self) -> &FileSet {
        self.inner.files()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn next_file(&mut self) -> Option<FileId> {
        self.calls += 1;
        self.inner.next_file()
    }

    fn rewind(&mut self) {
        self.inner.rewind();
    }

    fn next_arrival_s(&mut self) -> Option<f64> {
        self.inner.next_arrival_s()
    }
}

/// One cell's measured passes.
struct CellRun {
    /// Requests simulated per run, warm-up pass included.
    simulated: u64,
    /// Host seconds of each measured pass.
    host_s: Vec<f64>,
    /// The first pass's report and digest; later passes must match.
    first: Option<(SimReport, u64)>,
}

impl CellRun {
    fn report(&self) -> &SimReport {
        &self.first.as_ref().expect("every cell ran at least once").0
    }

    /// Median host ns per simulated request.
    fn ns_per_req(&self) -> f64 {
        median(&self.host_s) * 1e9 / self.simulated as f64
    }
}

/// Runs a DES workload. See the crate docs.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: &Size,
) -> Result<Outcome, String> {
    // Set-up cost depends on the seed (the generator's size bisection
    // takes ten times longer on some Clarknet seeds than on others), so
    // `setup_s` is the median over a fixed panel of seeds, the same in
    // every run; the run's own inputs come from `seed`.
    let mut trace_s = Vec::new();
    let panel_s: Vec<f64> = (1..=size.setup_reps.max(1) as u64)
        .flat_map(|panel_seed| std::iter::repeat_n(panel_seed, SETUP_REPEATS))
        .map(|panel_seed| {
            time_setup(|| {
                let s = setup(workload, panel_seed, size);
                trace_s.push(s.trace_s);
                s
            })
        })
        .collect();
    let setup_s = median(&panel_s);
    let mut setup = setup(workload, seed, size);
    let len = setup.source.len() as u64;
    let mut runs: Vec<CellRun> = setup
        .cells
        .iter()
        .map(|c| CellRun {
            simulated: len * if c.config.warmup { 2 } else { 1 },
            host_s: Vec::new(),
            first: None,
        })
        .collect();
    let mut out = Outcome {
        workload,
        attempted: 0,
        failed: 0,
        check_failures: Vec::new(),
        values: BTreeMap::new(),
        report: String::new(),
        tracer: None,
    };

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = 0;
    while passes < size.min_passes || Instant::now() < deadline {
        for (cell, run) in setup.cells.iter().zip(&mut runs) {
            let t0 = Instant::now();
            let report = setup
                .source
                .with(|w| simulate_workload(&cell.config, cell.policy, w));
            run.host_s.push(t0.elapsed().as_secs_f64());
            let digest = report_digest(&report).value();
            let mut bad = Vec::new();
            if report.completed + report.failed != len {
                bad.push(format!(
                    "completed {} + failed {} != attempted {len}",
                    report.completed, report.failed
                ));
            }
            match &run.first {
                None => run.first = Some((report.clone(), digest)),
                Some((_, d)) if *d != digest => bad.push(format!(
                    "report digest {digest:#x} differs from pass 1's {d:#x}"
                )),
                Some(_) => {}
            }
            out.attempted += len;
            out.failed += if bad.is_empty() { report.failed } else { len };
            for b in bad {
                out.check_failures
                    .push(format!("{} {}: {b}", workload.name(), cell.policy.name()));
            }
        }
        passes += 1;
    }

    let simulated: u64 = runs.iter().map(|r| r.simulated).sum();
    let host_s: f64 = runs.iter().map(|r| median(&r.host_s)).sum();
    out.values
        .insert("host_req_per_s", simulated as f64 / host_s);
    out.values.insert("setup_s", setup_s);

    let _ = writeln!(
        out.report,
        "{}: {passes} passes, {len} requests per pass, set-up {setup_s:.4} s (median over panel seeds 1..={}, {SETUP_REPEATS} each)",
        workload.name(),
        size.setup_reps.max(1)
    );
    let _ = writeln!(
        out.report,
        "  {:<12} {:>5} {:>10} {:>9} {:>12} {:>10} {:>11} {:>8} {:>16}",
        "policy",
        "nodes",
        "simulated",
        "host_s",
        "host_req/s",
        "events/req",
        "sim_rps",
        "miss",
        "digest"
    );
    for (cell, run) in setup.cells.iter().zip(&runs) {
        let r = run.report();
        let _ = writeln!(
            out.report,
            "  {:<12} {:>5} {:>10} {:>9.4} {:>12.0} {:>10.3} {:>11.1} {:>8.4} {:>16x}",
            cell.policy.name(),
            cell.config.nodes,
            run.simulated,
            median(&run.host_s),
            run.simulated as f64 / median(&run.host_s),
            r.events_handled as f64 / run.simulated as f64,
            r.throughput_rps,
            r.miss_rate,
            report_digest(r).value()
        );
    }

    if traced {
        traced_run(&mut setup, &runs, seed, median(&trace_s), &mut out);
    }
    Ok(out)
}

/// Per-cell layer costs in host ns per simulated request, in the order
/// the residual table prints them.
const LAYERS: [&str; 8] = [
    "devs.fel",
    "devs.station",
    "core.place",
    "core.complete",
    "cluster.cache",
    "trace.next_file",
    "workload.next",
    "residual",
];

/// The traced run: runs each cell once more with the placement observer
/// and the counting wrapper, replays the captured streams against each
/// layer alone, and fills in the per-layer metrics and the residual table.
fn traced_run(setup: &mut Setup, runs: &[CellRun], seed: u64, trace_s: f64, out: &mut Outcome) {
    let mut tracer = Tracer::new();
    let files = setup.source.files().clone();
    let sizes_kb: Vec<f64> = files.iter().map(|(_, kb)| kb).collect();
    let len = setup.source.len();

    // Sums over cells: host ns and calls per layer, plus the counters.
    let mut fel = Timed::default();
    let mut station = Timed::default();
    let mut place = Timed::default();
    let mut complete = Timed::default();
    let mut cache = Timed::default();
    let mut next_file = Timed::default();
    let mut modulated = Timed::default();
    let (mut evictions, mut replay_hits) = (0u64, 0u64);
    let (mut events, mut simulated, mut e2e_ns, mut traced_ns) = (0u64, 0u64, 0.0, 0.0);
    let (mut station_ops, mut decisions, mut trace_calls, mut mod_calls) = (0.0, 0u64, 0u64, 0u64);
    let mut des_fel = l2s_devs::QueueStats::default();
    let mut peak_depth = 0usize;
    let mut digest = Digest::default();
    let mut sim_sums = [0.0f64; 8];
    let mut p99 = 0.0f64;
    let mut contrib = vec![[0.0f64; LAYERS.len()]; runs.len()];
    let mut shapes = Vec::new();
    let mut msgs_cmp = Vec::new();

    for (ci, (cell, run)) in setup.cells.iter().zip(runs).enumerate() {
        let cell_span = tracer.open("sim.cell", ci as u64, None);

        // The traced DES run: observer and counting wrapper attached.
        let mut placements: Vec<PlacementRecord> = Vec::with_capacity(run.simulated as usize);
        let mut calls = 0u64;
        let run_span = tracer.open("sim.run", ci as u64, Some(cell_span));
        let report = setup.source.with(|w| {
            let mut counting = Counting { inner: w, calls: 0 };
            let mut observe = |r: PlacementRecord| placements.push(r);
            let report =
                simulate_workload_observed(&cell.config, cell.policy, &mut counting, &mut observe);
            calls = counting.calls;
            report
        });
        let run_ns = tracer.close(run_span, run.simulated);
        let name = cell.policy.name();
        let (base, base_digest) = run.first.as_ref().expect("every cell ran");
        let mut bad = Vec::new();
        if report_digest(&report).value() != *base_digest {
            bad.push("the traced run's report differs from the untraced one".to_string());
        }
        if placements.len() as u64 != run.simulated {
            bad.push(format!(
                "{} placements observed for {} simulated requests",
                placements.len(),
                run.simulated
            ));
        }
        if !bad.is_empty() {
            out.failed = (out.failed + len as u64).min(out.attempted);
        }
        for b in bad {
            out.check_failures.push(format!("{name} (traced): {b}"));
        }
        let stream: Vec<Placed> = placements
            .iter()
            .map(|p| Placed {
                seq: p.seq,
                at_ns: p.at.as_nanos(),
                node: p.service as u32,
                file: p.file.raw(),
                kb: files.size_kb(p.file),
            })
            .collect();
        digest.eat(sim_digest(base).value());
        digest.eat(l2s_replay::placement_checksum(&placements));
        drop(placements);

        // Layer replays.
        let sim_n = run.simulated as f64;
        let measured_events = base.events_handled as f64 * len as f64 / sim_n;
        let target = layers::HoldTarget {
            depth: base.peak_fel_depth,
            gap_ns: base.elapsed.as_nanos() as f64 / measured_events.max(1.0),
            stats: base.fel_ops,
        };
        let (fel_t, hold) = layers::fel_hold(
            &mut tracer,
            cell_span,
            &target,
            FEL_OPS.min(base.events_handled as usize),
            seed ^ ci as u64,
        );
        let cache_r = layers::cache_replay(
            &mut tracer,
            cell_span,
            &stream,
            cell.config.nodes,
            cell.config.cache_kb,
        );
        let station_t = layers::station_replay(
            &mut tracer,
            cell_span,
            &stream,
            &cache_r.hit,
            cell.config.nodes,
            cell.config.ni_buffer,
            &cell.config.costs,
        );
        let core = layers::core_replay(
            &mut tracer,
            cell_span,
            cell.policy,
            cell.config.nodes,
            cell.config.total_window(),
            &stream,
            &sizes_kb,
        );
        if core.rejected > 0 {
            out.check_failures.push(format!(
                "{name} (traced): the policy replay rejected {} placements on a healthy cluster",
                core.rejected
            ));
        }
        let next_t = time_next_file(&mut tracer, cell_span, &mut setup.source);
        let mod_t = if cell.config.workload_mod.is_none() {
            Timed::default()
        } else {
            time_modulated(&mut tracer, cell_span, &mut setup.source, &cell.config)
        };
        tracer.close(cell_span, run.simulated);

        // Ops per simulated request. Station schedules are not visible
        // from outside the engine; they follow from its lifecycle: one
        // per event except `Done`, a non-forwarded `Decide` and the
        // open-loop arrival timer, plus the router leg at launch, plus
        // four (CPU and NI at both ends) per control message.
        let events_per_req = base.events_handled as f64 / sim_n;
        let open_loop = matches!(cell.config.arrivals, ArrivalMode::Poisson { .. });
        let station_per_req =
            events_per_req - (1.0 - base.forwarded_fraction) - if open_loop { 1.0 } else { 0.0 }
                + 4.0 * base.control_msgs_per_request;
        let decisions_per_req = stream.len() as f64 / sim_n;
        let calls_per_req = calls as f64 / sim_n;
        let c = &mut contrib[ci];
        c[0] = fel_t.ns_per_call() * events_per_req;
        c[1] = station_t.ns_per_call() * station_per_req;
        c[2] = core.place.ns_per_call() * decisions_per_req;
        c[3] = core.complete.ns_per_call() * decisions_per_req;
        c[4] = cache_r.timed.ns_per_call() * decisions_per_req;
        c[5] = next_t.ns_per_call() * calls_per_req;
        c[6] = mod_t.ns_per_call() * if mod_t.calls > 0 { calls_per_req } else { 0.0 };
        c[7] = run.ns_per_req() - c[..7].iter().sum::<f64>();

        fel.add(fel_t);
        station.add(station_t);
        place.add(core.place);
        complete.add(core.complete);
        cache.add(cache_r.timed);
        next_file.add(next_t);
        modulated.add(mod_t);
        evictions += cache_r.evictions;
        replay_hits += cache_r.hits;
        events += base.events_handled;
        simulated += run.simulated;
        e2e_ns += run.ns_per_req() * sim_n;
        traced_ns += run_ns as f64;
        station_ops += station_per_req * sim_n;
        decisions += stream.len() as u64;
        trace_calls += calls;
        if mod_t.calls > 0 {
            mod_calls += calls;
        }
        add_stats(&mut des_fel, &base.fel_ops);
        peak_depth = peak_depth.max(base.peak_fel_depth);
        let disk = base
            .per_node
            .iter()
            .map(|n| n.disk_utilization)
            .sum::<f64>()
            / base.per_node.len().max(1) as f64;
        for (s, v) in sim_sums.iter_mut().zip([
            base.control_msgs_per_request,
            base.forwarded_fraction,
            base.miss_rate,
            base.cpu_idle,
            disk,
            base.router_utilization,
            base.throughput_rps,
            base.mean_response_s,
        ]) {
            *s += v;
        }
        p99 = p99.max(base.p99_response_s.unwrap_or(0.0));
        shapes.push((
            name,
            QueueShape::of(&base.fel_ops),
            QueueShape::of(&hold),
            base.peak_fel_depth,
        ));
        msgs_cmp.push((
            name,
            base.control_msgs_per_request,
            core.control_msgs as f64 / core.place.calls.max(1) as f64,
            base.forwarded_fraction,
            core.forwarded as f64 / core.place.calls.max(1) as f64,
            cache_r.hits as f64 / stream.len().max(1) as f64,
            base.miss_rate,
        ));
    }

    let n = runs.len() as f64;
    let sim_n = simulated as f64;
    // The workload column: each layer's ns/op times its ops/req, both
    // taken over all cells, exactly as the per-layer metrics report them,
    // so the printed metrics plus the residual add up to end to end.
    let dec_per_req = decisions as f64 / sim_n;
    let mut total = [
        fel.ns_per_call() * events as f64 / sim_n,
        station.ns_per_call() * station_ops / sim_n,
        place.ns_per_call() * dec_per_req,
        complete.ns_per_call() * dec_per_req,
        cache.ns_per_call() * dec_per_req,
        next_file.ns_per_call() * trace_calls as f64 / sim_n,
        modulated.ns_per_call() * mod_calls as f64 / sim_n,
        0.0,
    ];
    let e2e = e2e_ns / sim_n;
    let layer_ns: f64 = total[..7].iter().sum();
    total[7] = e2e - layer_ns;
    let v = &mut out.values;
    let des_shape = QueueShape::of(&des_fel);
    for (name, value) in [
        ("devs.fel_ns_per_op", fel.ns_per_call()),
        ("devs.fel_shifts_per_event", des_shape.shifts_per_event),
        ("devs.fel_far_share", des_shape.far_share),
        ("devs.peak_fel_depth", peak_depth as f64),
        ("devs.station_ns_per_op", station.ns_per_call()),
        ("devs.station_ops_per_req", station_ops / sim_n),
        ("core.place_ns", place.ns_per_call()),
        ("core.complete_ns", complete.ns_per_call()),
        ("core.decisions_per_req", decisions as f64 / sim_n),
        ("core.control_msgs_per_req", sim_sums[0] / n),
        ("core.forwarded_fraction", sim_sums[1] / n),
        ("cluster.cache_ns_per_access", cache.ns_per_call()),
        ("cluster.accesses_per_req", decisions as f64 / sim_n),
        (
            "cluster.evictions_per_access",
            evictions as f64 / decisions.max(1) as f64,
        ),
        (
            "cluster.replay_hit_ratio",
            replay_hits as f64 / decisions.max(1) as f64,
        ),
        ("cluster.miss_rate", sim_sums[2] / n),
        ("cluster.cpu_idle", sim_sums[3] / n),
        ("cluster.disk_utilization", sim_sums[4] / n),
        ("net.router_utilization", sim_sums[5] / n),
        ("trace.next_file_ns", next_file.ns_per_call()),
        ("trace.calls_per_req", trace_calls as f64 / sim_n),
        ("trace.generate_s", trace_s),
        ("workload.next_ns", modulated.ns_per_call()),
        ("workload.calls_per_req", mod_calls as f64 / sim_n),
        ("sim.events_per_req", events as f64 / sim_n),
        ("sim.ns_per_event", e2e_ns / events as f64),
        ("sim.residual_ns_per_req", total[7]),
        ("sim.residual_share", total[7] / e2e),
        ("sim.trace_overhead_share", traced_ns / e2e_ns - 1.0),
        ("sim.throughput_rps", sim_sums[6] / n),
        ("sim.mean_response_s", sim_sums[7] / n),
        ("sim.p99_response_s", p99),
        ("sim.digest", digest.value() as f64),
    ] {
        v.insert(name, value);
    }

    // Residual table: one column per cell plus the workload total.
    let r = &mut out.report;
    let _ = writeln!(r, "\nresidual table (host ns per simulated request)");
    let _ = write!(r, "  {:<16}", "layer");
    for (cell, _) in setup.cells.iter().zip(runs) {
        let _ = write!(r, " {:>12}", cell.policy.name());
    }
    let _ = writeln!(r, " {:>12}", "workload");
    for (li, layer) in LAYERS.iter().enumerate() {
        if li == LAYERS.len() - 1 {
            let _ = write!(r, "  {:<16}", "sum of layers");
            for c in &contrib {
                let _ = write!(r, " {:>12.1}", c[..li].iter().sum::<f64>());
            }
            let _ = writeln!(r, " {:>12.1}", layer_ns);
        }
        let _ = write!(r, "  {:<16}", layer);
        for c in &contrib {
            let _ = write!(r, " {:>12.1}", c[li]);
        }
        let _ = writeln!(r, " {:>12.1}", total[li]);
    }
    let _ = write!(r, "  {:<16}", "end to end");
    for run in runs {
        let _ = write!(r, " {:>12.1}", run.ns_per_req());
    }
    let _ = writeln!(r, " {:>12.1}", e2e);
    let _ = writeln!(
        r,
        "  residual = end to end - sum of layers: event dispatch (the engine's \
         `handle` match and lifecycle glue), the private request arena, the router \
         and switch legs, CostCache lookups and the measurement accumulators"
    );

    let _ = writeln!(r, "\nevent queue: DES fel_ops vs hold model QueueStats");
    let _ = writeln!(
        r,
        "  {:<12} {:>6} {:>12} {:>12} {:>10} {:>10} {:>12} {:>12}",
        "policy",
        "depth",
        "des_shift/ev",
        "hold_shift/ev",
        "des_far",
        "hold_far",
        "des_sweep/ev",
        "hold_sweep/ev"
    );
    for (name, des, hold, depth) in &shapes {
        let _ = writeln!(
            r,
            "  {:<12} {:>6} {:>12.3} {:>12.3} {:>10.3} {:>10.3} {:>12.4} {:>12.4}",
            name,
            depth,
            des.shifts_per_event,
            hold.shifts_per_event,
            des.far_share,
            hold.far_share,
            des.sweeps_per_event,
            hold.sweeps_per_event
        );
    }
    let _ = writeln!(r, "\npolicy and cache replays vs the DES (per decision)");
    let _ = writeln!(
        r,
        "  {:<12} {:>10} {:>11} {:>9} {:>10} {:>10} {:>9}",
        "policy", "des_msgs", "replay_msgs", "des_fwd", "replay_fwd", "replay_hit", "des_miss"
    );
    for (name, dm, rm, df, rf, hit, miss) in &msgs_cmp {
        let _ = writeln!(
            r,
            "  {:<12} {:>10.3} {:>11.3} {:>9.4} {:>10.4} {:>10.4} {:>9.4}",
            name, dm, rm, df, rf, hit, miss
        );
    }
    out.tracer = Some(tracer);
}

fn add_stats(sum: &mut l2s_devs::QueueStats, s: &l2s_devs::QueueStats) {
    sum.near_pushes += s.near_pushes;
    sum.far_pushes += s.far_pushes;
    sum.ins_shifted += s.ins_shifted;
    sum.sweep_sorted += s.sweep_sorted;
    sum.sweeps += s.sweeps;
    sum.scanned += s.scanned;
    sum.deferred += s.deferred;
    sum.full_laps += s.full_laps;
}

/// Times `Workload::next_file` on the source's seeded stream, drained
/// alone for one pass.
fn time_next_file(tracer: &mut Tracer, parent: usize, source: &mut Source) -> Timed {
    let len = source.len();
    source.with(|w| {
        layers::time_batches(
            tracer,
            "trace.next_file",
            parent,
            len,
            |i| i as u64,
            |range| {
                for _ in range {
                    black_box(w.next_file());
                }
            },
        )
    })
}

/// Times the modulation layer: `ModulatedWorkload::next_arrival_s` +
/// `next_file` over a materialized copy of the base stream, so the base
/// costs only a cursor read and the time is the modulation's own.
fn time_modulated(
    tracer: &mut Tracer,
    parent: usize,
    source: &mut Source,
    config: &SimConfig,
) -> Timed {
    let files = source.files().clone();
    let ids: Vec<FileId> = source.with(|w| std::iter::from_fn(|| w.next_file()).collect());
    let base = Trace::new("base", files, ids);
    let mut cursor = TraceWorkload::new(&base);
    let mut w = ModulatedWorkload::new(&mut cursor, config.workload_mod.clone(), config.seed);
    let len = base.len();
    layers::time_batches(
        tracer,
        "workload.next",
        parent,
        len,
        |i| i as u64,
        |range| {
            for _ in range {
                black_box(w.next_arrival_s());
                black_box(w.next_file());
            }
        },
    )
}
