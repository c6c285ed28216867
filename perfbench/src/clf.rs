//! The `replay_clf` workload: a seeded Common Log Format log read
//! through `ClfStream` and replayed by `replay_stream` on a virtual clock.

use crate::layers::{self, Placed, Timed};
use crate::{
    median, report_digest, sim_digest, time_setup, Digest, Outcome, Size, Tracer, Workload,
};
use l2s::PolicyKind;
use l2s_replay::{replay_stream, ReplayConfig, ReplayEngine};
use l2s_sim::{SimConfig, VirtualClock};
use l2s_trace::{ClfRecord, ClfStream, TraceSpec};
use l2s_util::{DetRng, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Cluster size of the replay.
const NODES: usize = 8;

/// Policies replayed, back to back.
const POLICIES: [PolicyKind; 2] = [PolicyKind::L2s, PolicyKind::Jsq];

/// Offered rate of the rendered log in req/s. CLF timestamps have
/// one-second resolution, so each second's requests arrive together;
/// the rate keeps those bursts well inside what 8 nodes serve in a
/// second, so the backlog never grows (at 2000 req/s even 16 nodes fall
/// behind).
const RATE_RPS: f64 = 400.0;

/// Salt that derives the timestamp stream's seed from the workload seed.
const TIME_SALT: u64 = 0xc1f0_7135_0000_0001;

/// Renders `lines` CLF lines from the Clarknet population at `seed`:
/// Poisson arrivals at [`RATE_RPS`], every line a kept `GET` with status
/// 200 and the file's size. This is the benchmark's input; rendering it
/// is not set-up.
pub fn render_log(seed: u64, lines: usize) -> String {
    let spec = TraceSpec {
        num_requests: lines,
        ..TraceSpec::clarknet()
    };
    let trace = spec.generate(seed);
    let mut rng = DetRng::new(seed ^ TIME_SALT);
    let mut at_s = 0.0f64;
    let mut out = String::with_capacity(lines * 80);
    for (i, &file) in trace.requests().iter().enumerate() {
        at_s += rng.exponential(1.0 / RATE_RPS);
        let s = at_s as u64;
        assert!(s < 86_400, "the log must fit in one day");
        let bytes = ((trace.files().size_kb(file) * 1024.0).round() as u64).max(1);
        let _ = writeln!(
            out,
            "client{} - - [01/Jan/2000:{:02}:{:02}:{:02} +0000] \"GET /clarknet/{}.html HTTP/1.0\" 200 {bytes}",
            i % 997,
            s / 3600,
            s / 60 % 60,
            s % 60,
            file.raw()
        );
    }
    out
}

/// Runs `replay_clf`. See the crate docs.
pub fn run(seed: u64, seconds: f64, traced: bool, size: &Size) -> Result<Outcome, String> {
    let log = render_log(seed, size.clf_lines);
    let lines = size.clf_lines as u64;
    // Set-up builds about a microsecond of state, which host load swings
    // by tens of percent over seconds, so it is sampled after every pass
    // across the whole run rather than once at the start.
    let mut setup_samples = Vec::new();
    let mut stream_s = Vec::new();
    let mut sample_setup = |samples: &mut Vec<f64>| {
        for _ in 0..size.setup_reps * 8 {
            samples.push(time_setup(|| {
                let configs = POLICIES.map(|p| ReplayConfig::new(p, NODES));
                let engines = configs.clone().map(ReplayEngine::new);
                let t0 = Instant::now();
                let stream = ClfStream::new(log.as_bytes());
                stream_s.push(t0.elapsed().as_secs_f64());
                (configs, engines, stream)
            }));
        }
    };

    let mut out = Outcome {
        workload: Workload::ReplayClf,
        attempted: 0,
        failed: 0,
        check_failures: Vec::new(),
        values: BTreeMap::new(),
        report: String::new(),
        tracer: None,
    };
    let mut host_s: Vec<Vec<f64>> = vec![Vec::new(); POLICIES.len()];
    let mut first: Vec<Option<(l2s_sim::SimReport, u64)>> = vec![None; POLICIES.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = 0;
    while passes < size.min_passes || Instant::now() < deadline {
        for (i, policy) in POLICIES.into_iter().enumerate() {
            let cfg = ReplayConfig::new(policy, NODES);
            let mut stream = ClfStream::new(log.as_bytes());
            let mut clock = VirtualClock::new();
            let t0 = Instant::now();
            let report = replay_stream(&cfg, &mut stream, &mut clock, |_| {})
                .map_err(|e| format!("reading the in-memory log failed: {e}"))?;
            host_s[i].push(t0.elapsed().as_secs_f64());
            let stats = stream.stats();
            let mut d = report_digest(&report);
            for v in [stats.lines, stats.kept, stats.dropped, stats.out_of_order] {
                d.eat(v);
            }
            let digest = d.value();
            let mut bad = Vec::new();
            if stats.lines != stats.kept + stats.dropped || stats.lines != lines {
                bad.push(format!(
                    "{} lines read of {lines}, kept {} + dropped {}",
                    stats.lines, stats.kept, stats.dropped
                ));
            }
            if report.completed + report.failed != stats.kept {
                bad.push(format!(
                    "completed {} + failed {} != kept {}",
                    report.completed, report.failed, stats.kept
                ));
            }
            match &first[i] {
                None => first[i] = Some((report.clone(), digest)),
                Some((_, f)) if *f != digest => {
                    bad.push(format!("digest {digest:#x} differs from pass 1's {f:#x}"))
                }
                Some(_) => {}
            }
            out.attempted += lines;
            out.failed += if bad.is_empty() {
                report.failed + stats.dropped
            } else {
                lines
            };
            for b in bad {
                out.check_failures
                    .push(format!("replay_clf {}: {b}", policy.name()));
            }
        }
        sample_setup(&mut setup_samples);
        passes += 1;
    }
    let setup_s = median(&setup_samples);
    let medians: Vec<f64> = host_s.iter().map(|h| median(h)).collect();
    let e2e_ns = medians.iter().sum::<f64>() * 1e9 / (lines as f64 * POLICIES.len() as f64);
    out.values.insert(
        "host_req_per_s",
        (lines as usize * POLICIES.len()) as f64 / medians.iter().sum::<f64>(),
    );
    out.values.insert("setup_s", setup_s);

    let _ = writeln!(
        out.report,
        "replay_clf: {passes} passes, {lines} log lines at {RATE_RPS} req/s offered, set-up {setup_s:.3e} s (median of {})",
        setup_samples.len()
    );
    let _ = writeln!(
        out.report,
        "  {:<8} {:>5} {:>9} {:>12} {:>10} {:>12} {:>8} {:>16}",
        "policy", "nodes", "host_s", "lines/s", "sim_rps", "mean_resp_s", "miss", "digest"
    );
    for ((policy, m), f) in POLICIES.iter().zip(&medians).zip(&first) {
        let (r, d) = f.as_ref().expect("every policy ran");
        let _ = writeln!(
            out.report,
            "  {:<8} {:>5} {:>9.4} {:>12.0} {:>10.1} {:>12.5} {:>8.4} {:>16x}",
            policy.name(),
            NODES,
            m,
            lines as f64 / m,
            r.throughput_rps,
            r.mean_response_s,
            r.miss_rate,
            d
        );
    }

    if traced {
        let stream_s = median(&stream_s);
        traced_run(&log, lines, &first, e2e_ns, stream_s, &mut out);
    }
    Ok(out)
}

/// The traced run: drains the log through `ClfStream` alone, feeds the
/// parsed records to `ReplayEngine::offer` with `replay_stream`'s
/// periodic snapshots, then replays the resulting placement stream
/// against the policy, cache and station layers.
fn traced_run(
    log: &str,
    lines: u64,
    first: &[Option<(l2s_sim::SimReport, u64)>],
    e2e_ns: f64,
    stream_s: f64,
    out: &mut Outcome,
) {
    let mut tracer = Tracer::new();
    let root = tracer.open("replay.run", 0, None);
    let mut stream = ClfStream::new(log.as_bytes());
    let mut records: Vec<ClfRecord> = Vec::with_capacity(lines as usize);
    let clf = layers::time_batches(
        &mut tracer,
        "trace.clf",
        root,
        lines as usize,
        |i| i as u64,
        |range| {
            for _ in range {
                if let Ok(Some(r)) = stream.next_record() {
                    records.push(r);
                }
            }
        },
    );
    let dropped = stream.stats().dropped;
    let sizes = stream.sizes_kb().to_vec();
    let hw = SimConfig::paper_default(NODES);

    let mut offer = Timed::default();
    let mut snapshot = Timed::default();
    let mut place = Timed::default();
    let mut complete = Timed::default();
    let mut cache = Timed::default();
    let mut station = Timed::default();
    let (mut evictions, mut hits, mut digest) = (0u64, 0u64, Digest::default());
    let mut sums = [0.0f64; 7];
    let mut p99 = 0.0f64;
    for (policy, f) in POLICIES.into_iter().zip(first) {
        let (base, _) = f.as_ref().expect("every policy ran");
        let cfg = ReplayConfig::new(policy, NODES);
        let mut engine = ReplayEngine::new(cfg.clone());
        engine.hint_sizes(&sizes);
        let mut placed: Vec<Placed> = Vec::with_capacity(records.len());
        // The offer loop of `replay_stream`, with its periodic snapshot
        // (`drain_due` + `report`) timed as a child span of the batch it
        // falls in; the batch's own time is the offers'.
        let snap_ns = SimTime::from_secs_f64(cfg.snapshot_every_s).as_nanos();
        let mut next_snap_ns = snap_ns;
        for (b, chunk) in records.chunks(layers::BATCH).enumerate() {
            let start = b * layers::BATCH;
            let batch = tracer.open("replay.offer", start as u64, Some(root));
            let mut snap_in_batch = 0;
            for (j, r) in chunk.iter().enumerate() {
                let at = SimTime::from_secs_f64(r.at_s);
                while snap_ns > 0 && at.as_nanos() >= next_snap_ns {
                    let span = tracer.open("replay.snapshot", (start + j) as u64, Some(batch));
                    engine.drain_due(SimTime::from_nanos(next_snap_ns));
                    black_box(engine.report());
                    let ns = tracer.close(span, 1);
                    snap_in_batch += ns;
                    snapshot.add(Timed { ns, calls: 1 });
                    next_snap_ns += snap_ns;
                }
                if let Some(node) = engine.offer(at, r.file.raw(), r.size_kb) {
                    placed.push(Placed {
                        seq: (start + j) as u64,
                        at_ns: at.as_nanos(),
                        node: node as u32,
                        file: r.file.raw(),
                        kb: r.size_kb,
                    });
                }
            }
            let ns = tracer.close(batch, chunk.len() as u64);
            offer.add(Timed {
                ns: ns - snap_in_batch,
                calls: chunk.len() as u64,
            });
        }
        let report = engine.finish();
        if sim_digest(&report).value() != sim_digest(base).value() {
            out.failed = (out.failed + lines).min(out.attempted);
            out.check_failures.push(format!(
                "replay_clf {} (traced): driving ReplayEngine::offer directly gives another report than replay_stream",
                policy.name()
            ));
        }
        let c = layers::cache_replay(&mut tracer, root, &placed, NODES, hw.cache_kb);
        let s = layers::station_replay(
            &mut tracer,
            root,
            &placed,
            &c.hit,
            NODES,
            hw.ni_buffer,
            &hw.costs,
        );
        let core = layers::core_replay(
            &mut tracer,
            root,
            policy,
            NODES,
            hw.total_window(),
            &placed,
            &sizes,
        );
        if core.rejected > 0 {
            out.check_failures.push(format!(
                "replay_clf {} (traced): the policy replay rejected {} placements on a healthy cluster",
                policy.name(),
                core.rejected
            ));
        }
        place.add(core.place);
        complete.add(core.complete);
        cache.add(c.timed);
        station.add(s);
        evictions += c.evictions;
        hits += c.hits;
        digest.eat(sim_digest(base).value());
        let disk = base
            .per_node
            .iter()
            .map(|n| n.disk_utilization)
            .sum::<f64>()
            / base.per_node.len().max(1) as f64;
        for (sum, v) in sums.iter_mut().zip([
            base.control_msgs_per_request,
            base.forwarded_fraction,
            base.miss_rate,
            base.cpu_idle,
            disk,
            base.throughput_rps,
            base.mean_response_s,
        ]) {
            *sum += v;
        }
        p99 = p99.max(base.p99_response_s.unwrap_or(0.0));
    }
    let traced_ns = tracer.close(root, lines * POLICIES.len() as u64);

    let n = POLICIES.len() as f64;
    let offers = offer.calls.max(1) as f64;
    let clf_ns = clf.ns_per_call();
    let offer_ns = offer.ns_per_call();
    let snapshot_ns = snapshot.ns as f64 / offers;
    let residual = e2e_ns - clf_ns - offer_ns - snapshot_ns;
    let v = &mut out.values;
    for (name, value) in [
        ("devs.station_ns_per_op", station.ns_per_call()),
        ("devs.station_ops_per_req", station.calls as f64 / offers),
        ("core.place_ns", place.ns_per_call()),
        ("core.complete_ns", complete.ns_per_call()),
        ("core.decisions_per_req", place.calls as f64 / offers),
        ("core.control_msgs_per_req", sums[0] / n),
        ("core.forwarded_fraction", sums[1] / n),
        ("cluster.cache_ns_per_access", cache.ns_per_call()),
        ("cluster.accesses_per_req", cache.calls as f64 / offers),
        (
            "cluster.evictions_per_access",
            evictions as f64 / cache.calls.max(1) as f64,
        ),
        (
            "cluster.replay_hit_ratio",
            hits as f64 / cache.calls.max(1) as f64,
        ),
        ("cluster.miss_rate", sums[2] / n),
        ("cluster.cpu_idle", sums[3] / n),
        ("cluster.disk_utilization", sums[4] / n),
        ("trace.calls_per_req", 1.0),
        ("trace.generate_s", stream_s),
        ("trace.clf_ns_per_line", clf_ns),
        ("trace.clf_dropped", dropped as f64),
        ("replay.offer_ns", offer_ns),
        ("replay.snapshot_ns_per_line", snapshot_ns),
        ("replay.residual_ns_per_line", residual),
        (
            "sim.trace_overhead_share",
            traced_ns as f64 / (e2e_ns * lines as f64 * n) - 1.0,
        ),
        ("sim.throughput_rps", sums[5] / n),
        ("sim.mean_response_s", sums[6] / n),
        ("sim.p99_response_s", p99),
        ("sim.digest", digest.value() as f64),
    ] {
        v.insert(name, value);
    }

    let r = &mut out.report;
    let _ = writeln!(r, "\nresidual table (host ns per log line)");
    let _ = writeln!(r, "  {:<16} {:>10}", "trace.clf", format!("{clf_ns:.1}"));
    let _ = writeln!(
        r,
        "  {:<16} {:>10}",
        "replay.offer",
        format!("{offer_ns:.1}")
    );
    let _ = writeln!(
        r,
        "  {:<16} {:>10}",
        "replay.snapshot",
        format!("{snapshot_ns:.1}")
    );
    let _ = writeln!(
        r,
        "  {:<16} {:>10}",
        "sum of layers",
        format!("{:.1}", clf_ns + offer_ns + snapshot_ns)
    );
    let _ = writeln!(r, "  {:<16} {:>10}", "residual", format!("{residual:.1}"));
    let _ = writeln!(r, "  {:<16} {:>10}", "end to end", format!("{e2e_ns:.1}"));
    let _ = writeln!(
        r,
        "  residual = end to end - sum of layers: replay_stream's loop (virtual clock, \
         incremental size hints) and ReplayEngine::finish"
    );
    let _ = writeln!(
        r,
        "  inside replay.offer: core.place {:.1} + core.complete {:.1} + cluster.cache {:.1} \
         + devs.station {:.1} x {:.2} ops (replayed alone)",
        place.ns_per_call(),
        complete.ns_per_call(),
        cache.ns_per_call(),
        station.ns_per_call(),
        station.calls as f64 / offers
    );
    out.tracer = Some(tracer);
}
