//! Live CLF replay front-end.
//!
//! The DES engine answers "what would this cluster have done over the
//! whole trace"; this crate answers the *online* question — tail a
//! Common Log Format access log (a file being written, or stdin) and
//! drive any [`PolicyKind`] request-distribution policy against it as
//! the requests arrive, in real time, scaled time (`--speed`), or as
//! fast as the log can be read.
//!
//! Two execution modes share one configuration:
//!
//! * **Timed replay** ([`replay_stream`] / [`replay_trace_timed`]): a
//!   single-threaded loop over the [`PolicyDriver`] API. Virtual time
//!   comes from the log's own timestamps (or a Poisson arrival process
//!   for synthetic traces); an injectable [`Clock`] paces the loop —
//!   [`WallClock`] sleeps until each arrival is due, [`VirtualClock`]
//!   jumps. Per-node service is modeled with the same
//!   [`NodeHardware`] stations and [`NodeCosts`] Table 1 service times
//!   the DES uses, in a simplified FIFO pipeline (NI-in, CPU parse
//!   [+forward], disk on a cache miss, CPU reply, NI-out). Memory is
//!   bounded by distinct files + in-flight requests, never log length.
//! * **Infinite-speed replay** ([`replay_trace_fast`]): drives the DES
//!   engine itself with a placement observer attached, so the placement
//!   sequence is *identical by construction* to `simulate` on the same
//!   trace, config, and seed — the parity contract the X10 experiment
//!   pins in CI.
//!
//! Both modes report through the engine's [`SimReport`], emitted as
//! periodic snapshots and a final CSV written with the same
//! [`CsvTable`](l2s_util::csv::CsvTable) machinery as the experiment
//! writers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod p99;
mod timed;

pub use timed::{ReplayConfig, ReplayEngine};

use l2s::PolicyKind;
use l2s_sim::{simulate_observed, Clock, PlacementRecord, SimConfig, SimReport};
use l2s_trace::{ClfStream, Trace};
use l2s_util::csv::CsvTable;
use l2s_util::{cast, DetRng, SimTime};
use std::io::{self, BufRead};
use std::path::Path;

/// Infinite-speed replay of a complete trace: runs the DES engine with
/// a placement observer attached and returns every placement it made in
/// decision order, plus the full measurement report.
///
/// This is the parity anchor: the placements are the engine's own, so
/// replaying "as fast as possible" reproduces the simulator's placement
/// sequence byte-for-byte on the same `(config, kind, trace)`.
pub fn replay_trace_fast(
    config: &SimConfig,
    kind: PolicyKind,
    trace: &Trace,
) -> (Vec<PlacementRecord>, SimReport) {
    let mut placements = Vec::new();
    let mut observer = |r: PlacementRecord| placements.push(r);
    let report = simulate_observed(config, kind, trace, &mut observer);
    (placements, report)
}

/// FNV-1a digest of a placement sequence — the compact pin the X10
/// parity experiment writes to CSV so CI byte-compares runs without
/// shipping millions of records.
pub fn placement_checksum(placements: &[PlacementRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for p in placements {
        eat(p.seq);
        eat(u64::from(cast::index_u32(p.file.index())));
        eat(cast::len_u64(p.initial));
        eat(cast::len_u64(p.service));
        eat(u64::from(p.forwarded));
        eat(p.at.as_nanos());
    }
    h
}

/// Timed replay of a CLF stream: pulls requests from `stream` one line
/// at a time, waits on `clock` until each arrival's log timestamp is
/// due, and feeds them through a [`ReplayEngine`]. `on_snapshot` fires
/// every `cfg.snapshot_every_s` virtual seconds with the metrics so
/// far. Returns the final report once the stream ends.
///
/// Resident state is the stream's (O(distinct files)) plus the
/// engine's (O(nodes + in-flight)); the log itself is never held.
pub fn replay_stream<R: BufRead>(
    cfg: &ReplayConfig,
    stream: &mut ClfStream<R>,
    clock: &mut dyn Clock,
    mut on_snapshot: impl FnMut(&SimReport),
) -> io::Result<SimReport> {
    let mut engine = ReplayEngine::new(cfg.clone());
    let snap_ns = snapshot_period_ns(cfg.snapshot_every_s);
    // `None` once no snapshot is due: snapshots are off, or the next one
    // would fall past the end of the nanosecond time axis, which log
    // dates centuries apart reach.
    let mut next_snap_ns = Some(snap_ns).filter(|&ns| ns > 0);
    let mut hinted = 0usize;
    while let Some(rec) = stream.next_record()? {
        if cfg
            .max_requests
            .is_some_and(|cap| engine.injected() >= cast::len_u64(cap))
        {
            break;
        }
        // Re-hint the file population when it has doubled: size-aware
        // policies (SITA) rebuild their bands from the hint, so doubling
        // amortizes the rebuilds to O(F log F) over the whole run.
        if hinted == 0 || stream.distinct_files() >= hinted * 2 {
            engine.hint_sizes(stream.sizes_kb());
            hinted = stream.distinct_files();
        }
        let at = SimTime::from_secs_f64(rec.at_s);
        clock.wait_until_ns(at.as_nanos());
        while let Some(due) = next_snap_ns.filter(|&due| at.as_nanos() >= due) {
            engine.drain_due(SimTime::from_nanos(due));
            on_snapshot(&engine.report());
            next_snap_ns = due.checked_add(snap_ns);
        }
        engine.offer(at, cast::index_u32(rec.file.index()), rec.size_kb);
    }
    Ok(engine.finish())
}

/// Timed replay of an in-memory trace (synthetic traces carry no
/// timestamps, so arrivals are a deterministic Poisson process at
/// `rate_rps`, seeded with `seed`). Otherwise identical to
/// [`replay_stream`].
pub fn replay_trace_timed(
    cfg: &ReplayConfig,
    trace: &Trace,
    rate_rps: f64,
    seed: u64,
    clock: &mut dyn Clock,
    mut on_snapshot: impl FnMut(&SimReport),
) -> SimReport {
    let mut engine = ReplayEngine::new(cfg.clone());
    let sizes: Vec<f64> = (0..trace.files().len())
        .map(|i| {
            trace
                .files()
                .size_kb(l2s_trace::FileId::from_raw(cast::index_u32(i)))
        })
        .collect();
    engine.hint_sizes(&sizes);
    let snap_ns = snapshot_period_ns(cfg.snapshot_every_s);
    let mut next_snap_ns = snap_ns;
    let mut rng = DetRng::new(seed);
    let mut at_s = 0.0f64;
    let cap = cfg.max_requests.unwrap_or(usize::MAX);
    for &file in trace.requests().iter().take(cap) {
        at_s += rng.exponential(1.0 / rate_rps.max(f64::MIN_POSITIVE));
        let at = SimTime::from_secs_f64(at_s);
        clock.wait_until_ns(at.as_nanos());
        while snap_ns > 0 && at.as_nanos() >= next_snap_ns {
            engine.drain_due(SimTime::from_nanos(next_snap_ns));
            on_snapshot(&engine.report());
            next_snap_ns += snap_ns;
        }
        engine.offer(
            at,
            cast::index_u32(file.index()),
            trace.files().size_kb(file),
        );
    }
    engine.finish()
}

fn snapshot_period_ns(every_s: f64) -> u64 {
    if every_s > 0.0 {
        SimTime::from_secs_f64(every_s).as_nanos()
    } else {
        0
    }
}

/// Renders a report as one CSV table, using the same
/// [`CsvTable`](l2s_util::csv::CsvTable) writer as the experiment
/// binaries: identical quoting, float rendering (`{:.6}`, matching
/// `row_f64`), and `none` for an absent p99 — so downstream tooling
/// consumes replay output and experiment output interchangeably.
pub fn report_table(report: &SimReport) -> CsvTable {
    let mut table = CsvTable::new([
        "policy",
        "nodes",
        "completed",
        "failed",
        "throughput_rps",
        "miss_rate",
        "forwarded_fraction",
        "cpu_idle",
        "control_msgs_per_request",
        "mean_response_s",
        "p99_response_s",
    ]);
    table.row([
        report.policy.to_string(),
        report.nodes.to_string(),
        report.completed.to_string(),
        report.failed.to_string(),
        format!("{:.6}", report.throughput_rps),
        format!("{:.6}", report.miss_rate),
        format!("{:.6}", report.forwarded_fraction),
        format!("{:.6}", report.cpu_idle),
        format!("{:.6}", report.control_msgs_per_request),
        format!("{:.6}", report.mean_response_s),
        report
            .p99_response_s
            .map_or_else(|| "none".to_string(), |v| format!("{v:.6}")),
    ]);
    table
}

/// Writes [`report_table`] to `path`.
pub fn write_report_csv(report: &SimReport, path: &Path) -> io::Result<()> {
    report_table(report).write_to(path)
}

/// Collects a CLF stream into an in-memory [`Trace`] (for
/// infinite-speed replay of a finished log through the DES). The
/// request *sequence* is held in memory — this is the one deliberately
/// unbounded path, used only when the whole log is wanted at once.
pub fn stream_to_trace<R: BufRead>(name: &str, stream: &mut ClfStream<R>) -> io::Result<Trace> {
    let mut requests = Vec::new();
    while let Some(rec) = stream.next_record()? {
        requests.push(rec.file);
    }
    Ok(Trace::new(
        name,
        l2s_trace::FileSet::new(stream.sizes_kb().to_vec()),
        requests,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2s_sim::{simulate, VirtualClock};
    use l2s_trace::TraceSpec;

    fn quick_cfg(n: usize) -> SimConfig {
        SimConfig {
            warmup: false,
            ..SimConfig::quick(n, 1_000.0)
        }
    }

    #[test]
    fn fast_replay_matches_the_engine_byte_for_byte() {
        let trace = TraceSpec::calgary().scaled(120, 2_500).generate(7);
        for kind in [PolicyKind::L2s, PolicyKind::Jsq, PolicyKind::Lard] {
            let cfg = quick_cfg(4);
            let (a, ra) = replay_trace_fast(&cfg, kind, &trace);
            let (b, rb) = replay_trace_fast(&cfg, kind, &trace);
            assert_eq!(a, b, "{}: placements not deterministic", kind.name());
            assert_eq!(ra, rb);
            assert_eq!(placement_checksum(&a), placement_checksum(&b));
            // The observed run is the engine run: reports agree exactly.
            let plain = simulate(&cfg, kind, &trace);
            assert_eq!(ra, plain, "{}: observer perturbed the run", kind.name());
            assert_eq!(a.len() as u64, ra.completed + ra.failed);
        }
    }

    #[test]
    fn checksum_separates_distinct_sequences() {
        let trace = TraceSpec::calgary().scaled(80, 1_500).generate(3);
        let cfg = quick_cfg(4);
        let (a, _) = replay_trace_fast(&cfg, PolicyKind::L2s, &trace);
        let (b, _) = replay_trace_fast(&cfg, PolicyKind::Traditional, &trace);
        assert_ne!(placement_checksum(&a), placement_checksum(&b));
    }

    #[test]
    fn timed_stream_replay_completes_every_request() {
        let log: String = (0..200)
            .map(|i| {
                format!(
                    "h - - [01/Jan/2000:10:{:02}:{:02} +0000] \"GET /f{}.html HTTP/1.0\" 200 4096\n",
                    i / 60,
                    i % 60,
                    i % 16
                )
            })
            .collect();
        let cfg = ReplayConfig::new(PolicyKind::L2s, 4);
        let mut stream = ClfStream::new(log.as_bytes());
        let mut clock = VirtualClock::new();
        let mut snaps = 0;
        let report = replay_stream(&cfg, &mut stream, &mut clock, |_| snaps += 1).unwrap();
        assert_eq!(report.completed, 200);
        assert_eq!(report.failed, 0);
        assert!(report.throughput_rps > 0.0);
        assert!(snaps > 0, "snapshots should fire over a 200 s log");
        assert_eq!(report.policy, "l2s");
    }

    #[test]
    fn timed_trace_replay_is_deterministic() {
        let trace = TraceSpec::nasa().scaled(60, 800).generate(5);
        let cfg = ReplayConfig::new(PolicyKind::Jsq, 4);
        let run = || {
            let mut clock = VirtualClock::new();
            replay_trace_timed(&cfg, &trace, 400.0, 42, &mut clock, |_| {})
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.completed, 800);
    }

    #[test]
    fn csv_matches_experiment_writer_bytes() {
        let trace = TraceSpec::calgary().scaled(50, 500).generate(1);
        let cfg = quick_cfg(2);
        let (_, report) = replay_trace_fast(&cfg, PolicyKind::L2s, &trace);
        let csv = report_table(&report).to_csv_string();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "policy,nodes,completed,failed,throughput_rps,miss_rate,forwarded_fraction,\
             cpu_idle,control_msgs_per_request,mean_response_s,p99_response_s"
        );
        let row = lines.next().unwrap();
        assert!(row.starts_with("l2s,2,500,0,"));
        // Floats render exactly like CsvTable::row_f64 ({:.6}).
        assert_eq!(
            row.split(',').nth(4).unwrap(),
            format!("{:.6}", report.throughput_rps)
        );
    }

    #[test]
    fn stream_to_trace_round_trips_the_kept_requests() {
        let log = "h - - [01/Jan/2000:10:00:00 +0000] \"GET /a HTTP/1.0\" 200 1024\n\
                   h - - [01/Jan/2000:10:00:01 +0000] \"GET /b HTTP/1.0\" 200 2048\n\
                   h - - [01/Jan/2000:10:00:02 +0000] \"GET /a HTTP/1.0\" 200 1024\n";
        let mut stream = ClfStream::new(log.as_bytes());
        let trace = stream_to_trace("tail", &mut stream).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.files().len(), 2);
        assert_eq!(trace.requests(), &[0, 1, 0]);
    }
}
