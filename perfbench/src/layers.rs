//! Layer replays: each operation stream captured from a real run is
//! driven against one layer alone, through that layer's public API.
//!
//! A single call into a layer takes tens of ns, about as long as reading
//! the clock, so every replay times batches of [`BATCH`] calls. Each
//! batch is a span named after the layer whose id is the first request
//! it covers; the replay itself is the batches' parent span.

use crate::Tracer;
use l2s::{Placement, PolicyDriver, PolicyKind};
use l2s_cluster::{CachePolicy, FileCache, NodeCosts};
use l2s_devs::{EventQueue, FifoResource, QueueStats};
use l2s_util::{DetRng, SimDuration, SimTime};
use std::collections::VecDeque;
use std::hint::black_box;
use std::ops::Range;

/// Calls per timed batch.
pub const BATCH: usize = 512;

/// One placed request: the stream the core, cluster and station replays
/// consume. Captured from the DES through its placement observer, or
/// from `ReplayEngine::offer` on the CLF path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Placed {
    /// Decision index (`PlacementRecord.seq`, or the offer index).
    pub seq: u64,
    /// Simulated decision time in ns.
    pub at_ns: u64,
    /// Service node.
    pub node: u32,
    /// Interned file id.
    pub file: u32,
    /// File size in KB.
    pub kb: f64,
}

/// Host time spent in a layer over a number of calls.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timed {
    /// Total host ns across every timed batch.
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
}

impl Timed {
    /// Mean host ns per call (0 when no call was made).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }

    /// Adds another measurement of the same layer.
    pub fn add(&mut self, other: Timed) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

/// Runs `body` over `0..calls` in batches of [`BATCH`], one span each
/// under `parent`; `id_of(i)` names the request at index `i`.
pub fn time_batches(
    tracer: &mut Tracer,
    name: &'static str,
    parent: usize,
    calls: usize,
    id_of: impl Fn(usize) -> u64,
    mut body: impl FnMut(Range<usize>),
) -> Timed {
    let mut ns = 0;
    let mut start = 0;
    while start < calls {
        let end = (start + BATCH).min(calls);
        let span = tracer.open(name, id_of(start), Some(parent));
        body(start..end);
        ns += tracer.close(span, (end - start) as u64);
        start = end;
    }
    Timed {
        ns,
        calls: calls as u64,
    }
}

/// `QueueStats` ratios that say what kind of traffic a queue saw.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueueShape {
    /// Ring entries shifted per scheduled event.
    pub shifts_per_event: f64,
    /// Share of scheduled events that went to the calendar.
    pub far_share: f64,
    /// Calendar sweeps per scheduled event.
    pub sweeps_per_event: f64,
}

impl QueueShape {
    /// The shape of `s`.
    pub fn of(s: &QueueStats) -> Self {
        let pushes = (s.near_pushes + s.far_pushes).max(1) as f64;
        QueueShape {
            shifts_per_event: s.ins_shifted as f64 / pushes,
            far_share: s.far_pushes as f64 / pushes,
            sweeps_per_event: s.sweeps as f64 / pushes,
        }
    }
}

/// Increments the hold model cycles through (drawn once, outside the
/// timed loop).
const HOLD_INCREMENTS: usize = 4096;

/// Candidate means of the hold model's short delays, in ns; the one
/// whose untimed trial run shifts the ring most like the DES is kept.
const NEAR_MEANS_NS: [f64; 11] = [
    250.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0, 100_000.0, 200_000.0,
    500_000.0,
];

/// Ops of each untimed calibration trial.
const TRIAL_OPS: usize = 20_000;

/// The traffic a hold model should reproduce: the DES run's peak queue
/// depth, mean simulated gap between events, and queue counters.
#[derive(Clone, Copy, Debug)]
pub struct HoldTarget {
    /// Pending events (the run's `peak_fel_depth`).
    pub depth: usize,
    /// Mean simulated ns between consecutive events.
    pub gap_ns: f64,
    /// The run's `fel_ops`.
    pub stats: QueueStats,
}

/// A hold-model queue: `depth` pending events, each op a `pop` of the
/// earliest followed by a `schedule` of a new event some delay later.
struct Hold {
    q: EventQueue<u32>,
    incs: Vec<SimDuration>,
    next: usize,
}

impl Hold {
    /// Delays are a two-class mixture: with the DES's near-lane share, a
    /// short exponential delay of mean `near_ns`; otherwise a long one
    /// whose mean keeps the overall mean at `depth × gap`, so the queue
    /// holds as many events per unit of simulated time as the run.
    fn new(t: &HoldTarget, near_ns: f64, seed: u64) -> Self {
        let depth = t.depth.max(1);
        let pushes = (t.stats.near_pushes + t.stats.far_pushes).max(1) as f64;
        let p_near = t.stats.near_pushes as f64 / pushes;
        let mean = (t.gap_ns * depth as f64).max(1.0);
        let far_ns = if p_near < 1.0 {
            ((mean - p_near * near_ns) / (1.0 - p_near)).max(near_ns)
        } else {
            near_ns
        };
        let mut rng = DetRng::new(seed);
        let incs: Vec<SimDuration> = (0..HOLD_INCREMENTS)
            .map(|_| {
                let m = if rng.f64_open() < p_near {
                    near_ns
                } else {
                    far_ns
                };
                SimDuration::from_nanos((rng.exponential(m) as u64).max(1))
            })
            .collect();
        let mut q = EventQueue::with_capacity(depth + 1);
        for i in 0..depth {
            q.schedule(SimTime::ZERO + incs[i % HOLD_INCREMENTS], i as u32);
        }
        Hold {
            q,
            incs,
            next: depth,
        }
    }

    #[inline]
    fn op(&mut self) {
        let (t, ev) = self
            .q
            .pop()
            .expect("the hold model keeps `depth` events pending");
        self.q
            .schedule(t + self.incs[self.next % HOLD_INCREMENTS], black_box(ev));
        self.next += 1;
    }

    /// Runs `ops` untimed ops and returns the shifts per event they made.
    fn trial_shifts(&mut self, ops: usize) -> f64 {
        let before = self.q.stats();
        for _ in 0..ops {
            self.op();
        }
        let after = self.q.stats();
        (after.ins_shifted - before.ins_shifted) as f64 / ops.max(1) as f64
    }
}

/// Hold-model replay of the event queue at the DES run's depth and
/// event density, with the short-delay mean calibrated (untimed) so the
/// ring shifts per event come as close as the candidates allow to the
/// run's. Returns the time per pop + schedule pair and the queue's own
/// counters for the timed ops, to print next to the run's.
pub fn fel_hold(
    tracer: &mut Tracer,
    parent: usize,
    target: &HoldTarget,
    ops: usize,
    seed: u64,
) -> (Timed, QueueStats) {
    let want = QueueShape::of(&target.stats).shifts_per_event;
    let near_ns = NEAR_MEANS_NS
        .iter()
        .map(|&m| {
            let mut h = Hold::new(target, m, seed);
            // Warm the queue past its fill before measuring shifts.
            h.trial_shifts(TRIAL_OPS);
            (m, (h.trial_shifts(TRIAL_OPS) - want).abs())
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map_or(NEAR_MEANS_NS[0], |(m, _)| m);
    let mut hold = Hold::new(target, near_ns, seed);
    hold.trial_shifts(TRIAL_OPS);
    let before = hold.q.stats();
    let timed = time_batches(
        tracer,
        "devs.fel",
        parent,
        ops,
        |i| i as u64,
        |range| {
            for _ in range {
                hold.op();
            }
        },
    );
    let after = hold.q.stats();
    let replayed = QueueStats {
        near_pushes: after.near_pushes - before.near_pushes,
        far_pushes: after.far_pushes - before.far_pushes,
        ins_shifted: after.ins_shifted - before.ins_shifted,
        sweep_sorted: after.sweep_sorted - before.sweep_sorted,
        sweeps: after.sweeps - before.sweeps,
        scanned: after.scanned - before.scanned,
        deferred: after.deferred - before.deferred,
        full_laps: after.full_laps - before.full_laps,
    };
    (timed, replayed)
}

/// What a cache replay did.
#[derive(Clone, Debug, Default)]
pub struct CacheReplay {
    /// Host time per access.
    pub timed: Timed,
    /// Accesses that hit.
    pub hits: u64,
    /// Files evicted by miss inserts.
    pub evictions: u64,
    /// Whether each access hit, in stream order (feeds the station
    /// replay, which reads the disk only on a miss).
    pub hit: Vec<bool>,
}

/// Replays the (service node, file) stream into per-node `FileCache`s
/// that start empty: a hit touches the entry, a miss inserts it, as the
/// nodes of the DES and the replay engine do.
pub fn cache_replay(
    tracer: &mut Tracer,
    parent: usize,
    stream: &[Placed],
    nodes: usize,
    cache_kb: f64,
) -> CacheReplay {
    let mut caches: Vec<FileCache> = (0..nodes)
        .map(|_| FileCache::new(CachePolicy::Lru, cache_kb))
        .collect();
    let mut hit = Vec::with_capacity(stream.len());
    let (mut hits, mut evictions) = (0u64, 0u64);
    let timed = time_batches(
        tracer,
        "cluster.cache",
        parent,
        stream.len(),
        |i| stream[i].seq,
        |range| {
            for p in &stream[range] {
                let cache = &mut caches[p.node as usize];
                let h = cache.touch(p.file);
                if h {
                    hits += 1;
                } else {
                    evictions += cache.insert(p.file, p.kb).len() as u64;
                }
                hit.push(h);
            }
        },
    );
    CacheReplay {
        timed,
        hits,
        evictions,
        hit,
    }
}

/// One node's stations, built as `NodeHardware` builds them.
struct Stations {
    cpu: FifoResource,
    disk: FifoResource,
    ni_in: FifoResource,
    ni_out: FifoResource,
}

/// Replays the stream through per-node FIFO stations with the Table 1
/// service times: NI in, CPU parse, disk on a miss, CPU reply, NI out —
/// the pipeline `ReplayEngine` runs per request. Returns the time per
/// `FifoResource::schedule`.
pub fn station_replay(
    tracer: &mut Tracer,
    parent: usize,
    stream: &[Placed],
    hit: &[bool],
    nodes: usize,
    ni_buffer: usize,
    costs: &NodeCosts,
) -> Timed {
    let mut stations: Vec<Stations> = (0..nodes)
        .map(|_| Stations {
            cpu: FifoResource::new(),
            disk: FifoResource::new(),
            ni_in: FifoResource::with_capacity(ni_buffer),
            ni_out: FifoResource::new(),
        })
        .collect();
    // Per-file service times, converted once outside the timed loop as
    // the engine's cost cache does.
    let files = stream
        .iter()
        .map(|p| p.file as usize + 1)
        .max()
        .unwrap_or(0);
    let mut per_file = vec![[SimDuration::ZERO; 3]; files];
    for p in stream {
        per_file[p.file as usize] = [
            costs.disk_read(p.kb),
            costs.mem_reply(p.kb),
            costs.ni_out(p.kb),
        ];
    }
    let (ni_in, parse) = (costs.ni_in(), costs.parse());
    let mut ops = 0u64;
    let mut timed = time_batches(
        tracer,
        "devs.station",
        parent,
        stream.len(),
        |i| stream[i].seq,
        |range| {
            for i in range {
                let p = &stream[i];
                let [disk, reply, out] = per_file[p.file as usize];
                let s = &mut stations[p.node as usize];
                let t = s.ni_in.schedule(SimTime::from_nanos(p.at_ns), ni_in);
                let t = s.cpu.schedule(t, parse);
                let t = if hit[i] { t } else { s.disk.schedule(t, disk) };
                let t = s.cpu.schedule(t, reply);
                black_box(s.ni_out.schedule(t, out));
                ops += if hit[i] { 4 } else { 5 };
            }
        },
    );
    timed.calls = ops;
    timed
}

/// What a policy replay did.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreReplay {
    /// Host time per `PolicyDriver::place`.
    pub place: Timed,
    /// Host time per `PolicyDriver::complete`.
    pub complete: Timed,
    /// Control messages the calls reported.
    pub control_msgs: u64,
    /// Placements handed off from the accepting node.
    pub forwarded: u64,
    /// Placements rejected (no live node).
    pub rejected: u64,
}

/// Drives a `PolicyDriver` over the stream's files in a closed loop with
/// `in_flight` requests outstanding: each batch first completes the
/// oldest requests that would overflow the window, then places the
/// batch, both at the stream's decision times. Requests complete in
/// placement order.
pub fn core_replay(
    tracer: &mut Tracer,
    parent: usize,
    kind: PolicyKind,
    nodes: usize,
    in_flight: usize,
    stream: &[Placed],
    sizes_kb: &[f64],
) -> CoreReplay {
    let mut driver = PolicyDriver::new(kind, nodes);
    driver.hint_files(sizes_kb.len());
    if kind == PolicyKind::Sita {
        driver.hint_file_sizes(sizes_kb);
    }
    let mut open: VecDeque<(usize, u32)> = VecDeque::with_capacity(in_flight + BATCH);
    let mut out = CoreReplay::default();
    // A batch no larger than the window, so the completions it needs
    // are always among the open requests.
    let batch = BATCH.min(in_flight.max(1));
    let mut start = 0;
    while start < stream.len() {
        let end = (start + batch).min(stream.len());
        let now = stream[start].at_ns;
        let due = (open.len() + end - start).saturating_sub(in_flight);
        if due > 0 {
            let span = tracer.open("core.complete", stream[start].seq, Some(parent));
            for (node, file) in open.drain(..due) {
                out.control_msgs += u64::from(driver.complete(now, node, file));
            }
            out.complete.ns += tracer.close(span, due as u64);
            out.complete.calls += due as u64;
        }
        let span = tracer.open("core.place", stream[start].seq, Some(parent));
        for p in &stream[start..end] {
            match driver.place(p.at_ns, p.file) {
                Placement::Serve {
                    node,
                    forwarded,
                    control_msgs,
                } => {
                    open.push_back((node, p.file));
                    out.forwarded += u64::from(forwarded);
                    out.control_msgs += u64::from(control_msgs);
                }
                Placement::Rejected => out.rejected += 1,
            }
        }
        out.place.ns += tracer.close(span, (end - start) as u64);
        out.place.calls += (end - start) as u64;
        // The message buffer is drained between batches, outside the
        // timed spans; its count repeats what the calls reported.
        driver.drain_messages();
        start = end;
    }
    out
}
