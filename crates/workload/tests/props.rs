//! Property-based tests of the rate-schedule machinery: phase
//! boundaries stay exact across arbitrary cycle counts, the time
//! inversion is monotone, round-trips, and returns the plain bisection's
//! bits, and the arrival process the modulator generates delivers the
//! rate integral's request count.

use l2s_workload::{Modulator, RateSchedule, Segment, WorkloadMod};
use proptest::prelude::*;

/// Arbitrary valid phase: flat or sinusoidal, always with λ > 0.
fn arb_segment() -> impl Strategy<Value = Segment> {
    (0.5f64..200.0, 0.2f64..50.0, 0.0f64..0.9, 1.0f64..300.0).prop_map(
        |(duration_s, base_rps, amplitude, period_s)| Segment {
            duration_s,
            base_rps,
            amplitude,
            period_s,
        },
    )
}

/// Arbitrary valid schedule of 1..5 phases.
fn arb_schedule() -> impl Strategy<Value = RateSchedule> {
    prop::collection::vec(arb_segment(), 1..5)
        .prop_map(|segs| RateSchedule::new(segs).expect("generated segments are valid"))
}

/// Arbitrary valid phase for the bisection oracle: amplitude up to
/// 0.99, base rate log-uniform over 0.2..10⁶ req/s, period from a
/// hundredth of the phase to a hundred times it, and one in four flat.
fn arb_oracle_segment() -> impl Strategy<Value = Segment> {
    (
        0.5f64..5_000.0,
        (0.2f64).log10()..6.0,
        0.0f64..0.99,
        -2.0f64..2.0,
        0u8..4,
    )
        .prop_map(
            |(duration_s, log_rps, amplitude, log_ratio, kind)| Segment {
                duration_s,
                base_rps: 10f64.powf(log_rps),
                amplitude: if kind == 0 { 0.0 } else { amplitude },
                period_s: duration_s * 10f64.powf(log_ratio),
            },
        )
}

/// The segment mass written out as one expression, the way the plain
/// bisection evaluates it: the oracle for bit identity.
fn reference_mass(seg: &Segment, u: f64) -> f64 {
    if seg.amplitude == 0.0 {
        return seg.base_rps * u;
    }
    let omega = std::f64::consts::TAU / seg.period_s;
    seg.base_rps * (u + seg.amplitude / omega * (1.0 - (omega * u).cos()))
}

/// The full fixed 64-step bisection, one `cos` per step.
fn reference_invert_mass(seg: &Segment, m: f64) -> f64 {
    if seg.amplitude == 0.0 {
        return (m / seg.base_rps).clamp(0.0, seg.duration_s);
    }
    let (mut lo, mut hi) = (0.0_f64, seg.duration_s);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if reference_mass(seg, mid) < m {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Phase-end times and masses within the cycle, summed in the order
/// `RateSchedule::new` sums them.
fn reference_prefixes(schedule: &RateSchedule) -> (Vec<f64>, Vec<f64>) {
    let (mut t, mut m) = (0.0_f64, 0.0_f64);
    schedule
        .segments()
        .iter()
        .map(|seg| {
            t += seg.duration_s;
            m += reference_mass(seg, seg.duration_s);
            (t, m)
        })
        .unzip()
}

/// `RateSchedule::invert` over the reference segment inversion.
fn reference_invert(schedule: &RateSchedule, target: f64) -> f64 {
    let (ends_s, mass) = reference_prefixes(schedule);
    let segments = schedule.segments();
    let cycles = (target / schedule.cycle_mass()).floor();
    let rem = (target - cycles * schedule.cycle_mass()).clamp(0.0, schedule.cycle_mass());
    let i = mass.partition_point(|&m| m <= rem).min(segments.len() - 1);
    let start = if i == 0 { 0.0 } else { ends_s[i - 1] };
    let before = if i == 0 { 0.0 } else { mass[i - 1] };
    let u = reference_invert_mass(&segments[i], (rem - before).max(0.0));
    cycles * schedule.cycle_s() + start + u
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Λ⁻¹ returns exactly the bits of the plain 64-step bisection, on
    /// random targets across several cycles and on the edges where the
    /// segment lookup and the bisection's clamps switch (zero, every
    /// phase-boundary mass, whole cycles, and the doubles either side of
    /// each), and on masses computed at and next to random points.
    #[test]
    fn inversion_is_bit_identical_to_the_plain_bisection(
        segments in prop::collection::vec(arb_oracle_segment(), 1..5),
        fractions in prop::collection::vec(0.0f64..1.0, 24..25),
        cycles in 0u32..1_000,
    ) {
        let schedule = RateSchedule::new(segments).expect("generated segments are valid");
        let cycle_mass = schedule.cycle_mass();
        let k = f64::from(cycles);
        let (_, boundaries) = reference_prefixes(&schedule);
        let mut targets = vec![0.0, f64::MIN_POSITIVE, k * cycle_mass, (k + 1.0) * cycle_mass];
        for &boundary in &boundaries {
            targets.push(boundary);
            targets.push(k * cycle_mass + boundary);
        }
        let edges: Vec<f64> = targets.iter().flat_map(|&t| [t.next_down(), t.next_up()]).collect();
        targets.extend(edges.into_iter().filter(|&t| t >= 0.0));
        targets.extend(fractions.iter().map(|f| f * cycle_mass));
        targets.extend(fractions.iter().map(|f| (k + f) * cycle_mass));
        // Masses the bisection itself computes: there, rounding noise
        // decides comparisons, so a bracket proving too much shows.
        let first = &schedule.segments()[0];
        for f in &fractions {
            let u = f * first.duration_s;
            for x in [u.next_down(), u, u.next_up()] {
                targets.push(reference_mass(first, x.max(0.0)));
            }
        }
        for target in targets {
            let got = schedule.invert(target);
            let want = reference_invert(&schedule, target);
            prop_assert!(
                got.to_bits() == want.to_bits(),
                "Λ⁻¹({target}) = {got}, the plain bisection gives {want}"
            );
        }
    }
}

proptest! {
    /// Λ at any phase boundary of any cycle is the exact prefix sum of
    /// closed-form segment masses — no quadrature drift accumulates,
    /// however many cycles out the boundary sits.
    #[test]
    fn phase_boundaries_are_exact_for_any_cycle_count(
        schedule in arb_schedule(),
        cycles in 0u32..2_000,
    ) {
        let k = f64::from(cycles);
        let mut boundary_mass = 0.0;
        let mut boundary_t = 0.0;
        for seg in schedule.segments() {
            boundary_t += seg.duration_s;
            // One segment's closed-form mass over its full duration.
            let seg_mass = schedule.cumulative(boundary_t) - boundary_mass;
            boundary_mass += seg_mass;
            let t = k * schedule.cycle_s() + boundary_t;
            let want = k * schedule.cycle_mass() + boundary_mass;
            let got = schedule.cumulative(t);
            // The only rounding allowed is the final f64 combination of
            // exact per-cycle and per-segment sums.
            prop_assert!(
                (got - want).abs() <= 1e-9 * want.max(1.0),
                "boundary at t={t}: Λ={got}, exact prefix sum {want}"
            );
        }
        // A full cycle's mass is exactly cycle_mass, every cycle.
        let got = schedule.cumulative((k + 1.0) * schedule.cycle_s());
        let want = (k + 1.0) * schedule.cycle_mass();
        prop_assert!((got - want).abs() <= 1e-9 * want.max(1.0));
    }

    /// Λ⁻¹ is monotone and round-trips through Λ across several cycles.
    #[test]
    fn inversion_is_monotone_and_round_trips(
        schedule in arb_schedule(),
        fractions in prop::collection::vec(0.0f64..8.0, 1..40),
    ) {
        let mut targets: Vec<f64> = fractions
            .iter()
            .map(|f| f * schedule.cycle_mass())
            .collect();
        targets.sort_by(f64::total_cmp);
        let mut prev_t = -1.0;
        for &target in &targets {
            let t = schedule.invert(target);
            prop_assert!(t >= prev_t, "inversion not monotone at Λ={target}");
            prev_t = t;
            let back = schedule.cumulative(t);
            prop_assert!(
                (back - target).abs() <= 1e-6 * target.max(1.0),
                "round trip Λ(Λ⁻¹({target})) = {back}"
            );
        }
    }

    /// The modulator's inverted arrival process is strictly usable as a
    /// simulation clock: non-decreasing times, and the request count
    /// delivered by any horizon matches the rate integral Λ(horizon)
    /// within Poisson noise (±6σ plus a small absolute slack).
    #[test]
    fn arrival_counts_match_the_rate_integral(
        schedule in arb_schedule(),
        seed in any::<u64>(),
        horizon_cycles in 1.0f64..6.0,
    ) {
        let horizon_s = horizon_cycles * schedule.cycle_s();
        let expected = schedule.cumulative(horizon_s);
        // Keep the draw count bounded so the test stays fast; the
        // tolerance below is scale-aware either way.
        prop_assume!(expected <= 200_000.0);
        let spec = WorkloadMod {
            rate: Some(schedule),
            ..WorkloadMod::none()
        };
        let mut modulator = Modulator::new(spec, 100, seed);
        let mut count: u64 = 0;
        let mut last = 0.0;
        loop {
            let t = modulator.next_time();
            prop_assert!(t >= last, "arrival clock went backwards: {t} < {last}");
            last = t;
            if t > horizon_s {
                break;
            }
            count += 1;
        }
        let sigma = expected.sqrt();
        let tolerance = 6.0 * sigma + 10.0;
        prop_assert!(
            (l2s_util::cast::exact_f64(count) - expected).abs() <= tolerance,
            "saw {count} arrivals by t={horizon_s}, expected Λ={expected} ± {tolerance}"
        );
    }
}
