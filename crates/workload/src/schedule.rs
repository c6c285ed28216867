//! Deterministic arrival-intensity schedules and their time inversion.

use l2s_util::invariant;
use std::hint::select_unpredictable;

const TAU: f64 = std::f64::consts::TAU;

/// One phase of a [`RateSchedule`]: a flat base rate, optionally
/// carrying a sinusoidal swing. The instantaneous intensity at local
/// time `u ∈ [0, duration_s)` is
///
/// ```text
/// λ(u) = base_rps · (1 + amplitude · sin(2π u / period_s))
/// ```
///
/// so `amplitude = 0` is a flat phase and `amplitude ∈ (0, 1)` keeps
/// the intensity strictly positive (the cumulative rate then has a
/// well-defined inverse everywhere).
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// Phase length in seconds.
    pub duration_s: f64,
    /// Base intensity in requests per second.
    pub base_rps: f64,
    /// Relative sinusoidal swing, in `[0, 1)`.
    pub amplitude: f64,
    /// Sinusoid period in seconds (ignored when `amplitude` is 0).
    pub period_s: f64,
}

impl Segment {
    /// A flat phase at `rps` for `duration_s` seconds.
    pub fn flat(duration_s: f64, rps: f64) -> Self {
        Segment {
            duration_s,
            base_rps: rps,
            amplitude: 0.0,
            period_s: 1.0,
        }
    }

    /// Intensity at local time `u` (no range check; callers clamp).
    fn rate_at(&self, u: f64) -> f64 {
        if self.amplitude == 0.0 {
            return self.base_rps;
        }
        self.base_rps * (1.0 + self.amplitude * (TAU * u / self.period_s).sin())
    }

    /// Cumulative mass `∫₀ᵘ λ` in requests, closed form.
    fn mass_to(&self, u: f64) -> f64 {
        if self.amplitude == 0.0 {
            return self.base_rps * u;
        }
        Sinusoid::new(self).mass(u)
    }

    /// Local time `u` with `mass_to(u) = m`, for `m` in
    /// `[0, mass_to(duration_s)]`. Flat phases invert in closed form.
    ///
    /// A sinusoidal phase returns, bit for bit, what a 64-step bisection
    /// of `mass_to` over `[0, duration_s]` returns: the loop below *is*
    /// that bisection, midpoint for midpoint. Arrival times and every
    /// figure downstream depend on those bits. It only skips work whose
    /// outcome is already known:
    ///
    /// * a midpoint outside the verified bracket `(a, b)` from
    ///   [`Sinusoid::bracket`] compares with the bracket, not with a
    ///   fresh `mass_to` (one `cos`), since the bracket proves the
    ///   comparison's result for every point on its far side;
    /// * a midpoint equal to an endpoint the loop has already moved
    ///   repeats a decision, so `(lo, hi)` can no longer change and the
    ///   remaining steps would only return the same value.
    ///
    /// With an unverified side the bracket is infinite there, and the
    /// same loop evaluates every midpoint.
    fn invert_mass(&self, m: f64) -> f64 {
        if self.amplitude == 0.0 {
            return (m / self.base_rps).clamp(0.0, self.duration_s);
        }
        let sine = Sinusoid::new(self);
        let d = self.duration_s;
        let (a, b) = sine.bracket(m, d);
        let (mut lo, mut hi) = (0.0_f64, d);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            // `mid > a && mid < b` would compile to a branch on `mid > a`,
            // which goes either way at random.
            let inside = (mid - a).min(b - mid) > 0.0;
            if !inside & (mid != lo) & (mid != hi) {
                // The bracket decides. Most of the 64 steps land here,
                // so the update is kept free of branches on the direction.
                let below = mid <= a;
                let (l, h, x) = (lo.to_bits(), hi.to_bits(), mid.to_bits());
                lo = f64::from_bits(select_unpredictable(below, x, l));
                hi = f64::from_bits(select_unpredictable(below, h, x));
                continue;
            }
            if (mid == lo && lo > 0.0) || (mid == hi && hi < d) {
                break;
            }
            let below = if inside { sine.mass(mid) < m } else { mid <= a };
            if below {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    fn validate(&self) -> Result<(), String> {
        if !(self.duration_s.is_finite() && self.duration_s > 0.0) {
            return Err("segment duration_s must be positive and finite".into());
        }
        if !(self.base_rps.is_finite() && self.base_rps > 0.0) {
            return Err("segment base_rps must be positive and finite".into());
        }
        if !(self.amplitude.is_finite() && (0.0..1.0).contains(&self.amplitude)) {
            return Err("segment amplitude must be in [0, 1)".into());
        }
        if self.amplitude > 0.0 && !(self.period_s.is_finite() && self.period_s > 0.0) {
            return Err("segment period_s must be positive when amplitude > 0".into());
        }
        Ok(())
    }
}

/// The closed-form mass of a sinusoidal [`Segment`] with ω and
/// `amplitude / ω` computed once. [`Segment::mass_to`] and the
/// inversion both evaluate it through [`mass`](Sinusoid::mass), so they
/// share every rounding step.
struct Sinusoid {
    base: f64,
    omega: f64,
    /// `amplitude / ω`, the height of the `1 − cos` term per unit rate.
    swing: f64,
}

impl Sinusoid {
    /// Most safeguarded Newton steps [`bracket`](Self::bracket) takes.
    /// Typical targets settle in three or four.
    const NEWTON_STEPS: usize = 16;

    fn new(seg: &Segment) -> Self {
        let omega = TAU / seg.period_s;
        Sinusoid {
            base: seg.base_rps,
            omega,
            swing: seg.amplitude / omega,
        }
    }

    fn mass(&self, u: f64) -> f64 {
        self.mass_with_cos(u, (self.omega * u).cos())
    }

    fn mass_with_cos(&self, u: f64, cos: f64) -> f64 {
        self.base * (u + self.swing * (1.0 - cos))
    }

    /// Rounding bound `E` on [`mass`](Self::mass) near a mass of `v`.
    ///
    /// Let `M` be the exact mass with the stored `base`, `omega` and
    /// `swing`. It is strictly increasing: `M' = base·(1 + swing·omega
    /// ·sin)` and `swing·omega` is `amplitude < 1` within one rounding.
    /// With `ε = 2⁻⁵³`, rounding `omega·u` moves the cosine by at most
    /// `ε·omega·u`, so the `swing` term by `ε·u`. The cosine itself is
    /// off by at most `k·ε` for a `k`-ulp libm. `1 − cos`, `swing·(…)`,
    /// `u + …` and `base·(…)` each round once. Summed, and since `u ≤
    /// M/base`:
    ///
    /// ```text
    /// |mass(u) − M(u)| ≤ ε·(3·M(u) + (3 + k)·base·swing) + O(ε²)
    /// ```
    ///
    /// The bound below is `ε·(4v + 8·base·swing)`: it covers `k ≤ 5`,
    /// the `O(ε²)` terms and its own rounding, plus a `MIN_POSITIVE`
    /// term for results in the subnormal range.
    fn rounding_bound(&self, v: f64) -> f64 {
        f64::EPSILON * (2.0 * v + 4.0 * self.base * self.swing)
            + f64::MIN_POSITIVE * (1.0 + self.base)
    }

    /// What a computed `mass` at some point `x` in `[0, d]` proves
    /// about target `m`: `Some(true)` if `mass(y) < m` at every `y ≤ x`
    /// in `[0, d]`, `Some(false)` if `mass(y) ≥ m` at every `y ≥ x`.
    ///
    /// Sound because `M` is increasing and the error bound grows with
    /// `M` only as `3ε·M`. Below `x`, `mass(y) ≤ M(x) + E` and
    /// `M(x) ≤ mass(x) + E < m − E`. Above `x`, the lower bound
    /// `(1 − 3ε)·M − 8ε·base·swing` on `mass` only grows, so `mass(y)`
    /// stays above `mass(x) − 2E > m`. Both differences are compared as
    /// rounded: rounding is monotone, so a rounded difference above
    /// `2E` means the exact one is too.
    fn settles(&self, mass: f64, m: f64) -> Option<bool> {
        let margin = 2.0 * self.rounding_bound(mass.max(m));
        if m - mass > margin {
            Some(true)
        } else if mass - m > margin {
            Some(false)
        } else {
            None
        }
    }

    /// A verified bracket `(a, b)` for the root of `mass(u) = m` on
    /// `[0, d]`: every `x ≤ a` has `mass(x) < m` and every `x ≥ b` has
    /// `mass(x) ≥ m`, each certified by [`settles`](Self::settles). A
    /// side that could not be certified is `−∞` or `+∞`.
    ///
    /// Safeguarded Newton from `m / base` finds the root: a step that
    /// leaves the interval known to hold the root bisects it instead
    /// (plain Newton diverges on amplitudes near 1). Once the predicted
    /// error of the next iterate is well under `E/slope`, two masses
    /// `3.25·E/slope` either side of it certify the bracket. A
    /// certificate needs the mass `3E` from `m` (the `2E` margin plus
    /// the mass's own error), so this leaves a quarter `E` to spare.
    /// Every Newton iterate that settles on its own narrows the bracket
    /// too.
    fn bracket(&self, m: f64, d: f64) -> (f64, f64) {
        let (mut a, mut b) = (f64::NEG_INFINITY, f64::INFINITY);
        let (mut lo, mut hi) = (0.0_f64, d);
        let tol = self.rounding_bound(m);
        let amplitude = self.swing * self.omega;
        let mut u = (m / self.base).clamp(0.0, d);
        for _ in 0..Self::NEWTON_STEPS {
            let arg = self.omega * u;
            let (sin, cos) = (arg.sin(), arg.cos());
            let mass = self.mass_with_cos(u, cos);
            match self.settles(mass, m) {
                Some(true) => a = a.max(u),
                Some(false) => b = b.min(u),
                None => {}
            }
            if mass < m {
                lo = u;
            } else {
                hi = u;
            }
            let slope = self.base * (1.0 + amplitude * sin);
            let step = (mass - m) / slope;
            // Newton's next error is about |M''/(2M')|·step².
            let err =
                (0.5 * self.omega * amplitude * cos).abs() * step * step / (1.0 + amplitude * sin);
            if err * slope <= 0.25 * tol {
                let root = (u - step).clamp(0.0, d);
                let reach = 3.25 * tol / slope + err;
                let below = (root - reach).max(0.0);
                if below > a && self.settles(self.mass(below), m) == Some(true) {
                    a = below;
                }
                let above = (root + reach).min(d);
                if above < b && self.settles(self.mass(above), m) == Some(false) {
                    b = above;
                }
                break;
            }
            let next = u - step;
            let next = if next > lo && next < hi {
                next
            } else {
                0.5 * (lo + hi)
            };
            if next == u {
                break;
            }
            u = next;
        }
        (a, b)
    }
}

/// A cyclic, deterministic intensity profile λ(t): a sequence of
/// [`Segment`]s that repeats forever (one cycle ≈ one "day").
///
/// The two derived quantities drive everything downstream:
///
/// * [`cumulative`](RateSchedule::cumulative) — Λ(t) = ∫₀ᵗ λ, the
///   expected request count by time `t`, with exact (closed-form)
///   phase boundaries: the value at a segment boundary is the exact
///   prefix sum of segment masses, so repeated cycles accumulate no
///   quadrature drift.
/// * [`invert`](RateSchedule::invert) — Λ⁻¹, mapping a cumulative
///   request count back to a time. Feeding it the running sum of unit
///   exponential draws yields arrival times of a non-homogeneous
///   Poisson process with intensity λ (the time-change construction).
///   The result is defined to the bit: closed form on flat phases, and
///   on sinusoidal ones exactly what a 64-step bisection of the
///   closed-form mass returns. That bisection runs from a certified
///   bracket around the root, so only the few midpoints inside it cost
///   a cosine.
#[derive(Clone, Debug, PartialEq)]
pub struct RateSchedule {
    segments: Vec<Segment>,
    /// `ends_s[i]` = end of segment `i` within the cycle, seconds.
    ends_s: Vec<f64>,
    /// `mass[i]` = Λ at `ends_s[i]` within the cycle, requests.
    mass: Vec<f64>,
    cycle_s: f64,
    cycle_mass: f64,
}

impl RateSchedule {
    /// Builds a schedule from its phases; rejects empty or degenerate
    /// ones.
    pub fn new(segments: Vec<Segment>) -> Result<Self, String> {
        if segments.is_empty() {
            return Err("rate schedule needs at least one segment".into());
        }
        let mut ends_s = Vec::with_capacity(segments.len());
        let mut mass = Vec::with_capacity(segments.len());
        let (mut t, mut m) = (0.0_f64, 0.0_f64);
        for seg in &segments {
            seg.validate()?;
            t += seg.duration_s;
            m += seg.mass_to(seg.duration_s);
            ends_s.push(t);
            mass.push(m);
        }
        if !(t.is_finite() && m.is_finite()) {
            return Err("rate schedule cycle overflows f64".into());
        }
        Ok(RateSchedule {
            segments,
            ends_s,
            mass,
            cycle_s: t,
            cycle_mass: m,
        })
    }

    /// A flat schedule at `rps` (cycle length 1 s; the cycle is
    /// irrelevant for a constant intensity).
    pub fn constant(rps: f64) -> Result<Self, String> {
        Self::new(vec![Segment::flat(1.0, rps)])
    }

    /// A pure sinusoidal day: λ(t) = `base_rps` (1 + `amplitude`
    /// sin(2πt/`period_s`)).
    pub fn diurnal(base_rps: f64, amplitude: f64, period_s: f64) -> Result<Self, String> {
        Self::new(vec![Segment {
            duration_s: period_s,
            base_rps,
            amplitude,
            period_s,
        }])
    }

    /// Flat phases from `(duration_s, rps)` pairs.
    pub fn piecewise(phases: &[(f64, f64)]) -> Result<Self, String> {
        Self::new(phases.iter().map(|&(d, r)| Segment::flat(d, r)).collect())
    }

    /// A stylized rush-hour/overnight day of length `day_s`: overnight
    /// at `low_rps`, shoulders at the midpoint rate, and a midday peak
    /// at `peak_rps`.
    pub fn rush_hour(day_s: f64, low_rps: f64, peak_rps: f64) -> Result<Self, String> {
        let mid = 0.5 * (low_rps + peak_rps);
        Self::piecewise(&[
            (0.35 * day_s, low_rps),
            (0.10 * day_s, mid),
            (0.20 * day_s, peak_rps),
            (0.10 * day_s, mid),
            (0.25 * day_s, low_rps),
        ])
    }

    /// The phases of one cycle.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Cycle length in seconds.
    pub fn cycle_s(&self) -> f64 {
        self.cycle_s
    }

    /// Expected requests per cycle (Λ over one cycle).
    pub fn cycle_mass(&self) -> f64 {
        self.cycle_mass
    }

    /// Cycle-average intensity in requests per second.
    pub fn mean_rps(&self) -> f64 {
        self.cycle_mass / self.cycle_s
    }

    /// Splits `t ≥ 0` into whole cycles and a position inside the
    /// cycle, returning `(cycles, segment index, local time in the
    /// segment, segment start, mass before the segment)`.
    fn locate(&self, t: f64) -> (f64, usize, f64, f64, f64) {
        invariant!(
            t.is_finite() && t >= 0.0,
            "schedule time must be finite and non-negative, got {t}"
        );
        let cycles = (t / self.cycle_s).floor();
        let local = (t - cycles * self.cycle_s).clamp(0.0, self.cycle_s);
        let i = self
            .ends_s
            .partition_point(|&e| e <= local)
            .min(self.segments.len() - 1);
        let start = if i == 0 { 0.0 } else { self.ends_s[i - 1] };
        let before = if i == 0 { 0.0 } else { self.mass[i - 1] };
        let u = (local - start).clamp(0.0, self.segments[i].duration_s);
        (cycles, i, u, start, before)
    }

    /// Instantaneous intensity λ(t) in requests per second.
    pub fn rate_at(&self, t: f64) -> f64 {
        let (_, i, u, _, _) = self.locate(t);
        self.segments[i].rate_at(u)
    }

    /// Cumulative rate Λ(t) = ∫₀ᵗ λ in requests. Strictly increasing
    /// (every segment keeps λ > 0), with exact values at phase
    /// boundaries.
    pub fn cumulative(&self, t: f64) -> f64 {
        let (cycles, i, u, _, before) = self.locate(t);
        cycles * self.cycle_mass + before + self.segments[i].mass_to(u)
    }

    /// Time inversion: the `t` with Λ(t) = `target` (requests), for
    /// `target ≥ 0`. Monotone in `target`, and bit-identical to a plain
    /// 64-step bisection on sinusoidal phases.
    pub fn invert(&self, target: f64) -> f64 {
        invariant!(
            target.is_finite() && target >= 0.0,
            "schedule inversion target must be finite and non-negative, got {target}"
        );
        let cycles = (target / self.cycle_mass).floor();
        let rem = (target - cycles * self.cycle_mass).clamp(0.0, self.cycle_mass);
        let i = self
            .mass
            .partition_point(|&m| m <= rem)
            .min(self.segments.len() - 1);
        let start = if i == 0 { 0.0 } else { self.ends_s[i - 1] };
        let before = if i == 0 { 0.0 } else { self.mass[i - 1] };
        let u = self.segments[i].invert_mass((rem - before).max(0.0));
        cycles * self.cycle_s + start + u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule_is_linear() {
        let s = RateSchedule::constant(250.0).unwrap();
        assert_eq!(s.rate_at(0.0), 250.0);
        assert_eq!(s.rate_at(17.3), 250.0);
        assert!((s.cumulative(4.0) - 1_000.0).abs() < 1e-9);
        assert!((s.invert(1_000.0) - 4.0).abs() < 1e-9);
        assert!((s.mean_rps() - 250.0).abs() < 1e-12);
    }

    #[test]
    fn diurnal_schedule_swings_about_the_base() {
        let s = RateSchedule::diurnal(100.0, 0.5, 400.0).unwrap();
        // Quarter cycle: sin = 1 -> peak; three quarters: sin = -1.
        assert!((s.rate_at(100.0) - 150.0).abs() < 1e-9);
        assert!((s.rate_at(300.0) - 50.0).abs() < 1e-9);
        // The sinusoid integrates to zero over a full cycle.
        assert!((s.cycle_mass() - 100.0 * 400.0).abs() < 1e-6);
        assert!((s.mean_rps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn piecewise_boundaries_are_exact_prefix_sums() {
        let s = RateSchedule::piecewise(&[(10.0, 50.0), (5.0, 400.0), (20.0, 10.0)]).unwrap();
        assert_eq!(s.cumulative(10.0), 500.0);
        assert_eq!(s.cumulative(15.0), 2_500.0);
        assert_eq!(s.cumulative(35.0), 2_700.0);
        // And across whole cycles, with no accumulated drift.
        let thousand_cycles = 1_000.0 * s.cycle_s();
        assert_eq!(
            s.cumulative(thousand_cycles + 15.0),
            1_000.0 * s.cycle_mass() + 2_500.0
        );
    }

    #[test]
    fn inversion_round_trips_and_is_monotone() {
        let s = RateSchedule::rush_hour(1_000.0, 40.0, 900.0).unwrap();
        let mut prev = -1.0;
        for k in 0..200 {
            let target = 37.0 * f64::from(k);
            let t = s.invert(target);
            assert!(t >= prev, "inversion not monotone at {target}");
            prev = t;
            assert!(
                (s.cumulative(t) - target).abs() < 1e-6 * target.max(1.0),
                "round trip failed at {target}: t={t}"
            );
        }
    }

    #[test]
    fn sinusoidal_inversion_round_trips() {
        let s = RateSchedule::diurnal(200.0, 0.9, 600.0).unwrap();
        for k in 1..50 {
            let target = 977.0 * f64::from(k);
            let t = s.invert(target);
            assert!(
                (s.cumulative(t) - target).abs() < 1e-6 * target,
                "round trip failed at {target}"
            );
        }
    }

    /// The bracket's claim, checked where it could fail: at the 64
    /// doubles beyond each edge, where rounding noise in `mass` lives,
    /// on steep, noisy segments and on targets that are computed masses.
    /// (Certifying the bracket right at the root, with no rounding
    /// margin, fails here about once per 600 brackets.)
    #[test]
    fn bracket_edges_hold_at_the_rounding_scale() {
        let mut rng = l2s_util::DetRng::new(0x0b5e_c7ed);
        for _ in 0..1_000 {
            let duration_s = rng.range_f64(0.5, 5_000.0);
            let seg = Segment {
                duration_s,
                base_rps: 10f64.powf(rng.range_f64(-0.7, 6.0)),
                amplitude: rng.range_f64(0.3, 0.99),
                period_s: duration_s * 10f64.powf(rng.range_f64(-2.0, 2.0)),
            };
            let sine = Sinusoid::new(&seg);
            for _ in 0..8 {
                let m = sine.mass(rng.range_f64(0.0, duration_s));
                let (a, b) = sine.bracket(m, duration_s);
                assert!(a < b, "{seg:?}: bracket ({a}, {b}) for m={m} is empty");
                let mut x = a;
                for _ in 0..64 {
                    if x < 0.0 {
                        break;
                    }
                    assert!(sine.mass(x) < m, "{seg:?}: mass({x}) ≥ {m} below a={a}");
                    x = x.next_down();
                }
                let mut x = b;
                for _ in 0..64 {
                    if x > duration_s {
                        break;
                    }
                    assert!(sine.mass(x) >= m, "{seg:?}: mass({x}) < {m} above b={b}");
                    x = x.next_up();
                }
            }
        }
    }

    #[test]
    fn degenerate_schedules_are_rejected() {
        assert!(RateSchedule::new(vec![]).is_err());
        assert!(RateSchedule::constant(0.0).is_err());
        assert!(RateSchedule::constant(f64::NAN).is_err());
        assert!(
            RateSchedule::diurnal(100.0, 1.0, 60.0).is_err(),
            "amplitude 1 stalls λ"
        );
        assert!(RateSchedule::diurnal(100.0, -0.1, 60.0).is_err());
        assert!(RateSchedule::piecewise(&[(0.0, 10.0)]).is_err());
        assert!(RateSchedule::diurnal(100.0, 0.5, 0.0).is_err());
    }
}
