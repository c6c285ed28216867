//! Oracle tests for the replay engine's incremental p99 tracker.
//!
//! The tracker is private to the crate, so this file compiles its
//! source directly. After every single offer the tracker must return
//! the same `f64` bits as sorting every sample so far with
//! `f64::total_cmp` and indexing the nearest rank, which is what the
//! replay reports' `p99_response_s` is defined as.

#[path = "../src/p99.rs"]
mod p99;

use l2s_util::{cast, DetRng};
use p99::P99Tracker;
use proptest::prelude::*;

/// The sort-and-index reference. Each offer appends to an already
/// sorted vector, so the stable sort runs in linear time.
#[derive(Default)]
struct SortAndIndex(Vec<f64>);

impl SortAndIndex {
    fn offer(&mut self, sample: f64) {
        self.0.push(sample);
        self.0.sort_by(f64::total_cmp);
    }

    fn p99(&self) -> Option<f64> {
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        let rank = cast::floor_index((cast::len_f64(n) * 0.99).ceil()).clamp(1, n);
        Some(self.0[rank - 1])
    }
}

/// Offers `samples` to a fresh tracker and the reference and returns the
/// first prefix length at which they disagree, with both answers.
fn first_mismatch(samples: &[f64]) -> Option<(usize, Option<u64>, Option<u64>)> {
    let mut tracker = P99Tracker::default();
    let mut reference = SortAndIndex::default();
    for (i, &s) in samples.iter().enumerate() {
        tracker.offer(s);
        reference.offer(s);
        let (got, want) = (
            tracker.p99().map(f64::to_bits),
            reference.p99().map(f64::to_bits),
        );
        if got != want {
            return Some((i + 1, got, want));
        }
    }
    None
}

#[test]
fn tracker_matches_sort_and_index_after_every_offer() {
    assert_eq!(P99Tracker::default().p99(), None);
    let mut one = P99Tracker::default();
    one.offer(0.5);
    assert_eq!(one.p99(), Some(0.5));
    let mut hundred = P99Tracker::default();
    for v in 1..=100 {
        hundred.offer(f64::from(v));
    }
    assert_eq!(hundred.p99(), Some(99.0));

    // 3000 offers cross every rank step (n = 100, 101, 200, ...).
    let n = 3_000u32;
    let mut rng = DetRng::new(7);
    let ramp = |i: u32| f64::from(i) * 1e-3;
    let sparse_tail = |i: u32| if i.is_multiple_of(50) { 2.5 } else { 0.0 };
    let cases: [(&str, Vec<f64>); 6] = [
        ("increasing", (0..n).map(ramp).collect()),
        ("decreasing", (0..n).rev().map(ramp).collect()),
        ("all zero", vec![0.0; 3_000]),
        ("three values", (0..n).map(|i| f64::from(i % 3)).collect()),
        ("zeros then a tail", (0..n).map(sparse_tail).collect()),
        ("random", (0..n).map(|_| rng.exponential(0.05)).collect()),
    ];
    for (name, samples) in &cases {
        assert_eq!(first_mismatch(samples), None, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tracker_matches_sort_and_index_on_any_sequence(
        raw in prop::collection::vec(0u32..1_000_000, 1..3_000),
        distinct_log2 in 0u32..20,
        order in 0u8..3,
    ) {
        // Few distinct values give heavy ties; 0 is always reachable.
        let distinct = 1u32 << distinct_log2;
        let mut samples: Vec<f64> = raw.iter().map(|&r| f64::from(r % distinct) * 1e-4).collect();
        match order {
            0 => {}
            1 => samples.sort_by(f64::total_cmp),
            _ => samples.sort_by(|a, b| b.total_cmp(a)),
        }
        prop_assert_eq!(first_mismatch(&samples), None);
    }
}
