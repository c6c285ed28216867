//! Exact nearest-rank 99th percentile of a growing sample, kept
//! incrementally.
//!
//! Samples are stored as `f64::to_bits`. Response times are finite and
//! non-negative (never `-0.0`), and on that domain the unsigned bit
//! order is `f64::total_cmp` order, so two integer heaps split the
//! sample at the nearest rank without any float comparison.
//!
//! The oracle tests live in `tests/p99_oracle.rs`, which compiles this
//! file directly because the type is private to the crate.

use l2s_util::cast;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The samples offered so far, split at the nearest rank
/// `ceil(0.99 n)` (clamped to `1..=n`) of the `n` samples.
#[derive(Debug, Default)]
pub(crate) struct P99Tracker {
    /// The `rank - 1` smallest samples (max-heap).
    low: BinaryHeap<u64>,
    /// The `n - rank + 1` largest samples (min-heap); its minimum is the
    /// percentile.
    high: BinaryHeap<Reverse<u64>>,
}

impl P99Tracker {
    /// Adds one sample in O(log n).
    pub(crate) fn offer(&mut self, sample: f64) {
        l2s_util::invariant!(
            sample.is_finite() && sample.is_sign_positive(),
            "p99 sample {sample} is not finite and non-negative"
        );
        let bits = sample.to_bits();
        match self.high.peek() {
            Some(&Reverse(min_high)) if bits < min_high => self.low.push(bits),
            _ => self.high.push(Reverse(bits)),
        }
        let n = self.low.len() + self.high.len();
        let below_rank = cast::floor_index((cast::len_f64(n) * 0.99).ceil()).clamp(1, n) - 1;
        // The rank never falls and grows by at most one per sample, so
        // one move across the split restores it.
        if self.low.len() > below_rank {
            self.high.extend(self.low.pop().map(Reverse));
        } else if self.low.len() < below_rank {
            self.low.extend(self.high.pop().map(|Reverse(bits)| bits));
        }
        l2s_util::invariant!(
            self.low.len() == below_rank,
            "p99 split holds {} below rank, expected {below_rank}",
            self.low.len()
        );
    }

    /// The nearest-rank 99th percentile, bit-identical to sorting every
    /// sample with `f64::total_cmp` and indexing the rank; `None` before
    /// the first sample. O(1).
    pub(crate) fn p99(&self) -> Option<f64> {
        self.high.peek().map(|&Reverse(bits)| f64::from_bits(bits))
    }
}
