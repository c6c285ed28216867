//! Fuzzes the live-log path: arbitrary bytes and hostile Common Log
//! Format lines through `ClfStream` and `replay_stream`. Under
//! `cargo test` (a debug build) overflow checks and invariants are
//! armed, so any arithmetic the input can break panics here.

#[path = "../../trace/tests/clf_lines/mod.rs"]
mod clf_lines;

use clf_lines::CHOICES;
use l2s::PolicyKind;
use l2s_replay::{replay_stream, ReplayConfig};
use l2s_sim::VirtualClock;
use l2s_trace::ClfStream;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every line read is kept or dropped, every kept line is completed
    /// or failed, and nothing panics.
    #[test]
    fn hostile_logs_replay_without_panicking(
        pieces in prop::collection::vec(
            (
                any::<u8>(),
                prop::collection::vec(any::<u32>(), CHOICES..CHOICES + 1),
                prop::collection::vec(any::<u8>(), 0..600),
            ),
            0..60,
        ),
        policy in 0usize..64,
    ) {
        let log = clf_lines::log(&pieces);
        let all = PolicyKind::all();
        let mut cfg = ReplayConfig::new(all[policy % all.len()], 4);
        // Valid dates span years 0 to 9999, so one hostile line can put
        // centuries between two arrivals, and a snapshot fires for every
        // period crossed. A period of about three years bounds that to
        // a few hundred snapshots per case while still reaching the end
        // of the nanosecond time axis.
        cfg.snapshot_every_s = 1e8;
        let mut stream = ClfStream::new(&log[..]);
        let report = replay_stream(&cfg, &mut stream, &mut VirtualClock::new(), |_| {})
            .expect("reading an in-memory log cannot fail");
        let st = stream.stats();
        prop_assert_eq!(st.lines, st.kept + st.dropped);
        prop_assert_eq!(report.completed + report.failed, st.kept);
    }
}
