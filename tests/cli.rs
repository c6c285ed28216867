//! End-to-end tests of the `clusterlab` and `l2s-replay` CLI binaries.

use std::process::Command;

fn clusterlab(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_clusterlab"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn model_subcommand_reports_bound_and_bottleneck() {
    let out = clusterlab(&["model", "--nodes", "16", "--hit", "0.8", "--size", "4"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("throughput bound"), "{text}");
    assert!(text.contains("bottleneck"), "{text}");
    assert!(text.contains("LocalityConscious"), "{text}");
}

#[test]
fn model_oblivious_kind_selectable() {
    let out = clusterlab(&["model", "--kind", "lo", "--hit", "0.5"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("LocalityOblivious"), "{text}");
    assert!(text.contains("forwarded (Q)    : 0.000"), "{text}");
}

#[test]
fn trace_subcommand_prints_statistics() {
    let out = clusterlab(&[
        "trace",
        "--trace",
        "rutgers",
        "--files",
        "500",
        "--requests",
        "5000",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("files           : 500"), "{text}");
    assert!(text.contains("requests        : 5000"), "{text}");
    assert!(text.contains("zipf alpha"), "{text}");
}

#[test]
fn simulate_subcommand_runs_a_small_cluster() {
    let out = clusterlab(&[
        "simulate",
        "--trace",
        "calgary",
        "--nodes",
        "4",
        "--policy",
        "l2s",
        "--files",
        "400",
        "--requests",
        "5000",
        "--cache-mb",
        "4",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("completed         : 5000"), "{text}");
    assert!(text.contains("throughput"), "{text}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = clusterlab(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown subcommand"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn unknown_policy_is_a_clean_error() {
    let out = clusterlab(&["simulate", "--policy", "quantum"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown policy"), "{err}");
}

#[test]
fn bare_option_names_the_offending_flag() {
    // Regression: a trailing `--nodes` with no value used to be stored
    // as the empty string and reported as `invalid value ""`.
    let out = clusterlab(&["model", "--nodes"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("missing value for --nodes"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn help_prints_usage() {
    let out = clusterlab(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"), "{text}");
    assert!(text.contains("clusterlab simulate"), "{text}");
}

/// A CLF log of `lines` requests, `per_second` to a log second, over a
/// few files of different sizes so the caches miss and queues build.
fn clf_log(lines: u32, per_second: u32) -> String {
    (0..lines)
        .map(|i| {
            let s = i / per_second;
            format!(
                "c{} - - [01/Jan/2000:10:{:02}:{:02} +0000] \"GET /f{}.html HTTP/1.0\" 200 {}\n",
                i % 13,
                s / 60,
                s % 60,
                i * 7 % 23,
                1024 * (1 + i * 7 % 23 * 40)
            )
        })
        .collect()
}

#[test]
fn replay_log_as_fast_as_possible_snapshots_and_writes_csv() {
    use l2s::PolicyKind;
    use l2s_replay::{replay_stream, ReplayConfig};
    use l2s_sim::VirtualClock;
    use l2s_trace::ClfStream;

    let dir = std::env::temp_dir().join(format!("l2s-replay-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (log_path, csv_path) = (dir.join("access.log"), dir.join("report.csv"));
    // 300 lines at 30 a second span log seconds 0..=9.
    let log = clf_log(300, 30);
    std::fs::write(&log_path, &log).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_l2s-replay"))
        .args(["--log", log_path.to_str().unwrap()])
        .args(["--policy", "lard", "--nodes", "4", "--cache-mb", "1"])
        .args(["--as-fast-as-possible", "--snapshot-secs", "1"])
        .args(["--csv", csv_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();

    // The same replay in process, on the CLI's configuration.
    let mut cfg = ReplayConfig::new(PolicyKind::Lard, 4);
    cfg.cache_kb = 1024.0;
    cfg.snapshot_every_s = 1.0;
    let mut stream = ClfStream::new(log.as_bytes());
    let mut snapshots = 0;
    let report = replay_stream(&cfg, &mut stream, &mut VirtualClock::new(), |_| {
        snapshots += 1
    })
    .unwrap();
    assert_eq!(snapshots, 9, "one snapshot per second boundary crossed");

    let snapshot_lines = text.lines().filter(|l| l.starts_with("[t=")).count();
    assert_eq!(snapshot_lines, snapshots, "{text}");
    assert!(
        text.contains("log lines         : 300 read, 300 kept, 0 dropped\n"),
        "{text}"
    );
    let p99 = report.p99_response_s.expect("samples are on by default");
    assert!(
        text.contains(&format!("p99 response      : {:.2} ms", p99 * 1e3)),
        "{text}"
    );

    let csv = std::fs::read_to_string(&csv_path).unwrap();
    let mut rows = csv.lines();
    let header: Vec<&str> = rows.next().unwrap().split(',').collect();
    let row: Vec<&str> = rows.next().unwrap().split(',').collect();
    let col = header.iter().position(|&h| h == "p99_response_s").unwrap();
    assert_eq!(row[col], format!("{p99:.6}"));
    std::fs::remove_dir_all(&dir).ok();
}

fn replay(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_l2s-replay"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn replay_runtime_error_is_not_a_usage_error() {
    let dir = std::env::temp_dir();
    let out = replay(&["--log", dir.to_str().unwrap(), "--as-fast-as-possible"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.starts_with("error: "), "{err}");
    assert!(!err.contains("USAGE"), "{err}");
}

#[test]
fn replay_unknown_trace_is_a_usage_error() {
    let out = replay(&["--trace", "nope", "--as-fast-as-possible"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown trace \"nope\""), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}
