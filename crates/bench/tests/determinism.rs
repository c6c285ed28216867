//! Suite-level determinism: every experiment in
//! [`l2s_bench::experiments::ALL`] regenerated with 4 workers must write
//! byte-identical CSVs to the same experiment run sequentially. This is
//! the executor's contract ([`l2s_bench::RunCtx::run_cells`] collects
//! results by cell index, never by completion order) checked end to end
//! through trace generation, every sweep and cell matrix, and the CSV
//! writers. Enumerating `ALL` means a new experiment is covered without
//! editing this file.
//!
//! Some experiments are the hardest cases for the contract: `exp_faults`
//! derives each trace's crash schedule from a first stage's elapsed
//! times, `exp_hetero` and `exp_workload` drive the stateful
//! dispatchers (JIQ's idle stack, SITA's thresholds, JSQ's sampling
//! RNG) and the workload modulator, and `exp_replay` compares the
//! replay fast path against the engine inside each cell. [`check`]
//! keeps per-experiment content assertions on top of the byte compare.

use l2s_bench::experiments::ALL;
use l2s_bench::RunCtx;
use std::collections::BTreeMap;
use std::path::Path;

/// Every `.csv` file under `dir`, by file name.
fn csvs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).unwrap())
        })
        .collect()
}

/// Content assertions on top of the byte compare, per experiment: the
/// rows that must exist for its output to mean anything.
fn check(name: &str, out: &BTreeMap<String, Vec<u8>>) {
    let rows = |csv: &str| -> Vec<Vec<String>> {
        let text = String::from_utf8(out[csv].clone()).unwrap();
        let split = |l: &str| l.split(',').map(str::to_string).collect();
        text.lines().skip(1).map(split).collect()
    };
    // Some data row of `csv` holds each of `values` in `column`.
    let require = |csv: &str, column: usize, values: &str| {
        let rows = rows(csv);
        for value in values.split_whitespace() {
            let found = rows.iter().any(|r| r[column] == value);
            assert!(found, "{csv} should carry a {value} row: {rows:?}");
        }
    };
    match name {
        "exp_hetero" => require("exp_hetero.csv", 2, "jsq jiq sita model_bound"),
        "exp_faults" => {
            let retried = rows("exp_faults.csv")
                .iter()
                .map(|r| r[8].parse::<u64>().unwrap())
                .max();
            assert!(
                retried > Some(0),
                "the fault plan should strand (and retry) a request"
            );
        }
        "exp_replay" => {
            // Every trace × {l2s, lard, jsq}, each with a 16-hex-digit checksum.
            let rows = rows("exp_replay.csv");
            for trace in ["calgary", "clarknet", "nasa", "rutgers"] {
                for policy in ["l2s", "lard", "jsq"] {
                    let row = rows.iter().find(|r| r[0] == trace && r[1] == policy);
                    let checksum = row.map_or("", |r| r[4].as_str());
                    assert!(
                        checksum.len() == 16 && checksum.chars().all(|c| c.is_ascii_hexdigit()),
                        "{trace}/{policy}: missing row or malformed checksum: {rows:?}"
                    );
                }
            }
        }
        "exp_workload" => {
            require("exp_workload.csv", 0, "stationary drift flash");
            require(
                "exp_workload.csv",
                1,
                "traditional round-robin lard l2s jsq jiq sita",
            );
            assert!(
                rows("exp_workload_model.csv").len() >= 3,
                "3+ model scenarios"
            );
        }
        _ => {}
    }
}

#[test]
fn every_experiment_is_byte_identical_across_worker_counts() {
    let base = std::env::temp_dir().join(format!("l2s-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for &(name, run) in ALL {
        let out: Vec<BTreeMap<String, Vec<u8>>> = [1, 4]
            .into_iter()
            .map(|workers| {
                let ctx = RunCtx {
                    workers,
                    // Small cap so the whole suite runs in seconds; the cap
                    // is part of each cell's configuration, so it is
                    // identical across the two runs.
                    cap: Some(2000),
                    results_dir: base.join(name).join(format!("workers{workers}")),
                };
                std::fs::create_dir_all(&ctx.results_dir).unwrap();
                run(&ctx).unwrap_or_else(|e| panic!("{name} at {workers} worker(s): {e}"));
                csvs(&ctx.results_dir)
            })
            .collect();
        let (sequential, parallel) = (&out[0], &out[1]);
        assert!(!sequential.is_empty(), "{name} wrote no CSV");
        assert_eq!(
            sequential.keys().collect::<Vec<_>>(),
            parallel.keys().collect::<Vec<_>>(),
            "{name}: the two runs wrote different CSV files"
        );
        for (csv, bytes) in sequential {
            assert!(!bytes.is_empty(), "{name} wrote an empty {csv}");
            assert!(
                *bytes == parallel[csv],
                "{name}: 4-worker {csv} differs from the sequential run"
            );
        }
        check(name, sequential);
    }
    let _ = std::fs::remove_dir_all(&base);
}
