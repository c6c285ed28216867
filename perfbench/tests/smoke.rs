//! The benchmark's own tests, on short inputs ([`Size::SMOKE`]).

use perfbench::{run, Basis, Size, Workload, END_TO_END, PER_LAYER};
use std::process::Command;

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        for traced in [false, true] {
            let o = run(workload, 7, 0.0, traced, &Size::SMOKE).expect("the run completes");
            let name = workload.name();
            assert!(o.correct(), "{name}: {:?}", o.check_failures);
            assert!(o.attempted > 0, "{name}: nothing attempted");
            assert_eq!(o.failed, 0, "{name}: error_rate must be 0");
            let json = o.json(traced);
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            let list: &[(&str, &str, Basis)] = if traced { &PER_LAYER } else { &END_TO_END };
            for (metric, unit, _) in list {
                let entry = format!("\"{metric}\": {{\"value\": ");
                let at = json
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{name}: {metric} missing from {json}"));
                let rest = &json[at + entry.len()..];
                let value: f64 = rest[..rest.find(',').expect("a unit follows")]
                    .parse()
                    .expect("the value is a number");
                assert!(value.is_finite(), "{name}: {metric} = {value}");
                assert!(
                    rest.contains(&format!("\"unit\": \"{unit}\"")),
                    "{name}: {metric} has no unit {unit}"
                );
            }
            if !traced {
                for (metric, _, _) in END_TO_END {
                    assert!(o.values[metric] > 0.0, "{name}: {metric} must never be 0");
                }
            } else if workload != Workload::ReplayClf {
                // Layer contributions plus the residual are the end-to-end
                // figure, from the printed metrics alone.
                let v = |m: &str| o.values[m];
                let sum = v("devs.fel_ns_per_op") * v("sim.events_per_req")
                    + v("devs.station_ns_per_op") * v("devs.station_ops_per_req")
                    + (v("core.place_ns") + v("core.complete_ns")) * v("core.decisions_per_req")
                    + v("cluster.cache_ns_per_access") * v("cluster.accesses_per_req")
                    + v("trace.next_file_ns") * v("trace.calls_per_req")
                    + v("workload.next_ns") * v("workload.calls_per_req")
                    + v("sim.residual_ns_per_req");
                let e2e = v("sim.ns_per_event") * v("sim.events_per_req");
                assert!(
                    (sum - e2e).abs() <= 1e-9 * e2e,
                    "{name}: layers + residual = {sum}, end to end = {e2e}"
                );
            }
        }
    }
}

#[test]
fn two_runs_give_identical_counters_and_digests() {
    for workload in Workload::ALL {
        let a = run(workload, 9, 0.0, true, &Size::SMOKE).expect("first run");
        let b = run(workload, 9, 0.0, true, &Size::SMOKE).expect("second run");
        assert_eq!(a.attempted, b.attempted);
        for (metric, _, basis) in PER_LAYER {
            if basis != Basis::Host {
                assert_eq!(
                    a.values.get(metric),
                    b.values.get(metric),
                    "{}: {metric} differs between runs of one seed",
                    workload.name()
                );
            }
        }
        let c = run(workload, 10, 0.0, true, &Size::SMOKE).expect("another seed");
        assert_ne!(
            a.values["sim.digest"],
            c.values["sim.digest"],
            "{}: the seed must reach the inputs",
            workload.name()
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_runs_print() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    for (metric, unit, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            spec.contains(&format!(
                "\"name\": \"{metric}\",\n      \"unit\": \"{unit}\""
            )),
            "BENCHMARK.json lacks {metric} in {unit}"
        );
    }
    let listed = spec.matches("\"better\"").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    // BENCHMARK.json lists the workloads steady enough for its bounds, a
    // subset of `Workload::ALL` (README, "Steadiness and bounds"); each
    // must be one the program runs.
    let list = &spec[spec.find("\"workloads\"").expect("a workloads list")..];
    let list = &list[..list.find(']').expect("the list ends")];
    let names: Vec<&str> = list
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("the name ends")])
        .collect();
    assert!(names.len() >= 2, "BENCHMARK.json lists {names:?}");
    for name in names {
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "paper_closed", "--trace", "2"],
        &["--seed", "1"],
        &["--workload"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("the binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
